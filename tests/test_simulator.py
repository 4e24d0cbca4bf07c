import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuum_kernels.gains import GainTable, sample_gains
from continuum_kernels.params import (ContinuumParams, parse_problem_dict,
                                      sample_continuum)
from continuum_kernels.series import (Cos, Exp, Polynomial, SeparableSum,
                                      SeparableTerm, Var)
from continuum_kernels.simulate import (SimConfig, Simulator,
                                        run_closed_loop)


def transport_only(n=3):
    cfg = {"lambda": 1.0, "mu": 1.0, "sigma": 0.0, "theta": 0.0,
           "w": 0.0, "q": 0.0}
    return sample_continuum(parse_problem_dict(cfg).continuum, n)


def random_gains(rng, n, m):
    grid = np.linspace(0, 1, m)
    return GainTable(grid_xi=grid, grid_y=np.arange(1, n + 1) / n,
                     k=rng.normal(size=(n, m)), kbar=rng.normal(size=m),
                     sampled=True)


class TestInvariants:
    def test_zero_state_is_equilibrium(self):
        rng = np.random.default_rng(0)
        ls = transport_only()
        cfg = SimConfig(n=3, m_x=32, t_final=0.5, initial_profile="zero")
        rep = run_closed_loop(cfg, ls, random_gains(rng, 3, 32))
        assert rep.initial_norm == 0.0
        assert rep.final_norm == 0.0
        np.testing.assert_array_equal(rep.U, 0.0)

    def test_transport_empties_domain(self):
        ls = transport_only()
        cfg = SimConfig(n=3, m_x=64, t_final=2.5, control_mode="open_loop")
        rep = run_closed_loop(cfg, ls, None)
        assert not rep.diverged
        assert rep.final_norm < 1e-3 * rep.initial_norm
        assert rep.stable

    def test_sup_norm_nonincreasing_for_pure_transport(self):
        ls = transport_only()
        cfg = SimConfig(n=3, m_x=48, t_final=1.0, cfl=0.5,
                        control_mode="open_loop")
        sim = Simulator(cfg, ls, None)
        u, v = sim.initial_state()
        sup = max(np.abs(u).max(), np.abs(v).max())
        for _ in range(60):
            u, v = sim.step(u, v, sim.dt)
            new = max(np.abs(u).max(), np.abs(v).max())
            assert new <= sup + 1e-13
            sup = new

    def test_linearity_of_trajectory_and_control(self, example2):
        ls = example2.large_scale()
        kern_gains = sample_gains_for(ls)
        base = SimConfig(n=10, m_x=48, t_final=0.6, amplitude=1.0)
        scaled = SimConfig(n=10, m_x=48, t_final=0.6, amplitude=2.5)
        r1 = run_closed_loop(base, ls, kern_gains)
        r2 = run_closed_loop(scaled, ls, kern_gains)
        np.testing.assert_allclose(r2.U, 2.5 * r1.U, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(r2.norm, 2.5 * r1.norm, rtol=1e-10,
                                   atol=1e-13)

    def test_boundary_relations_hold_after_steps(self, example2):
        ls = example2.large_scale()
        sim = Simulator(SimConfig(n=10, m_x=32, t_final=1.0), ls,
                        sample_gains_for(ls, m=32))
        u, v = sim.initial_state()
        for _ in range(5):
            u, v = sim.step(u, v, sim.dt)
            np.testing.assert_array_equal(u[:, 0], sim.q * v[0])
            assert v[-1] == sim.control(u, v)


def sample_gains_for(ls, m=48):
    # cheap stabilizing-ish table from a low-order ensemble solve
    from continuum_kernels.power_series import SolverConfig, solve

    prob_gains = getattr(sample_gains_for, "_cache", {})
    key = (ls.n, m)
    if key not in prob_gains:
        from continuum_kernels.params import load_problem
        sol = solve(load_problem("example2").continuum, SolverConfig(N=8))
        prob_gains[key] = sample_gains(sol, ls.n,
                                       grid_xi=np.linspace(0, 1, m))
        sample_gains_for._cache = prob_gains
    return prob_gains[key]


class TestControl:
    def test_zero_state_zero_control(self, example2):
        ls = example2.large_scale()
        sim = Simulator(SimConfig(n=10, m_x=32, t_final=1.0), ls,
                        sample_gains_for(ls, m=32))
        u = np.zeros((10, 32))
        v = np.zeros(32)
        assert sim.control(u, v) == 0.0

    def test_zero_gains_zero_control(self, example2):
        ls = example2.large_scale()
        zero = GainTable(grid_xi=np.linspace(0, 1, 16),
                         grid_y=np.arange(1, 11) / 10,
                         k=np.zeros((10, 16)), kbar=np.zeros(16), sampled=True)
        sim = Simulator(SimConfig(n=10, m_x=32, t_final=0.2), ls, zero)
        u, v = sim.initial_state()
        assert sim.control(u, v) == 0.0

    def test_open_loop_instability_sets_in(self, example2):
        ls = example2.large_scale()
        cfg = SimConfig(n=10, m_x=64, t_final=1.5, control_mode="open_loop")
        rep = run_closed_loop(cfg, ls, None)
        assert rep.final_norm > rep.initial_norm

    def test_endpoint_equation_solved_exactly(self, example2):
        # v(1) = U must hold including the endpoint's own quadrature weight
        ls = example2.large_scale()
        sim = Simulator(SimConfig(n=10, m_x=40, t_final=0.1), ls,
                        sample_gains_for(ls, m=40))
        u, v = sim.initial_state()
        w = sim.weights
        manual = float((w * ((sim.kg * u).mean(axis=0) + sim.kbg * v)).sum())
        assert manual == pytest.approx(v[-1], rel=1e-12)


class TestConfigValidation:
    def test_bad_grid(self):
        with pytest.raises(ValueError):
            SimConfig(n=2, m_x=4, t_final=1.0)

    def test_bad_cfl(self):
        with pytest.raises(ValueError):
            SimConfig(n=2, m_x=32, t_final=1.0, cfl=1.5)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            SimConfig(n=2, m_x=32, t_final=1.0, initial_profile="sawtooth")

    def test_gain_table_required(self):
        ls = transport_only()
        with pytest.raises(ValueError, match="gain table"):
            Simulator(SimConfig(n=3, m_x=32, t_final=1.0), ls, None)

    def test_n_mismatch(self, example2):
        ls = example2.large_scale()
        with pytest.raises(ValueError, match="disagree"):
            Simulator(SimConfig(n=4, m_x=32, t_final=1.0,
                                control_mode="open_loop"), ls, None)


# -- factored sigma coupling against a dense table ----------------------------

_coef = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def sigma_factor(draw, var):
    kind = draw(st.sampled_from(("poly", "exp", "cos")))
    if kind == "poly":
        return Polynomial(var, draw(st.lists(_coef, min_size=1, max_size=4)))
    if kind == "exp":
        return Exp(var, draw(_coef))
    return Cos(var, 3.0 * draw(_coef), draw(_coef))


@st.composite
def separable_sigma(draw):
    """1-3 terms with factors spread over x, eta and y; a term may lack any
    of the three variables, or carry several factors in one."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        vs = draw(st.lists(st.sampled_from((Var.X, Var.ETA, Var.Y)),
                           max_size=4))
        terms.append(SeparableTerm(draw(_coef),
                                   [draw(sigma_factor(v)) for v in vs]))
    return SeparableSum(terms)


def dense_sigma(sigma, ys, xs):
    """sig[i, j] = sigma(x, eta=y_i, y=y_j) on xs, entry by entry."""
    return np.array([[sigma.substitute(Var.ETA, float(yi))
                      .substitute(Var.Y, float(yj)).eval1(Var.X, xs)
                      for yj in ys] for yi in ys])


def assert_close_to(got, want, scale):
    # relative to the summed magnitudes, which bound the roundoff of a sum
    assert np.abs(got - want).max() <= 1e-12 * max(scale.max(), 1e-300)


@given(sigma=separable_sigma(), n=st.integers(1, 6), m=st.integers(2, 9),
       offset=st.sampled_from((0.0, -1.0)), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_factored_coupling_matches_dense(sigma, n, m, offset, seed):
    one, zero = SeparableSum.constant(1.0), SeparableSum.zero()
    p = ContinuumParams(lam=one, mu=one, sigma=sigma, theta=zero, W=zero,
                        q=zero)
    ls = sample_continuum(p, n, offset)
    xs = np.linspace(0.0, 1.0, m)
    g = ls.on_grid(xs)
    sig = dense_sigma(sigma, ls.y_points(), xs)                 # [i, j, x]
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, m))
    assert_close_to(g.couple(u), np.einsum("ijx,jx->ix", sig, u),
                    np.einsum("ijx,jx->ix", np.abs(sig), np.abs(u)))
    K = rng.normal(size=(n, 3, m))
    assert_close_to(g.couple_kernel(K), np.einsum("jib,jab->iab", sig, K),
                    np.einsum("jib,jab->iab", np.abs(sig), np.abs(K)))
