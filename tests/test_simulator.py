import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from conftest import asymmetric_sigma_problem, n_plus_one
from continuum_kernels.fd_kernels import TriGrid, solve_characteristics
from continuum_kernels.gains import GainTable, gains, sample_gains
from continuum_kernels.params import (ContinuumParams, LargeScaleParams,
                                      parse_problem_dict)
from continuum_kernels.series import (Cos, Exp, Polynomial, SeparableSum,
                                      SeparableTerm, Var)
from continuum_kernels.simulate import (DIVERGE_LIMIT, INITIAL_PROFILES,
                                        STABLE_NORM_FRACTION, SimConfig,
                                        SimReport, Simulator)


def transport_only(n=3):
    cfg = {"lambda": 1.0, "mu": 1.0, "sigma": 0.0, "theta": 0.0,
           "w": 0.0, "q": 0.0}
    return n_plus_one(parse_problem_dict(cfg).continuum, n)


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
        rep = Simulator(cfg, ls, random_gains(rng, 3, 32)).run()
        assert rep.initial_norm == 0.0
        assert rep.final_norm == 0.0
        np.testing.assert_array_equal(rep.U, 0.0)

    def test_transport_empties_domain(self):
        ls = transport_only()
        cfg = SimConfig(n=3, m_x=64, t_final=2.5)
        rep = Simulator(cfg, ls, None).run()
        assert not rep.diverged
        assert rep.final_norm < 1e-3 * rep.initial_norm
        assert rep.stable

    def test_sup_norm_nonincreasing_for_pure_transport(self):
        ls = transport_only()
        cfg = SimConfig(n=3, m_x=48, t_final=1.0, cfl=0.5)
        sim = Simulator(cfg, ls, None)
        X = sim.initial_state()
        sup = np.abs(X).max()
        for _ in range(60):
            X = sim.step(X, sim.dt)
            new = np.abs(X).max()
            assert new <= sup + 1e-13
            sup = new

    def test_linearity_of_trajectory_and_control(self, example2):
        ls = example2.large_scale()
        kern_gains = sample_gains_for(ls)
        base = SimConfig(n=10, m_x=48, t_final=0.6, amplitude=1.0)
        scaled = SimConfig(n=10, m_x=48, t_final=0.6, amplitude=2.5)
        r1 = Simulator(base, ls, kern_gains).run()
        r2 = Simulator(scaled, ls, kern_gains).run()
        np.testing.assert_allclose(r2.U, 2.5 * r1.U, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(r2.norm, 2.5 * r1.norm, rtol=1e-10,
                                   atol=1e-13)

    def test_boundary_relations_hold_after_steps(self, example2):
        ls = example2.large_scale()
        sim = Simulator(SimConfig(n=10, m_x=32, t_final=1.0), ls,
                        sample_gains_for(ls, m=32))
        X = sim.initial_state()
        for _ in range(5):
            X = sim.step(X, sim.dt)
            np.testing.assert_array_equal(X[:10, 0], sim.q * X[10, 0])
            assert X[10, -1] == sim.control(X)


def sample_gains_for(ls, m=48):
    # cheap stabilizing-ish table from a low-order ensemble solve
    from continuum_kernels.power_series import SolverConfig, assemble, solve_ls

    prob_gains = getattr(sample_gains_for, "_cache", {})
    key = (ls.n, m)
    if key not in prob_gains:
        from continuum_kernels.params import load_problem
        sol = solve_ls(assemble(load_problem("example2").continuum, SolverConfig(N=8)))
        prob_gains[key] = sample_gains(sol, ls.n,
                                       grid_xi=np.linspace(0, 1, m))
        sample_gains_for._cache = prob_gains
    return prob_gains[key]


class TestControl:
    def test_zero_state_zero_control(self, example2):
        ls = example2.large_scale()
        sim = Simulator(SimConfig(n=10, m_x=32, t_final=1.0), ls,
                        sample_gains_for(ls, m=32))
        X = np.zeros((11, 32))
        assert sim.control(X) == 0.0

    def test_zero_gains_zero_control(self, example2):
        ls = example2.large_scale()
        zero = GainTable(grid_xi=np.linspace(0, 1, 16),
                         grid_y=np.arange(1, 11) / 10,
                         k=np.zeros((10, 16)), kbar=np.zeros(16), sampled=True)
        sim = Simulator(SimConfig(n=10, m_x=32, t_final=0.2), ls, zero)
        X = sim.initial_state()
        assert sim.control(X) == 0.0

    def test_open_loop_instability_sets_in(self, example2):
        ls = example2.large_scale()
        cfg = SimConfig(n=10, m_x=64, t_final=1.5)
        rep = Simulator(cfg, ls, None).run()
        assert rep.final_norm > rep.initial_norm

    def test_endpoint_equation_solved_exactly(self, example2):
        # v(1) = U must hold including the endpoint's own quadrature weight
        ls = example2.large_scale()
        table = sample_gains_for(ls, m=40)
        sim = Simulator(SimConfig(n=10, m_x=40, t_final=0.1), ls, table)
        X = sim.initial_state()
        u, v = X[:10], X[10]
        w = sim.weights
        kg = np.array([np.interp(sim.xs, table.grid_xi, k) for k in table.k])
        manual = float((w * ((kg * u).mean(axis=0) + sim.kbg * v)).sum())
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

    @pytest.mark.parametrize("field", ["t_final", "amplitude"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, value):
        kw = {"n": 2, "m_x": 32, "t_final": 1.0, field: value}
        with pytest.raises(ValueError, match=field):
            SimConfig(**kw)

    def test_n_mismatch(self, example2):
        ls = example2.large_scale()
        with pytest.raises(ValueError, match="disagree"):
            Simulator(SimConfig(n=4, m_x=32, t_final=1.0), ls, None)


# -- the (n+1, m) state against the separate u/v pair ---------------------------


class UVSimulator:
    """The simulator as it was with a separate family u (n, m) and counter
    component v (m,), copying both at every stage; kept as the oracle. Its
    couplings come from dense tables evaluated from the template: theta and
    W as (n, m), sigma as one (n, n) table of (eta, y) factors per term."""

    def __init__(self, cfg: SimConfig, ls, gains=None):
        if cfg.n != ls.n:
            raise ValueError("config and parameters disagree on n")
        ls.check_speeds()
        self.cfg = cfg
        n, m = ls.n, cfg.m_x
        self.n, self.m = n, m
        xs = np.linspace(0.0, 1.0, m)
        self.xs = xs
        self.h = xs[1] - xs[0]
        g = ls.on_grid(xs)
        self.lam, self.mu, self.q = g.lam, g.mu, g.q
        ys = ls.points
        p, at = ls.template, {Var.X: xs[None, :], Var.Y: ys[:, None]}
        self.theta = np.broadcast_to(p.theta(at), (n, m))
        self.W = np.broadcast_to(p.W(at), (n, m))
        self.sigma = [
            (SeparableTerm(t.scale, [f for f in t.factors if f.var == Var.X])
             ({Var.X: xs}) * np.ones(m),
             SeparableTerm(1.0, [f for f in t.factors if f.var != Var.X])
             ({Var.ETA: ys[:, None], Var.Y: ys[None, :]}) * np.ones((n, n)))
            for t in p.sigma.terms]
        speed = max(float(self.lam.max()), float(self.mu.max()))
        self.dt = cfg.cfl * self.h / speed
        self.weights = np.full(m, self.h)
        self.weights[0] = self.weights[-1] = self.h / 2.0

        if gains is not None:
            if len(gains.grid_y) != n:
                raise ValueError(
                    f"gain table has {len(gains.grid_y)} family rows, need n={n}"
                )
            self.kg = np.array([
                np.interp(xs, gains.grid_xi, gains.k[i]) for i in range(n)
            ])
            self.kbg = np.interp(xs, gains.grid_xi, gains.kbar)
            denom = 1.0 - self.weights[-1] * self.kbg[-1]
            if abs(denom) < 1e-8:
                raise ValueError("feedback endpoint equation is singular")
            self._denom = denom
        else:
            self.kg = None
            self.kbg = None
            self._denom = 1.0

    def initial_state(self):
        prof = INITIAL_PROFILES[self.cfg.initial_profile]
        u = np.tile(self.cfg.amplitude * prof(self.xs), (self.n, 1))
        v = np.zeros(self.m)
        u[:, 0] = self.q * v[0]
        v[-1] = self.control(u, v)
        return u, v

    def control(self, u, v):
        if self.kg is None:
            return 0.0
        w = self.weights
        su = float((w * (self.kg * u).mean(axis=0)).sum())
        sv = float((w[:-1] * self.kbg[:-1] * v[:-1]).sum())
        return (su + sv) / self._denom

    def _apply_bc(self, u, v):
        u[:, 0] = self.q * v[0]
        U = self.control(u, v)
        v[-1] = U
        return U

    def _rhs(self, u, v):
        h = self.h
        du = np.zeros_like(u)
        dv = np.zeros_like(v)
        adv_u = (u[:, 1:] - u[:, :-1]) / h
        du[:, 1:] = -self.lam[:, 1:] * adv_u
        du += sum(sx * (sig @ u) for sx, sig in self.sigma) / self.n
        du += self.W * v[None, :]
        du[:, 0] = 0.0
        dv[:-1] = self.mu[:-1] * (v[1:] - v[:-1]) / h
        dv += (self.theta * u).mean(axis=0)
        dv[-1] = 0.0
        return du, dv

    def step(self, u, v, dt):

        def f(uu, vv):
            uu = uu.copy()
            vv = vv.copy()
            self._apply_bc(uu, vv)
            return self._rhs(uu, vv)

        k1u, k1v = f(u, v)
        k2u, k2v = f(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
        k3u, k3v = f(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
        k4u, k4v = f(u + dt * k3u, v + dt * k3v)
        un = u + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        vn = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        self._apply_bc(un, vn)
        return un, vn

    def norm(self, u, v):
        return float(np.sqrt(self.h * ((u ** 2).sum() / self.n + (v ** 2).sum())))

    def run(self) -> SimReport:
        u, v = self.initial_state()
        nsteps = int(np.ceil(self.cfg.t_final / self.dt))
        dt = self.cfg.t_final / nsteps
        ts = [0.0]
        Us = [self.control(u, v)]
        norms = [self.norm(u, v)]
        diverged = False
        for k in range(nsteps):
            u, v = self.step(u, v, dt)
            t = (k + 1) * dt
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))) or \
                    max(np.abs(u).max(), np.abs(v).max()) > DIVERGE_LIMIT:
                diverged = True
                ts.append(t)
                Us.append(np.nan)
                norms.append(np.inf)
                break
            ts.append(t)
            Us.append(self.control(u, v))
            norms.append(self.norm(u, v))
        t_arr = np.asarray(ts)
        U_arr = np.asarray(Us)
        n_arr = np.asarray(norms)
        initial = n_arr[0]
        final = n_arr[-1]
        stable = (not diverged) and final < STABLE_NORM_FRACTION * initial
        if initial == 0.0:
            stable = not diverged and final == 0.0
        return SimReport(t=t_arr, U=U_arr, norm=n_arr, stable=stable,
                         diverged=diverged, dt=dt,
                         initial_norm=float(initial), final_norm=float(final))


def varying_plant(n=6):
    """lambda(x, y) and mu(x) non-constant; sigma, theta, W and q nonzero."""
    X, Y, ETA = Var.X, Var.Y, Var.ETA
    p = ContinuumParams(
        lam=SeparableSum([SeparableTerm(1.0, []), SeparableTerm(
            0.5, [Polynomial(X, [0.0, 1.0]), Exp(Y, 0.3)])]),
        mu=SeparableSum([SeparableTerm(1.2, [Exp(X, -0.3)])]),
        sigma=SeparableSum([SeparableTerm(0.8, [
            Cos(X, 2.0, 0.1), Exp(ETA, 0.5), Polynomial(Y, [1.0, -1.0])])]),
        theta=SeparableSum([SeparableTerm(
            -1.5, [Exp(X, 0.2), Polynomial(Y, [1.0, 0.5])])]),
        W=SeparableSum([SeparableTerm(
            0.7, [Polynomial(X, [0.0, 1.0]), Cos(Y, 1.0, 0.0)])]),
        q=SeparableSum([SeparableTerm(0.6, [Polynomial(Y, [1.0, -0.5])])]),
    )
    return n_plus_one(p, n)


def scaled(table, c):
    return GainTable(grid_xi=table.grid_xi, grid_y=table.grid_y,
                     k=c * table.k, kbar=c * table.kbar, sampled=True)


def oracle_case(name, example2):
    """(config, parameters, gain table) of one oracle comparison."""
    if name == "example2-order8":
        ls = example2.large_scale()
        return SimConfig(n=10, m_x=48, t_final=1.0), ls, sample_gains_for(ls)
    if name == "example2-open-loop":
        return SimConfig(n=10, m_x=64, t_final=1.5), example2.large_scale(), None
    if name == "transport-only":
        return (SimConfig(n=3, m_x=40, t_final=1.2), transport_only(),
                random_gains(np.random.default_rng(1), 3, 40))
    if name == "divergent":
        # order-8 gains scaled by -100 blow the loop up within 15 steps
        ls = example2.large_scale()
        return (SimConfig(n=10, m_x=48, t_final=1.0), ls,
                scaled(sample_gains_for(ls), -100.0))
    if name == "offset-1":
        from continuum_kernels.power_series import SolverConfig, assemble, solve_ls
        ls = n_plus_one(example2.continuum, 10, -1.0)
        sol = solve_ls(assemble(example2.continuum, SolverConfig(N=8)))
        table = gains(sol, grid_xi=np.linspace(0, 1, 48), grid_y=ls.points)
        return SimConfig(n=10, m_x=48, t_final=1.0), ls, table
    if name == "varying":
        return (SimConfig(n=6, m_x=40, t_final=1.0, initial_profile="bump"),
                varying_plant(6), random_gains(np.random.default_rng(2), 6, 33))
    if name == "n2000":
        # a 3-step run at the scale the factored couplings exist for
        ls = example2.large_scale(2000)
        table = sample_gains_for(ls, m=32)
        dt = Simulator(SimConfig(n=2000, m_x=32), ls, table).dt
        return SimConfig(n=2000, m_x=32, t_final=2.5 * dt), ls, table
    raise KeyError(name)


ORACLE_CASES = ("example2-order8", "example2-open-loop", "transport-only",
                "divergent", "offset-1", "varying", "n2000")


def assert_rel_close(got, want, what=""):
    """Finite entries within 1e-12 of the largest finite |want|, the rule
    for a changed arithmetic order; non-finite entries equal."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    fin = np.isfinite(want)
    assert np.array_equal(got[~fin], want[~fin], equal_nan=True), what
    scale = np.abs(want[fin]).max(initial=0.0)
    assert np.abs(got[fin] - want[fin]).max(initial=0.0) <= 1e-12 * scale, what


def same_run_as_oracle(cfg, ls, table, steps=5) -> SimReport:
    """Assert the (n+1, m) simulator follows the u/v oracle within 1e-12
    relative, step by step and over a whole run, with the same step count
    and verdicts; return the run's report."""
    new, old = Simulator(cfg, ls, table), UVSimulator(cfg, ls, table)
    X = new.initial_state()
    u, v = old.initial_state()
    got, want = [], []
    for _ in range(steps):
        assert_rel_close(X, np.vstack([u, v]), "state")
        got.append((new.control(X), new.norm(X)))
        want.append((old.control(u, v), old.norm(u, v)))
        X = new.step(X, new.dt)
        u, v = old.step(u, v, old.dt)
    assert_rel_close(np.array(got), np.array(want), "control and norm")
    a, b = new.run(), old.run()
    assert np.array_equal(a.t, b.t)
    for field in ("U", "norm"):
        assert_rel_close(getattr(a, field), getattr(b, field), field)
    assert (a.dt, a.stable, a.diverged) == (b.dt, b.stable, b.diverged)
    assert_rel_close([a.initial_norm, a.final_norm],
                     [b.initial_norm, b.final_norm], "initial and final norm")
    return a


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_state_array_matches_uv_oracle(name, example2):
    same_run_as_oracle(*oracle_case(name, example2))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["example2-order8", "varying"])
def test_rhs_matches_uv_oracle_on_rows_that_differ(name, seed, example2):
    # the oracle runs start from identical sine rows, where u[i, m-1] ~ 0
    # = u[i+1, 0] would hide a leak of the flat differences across rows
    cfg, ls, table = oracle_case(name, example2)
    new, old = Simulator(cfg, ls, table), UVSimulator(cfg, ls, table)
    X = np.random.default_rng(seed).normal(size=(cfg.n + 1, cfg.m_x))
    D = np.full_like(X, np.nan)
    new._rhs(X, D)
    assert_rel_close(D, np.vstack(old._rhs(X[:-1], X[-1])), "rhs")


@pytest.mark.parametrize("grid_xi", [
    np.linspace(0.0, 1.0, 40),                   # the simulation grid
    np.sort(np.random.default_rng(3).uniform(size=17)),  # end values held
    np.linspace(0.2, 0.7, 9),
    np.array([0.4])], ids=["same", "random", "inner", "one-point"])
def test_gain_rows_match_np_interp(grid_xi, example2):
    ls = example2.large_scale()
    rng = np.random.default_rng(4)
    table = GainTable(grid_xi=grid_xi, grid_y=ls.points,
                      k=rng.normal(size=(10, len(grid_xi))),
                      kbar=rng.normal(size=len(grid_xi)), sampled=True)
    sim = Simulator(SimConfig(n=10, m_x=40), ls, table)
    rows = np.array([np.interp(sim.xs, grid_xi, k) for k in table.k])
    assert sim.kgw.flags.c_contiguous
    assert_rel_close(sim.kgw, rows * (sim.weights / 10), "k")
    assert_rel_close(sim.kbg, np.interp(sim.xs, grid_xi, table.kbar), "kbar")


def test_closed_loop_pairs_plant_with_its_kernel_equations():
    # with reference kernels of a plant whose sigma is not symmetric in
    # (eta, y), the norm left at 1.25 t_F falls with the kernels' mesh
    # error (6.5e-3, 4.1e-3, 2.3e-3); with the plant's sigma transposed it
    # stalls at the mismatch (1.84e-2, 1.78e-2, 1.73e-2)
    ls = asymmetric_sigma_problem().large_scale(10)
    t_final = 1.25 * sum(1.0 / s for s in ls.check_speeds())
    ratios = {False: [], True: []}
    for m in (64, 128, 256):
        table = gains(solve_characteristics(ls, TriGrid(m)))
        for swap, got in ratios.items():
            sim = Simulator(SimConfig(n=10, m_x=m + 1, t_final=t_final,
                                      initial_profile="sine"), ls, table)
            if swap:
                p = sim.params
                sim.params = replace(p, sigma_eta=p.sigma_y, sigma_y=p.sigma_eta)
            rep = sim.run()
            got.append(rep.final_norm / rep.initial_norm)

    def falls(r):
        return all(a >= 1.3 * b for a, b in zip(r, r[1:]))

    assert falls(ratios[False]), ratios
    assert not falls(ratios[True]), ratios


def test_step_allocates_nothing_state_sized(example2):
    ls = example2.large_scale(400)
    sim = Simulator(SimConfig(n=400, m_x=256), ls,
                    random_gains(np.random.default_rng(5), 400, 256))
    X = sim.initial_state()
    tracemalloc.start()
    try:
        sim.step(X, sim.dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes / 4


def test_reruns_are_identical(example2):
    # the stage buffers are reused, so a second run must start clean
    cfg, ls, table = oracle_case("varying", example2)
    sim = Simulator(cfg, ls, table)
    a, b = sim.run(), sim.run()
    for field in ("t", "U", "norm"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert (a.stable, a.diverged) == (b.stable, b.diverged)


def test_divergence_is_flagged(example2):
    cfg, ls, table = oracle_case("divergent", example2)
    rep = same_run_as_oracle(cfg, ls, table)
    nsteps = int(np.ceil(cfg.t_final / Simulator(cfg, ls, table).dt))
    assert rep.diverged and not rep.stable
    assert np.isnan(rep.U[-1]) and np.all(np.isfinite(rep.U[:-1]))
    assert rep.norm[-1] == np.inf and rep.final_norm == np.inf
    assert len(rep.t) < nsteps + 1
    assert rep.t[-1] == (len(rep.t) - 1) * rep.dt < cfg.t_final


# -- factored sigma coupling against a dense table ----------------------------

_coef = st.floats(-2.0, 2.0, allow_nan=False)
# Shrinking a failure of the two dense-oracle properties below took 1-2 min
# (a minute or more for each of four broken copies), so they report the
# failing example as drawn.
NO_SHRINK = tuple(ph for ph in Phase if ph is not Phase.shrink)


@st.composite
def sigma_factor(draw, var):
    kind = draw(st.sampled_from(("poly", "exp", "cos")))
    if kind == "poly":
        return Polynomial(var, draw(st.lists(_coef, min_size=1, max_size=4)))
    if kind == "exp":
        return Exp(var, draw(_coef))
    return Cos(var, 3.0 * draw(_coef), draw(_coef))


@st.composite
def separable_sum(draw, vars_=(Var.X, Var.ETA, Var.Y)):
    """1-3 terms with factors spread over ``vars_``; a term may lack any of
    them, or carry several factors in one."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        vs = draw(st.lists(st.sampled_from(vars_), max_size=4))
        terms.append(SeparableTerm(draw(_coef),
                                   [draw(sigma_factor(v)) for v in vs]))
    return SeparableSum(terms)


def dense_sigma(sigma, ys, xs):
    """sig[i, j] = sigma(x, eta=y_i, y=y_j) on xs, entry by entry."""
    xs = np.asarray(xs, dtype=float)
    return np.array([[np.broadcast_to(sigma({Var.X: xs, Var.ETA: yi, Var.Y: yj}), xs.shape)
                      for yj in ys] for yi in ys])


def assert_close_to(got, want, scale):
    # relative to the summed magnitudes, which bound the roundoff of a sum
    assert np.abs(got - want).max() <= 1e-12 * max(scale.max(), 1e-300)


# lam = (1 + x)(1 + y) and mu = 2 - x: every term of the kernel equations'
# sources and boundary data is then nonzero
_LAM = SeparableSum([SeparableTerm(1.0, [Polynomial(Var.X, [1.0, 1.0]),
                                         Polynomial(Var.Y, [1.0, 1.0])])])
_MU = SeparableSum([SeparableTerm(1.0, [Polynomial(Var.X, [2.0, -1.0])])])


def grid_and_weights(p, ls, xs, uniform, rng):
    """The n+1 system's grid record (weights 1/n), or that of the family at
    the same points with random positive weights, and the weights."""
    if uniform:
        return ls.on_grid(xs), np.full(ls.n, 1.0 / ls.n)
    w = rng.uniform(0.1, 1.0, ls.n)
    return LargeScaleParams(p, ls.points, w).on_grid(xs), w


@given(sigma=separable_sum(), theta=separable_sum((Var.X, Var.Y)),
       W=separable_sum((Var.X, Var.Y)), q=separable_sum((Var.Y,)),
       n=st.integers(1, 6), m=st.integers(2, 9), data=st.data(),
       offset=st.sampled_from((0.0, -1.0)), uniform=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(sigma=SeparableSum([SeparableTerm(0.99999, []),
                             SeparableTerm(-1.0, [])]),
         theta=SeparableSum.zero(), W=SeparableSum.zero(),
         q=SeparableSum.zero(), n=1, m=2, data=None, offset=0.0, uniform=True,
         seed=0)
@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
def test_factored_coupling_matches_dense(sigma, theta, W, q, n, m, data,
                                         offset, uniform, seed):
    p = ContinuumParams(lam=_LAM, mu=_MU, sigma=sigma, theta=theta, W=W, q=q)
    ls = n_plus_one(p, n, offset)
    xs, ys = np.linspace(0.0, 1.0, m), ls.points
    rng = np.random.default_rng(seed)
    g, wt = grid_and_weights(p, ls, xs, uniform, rng)
    sig = dense_sigma(sigma, ys, xs)                            # [i, j, x]
    # the factored sums add the terms one by one, so their roundoff scales
    # with sum_t |sigma_t|, which cancelling terms keep above |sigma|
    mag = sum(np.abs(dense_sigma(SeparableSum([t]), ys, xs))
              for t in sigma.terms)
    u = rng.normal(size=(n, m))
    out = np.empty((n, m))
    g.couple_plant(u, np.zeros(m), out)
    assert_close_to(out, np.einsum("ijx,j,jx->ix", sig, wt, u),
                    np.einsum("ijx,j,jx->ix", mag, wt, np.abs(u)))

    # the kernel equations' terms, on the first b nodes, with and without a
    # middle axis
    lam, mu = dense_rows(_LAM, ys, xs), _MU.eval1(Var.X, xs)
    dlam, dmu = dense_rows(_LAM.diff(Var.X), ys, xs), -np.ones(m)
    th, th_mag = dense_rows(theta, ys, xs), term_magnitude(theta, ys, xs)
    w, w_mag = dense_rows(W, ys, xs), term_magnitude(W, ys, xs)
    b = m if data is None else data.draw(st.integers(1, m), label="b")
    for K in (rng.normal(size=(n + 1, 3, b)), rng.normal(size=(n + 1, b))):
        def at(F):      # F on K's last axis, broadcast over its middle axes
            return F[..., None, :b] if K.ndim == 3 else F[..., :b]
        A = np.abs(K)
        want = np.concatenate((
            np.einsum("ji...,j,j...->i...", at(sig), wt, K[:n])
            + at(dlam) * K[:n] + at(th) * K[n],
            (-at(dmu) * K[n] + np.einsum("j...,j,j...->...", at(w), wt, K[:n]))[None]))
        scale = np.concatenate((
            np.einsum("ji...,j,j...->i...", at(mag), wt, A[:n])
            + np.abs(at(dlam)) * A[:n] + at(th_mag) * A[n],
            (A[n] + np.einsum("j...,j,j...->...", at(w_mag), wt, A[:n]))[None]))
        assert_close_to(g.sources(K), want, scale)
    assert_close_to(g.diag_bc, -th / (lam + mu), th_mag / (lam + mu))
    ql = q.eval1(Var.Y, ys) * lam[:, 0] * wt / mu[0]
    for K_fam in (rng.normal(size=n), rng.normal(size=(n, 4))):
        assert_close_to(g.left_bc(K_fam), np.einsum("i,i...->...", ql, K_fam),
                        np.einsum("i,i...->...", np.abs(ql), np.abs(K_fam)))


def dense_rows(p, ys, xs):
    """p_i(x) = p(x, y_i) on xs, (n, m), from the template."""
    return np.broadcast_to(p({Var.X: xs[None, :], Var.Y: ys[:, None]}),
                           (len(ys), len(xs)))


def term_magnitude(p, ys, xs):
    return sum((np.abs(dense_rows(SeparableSum([t]), ys, xs)) for t in p.terms),
               np.zeros((len(ys), len(xs))))


@given(sigma=separable_sum(), theta=separable_sum((Var.X, Var.Y)),
       W=separable_sum((Var.X, Var.Y)), n=st.integers(1, 6),
       m=st.integers(2, 9), offset=st.sampled_from((0.0, -1.0)),
       uniform=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
def test_factored_plant_matches_dense(sigma, theta, W, n, m, offset, uniform,
                                      seed):
    one = SeparableSum.constant(1.0)
    p = ContinuumParams(lam=one, mu=one, sigma=sigma, theta=theta, W=W,
                        q=SeparableSum.zero())
    ls = n_plus_one(p, n, offset)
    xs, ys = np.linspace(0.0, 1.0, m), ls.points
    rng = np.random.default_rng(seed)
    g, wt = grid_and_weights(p, ls, xs, uniform, rng)
    sig = dense_sigma(sigma, ys, xs)
    sig_mag = sum(np.abs(dense_sigma(SeparableSum([t]), ys, xs))
                  for t in sigma.terms)
    th, th_mag = dense_rows(theta, ys, xs), term_magnitude(theta, ys, xs)
    w, w_mag = dense_rows(W, ys, xs), term_magnitude(W, ys, xs)
    u, v = rng.normal(size=(n, m)), rng.normal(size=m)
    out = np.full((n, m), np.nan)
    drive = g.couple_plant(u, v, out)
    assert_close_to(out, np.einsum("ijx,j,jx->ix", sig, wt, u) + w * v,
                    np.einsum("ijx,j,jx->ix", sig_mag, wt, np.abs(u))
                    + w_mag * np.abs(v))
    assert_close_to(drive, wt @ (th * u), wt @ (th_mag * np.abs(u)))
    assert_close_to(g.theta, th, th_mag)
    assert_close_to(g.W, w, w_mag)
