import functools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuum_kernels.closed_form import solve_closed_form
from continuum_kernels.fd_kernels import TriGrid, solve_characteristics
from continuum_kernels.gains import (GainTable, _sampled_kernels,
                                     continuum_residual, diff_solutions, gains,
                                     largescale_residual, read_gain_csv,
                                     sample_gains, write_gain_csv)
from continuum_kernels.params import load_problem
from continuum_kernels.power_series import (PsKernelSolution, SolverConfig,
                                            solve)
from continuum_kernels.series import SeparableSum, SeparableTerm, Var

X, XI, Y, ETA = Var.X, Var.XI, Var.Y, Var.ETA


@functools.lru_cache(maxsize=1)
def example1_kernel():
    return solve_closed_form(load_problem("example1").continuum)


class TestGains:
    def test_closed_form_point(self, example1):
        kern = solve_closed_form(example1.continuum)
        t = gains(kern, grid_xi=np.array([0.0, 0.5]),
                  grid_y=np.array([0.5, 1.0]))
        assert t.k[0, 0] == pytest.approx(-8.75)
        assert t.k[1, 0] == pytest.approx(0.0, abs=1e-14)
        assert t.kbar[0] == pytest.approx(35.0 / (2 * math.pi ** 2))

    def test_zero_solution_zero_table(self, zero_problem):
        sol = solve(zero_problem.continuum, SolverConfig(N=3))
        t = gains(sol)
        assert np.all(t.k == 0.0) and np.all(t.kbar == 0.0)

    def test_series_matches_closed_form_eval_path(self, solve_cache,
                                                  exact_gain_reference):
        sol = solve_cache.solution("example1", SolverConfig(N=14))
        grid = np.linspace(0, 1, 31)
        t = gains(sol, grid_xi=grid, grid_y=grid)
        kx, kbx = exact_gain_reference(grid, grid)
        assert np.abs(t.k - kx).max() < 1.0

    def test_sample_gains_rows(self, example1):
        kern = solve_closed_form(example1.continuum)
        grid = np.linspace(0, 1, 11)
        t = sample_gains(kern, 10, grid_xi=grid)
        assert t.sampled
        np.testing.assert_allclose(t.grid_y, np.arange(1, 11) / 10)
        # last component sits at y=1 where the quadratic profile vanishes
        np.testing.assert_allclose(t.k[-1], 0.0, atol=1e-13)

    def test_single_member_ensemble(self, example1):
        kern = solve_closed_form(example1.continuum)
        t = sample_gains(kern, 1)
        assert t.k.shape[0] == 1
        np.testing.assert_allclose(t.grid_y, [1.0])

    def test_gains_match_sample_gains_rowwise(self, solve_cache):
        sol = solve_cache.solution("example1", SolverConfig(N=10))
        grid = np.linspace(0, 1, 21)
        sampled = sample_gains(sol, 5, grid_xi=grid)
        direct = gains(sol, grid_xi=grid, grid_y=np.arange(1, 6) / 5)
        np.testing.assert_array_equal(sampled.k, direct.k)
        np.testing.assert_array_equal(sampled.kbar, direct.kbar)


class TestDiffSolutions:
    def rand_table(self, rng, grid):
        return GainTable(grid_xi=grid, grid_y=grid,
                         k=rng.normal(size=(len(grid), len(grid))),
                         kbar=rng.normal(size=len(grid)))

    def test_identical_tables(self, example1):
        kern = solve_closed_form(example1.continuum)
        t = gains(kern)
        assert diff_solutions(t, t) == 0.0

    def test_metric_properties(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0, 1, 9)
        a, b, c = (self.rand_table(rng, grid) for _ in range(3))
        dab = diff_solutions(a, b)
        assert dab == diff_solutions(b, a)
        assert dab > 0.0
        assert diff_solutions(a, c) <= dab + diff_solutions(b, c) + 1e-14

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        a = self.rand_table(rng, np.linspace(0, 1, 9))
        b = self.rand_table(rng, np.linspace(0, 1, 10))
        with pytest.raises(ValueError, match="grid"):
            diff_solutions(a, b)


class TestContinuumResidual:
    def test_zero_kernel_violates_diag_bc(self, example1, zero_problem):
        zero_sol = solve(zero_problem.continuum, SolverConfig(N=6))
        res = continuum_residual(zero_sol, example1.continuum)
        # both PDEs hold trivially at zero; the diagonal data does not
        assert res["bc_diag"] > 1e-2
        assert res["pde_k"] == 0.0

    def test_series_solution_commensurate_with_lsq_residual(self, solve_cache):
        sol = solve_cache.solution("example1", SolverConfig(N=14))
        res = continuum_residual(sol, solve_cache.problem("example1").continuum)
        assert max(res.values()) < 10.0 * max(sol.residual, 1e-16) + 1e-12


def loop_sampled_kernels(sol, ls, xs):
    """Oracle: the per-component loop the grid evaluation replaced."""
    n, m = ls.n, len(xs) - 1
    ys = ls.y_points()
    X, XI = np.meshgrid(xs, xs, indexing="ij")
    K = np.empty((n + 1, m + 1, m + 1))
    dKdx = np.empty_like(K)
    dKdxi = np.empty_like(K)
    if isinstance(sol, PsKernelSolution):
        kx = sol.k.diff(Var.X)
        kxi = sol.k.diff(Var.XI)
        for i, y in enumerate(ys):
            ki = sol.k.substitute_value(Var.Y, float(y))
            K[i] = ki.eval_grid({Var.X: xs, Var.XI: xs})
            dKdx[i] = kx.substitute_value(Var.Y, float(y)).eval_grid(
                {Var.X: xs, Var.XI: xs})
            dKdxi[i] = kxi.substitute_value(Var.Y, float(y)).eval_grid(
                {Var.X: xs, Var.XI: xs})
        K[n] = sol.kbar.eval_grid({Var.X: xs, Var.XI: xs})
        dKdx[n] = sol.kbar.diff(Var.X).eval_grid({Var.X: xs, Var.XI: xs})
        dKdxi[n] = sol.kbar.diff(Var.XI).eval_grid({Var.X: xs, Var.XI: xs})
    else:
        for i, y in enumerate(ys):
            Yg = np.full_like(X, y)
            K[i] = sol.k(X, XI, Yg)
            dKdx[i] = sol.dk_dx(X, XI, Yg)
            dKdxi[i] = sol.dk_dxi(X, XI, Yg)
        K[n] = sol.kbar(X, XI)
        dKdx[n] = sol.dkbar_dx(X, XI)
        dKdxi[n] = sol.dkbar_dxi(X, XI)
    return np.stack([K, dKdx, dKdxi])


class TestSampledKernelsAgainstLoop:
    @pytest.mark.parametrize("offset", [0.0, -1.0])
    def test_closed_form_bit_identical(self, example1, offset):
        ls = example1.large_scale(10, offset)
        xs = np.linspace(0.0, 1.0, 65)
        np.testing.assert_array_equal(np.stack(_sampled_kernels(example1_kernel(), ls, xs)),
                                      loop_sampled_kernels(example1_kernel(), ls, xs))

    def test_series(self, example2, solve_cache):
        sol = solve_cache.solution("example2", SolverConfig(N=12))
        ls = example2.large_scale()
        xs = np.linspace(0.0, 1.0, 25)
        got = _sampled_kernels(sol, ls, xs)
        want = loop_sampled_kernels(sol, ls, xs)
        for g, w in zip(got, want):         # k, d/dx, d/dxi
            assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


class TestLargescaleResidual:
    def test_single_member_constant_ensemble(self):
        # y-independent problem: the n=1 sums coincide with the integrals
        from continuum_kernels.params import ContinuumParams, sample_continuum

        from continuum_kernels.series import Exp

        p = ContinuumParams(
            lam=SeparableSum.constant(1.0), mu=SeparableSum.constant(1.0),
            sigma=SeparableSum([SeparableTerm(0.4, [])]),
            theta=SeparableSum([SeparableTerm(-2.0, [Exp(X, 0.4)])]),
            W=SeparableSum.zero(),
            q=SeparableSum.constant(0.3),
        )
        kern = solve_closed_form(p)
        from continuum_kernels.closed_form import NotApplicable
        assert not isinstance(kern, NotApplicable), getattr(kern, "reason", "")
        res_c = continuum_residual(kern, p, grid_m=17)
        ls = sample_continuum(p, 1)
        res_l = largescale_residual(kern, ls, grid_m=16)
        for key in res_c:
            assert res_l[key] == pytest.approx(res_c[key], abs=5e-9)

    def test_fd_solution_residual_shrinks_with_mesh(self, example2):
        ls = example2.large_scale()
        r32 = largescale_residual(solve_characteristics(ls, TriGrid(32)), ls)
        r128 = largescale_residual(solve_characteristics(ls, TriGrid(128)), ls)
        assert r128["pde_k"] < r32["pde_k"]
        assert r128["pde_kbar"] < r32["pde_kbar"]
        assert r128["bc_diag"] == 0.0

    def test_sampled_series_plateau(self, example2, solve_cache):
        # sampled ensemble kernels approximate the n+1 equations up to the
        # finite-n ensemble error, which does not vanish with solver order
        ls = example2.large_scale()
        r = largescale_residual(
            solve_cache.solution("example2", SolverConfig(N=12)), ls,
            grid_m=24)
        assert 1e-4 < max(r.values()) < 50.0


class TestCsvRoundTrip:
    def test_exact_roundtrip_and_determinism(self, tmp_path, example1):
        kern = solve_closed_form(example1.continuum)
        t = sample_gains(kern, 7, grid_xi=np.linspace(0, 1, 33))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_gain_csv(t, p1, report_path="r.json")
        write_gain_csv(t, p2, report_path="r.json")
        assert p1.read_bytes() == p2.read_bytes()
        back = read_gain_csv(p1)
        np.testing.assert_array_equal(back.k, t.k)
        np.testing.assert_array_equal(back.kbar, t.kbar)
        np.testing.assert_array_equal(back.grid_xi, t.grid_xi)
        assert back.sampled == t.sampled

    @given(n=st.integers(1, 40), m=st.integers(2, 40))
    @settings(max_examples=25, deadline=None)
    def test_left_offset_roundtrip(self, n, m):
        t = sample_gains(example1_kernel(), n, grid_xi=np.linspace(0, 1, m),
                         offset=-1.0)
        assert t.grid_y[0] == 0.0
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "g.csv"
            write_gain_csv(t, path)
            back = read_gain_csv(path)
        assert back.sampled and back.grid_y[0] == 0.0
        np.testing.assert_array_equal(back.k, t.k)
        np.testing.assert_array_equal(back.kbar, t.kbar)
        np.testing.assert_array_equal(back.grid_xi, t.grid_xi)
        np.testing.assert_array_equal(back.grid_y, t.grid_y)
        assert diff_solutions(back, t) == 0.0

    def test_header_keeps_y_exactly(self, tmp_path):
        ys = np.array([1.0, 2.0, 3.0]) / 3.0
        t = GainTable(grid_xi=np.linspace(0, 1, 4), grid_y=ys,
                      k=np.arange(12.0).reshape(3, 4), kbar=np.ones(4),
                      sampled=True)
        write_gain_csv(t, tmp_path / "g.csv")
        back = read_gain_csv(tmp_path / "g.csv")
        np.testing.assert_array_equal(back.grid_y, ys)
        np.testing.assert_array_equal(back.k, t.k)

    def test_column_without_y_rejected(self, tmp_path):
        # a simulation CSV used to die with an IndexError in the reader
        p = tmp_path / "s_sim.csv"
        p.write_text("# stable: 1 diverged: 0\nt,U,norm\n0,0,1\n0.1,0,0.5\n")
        with pytest.raises(ValueError, match="'norm'"):
            read_gain_csv(p)

    @pytest.mark.parametrize("flip", ["grid_xi", "grid_y"])
    def test_grids_must_increase(self, flip):
        # np.interp needs increasing sample points: a backward grid gave
        # plausible gains
        grids = {"grid_xi": np.linspace(0, 1, 4), "grid_y": np.array([0.5, 1.0])}
        grids[flip] = grids[flip][::-1]
        with pytest.raises(ValueError, match=f"{flip} must be strictly increasing"):
            GainTable(k=np.zeros((2, 4)), kbar=np.zeros(4), **grids)
        grids[flip] = np.zeros(len(grids[flip]))
        with pytest.raises(ValueError, match="strictly increasing"):
            GainTable(k=np.zeros((2, 4)), kbar=np.zeros(4), **grids)

    def test_reader_requires_data(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("# nothing\n")
        with pytest.raises(ValueError):
            read_gain_csv(p)
