import functools
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import n_plus_one, residual_series
from continuum_kernels.closed_form import solve_closed_form
from continuum_kernels.fd_kernels import TriGrid, solve_characteristics
from continuum_kernels.gains import (GainTable, _sampled_kernels,
                                     continuum_residual, diff_solutions, gains,
                                     largescale_residual, read_gain_csv,
                                     sample_gains, write_gain_csv)
from continuum_kernels.params import load_problem, sample_points
from continuum_kernels.power_series import (PsKernelSolution, SolverConfig,
                                            assemble, solve_ls)
from continuum_kernels.series import GL_NODES, SeparableSum, SeparableTerm, Var
from continuum_kernels.simulate import SimReport, write_sim_csv

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
        sol = solve_ls(assemble(zero_problem.continuum, SolverConfig(N=3)))
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
        zero_sol = solve_ls(assemble(zero_problem.continuum, SolverConfig(N=6)))
        res = continuum_residual(zero_sol, example1.continuum)
        # both PDEs hold trivially at zero; the diagonal data does not
        assert res["bc_diag"] > 1e-2
        assert res["pde_k"] == 0.0

    def test_series_solution_commensurate_with_lsq_residual(self, solve_cache):
        sol = solve_cache.solution("example1", SolverConfig(N=14))
        res = continuum_residual(sol, solve_cache.problem("example1").continuum)
        assert max(res.values()) < 10.0 * max(sol.residual, 1e-16) + 1e-12

    @pytest.mark.parametrize("cfg", [
        SolverConfig(N=12), SolverConfig(N=12, sigma_sign=-1),
        SolverConfig(N=16, N_y=2), SolverConfig(N=12, use_exact_q=True)])
    def test_series_matches_series_oracle(self, solve_cache, cfg):
        # example2's parameters are polynomials of degree below N, so the
        # truncated equations of the series oracle are the exact ones, and
        # the 15-node rule integrates every product over y exactly
        p = solve_cache.problem("example2").continuum
        sol = solve_cache.solution("example2", cfg)
        xs = np.linspace(0.0, 1.0, 21)
        ys = np.concatenate((xs, GL_NODES))
        tri = np.tri(len(xs), dtype=bool)      # xi <= x
        sym = residual_series(p, cfg, sol.k, sol.kbar)
        want = {"pde_k": sym["pde_k"].at({X: xs[:, None, None], XI: xs[:, None], Y: ys})[tri],
                "pde_kbar": sym["pde_kbar"].at({X: xs[:, None], XI: xs})[tri],
                "bc_diag": sym["bc_diag"].at({X: xs[:, None], Y: ys}),
                "bc_left": sym["bc_left"].at({X: xs})}
        got = continuum_residual(sol, p, grid_m=21)
        for src, vals in want.items():
            assert got[src] == pytest.approx(np.abs(vals).max(), rel=1e-12)

    def test_series_measured_with_its_own_sigma_sign(self, solve_cache):
        # a -1 solution read in the +1 equations misses them further
        p = solve_cache.problem("example2").continuum
        sol = solve_cache.solution("example2", SolverConfig(N=12, sigma_sign=-1))
        as_plus = replace(sol, config=SolverConfig(N=12))
        own = continuum_residual(sol, p)["pde_k"]
        assert continuum_residual(as_plus, p)["pde_k"] > 2.0 * own

    def test_series_residual_falls_with_order_on_the_true_equations(self, solve_cache):
        # example1's theta and W carry exponentials and q is cos(2 pi y): the
        # residual of the true equations falls 2.2, 9.9e-3, 1.8e-5, 5.8e-8
        p = solve_cache.problem("example1").continuum
        worst = [max(continuum_residual(
            solve_cache.solution("example1", SolverConfig(N=N, N_y=2)), p).values())
            for N in (12, 16, 20, 24)]
        assert all(b < a / 10.0 for a, b in zip(worst, worst[1:]))

    def test_reference_solution_rejected(self, example2):
        # a grid solution of the n+1 system is not an ensemble kernel
        sol = solve_characteristics(example2.large_scale(), TriGrid(8))
        with pytest.raises(TypeError, match="unsupported kernel solution type"):
            continuum_residual(sol, example2.continuum)


def loop_sampled_kernels(sol, ls, xs):
    """Oracle: the per-component loop the grid evaluation replaced."""
    n, m = ls.n, len(xs) - 1
    ys = ls.points
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
        ls = n_plus_one(example1.continuum, 10, offset)
        xs = np.linspace(0.0, 1.0, 65)
        got = _sampled_kernels(example1_kernel(), ls.points, xs)
        np.testing.assert_array_equal(np.stack(got),
                                      loop_sampled_kernels(example1_kernel(), ls, xs))

    def test_series(self, example2, solve_cache):
        sol = solve_cache.solution("example2", SolverConfig(N=12))
        ls = example2.large_scale()
        xs = np.linspace(0.0, 1.0, 25)
        got = _sampled_kernels(sol, ls.points, xs)
        want = loop_sampled_kernels(sol, ls, xs)
        for g, w in zip(got, want):         # k, d/dx, d/dxi
            assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


class TestLargescaleResidual:
    def test_single_member_constant_ensemble(self):
        # y-independent problem: the n=1 sums coincide with the integrals
        from continuum_kernels.params import ContinuumParams

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
        ls = n_plus_one(p, 1)
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

    def test_coarse_reference_grid(self, example2):
        # below m = 5 the centered-difference interior is empty; numpy's
        # "zero-size array" error used to be all a caller got
        ls = example2.large_scale()
        with pytest.raises(ValueError, match="m >= 5"):
            largescale_residual(solve_characteristics(ls, TriGrid(4)), ls)
        r = largescale_residual(solve_characteristics(ls, TriGrid(5)), ls)
        assert np.isfinite(list(r.values())).all()

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
        t = gains(example1_kernel(), grid_xi=np.linspace(0, 1, m),
                  grid_y=sample_points(n, -1.0))
        t.sampled = True
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
        # a single column used to end in an IndexError
        p.write_text("xi\n0\n1\n")
        with pytest.raises(ValueError, match="s_sim.csv: a gain table needs xi, kbar"):
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

    def test_writers_golden_bytes(self, tmp_path):
        # literal expected text: a change of output format between commits
        # shows here, where two runs of one commit always agree; the report
        # path is not ASCII, so the files must be UTF-8
        table = GainTable(grid_xi=[0.0, 0.5, 1.0], grid_y=[1 / 3, 1.0],
                          k=[[0.1 + 0.2, -0.0, 1e-300], [2 / 3, 1.5, -7.0]],
                          kbar=[1.0, -0.0, 123456789.125], sampled=True)
        write_gain_csv(table, tmp_path / "g.csv", report_path="out/\u00e9_report.json")
        assert (tmp_path / "g.csv").read_bytes() == (
            "# report: out/\u00e9_report.json\n"
            "# sampled: 1\n"
            "xi,kbar,k@y=0.3333333333333333,k@y=1.0\n"
            "0,1,0.30000000000000004,0.66666666666666663\n"
            "0.5,-0,-0,1.5\n"
            "1,123456789.125,1e-300,-7\n").encode("utf-8")
        report = SimReport(t=np.array([0.0, 0.1, 0.2]), U=np.array([1.0, -0.0, np.nan]),
                           norm=np.array([2.0, 1e300, np.inf]), stable=False,
                           diverged=True, dt=0.1, initial_norm=2.0, final_norm=np.inf)
        write_sim_csv(report, tmp_path / "s.csv", report_path="out/\u00e9_report.json")
        assert (tmp_path / "s.csv").read_bytes() == (
            "# report: out/\u00e9_report.json\n"
            "# stable: 0 diverged: 1\n"
            "t,U,norm\n"
            "0,1,2\n"
            "0.10000000000000001,-0,1.0000000000000001e+300\n"
            "0.20000000000000001,nan,inf\n").encode("utf-8")

    @pytest.mark.parametrize("cut", ["last-row", "header", "abc", "nan"])
    def test_short_rows_name_the_file_and_line(self, tmp_path, cut):
        # a ragged row used to fail with numpy's "inhomogeneous shape", and a
        # header naming more columns than the rows hold with GainTable's
        # "shape does not match grids", neither naming the file; a bad value
        # in the first row failed with numpy's "at row 0, column 4" or with
        # GainTable's "gain tables must be finite"
        path = tmp_path / "g.csv"
        write_gain_csv(GainTable(grid_xi=np.linspace(0, 1, 3), grid_y=[0.5, 1.0],
                                 k=np.ones((2, 3)), kbar=np.ones(3), sampled=True),
                       path)
        lines = path.read_text().splitlines()   # comment, header, 3 rows
        if cut == "last-row":
            lines[-1] = lines[-1].rsplit(",", 1)[0]
        elif cut == "header":
            lines[1] += ",k@y=2.0"
        else:
            lines[2] = lines[2].rsplit(",", 1)[0] + "," + cut
        path.write_text("\n".join(lines) + "\n")
        bad = {"last-row": "line 5 has 3 fields, but the header names 4",
               "header": "line 3 has 4 fields, but the header names 5",
               "abc": "line 3 field 4 is not a number: 'abc'",
               "nan": "line 3 holds a non-finite value"}[cut]
        with pytest.raises(ValueError, match=f"g.csv: {bad}"):
            read_gain_csv(path)

    def test_reader_requires_data(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("# nothing\n")
        with pytest.raises(ValueError):
            read_gain_csv(p)
