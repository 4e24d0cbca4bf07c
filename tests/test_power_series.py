import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from continuum_kernels.gains import diff_solutions, gains
from continuum_kernels.power_series import (LinearSystem,
                                            OrderReductionWarning,
                                            SolverConfig, _q_moments,
                                            assemble, coeff_vector,
                                            count_unknowns, optimality_check,
                                            residual_series, solve, solve_ls)
from continuum_kernels.series import TruncatedSeries, Var

X, XI, Y = Var.X, Var.XI, Var.Y


class TestCountUnknowns:
    def test_closed_forms_agree(self):
        for N in range(0, 31):
            nK, nKB = count_unknowns(N)
            assert nK == N * (N + 1) * (2 * N + 10) // 12 + N + 1
            assert nKB == (N + 1) * (N + 2) // 2

    def test_constants_only(self):
        assert count_unknowns(0) == (1, 1)

    def test_reduced_order(self):
        nK, nKB = count_unknowns(12, 2)
        assert nK + nKB == 326

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            count_unknowns(4, 5)
        with pytest.raises(ValueError):
            count_unknowns(4, -1)

    @pytest.mark.filterwarnings("ignore::continuum_kernels.power_series.OrderReductionWarning")
    @pytest.mark.parametrize("N,Ny", [(3, 3), (5, 2), (8, 0), (7, 7)])
    def test_matches_columns_created(self, example2, N, Ny):
        system = assemble(example2.continuum, SolverConfig(N=N, N_y=Ny))
        nK, nKB = count_unknowns(N, Ny)
        assert len([c for c in system.cols if c[0] == "K"]) == nK
        assert len([c for c in system.cols if c[0] == "KB"]) == nKB


class TestAssembly:
    def test_zero_problem_solves_to_zero(self, zero_problem):
        sol = solve(zero_problem.continuum, SolverConfig(N=4))
        assert sol.residual == 0.0
        assert sol.k.is_zero() and sol.kbar.is_zero()

    def test_homogeneous_solution_exactly_zero(self, zero_problem):
        sol = solve(zero_problem.continuum, SolverConfig(N=6, N_y=2))
        assert np.all(sol.x == 0.0)

    @pytest.mark.parametrize("name,cfg", [
        ("example1", SolverConfig(N=5)),
        ("example2", SolverConfig(N=4)),
        ("example2", SolverConfig(N=5, N_y=2)),
        ("example2", SolverConfig(N=4, sigma_sign=-1)),
        ("example1", SolverConfig(N=4, use_exact_q=True, N_y=3)),
    ])
    def test_rows_match_symbolic_residual(self, solve_cache, name, cfg):
        """Every assembled row, recombined against its monomial, must equal
        the independently built symbolic residual at random points."""
        problem = solve_cache.problem(name)
        system = assemble(problem.continuum, cfg)
        rng = np.random.default_rng(42)
        xvec = rng.normal(size=len(system.cols))
        k_coeffs = {}
        kb_coeffs = {}
        for (kind, e), v in zip(system.cols, xvec):
            (k_coeffs if kind == "K" else kb_coeffs)[e] = v
        k = TruncatedSeries((X, XI, Y), k_coeffs)
        kbar = TruncatedSeries((X, XI), kb_coeffs)
        sym = residual_series(problem.continuum, cfg, k, kbar)
        resid = system.A @ xvec - system.b
        pts = rng.uniform(0.0, 1.0, size=(20, 3))
        var_lists = {
            "pde_k": (X, XI, Y), "pde_kbar": (X, XI),
            "bc_diag": (X, Y), "bc_left": (X,),
        }
        for src, vars_ in var_lists.items():
            rows = [(i, mono) for i, (s, mono) in enumerate(system.rows)
                    if s == src]
            for p in pts:
                point = dict(zip(vars_, p))
                recombined = sum(
                    resid[i] * math.prod(point[v] ** e
                                         for v, e in zip(vars_, mono))
                    for i, mono in rows
                )
                direct = sym[src].eval(point)
                assert recombined == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_order_reduction_warning(self, example1):
        with pytest.warns(OrderReductionWarning):
            assemble(example1.continuum, SolverConfig(N=6, N_y=1))

    def test_no_warning_at_bound(self, example1, recwarn):
        assemble(example1.continuum, SolverConfig(N=6, N_y=2))
        assert not [w for w in recwarn.list
                    if issubclass(w.category, OrderReductionWarning)]

    @pytest.mark.filterwarnings("ignore::continuum_kernels.power_series.OrderReductionWarning")
    @pytest.mark.parametrize("name", ["example1", "example2"])
    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_degenerate_low_orders_still_solve(self, solve_cache, name, N):
        # orders below the parameter structure assemble and solve; the
        # couplings simply truncate away
        sol = solve_cache.solution(name, SolverConfig(N=N))
        assert np.isfinite(sol.residual)
        assert sol.num_unknowns == sum(count_unknowns(N))

    def test_positivity_enforced(self):
        from continuum_kernels.params import parse_problem_dict
        bad = parse_problem_dict({
            "lambda": -1.0, "mu": 1.0, "sigma": 0.0, "theta": 0.0,
            "w": 0.0, "q": 0.0})
        with pytest.raises(ValueError, match="positive"):
            assemble(bad.continuum, SolverConfig(N=3))

    def test_deterministic_assembly(self, example2):
        cfg = SolverConfig(N=5)
        s1 = assemble(example2.continuum, cfg)
        s2 = assemble(example2.continuum, cfg)
        assert s1.rows == s2.rows
        assert s1.cols == s2.cols
        assert (s1.A != s2.A).nnz == 0
        np.testing.assert_array_equal(s1.b, s2.b)


class TestExactQMoments:
    def test_cosine_moments_match_closed_forms(self, example1):
        cfg = SolverConfig(N=4, use_exact_q=True)
        lam = example1.continuum.lam.taylor(4).align_to((X, Y))
        q = example1.continuum.q.taylor(4).align_to((Y,))
        m = _q_moments(example1.continuum, cfg, lam, q)
        # int cos(2 pi y) dy = 0 ; int cos(2 pi y) y dy = 0
        # int cos(2 pi y) y^2 dy = 1/(2 pi^2)
        assert m[0] == pytest.approx(0.0, abs=1e-12)
        assert m[1] == pytest.approx(0.0, abs=1e-12)
        assert m[2] == pytest.approx(1.0 / (2 * math.pi ** 2), abs=1e-12)

    def test_series_moments_converge_to_exact(self, example1):
        exact = SolverConfig(N=30, N_y=3, use_exact_q=True)
        srs = SolverConfig(N=30, N_y=3, use_exact_q=False)
        lam = example1.continuum.lam.taylor(30).align_to((X, Y))
        q = example1.continuum.q.taylor(30).align_to((Y,))
        me = _q_moments(example1.continuum, exact, lam, q)
        ms = _q_moments(example1.continuum, srs, lam, q)
        np.testing.assert_allclose(ms, me, atol=1e-10)


class TestOptimality:
    def test_candidate_equals_reference(self, solve_cache):
        cfg = SolverConfig(N=5)
        system = assemble(solve_cache.problem("example2").continuum, cfg)
        sol = solve_ls(system)
        assert optimality_check(system, sol.x, sol.x)

    def test_perturbed_candidate_loses(self, solve_cache):
        cfg = SolverConfig(N=5)
        system = assemble(solve_cache.problem("example2").continuum, cfg)
        sol = solve_ls(system)
        worse = sol.x.copy()
        worse[3] += 1.0
        assert not optimality_check(system, worse, sol.x)
        assert optimality_check(system, sol.x, worse)

    def test_dimension_mismatch(self, solve_cache):
        cfg = SolverConfig(N=4)
        system = assemble(solve_cache.problem("example2").continuum, cfg)
        with pytest.raises(ValueError):
            optimality_check(system, np.zeros(3), np.zeros(3))

    def test_beats_truncated_exact_kernel(self, example1):
        # reference: the exact closed-form kernels expanded to order N
        N = 8
        cfg = SolverConfig(N=N)
        system = assemble(example1.continuum, cfg)
        sol = solve_ls(system)
        rate = 35.0 / math.pi ** 2
        k_coeffs = {}
        for b in range(N + 1):
            cb = 35.0 * rate ** b / math.factorial(b)
            if b + 1 <= N:
                k_coeffs[(0, b, 1)] = -cb
            if b + 2 <= N:
                k_coeffs[(0, b, 2)] = cb
        k_ref = TruncatedSeries((X, XI, Y), k_coeffs)
        kb_ref = TruncatedSeries.constant(35.0 / (2 * math.pi ** 2)).align_to((X, XI))
        ref = coeff_vector(system, k_ref, kb_ref)
        assert optimality_check(system, sol.x, ref)


class TestReducedOrderEquivalence:
    def test_full_and_reduced_agree_on_gains(self, solve_cache,
                                             exact_gain_reference):
        full = solve_cache.solution("example1", SolverConfig(N=14))
        red = solve_cache.solution("example1", SolverConfig(N=14, N_y=2))
        grid = np.linspace(0, 1, 101)
        kx, kbx = exact_gain_reference(grid, grid)
        tf = gains(full, grid_xi=grid, grid_y=grid)
        tr = gains(red, grid_xi=grid, grid_y=grid)
        ef = max(np.abs(tf.k - kx).max(), np.abs(tf.kbar - kbx).max())
        er = max(np.abs(tr.k - kx).max(), np.abs(tr.kbar - kbx).max())
        assert diff_solutions(tf, tr) <= 2.0 * max(ef, er)


def _dense_oracle(system: LinearSystem) -> np.ndarray:
    """Minimum-norm solution by dense rank-revealing QR."""
    x, _, _, _ = scipy.linalg.lstsq(system.A.toarray(), system.b,
                                    lapack_driver="gelsy")
    return x


class TestSparseAgainstDense:
    """The sparse augmented-system solve against a dense least-squares
    oracle. Measured gaps: coefficients 1.4e-10, residuals 8.3e-11
    relative (example1, N = 20)."""

    @pytest.mark.parametrize("sigma_sign", [1, -1])
    @pytest.mark.parametrize("exact_q", [False, True])
    @pytest.mark.parametrize("N_y", [None, 2])
    @pytest.mark.parametrize("N", [8, 14, 20])
    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_matches_dense_oracle(self, solve_cache, name, N, N_y, exact_q,
                                  sigma_sign):
        cfg = SolverConfig(N=N, N_y=N_y, use_exact_q=exact_q,
                           sigma_sign=sigma_sign)
        system = assemble(solve_cache.problem(name).continuum, cfg)
        sol = solve_ls(system)
        assert sol.solve_path == "sparse_lu"
        assert sol.rank == system.A.shape[1]
        x_ref = _dense_oracle(system)
        np.testing.assert_allclose(sol.x, x_ref, rtol=0.0, atol=1e-8)
        r_ref = np.linalg.norm(system.A @ x_ref - system.b)
        assert sol.residual == pytest.approx(r_ref, rel=1e-9)

    @pytest.mark.parametrize("dup", [0, -1])
    def test_duplicated_column_falls_back_to_minimum_norm(self, example2, dup):
        # column 0 gives an exactly singular factor; the last column a pivot
        # at roundoff level instead
        system = assemble(example2.continuum, SolverConfig(N=8))
        j = dup % system.A.shape[1]
        full = solve_ls(system)
        A = scipy.sparse.hstack([system.A, system.A[:, j]]).tocsr()
        dup_system = LinearSystem(A=A, b=system.b,
                                  cols=system.cols + [system.cols[j]],
                                  rows=system.rows, config=system.config)
        sol = solve_ls(dup_system)
        assert sol.solve_path == "dense_lstsq"
        assert sol.rank == system.A.shape[1]
        # the minimum-norm solution splits the coefficient evenly
        expected = np.append(full.x, 0.0)
        expected[j] = expected[-1] = full.x[j] / 2.0
        np.testing.assert_allclose(sol.x, expected, rtol=0.0, atol=1e-10)
        assert sol.residual == pytest.approx(full.residual, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 40), extra=st.integers(1, 40),
           density=st.floats(0.02, 0.3), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_full_rank_systems(self, n, extra, density, seed):
        rng = np.random.default_rng(seed)
        # a nonsingular diagonal block on top keeps full column rank
        diag = scipy.sparse.diags(rng.uniform(0.5, 2.0, n) * rng.choice([-1, 1], n))
        rand = scipy.sparse.random(extra, n, density=density, random_state=rng,
                                   data_rvs=rng.standard_normal)
        A = scipy.sparse.vstack([diag, rand]).tocsr()
        b = rng.standard_normal(n + extra)
        system = LinearSystem(A=A, b=b, cols=[("KB", (i, 0)) for i in range(n)],
                              rows=[], config=SolverConfig(N=n))
        sol = solve_ls(system)
        assert sol.solve_path == "sparse_lu"
        np.testing.assert_allclose(sol.x, _dense_oracle(system), rtol=0.0,
                                   atol=1e-10 * max(1.0, np.abs(sol.x).max()))
