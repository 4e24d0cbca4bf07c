import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FULL
from continuum_kernels import power_series
from continuum_kernels.gains import diff_solutions, gains
from continuum_kernels.params import ContinuumParams
from continuum_kernels.power_series import (SRC_BC_DIAG, SRC_BC_LEFT,
                                            SRC_PDE_K, SRC_PDE_KBAR,
                                            LinearSystem,
                                            OrderReductionWarning,
                                            SolverConfig, _GRADINGS,
                                            _check_ny_bound,
                                            _k_columns, _kbar_columns,
                                            _param_series, _q_moments,
                                            _SOURCES, _staircase, assemble,
                                            coeff_vector,
                                            count_unknowns,
                                            optimality_certificate,
                                            optimality_check,
                                            residual_series, solve, solve_ls)
from continuum_kernels.series import (Cos, Exp, Polynomial, SeparableSum,
                                      SeparableTerm, TruncatedSeries, Var,
                                      grlex_key)

X, XI, Y = Var.X, Var.XI, Var.Y
_SRC_RANK = {s: i for i, s in enumerate(_SOURCES)}


def scatter_assemble(p: ContinuumParams, cfg: SolverConfig) -> LinearSystem:
    """The per-entry scatter loop that ``assemble`` replaced, kept as its
    oracle: one dict update per contribution, summed column by column in
    family, then term order."""
    p.check_speeds(np.linspace(0.0, 1.0, 101))
    lamS, muS, thetaS, WS, sigmaS, qS = _param_series(p, cfg)
    _check_ny_bound(cfg, lamS, thetaS)
    N, Ny, s_sig = cfg.N, cfg.N_y, float(cfg.sigma_sign)

    k_cols = _k_columns(N, Ny)
    kb_cols = _kbar_columns(N)
    cols = [("K", e) for e in k_cols] + [("KB", e) for e in kb_cols]

    # parameter data in scatter-friendly form
    mu_terms = sorted(muS.coeffs.items())                       # [(d,), v]
    lam_xi = lamS.rename(Var.X, Var.XI)
    lam_xi_terms = sorted(lam_xi.coeffs.items())                # [(p,qy), v]
    dlam_terms = sorted(lam_xi.diff(Var.XI).coeffs.items())
    theta_xi_terms = sorted(thetaS.rename(Var.X, Var.XI).coeffs.items())
    W_terms = sorted(WS.rename(Var.X, Var.XI).coeffs.items())
    lam_plus_mu = sorted((lamS + muS).coeffs.items())           # over (X,Y) & (X,)
    # eta-moments of sigma: M_c(xi, y) = int sigma(xi, eta, y) eta^c deta
    sigma_xi = sigmaS.rename(Var.X, Var.XI)
    moments = []
    for c in range(Ny + 1):
        eta_c = TruncatedSeries.monomial({Var.ETA: c})
        moments.append(sorted((sigma_xi * eta_c).integrate_unit(Var.ETA).coeffs.items()))
    q_mom = _q_moments(p, cfg, lamS, qS)
    mu0 = muS.coeffs.get((0,), 0.0)

    rows: dict[tuple[str, tuple[int, ...]], dict[int, float]] = {}
    bvals: dict[tuple[str, tuple[int, ...]], float] = {}

    def scat(src, mono, col, val):
        if val == 0.0:
            return
        d = rows.setdefault((src, mono), {})
        d[col] = d.get(col, 0.0) + val

    lpm = lam_plus_mu

    for j, (a, b, c) in enumerate(k_cols):
        # E1: mu(x) dk/dx
        if a > 0:
            for (d,), v in mu_terms:
                scat(SRC_PDE_K, (a - 1 + d, b, c), j, v * a)
        # E1: -lam(xi,y) dk/dxi
        if b > 0:
            for (pp, qy), v in lam_xi_terms:
                scat(SRC_PDE_K, (a, b - 1 + pp, c + qy), j, -v * b)
        # E1: -(dlam/dxi) k
        for (pp, qy), v in dlam_terms:
            scat(SRC_PDE_K, (a, b + pp, c + qy), j, -v)
        # E1: -s * eta-moment of sigma against this column's y power
        for (pp, qy), v in moments[c]:
            scat(SRC_PDE_K, (a, b + pp, qy), j, -s_sig * v)
        # E2: -int W(xi,y) k dy
        for (pp, qy), v in W_terms:
            scat(SRC_PDE_KBAR, (a, b + pp), j, -v / (qy + c + 1))
        # E3: (lam+mu)(x,y) k(x,x,y)
        for (pp, qy), v in lpm:
            scat(SRC_BC_DIAG, (a + b + pp, c + qy), j, v)
        # E4: -m_c x^a for columns with no xi power
        if b == 0:
            scat(SRC_BC_LEFT, (a,), j, -q_mom[c])

    off = len(k_cols)
    for jj, (a, b) in enumerate(kb_cols):
        j = off + jj
        # E1: -theta(xi,y) kbar
        for (pp, qy), v in theta_xi_terms:
            scat(SRC_PDE_K, (a, b + pp, qy), j, -v)
        # E2: mu(x) dkbar/dx + mu(xi) dkbar/dxi + mu'(xi) kbar
        if a > 0:
            for (d,), v in mu_terms:
                scat(SRC_PDE_KBAR, (a - 1 + d, b), j, v * a)
        if b > 0:
            for (d,), v in mu_terms:
                scat(SRC_PDE_KBAR, (a, b - 1 + d), j, v * b)
        for (d,), v in mu_terms:
            if d >= 1:
                scat(SRC_PDE_KBAR, (a, b + d - 1), j, v * d)
        # E4: mu(0) kbar(x,0)
        if b == 0:
            scat(SRC_BC_LEFT, (a,), j, mu0)

    # constant side of E3: + theta(x,y), moved to b as -theta
    for (pp, qy), v in sorted(thetaS.coeffs.items()):
        key = (SRC_BC_DIAG, (pp, qy))
        rows.setdefault(key, {})
        bvals[key] = bvals.get(key, 0.0) - v

    keys = sorted(rows, key=lambda r: (_SRC_RANK[r[0]], grlex_key(r[1])))
    keys = [
        r for r in keys
        if any(v != 0.0 for v in rows[r].values()) or bvals.get(r, 0.0) != 0.0
    ]
    data, ri, ci = [], [], []
    b_vec = np.zeros(len(keys))
    for i, r in enumerate(keys):
        b_vec[i] = bvals.get(r, 0.0)
        for j, v in sorted(rows[r].items()):
            if v != 0.0:
                ri.append(i)
                ci.append(j)
                data.append(v)
    A = scipy.sparse.csr_matrix(
        (data, (ri, ci)), shape=(len(keys), len(cols)), dtype=float
    )
    return LinearSystem(A=A, b=b_vec, cols=cols, rows=keys, config=cfg)


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
                direct = sym[src].eval_grid({v: [point[v]] for v in vars_}).item()
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
    def test_certificate_at_roundoff_residual(self, solve_cache):
        # the residual, 1.4e-12, is roundoff; with the residual unfloored
        # the certificate read 1.9e-2 here. Moving one coefficient by 1e-3
        # of the largest gave 6.7e-5 to 4.5e-2
        cfg = SolverConfig(N=30, N_y=2, use_exact_q=True)
        system = assemble(solve_cache.problem("example1").continuum, cfg)
        sol = solve_cache.solution("example1", cfg)
        assert sol.residual < 1e-10
        assert optimality_certificate(system, sol.x) <= 1e-10
        for j in (0, np.argmax(np.abs(sol.x)), len(sol.x) - 1):
            worse = sol.x.copy()
            worse[j] += 1e-3 * np.abs(sol.x).max()
            assert optimality_certificate(system, worse) >= 1e-5

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
    """The staircase QR solve against a dense least-squares oracle.
    Measured gaps: coefficients 1.4e-10, residuals 8.3e-11 relative
    (example1, N = 20)."""

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
        assert sol.solve_path == "staircase_qr"
        assert sol.rank == system.A.shape[1]
        # example1's diagonal-BC rows span every x-degree level: its configs,
        # full order included, take the wide-row merge
        assert sol.wide_rows > 0 or name == "example2"
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

    @pytest.mark.parametrize("name, N_y, ordering", [
        ("example2", None, "x+xi"), ("example1", 2, "x"), ("example2", 2, "x+xi")])
    def test_grading_choice(self, solve_cache, name, N_y, ordering):
        # example2 with N_y = 2 is the closed-loop benchmark's system. Its
        # "x" plan with 48 wide rows solves faster alone, but the simulation
        # that follows it ran slower (pass 0.28 -> 0.32 s), so the merge's
        # cost weight keeps it on "x+xi" without wide rows
        sol = solve_cache.solution(name, SolverConfig(N=20, N_y=N_y))
        assert sol.solve_path == "staircase_qr"
        assert sol.ordering == ordering
        assert (sol.wide_rows > 0) == (ordering == "x")
        assert 0.0 < sol.r_diag_ratio <= 1.0

    @FULL
    @pytest.mark.parametrize("name, cfg", [
        ("example2", SolverConfig(N=25, sigma_sign=-1)),
        ("example1", SolverConfig(N=30, N_y=2, use_exact_q=True)),
        ("example1", SolverConfig(N=30))])
    def test_matches_dense_oracle_largest(self, solve_cache, name, cfg):
        # the benchmark's largest systems and example1 at full order. The
        # example1 residuals, about 1e-12 against 3.9e-12 from the oracle at
        # N_y = 2, are at roundoff: there a one-ulp change of x moves them by
        # 120 %, hence the absolute floor
        system = assemble(solve_cache.problem(name).continuum, cfg)
        sol = solve_ls(system)
        assert sol.solve_path == "staircase_qr"
        x_ref = _dense_oracle(system)
        np.testing.assert_allclose(sol.x, x_ref, rtol=0.0, atol=1e-8)
        r_ref = np.linalg.norm(system.A @ x_ref - system.b)
        assert sol.residual == pytest.approx(r_ref, rel=1e-9, abs=1e-10)

    def test_fewer_rows_than_columns_falls_back(self):
        # the two level-0 columns meet only row 0: no grading and no span
        # cut gives the level as many rows as columns
        A = scipy.sparse.csr_matrix([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0],
                                     [0.0, 0.0, 3.0]])
        system = LinearSystem(A=A, b=np.array([1.0, 2.0, 3.0]),
                              cols=[("KB", (0, 0)), ("K", (0, 0, 1)), ("KB", (1, 0))],
                              rows=[], config=SolverConfig(N=1))
        for grading in _GRADINGS:
            cost, _, _, _, _, bounds, _ = _staircase(A, grading, system.cols)
            assert bounds[1] == 2 and np.all(np.isinf(cost))
        sol = solve_ls(system)
        assert sol.solve_path == "dense_lstsq"
        assert sol.rank == 2 and sol.ordering is None
        np.testing.assert_allclose(sol.x, _dense_oracle(system), rtol=0.0,
                                   atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 40), extra=st.integers(1, 40),
           density=st.floats(0.02, 0.3), seed=st.integers(0, 2 ** 32 - 1),
           keys=st.lists(st.tuples(st.booleans(), st.integers(0, 4),
                                   st.integers(0, 4), st.integers(0, 2)),
                         min_size=40, max_size=40),
           dense=st.integers(0, 3))
    # level 0 holds columns 0 and 1, whose diagonal rows are dropped, and the
    # random row is empty: with the dense rows wide, level 0 has no narrow
    # row for its two columns, and the two wide rows make it full rank
    @example(n=6, extra=1, density=0.02, seed=0, dense=2,
             keys=[(False, 0, 0, 0), (False, 0, 0, 0)]
             + [(False, a, 0, 0) for a in range(1, 39)])
    def test_random_full_rank_systems(self, n, extra, density, seed, keys, dense):
        rng = np.random.default_rng(seed)
        # a nonsingular diagonal block on top keeps full column rank; the
        # dense rows span every level and stand in for the diagonal rows of
        # the first `dense` columns
        diag = scipy.sparse.diags(rng.uniform(0.5, 2.0, n) * rng.choice([-1, 1], n))
        rand = scipy.sparse.random(extra, n, density=density, random_state=rng,
                                   data_rvs=rng.standard_normal)
        full = scipy.sparse.csr_matrix(rng.standard_normal((dense, n)))
        A = scipy.sparse.vstack([diag.tocsr()[min(dense, n):], rand, full]).tocsr()
        b = rng.standard_normal(A.shape[0])
        # repeated levels put several columns in a panel
        cols = [("K", (a, bb, c)) if is_k else ("KB", (a, bb))
                for is_k, a, bb, c in keys[:n]]
        system = LinearSystem(A=A, b=b, cols=cols, rows=[], config=SolverConfig(N=n))
        x_ref = _dense_oracle(system)
        sol = solve_ls(system)
        assert sol.solve_path == "staircase_qr"
        assert sol.ordering in _GRADINGS
        # and every feasible plan, wide rows or not, gives the same solution
        for grading in _GRADINGS:
            cost = _staircase(A, grading, cols)[0]
            for i in np.flatnonzero(np.isfinite(cost)):
                with mock.patch.object(power_series, "_staircase", _only_plan(grading, i)):
                    sol = solve_ls(system)
                assert sol.solve_path == "staircase_qr"
                assert sol.ordering == grading
                np.testing.assert_allclose(sol.x, x_ref, rtol=0.0,
                                           atol=1e-10 * max(1.0, np.abs(sol.x).max()))


def _only_plan(grading: str, i: int):
    """`_staircase` with every plan but the i-th cut of `grading` ruled out."""
    def plans(A, g, keys):
        cost, *rest = _staircase(A, g, keys)
        keep = (np.arange(len(cost)) == i) & (g == grading)
        return (np.where(keep, cost, np.inf), *rest)
    return plans


def _assert_same_system(got: LinearSystem, want: LinearSystem):
    assert got.rows == want.rows
    assert got.cols == want.cols
    assert got.A.shape == want.A.shape
    assert np.array_equal(got.b, want.b)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got.A, part), getattr(want.A, part)), part


QUARTERS = st.integers(-8, 8).map(lambda k: k / 4.0)


def _factor(var: Var):
    return st.one_of(
        st.lists(QUARTERS, min_size=1, max_size=4).map(
            lambda cs: Polynomial(var, cs)),
        st.sampled_from([-1.5, -0.5, 0.5, 1.0, 2.0]).map(lambda r: Exp(var, r)),
        st.tuples(st.sampled_from([1.0, 2.0, 2.0 * math.pi]),
                  st.sampled_from([0.0, 0.3])).map(lambda ap: Cos(var, *ap)),
    )


@st.composite
def _coupling(draw, vars_):
    """Up to three separable terms; a term may lack any of the variables.
    A term may come with its negative, so their coefficients cancel."""
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        used = draw(st.lists(st.sampled_from(vars_), unique=True))
        term = SeparableTerm(draw(QUARTERS.filter(bool)),
                             [draw(_factor(v)) for v in used])
        terms.append(term)
        if draw(st.integers(0, 4)) == 0:
            terms.append(SeparableTerm(-term.scale, term.factors))
    return SeparableSum(terms)


def _speeds(lam_slope: float, mu_slope: float, lam_extra=None, mu_extra=None):
    """lam = 1 + lam_slope x (+ a y term), mu = 1 + mu_slope x (+ an x
    term); the extras are bounded by 1/4, so both speeds stay positive."""
    lam = [SeparableTerm(1.0, []), SeparableTerm(lam_slope, [Polynomial(X, [0, 1])])]
    mu = [SeparableTerm(1.0, []), SeparableTerm(mu_slope, [Polynomial(X, [0, 1])])]
    if lam_extra is not None:
        lam.append(SeparableTerm(0.25, [lam_extra]))
    if mu_extra is not None:
        mu.append(SeparableTerm(0.25, [mu_extra]))
    return SeparableSum(lam), SeparableSum(mu)


def _cancelling_problem(mu_slope: float) -> ContinuumParams:
    """lam = mu = 1 + x: in column (a, b, c) of the k equation the terms
    mu' a, -lam_xi b and -dlam/dxi sum to a - b - 1, which is exactly 0 for
    a = b + 1. At total degree N no other column reaches that row, so the
    row cancels and is dropped. W has several y powers at every xi power, so
    many W terms land on the same entry of the kbar equation."""
    lam, mu = _speeds(1.0, mu_slope)
    W = SeparableSum([SeparableTerm(0.75, [Exp(X, 1.0), Exp(Y, 0.5)])])
    return ContinuumParams(lam=lam, mu=mu, sigma=SeparableSum.zero(),
                           theta=SeparableSum.zero(), W=W,
                           q=SeparableSum.poly(Y, [0.5, -1.0]))


@st.composite
def _problems(draw):
    slope = draw(st.sampled_from([0.0, 0.5, 1.0]))
    lam, mu = _speeds(
        slope,
        # equal slopes make k-equation entries cancel exactly
        draw(st.sampled_from([slope, 0.0, 0.25])),
        draw(st.none() | st.sampled_from([Cos(Y, 2.0), Polynomial(Y, [0, 0, 1]),
                                          Exp(Y, -1.0)])),
        draw(st.none() | st.just(Cos(X, 1.0))),
    )
    p = ContinuumParams(lam=lam, mu=mu, sigma=draw(_coupling((X, Var.ETA, Y))),
                        theta=draw(_coupling((X, Y))), W=draw(_coupling((X, Y))),
                        q=draw(_coupling((Y,))))
    N = draw(st.integers(0, 12))
    cfg = SolverConfig(N=N, N_y=draw(st.none() | st.integers(0, N)),
                       use_exact_q=draw(st.booleans()),
                       sigma_sign=draw(st.sampled_from([1, -1])))
    return p, cfg


@pytest.mark.filterwarnings("ignore::continuum_kernels.power_series.OrderReductionWarning")
class TestAgainstScatterOracle:
    """The array assembly is bit-identical to the per-entry scatter loop:
    same rows, columns and right-hand side, and the same CSR arrays."""

    @pytest.mark.parametrize("sigma_sign", [1, -1])
    @pytest.mark.parametrize("exact_q", [False, True])
    @pytest.mark.parametrize("N_y", [None, 2])
    @pytest.mark.parametrize("N", [6, 14, 20])
    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_builtin_configs(self, solve_cache, name, N, N_y, exact_q,
                             sigma_sign):
        p = solve_cache.problem(name).continuum
        cfg = SolverConfig(N=N, N_y=N_y, use_exact_q=exact_q,
                           sigma_sign=sigma_sign)
        _assert_same_system(assemble(p, cfg), scatter_assemble(p, cfg))

    def test_cancelled_row_is_dropped(self):
        cfg = SolverConfig(N=10)
        row = (SRC_PDE_K, (5, 4, 1))
        cancelled = assemble(_cancelling_problem(1.0), cfg)
        assert row not in cancelled.rows
        assert row in assemble(_cancelling_problem(0.5), cfg).rows
        _assert_same_system(cancelled,
                            scatter_assemble(_cancelling_problem(1.0), cfg))

    @settings(max_examples=40, deadline=None)
    @example((_cancelling_problem(1.0), SolverConfig(N=10)))
    @example((_cancelling_problem(1.0), SolverConfig(N=12, N_y=3,
                                                      use_exact_q=True)))
    @given(case=_problems())
    def test_random_separable_configs(self, case):
        p, cfg = case
        _assert_same_system(assemble(p, cfg), scatter_assemble(p, cfg))
