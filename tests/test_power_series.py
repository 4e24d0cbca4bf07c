import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (ARITY, FULL, DictSeries, coeff_vector, col_array,
                      col_keys, duplicated_column_system, optimality_check,
                      residual_series, row_keys, series_from)
from continuum_kernels import power_series
from continuum_kernels.gains import continuum_residual, diff_solutions, gains
from continuum_kernels.params import ContinuumParams
from continuum_kernels.power_series import (SRC_BC_DIAG, SRC_BC_LEFT,
                                            SRC_PDE_K, SRC_PDE_KBAR,
                                            LinearSystem,
                                            OrderReductionWarning,
                                            SolverConfig, _GRADINGS,
                                            _check_ny_bound,
                                            _param_series, _q_moments,
                                            _moments, _SOURCES,
                                            _staircase, assemble,
                                            count_unknowns,
                                            optimality_certificate,
                                            solve_ls)
from continuum_kernels.series import (Cos, Exp, Polynomial, SeparableSum,
                                      SeparableTerm, TruncatedSeries, Var,
                                      integrate01)

X, XI, Y = Var.X, Var.XI, Var.Y
_SRC_RANK = {s: i for i, s in enumerate(_SOURCES)}


def grlex_key(exps: tuple[int, ...]) -> tuple:
    """Graded-lexicographic sort key: total degree first, then exponents."""
    return (sum(exps), exps)


def _k_columns(N: int, N_y: int) -> list[tuple[int, int, int]]:
    cols = [(a, b, c) for c in range(N_y + 1) for a in range(N - c + 1)
            for b in range(N - c - a + 1)]
    return sorted(cols, key=grlex_key)


def _kbar_columns(N: int) -> list[tuple[int, int]]:
    cols = [(tot - b, b) for tot in range(N + 1) for b in range(tot + 1)]
    return sorted(cols, key=grlex_key)


def scatter_assemble(p: ContinuumParams, cfg: SolverConfig) -> LinearSystem:
    """The per-entry scatter loop that ``assemble`` replaced, kept as its
    oracle: columns listed and sorted by grlex_key, one dict update per
    contribution, summed column by column in family, then term order. Its
    labels are tuple lists: ("K", (a, b, c)) or ("KB", (a, b)) per column,
    (source, monomial) per row."""
    p.check_speeds(np.linspace(0.0, 1.0, 101))
    lamS, muS, thetaS, WS, sigmaS, qS = _param_series(p, cfg)
    _check_ny_bound(cfg, lamS, thetaS)
    N, Ny, s_sig = cfg.N, cfg.N_y, float(cfg.sigma_sign)

    k_cols = _k_columns(N, Ny)
    kb_cols = _kbar_columns(N)
    cols = [("K", e) for e in k_cols] + [("KB", e) for e in kb_cols]

    # parameter data in scatter-friendly form; lam and theta enter E1 at xi,
    # so their (x, y) coefficients serve as (xi, y) ones
    mu_terms = sorted(muS.coeffs.items())                       # [(d,), v]
    lam_xi_terms = sorted(lamS.coeffs.items())                  # [(p,qy), v]
    dlam_terms = sorted(lamS.diff(Var.X).coeffs.items())
    theta_xi_terms = sorted(thetaS.coeffs.items())
    lam_plus_mu = sorted((lamS + muS).coeffs.items())           # over (X,Y) & (X,)
    # eta-moments of sigma, M_c(xi, y) = int sigma(xi, eta, y) eta^c deta, and
    # y-moments of W, int W(xi, y) y^c dy, as assemble sums them (checked
    # against the series algebra below)
    moments = [sorted(TruncatedSeries((XI, Y), m).coeffs.items())
               for m in np.moveaxis(_moments(sigmaS.array, Ny), 1, 0)]
    W_moments = [sorted(TruncatedSeries((XI,), m).coeffs.items())
                 for m in _moments(WS.array, Ny).T]
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
        # E2: -int W(xi,y) k dy, the y-moment of W against this column's y power
        for (pp,), v in W_moments[c]:
            scat(SRC_PDE_KBAR, (a, b + pp), j, -v)
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
        assert len([c for c in col_keys(system.cols) if c[0] == "K"]) == nK
        assert len([c for c in col_keys(system.cols) if c[0] == "KB"]) == nKB


class TestAssembly:
    def test_zero_problem_solves_to_zero(self, zero_problem):
        sol = solve_ls(assemble(zero_problem.continuum, SolverConfig(N=4)))
        assert sol.residual == 0.0
        assert sol.k.is_zero() and sol.kbar.is_zero()

    def test_homogeneous_solution_exactly_zero(self, zero_problem):
        sol = solve_ls(assemble(zero_problem.continuum, SolverConfig(N=6, N_y=2)))
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
        for (kind, e), v in zip(col_keys(system.cols), xvec):
            (k_coeffs if kind == "K" else kb_coeffs)[e] = v
        k = series_from((X, XI, Y), k_coeffs)
        kbar = series_from((X, XI), kb_coeffs)
        sym = residual_series(problem.continuum, cfg, k, kbar)
        resid = system.A @ xvec - system.b
        pts = rng.uniform(0.0, 1.0, size=(20, 3))
        var_lists = {
            "pde_k": (X, XI, Y), "pde_kbar": (X, XI),
            "bc_diag": (X, Y), "bc_left": (X,),
        }
        for src, vars_ in var_lists.items():
            rows = [(i, mono) for i, (s, mono) in enumerate(row_keys(system.rows))
                    if s == src]
            for p in pts:
                point = dict(zip(vars_, p))
                recombined = sum(
                    resid[i] * math.prod(point[v] ** e
                                         for v, e in zip(vars_, mono))
                    for i, mono in rows
                )
                direct = sym[src].at(point)
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

    @pytest.mark.parametrize("kw, match", [
        ({"N": -1}, "N must be non-negative"),
        ({"N": 4, "N_y": 5}, r"need 0 <= N_y <= N"),
        ({"N": 4, "N_y": -1}, r"need 0 <= N_y <= N"),
        ({"N": 4, "sigma_sign": 0}, r"sigma_sign must be \+1 or -1"),
        ({"N": 4, "sigma_sign": 2}, r"sigma_sign must be \+1 or -1")],
        ids=["N", "N_y-high", "N_y-negative", "sigma-0", "sigma-2"])
    def test_config_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            SolverConfig(**kw)

    def test_positivity_enforced(self):
        from continuum_kernels.params import parse_problem_dict
        bad = parse_problem_dict({
            "lambda": -1.0, "mu": 1.0, "sigma": 0.0, "theta": 0.0,
            "w": 0.0, "q": 0.0})
        with pytest.raises(ValueError, match="positive"):
            assemble(bad.continuum, SolverConfig(N=3))

    @pytest.mark.parametrize("N, N_y", [(20, None), (25, None), (20, 2)])
    def test_sigma_sign_solves_the_oriented_problem(self, solve_cache, N, N_y):
        # -1 is the sigma-negated problem at +1: the same system bit for bit,
        # and the same residual in the equations each solution is measured in
        p = solve_cache.problem("example2").continuum
        negated = replace(p, sigma=p.sigma.scale(-1.0))
        minus, plus = SolverConfig(N=N, N_y=N_y, sigma_sign=-1), SolverConfig(N=N, N_y=N_y)
        got, want = assemble(p, minus), assemble(negated, plus)
        for part in ("rows", "cols", "b"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), part
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got.A, part), getattr(want.A, part)), part
        assert continuum_residual(solve_ls(got), p) == \
            continuum_residual(solve_ls(want), negated)

    def test_deterministic_assembly(self, example2):
        cfg = SolverConfig(N=5)
        s1 = assemble(example2.continuum, cfg)
        s2 = assemble(example2.continuum, cfg)
        assert np.array_equal(s1.rows, s2.rows)
        assert np.array_equal(s1.cols, s2.cols)
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

    def test_series_moments_weight_by_a_varying_lambda(self):
        # lam(0, y) = 1 + y/2 + y^2: the shipped configs have lam(0, y) = 1,
        # so only here does the series q meet a nonconstant factor
        lam = SeparableSum.poly(Y, [1.0, 0.5, 1.0])
        p = ContinuumParams(lam=lam, mu=SeparableSum.constant(1.0),
                            sigma=SeparableSum.zero(), theta=SeparableSum.zero(),
                            W=SeparableSum.zero(),
                            q=SeparableSum([SeparableTerm(0.8, [Cos(Y, 3.0)])]))
        cfg = SolverConfig(N=8, N_y=4)
        lamS, _, _, _, _, qS = _param_series(p, cfg)
        m = _q_moments(p, cfg, lamS, qS)
        want = [integrate01(lambda y, c=c: qS.eval_grid({Y: y}) * lam.eval1(Y, y)
                            * y ** c, 1e-14) for c in range(cfg.N_y + 1)]
        np.testing.assert_allclose(m, want, rtol=0, atol=1e-13)


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
        k_ref = series_from((X, XI, Y), k_coeffs)
        kb_ref = series_from((X, XI), {(0, 0): 35.0 / (2 * math.pi ** 2)})
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


def _staircase_system(sizes, wide, rng, touch=0.5) -> LinearSystem:
    """Columns in levels of the given sizes, in shuffled order. Each column
    has a row of its own, each level but the last a row into the next, and
    each (entry, span) of `wide` a row from the entry level to the level
    span above it. A row touches its two end levels and about a `touch`
    share of the columns between them."""
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    n = bounds[-1]

    def row(lo, hi):
        r, c0, c1 = np.zeros(n), bounds[lo], bounds[hi + 1]
        on = rng.random(c1 - c0) < touch
        on[[rng.integers(sizes[lo]), c1 - c0 - 1 - rng.integers(sizes[hi])]] = True
        r[c0:c1][on] = rng.standard_normal(np.count_nonzero(on))
        return r

    rows = [np.diag(rng.uniform(0.5, 2.0, n) * rng.choice([-1, 1], n))]
    rows += [[row(L, L + 1) for L in range(len(sizes) - 1)], [row(e, e + s) for e, s in wide]]
    perm = rng.permutation(n)
    A = scipy.sparse.csr_matrix(np.vstack(rows)[:, perm])
    cols = [("K", (L, 0, j)) for j, L in enumerate(np.repeat(np.arange(len(sizes)), sizes)[perm])]
    return LinearSystem(A=A, b=rng.standard_normal(A.shape[0]), cols=col_array(cols),
                        rows=np.zeros((0, 4), dtype=np.int64), config=SolverConfig(N=1))


@st.composite
def _staircase_shapes(draw):
    """Level sizes, and the (entry level, span) of rows spanning two levels
    or more."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=3, max_size=8))
    nl = len(sizes)
    wide = st.integers(0, nl - 3).flatmap(
        lambda e: st.tuples(st.just(e), st.integers(2, nl - 1 - e)))
    return sizes, draw(st.lists(wide, min_size=1, max_size=8))


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
        assert sol.rank == system.A.shape[1]
        # example1's diagonal-BC rows span every x-degree level: its configs,
        # full order included, take the wide-row merge
        assert sol.wide_rows > 0 or name == "example2"
        x_ref = _dense_oracle(system)
        np.testing.assert_allclose(sol.x, x_ref, rtol=0.0, atol=1e-8)
        r_ref = np.linalg.norm(system.A @ x_ref - system.b)
        assert sol.residual == pytest.approx(r_ref, rel=1e-9)

    @pytest.mark.parametrize("dup, level", [(0, 0), (-1, 8)], ids=["first", "last"])
    def test_duplicated_column_raises(self, example2, dup, level):
        # column 0, K (0, 0, 0), gives an exactly singular factor; the last,
        # KB (8, 0), a pivot at roundoff level instead. Either way the block
        # of R at the column's level holds the small diagonal
        system = duplicated_column_system(assemble(example2.continuum,
                                                   SolverConfig(N=8)), dup)
        with pytest.raises(np.linalg.LinAlgError,
                           match=rf"block of R at level {level} .*at roundoff"):
            solve_ls(system)

    def test_non_finite_coefficient_raises(self):
        system = LinearSystem(A=scipy.sparse.csr_matrix(np.eye(3)),
                              b=np.array([1.0, np.inf, 2.0]),
                              cols=col_array([("K", (a, 0, 0)) for a in range(3)]),
                              rows=np.zeros((0, 4), dtype=np.int64), config=SolverConfig(N=2))
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"non-finite coefficient for column \('K', \(1, 0, 0\)\)"):
            solve_ls(system)

    def test_zero_column_raises(self, example2):
        system = assemble(example2.continuum, SolverConfig(N=8))
        j = col_keys(system.cols).index(("KB", (2, 3)))
        keep = np.arange(system.A.shape[1]) != j
        A = (system.A @ scipy.sparse.diags(keep.astype(float))).tocsr()
        A.eliminate_zeros()
        zero_system = LinearSystem(A=A, b=system.b, cols=system.cols,
                                   rows=system.rows, config=system.config)
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"column \('KB', \(2, 3\)\) of A is zero"):
            solve_ls(zero_system)

    @pytest.mark.parametrize("name, N_y, ordering", [
        ("example2", None, "x+xi"), ("example1", 2, "x"), ("example2", 2, "x")])
    def test_grading_choice(self, solve_cache, name, N_y, ordering):
        # example2 with N_y = 2 is the closed-loop benchmark's system. Its
        # "x" plan merges 54 wide rows and solves faster than "x+xi" without
        # them; the flop count of the merge is the estimate's only weight
        sol = solve_cache.solution(name, SolverConfig(N=20, N_y=N_y))
        assert sol.ordering == ordering
        # the "x" plans merge the rows that span more than one level
        assert sol.span_cut == {"x": 1, "x+xi": 5}[ordering]
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
        x_ref = _dense_oracle(system)
        np.testing.assert_allclose(sol.x, x_ref, rtol=0.0, atol=1e-8)
        r_ref = np.linalg.norm(system.A @ x_ref - system.b)
        assert sol.residual == pytest.approx(r_ref, rel=1e-9, abs=1e-10)

    @pytest.mark.parametrize("size, levels, entries, per_entry", [
        (3, 12, range(0, 10, 2), 2), pytest.param(10, 40, range(0, 16, 3), 50, marks=FULL)])
    def test_late_wide_rows_match_dense_oracle(self, size, levels, entries, per_entry):
        # rows reaching the last level enter at several levels, so the merge
        # appends rows to the carried ones mid-march; the wide rows of the
        # shipped configs' systems all enter at level 0
        wide = [(e, levels - 1 - e) for e in entries for _ in range(per_entry)]
        system = _staircase_system([size] * levels, wide, np.random.default_rng(0))
        sol = solve_ls(system)
        assert sol.span_cut == 1
        assert sol.wide_rows == len(wide)
        x_ref = _dense_oracle(system)
        np.testing.assert_allclose(sol.x, x_ref, rtol=0.0, atol=1e-8)
        r_ref = np.linalg.norm(system.A @ x_ref - system.b)
        assert sol.residual == pytest.approx(r_ref, rel=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(shape=_staircase_shapes(), seed=st.integers(0, 2 ** 32 - 1))
    def test_late_wide_rows_every_plan_dense_oracle(self, shape, seed):
        system = _staircase_system(*shape, np.random.default_rng(seed))
        x_ref = _dense_oracle(system)
        # both gradings give a column its level; every cut is a plan
        cost = _staircase(system.A, system.cols[:, 1:3])["x"][0]
        for i in np.flatnonzero(np.isfinite(cost)):
            with mock.patch.object(power_series, "_staircase", _only_plan("x", i)):
                sol = solve_ls(system)
            np.testing.assert_allclose(sol.x, x_ref, rtol=0.0,
                                       atol=1e-10 * max(1.0, np.abs(x_ref).max()))

    @settings(max_examples=50, deadline=None)
    @given(shape=_staircase_shapes(), seed=st.integers(0, 2 ** 32 - 1),
           touch=st.sampled_from([0.0, 0.1, 0.25]))
    def test_sparse_rows_every_plan_dense_oracle(self, shape, seed, touch):
        # rows that touch few of the columns between their end levels leave
        # most of a level's window out of its panel; the widest cut carries
        # every row narrow, so one plan has no wide rows
        system = _staircase_system(*shape, np.random.default_rng(seed), touch)
        x_ref = _dense_oracle(system)
        cost, cuts = _staircase(system.A, system.cols[:, 1:3])["x+xi"][:2]
        assert np.isfinite(cost[-1])
        for i in np.flatnonzero(np.isfinite(cost)):
            with mock.patch.object(power_series, "_staircase", _only_plan("x+xi", i)):
                sol = solve_ls(system)
            assert sol.ordering == "x+xi" and sol.span_cut == cuts[i]
            assert (sol.wide_rows == 0) == (i == len(cuts) - 1)
            np.testing.assert_allclose(sol.x, x_ref, rtol=0.0,
                                       atol=1e-10 * max(1.0, np.abs(sol.x).max()))

    def test_wide_panels_every_plan_dense_oracle(self):
        # level sizes around the compact-WY block size of 32, so a level's
        # panel holds one, two or three T blocks
        system = _staircase_system([31, 32, 33, 65], [(0, 2), (0, 3), (1, 2)],
                                   np.random.default_rng(0))
        x_ref = _dense_oracle(system)
        r_ref = np.linalg.norm(system.A @ x_ref - system.b)
        lapack = scipy.linalg.lapack
        for grading in _GRADINGS:
            cost, cuts = _staircase(system.A, system.cols[:, 1:3])[grading][:2]
            assert np.isfinite(cost).all() and len(cuts) == 4
            for i in range(len(cuts)):
                with mock.patch.object(power_series, "_staircase", _only_plan(grading, i)), \
                        mock.patch.object(lapack, "dgeqrt", wraps=lapack.dgeqrt) as spy:
                    sol = solve_ls(system)
                assert sol.ordering == grading and sol.span_cut == cuts[i]
                assert max(min(call.args[1].shape) for call in spy.call_args_list) > 32
                np.testing.assert_allclose(sol.x, x_ref, rtol=0.0, atol=1e-8)
                assert sol.residual == pytest.approx(r_ref, rel=1e-9)

    @pytest.mark.parametrize("name, cfg, compacted", [
        ("example2", SolverConfig(N=20), True),
        ("example1", SolverConfig(N=20, N_y=2), False)])
    def test_panel_cols_count_touched_columns(self, solve_cache, name, cfg, compacted):
        # example2 at full order takes "x+xi" with span cut 5: its windows
        # hold columns no narrow row has reached yet. example1's "x" plan
        # with cut 1 reaches every column of its windows
        system = assemble(solve_cache.problem(name).continuum, cfg)
        sol = solve_ls(system)
        support, window = _panel_columns(system, sol.ordering, sol.span_cut)
        assert sol.panel_cols == support
        assert (support < window) if compacted else (support == window)

    def test_fewer_rows_than_columns_raises(self):
        # the two level-0 columns meet only row 0: no grading and no span
        # cut gives the level as many rows as columns
        A = scipy.sparse.csr_matrix([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0],
                                     [0.0, 0.0, 3.0]])
        system = LinearSystem(A=A, b=np.array([1.0, 2.0, 3.0]),
                              cols=col_array([("KB", (0, 0)), ("K", (0, 0, 1)), ("KB", (1, 0))]),
                              rows=np.zeros((0, 4), dtype=np.int64), config=SolverConfig(N=1))
        for grading in _GRADINGS:
            cost, *_, bounds, _, enough = _staircase(A, system.cols[:, 1:3])[grading]
            assert bounds[1] == 2 and np.all(np.isinf(cost)) and not enough[:, 0].any()
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"level 0 of the 'x\+xi' grading \(2 columns\) "
                                 r"gets fewer rows than columns"):
            solve_ls(system)

    def test_unknowns_are_the_system_columns(self):
        # the synthetic system's config, N = 1, would count 7 unknowns
        system = _staircase_system([3] * 6, [(0, 3)], np.random.default_rng(0))
        sol = solve_ls(system)
        assert sol.num_unknowns == sol.rank == system.A.shape[1] == 18
        assert sol.num_equations == system.A.shape[0]

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
        system = LinearSystem(A=A, b=b, cols=col_array(cols), rows=np.zeros((0, 4), dtype=np.int64),
                              config=SolverConfig(N=n))
        x_ref = _dense_oracle(system)
        sol = solve_ls(system)
        assert sol.ordering in _GRADINGS
        # and every feasible plan, wide rows or not, gives the same solution
        for grading in _GRADINGS:
            cost = _staircase(A, _exponents(cols))[grading][0]
            for i in np.flatnonzero(np.isfinite(cost)):
                with mock.patch.object(power_series, "_staircase", _only_plan(grading, i)):
                    sol = solve_ls(system)
                assert sol.ordering == grading
                np.testing.assert_allclose(sol.x, x_ref, rtol=0.0,
                                           atol=1e-10 * max(1.0, np.abs(sol.x).max()))


def _panel_columns(system: LinearSystem, grading: str, cut: int) -> tuple[int, int]:
    """Summed over the levels of `grading`: the columns past a level that
    the rows of span <= cut entering at or below it touch, and the columns
    past the level in its window, up to the highest level those rows reach.
    Counted with sets from A's pattern."""
    grades = [_KEY_GRADINGS[grading](e) for _, e in col_keys(system.cols)]
    rank = {g: L for L, g in enumerate(sorted(set(grades)))}
    lev = [rank[g] for g in grades]
    size = np.bincount(lev)
    entering = [[] for _ in size]
    A = system.A
    for r in range(A.shape[0]):
        touched = A.indices[A.indptr[r]:A.indptr[r + 1]].tolist()
        levels = [lev[j] for j in touched]
        if touched and max(levels) - min(levels) <= cut:
            entering[min(levels)].append((touched, max(levels)))
    seen, top, support, window = set(), 0, 0, 0
    for L, rows in enumerate(entering):
        for touched, hi in rows:
            seen.update(touched)
            top = max(top, hi)
        support += sum(lev[j] > L for j in seen)
        window += int(size[L + 1:top + 1].sum())
    return support, window


def _exponents(cols) -> np.ndarray:
    """The (a, b) exponents of each column key, as `_staircase` takes them."""
    return np.array([e[:2] for _, e in cols])


def _only_plan(grading: str, i: int):
    """`_staircase` with every plan but the i-th cut of `grading` ruled out."""
    def plans(A, exps):
        got = _staircase(A, exps)
        for g, (cost, *rest) in got.items():
            keep = (np.arange(len(cost)) == i) & (g == grading)
            got[g] = (np.where(keep, cost, np.inf), *rest)
        return got
    return plans


# The planner as it was, with one Python lambda per column key, kept as the
# oracle of `_staircase`'s array levels
_KEY_GRADINGS = {"x+xi": lambda e: e[0] + e[1], "x": lambda e: e[0]}


def _key_staircase(A: scipy.sparse.csr_matrix, grading: str, keys):
    _, level = np.unique([_KEY_GRADINGS[grading](e) for _, e in keys], return_inverse=True)
    lv, starts = level[A.indices], A.indptr[:-1][np.diff(A.indptr) > 0]
    entry = np.minimum.reduceat(lv, starts)
    span = np.maximum.reduceat(lv, starts) - entry
    size = np.bincount(level)
    nl, bounds = len(size), np.concatenate([[0], np.cumsum(size)])
    by_span = np.bincount(span * nl + entry, minlength=nl * nl).reshape(nl, nl)
    cuts = np.flatnonzero(by_span.any(axis=1))
    narrow = np.cumsum(by_span, axis=0)[cuts]
    wide = np.cumsum(by_span.sum(axis=0) - narrow, axis=1)
    reach = np.maximum.accumulate(np.where(by_span > 0, np.arange(nl)[:, None], 0), axis=0)
    top = np.maximum.accumulate(np.arange(nl) + reach[cuts], axis=1)
    cols = bounds[top + 1] - bounds[:-1] + 1 - size
    carry = np.zeros((len(cuts), nl + 1))
    for L, s in enumerate(size):
        carry[:, L + 1] = np.clip(carry[:, L] + narrow[:, L] - s, 0, cols[:, L])
    held = carry[:, :-1] + narrow
    r = np.maximum(held, size)
    k = r - size
    flops = (2 * size * size * (r - size / 3) + (4 * r - 2 * size) * size * cols
             + np.where(k > cols, 2 * k * cols * cols - 2 / 3 * cols ** 3, 0.0))
    flops += wide * size * (2 * size + 4 * (cols + wide))
    enough = held + wide >= size
    flops = np.where(enough.all(axis=1), flops.sum(axis=1), np.inf)
    return flops, cuts, level, entry, span, bounds, top, enough


# the 23 systems the benchmark workloads solve: bench-example2, sweep-example1
# and closed-loop-n400
_BENCH_SYSTEMS = (
    [("example2", SolverConfig(N=N, sigma_sign=-1)) for N in (20, 25)]
    + [("example1", SolverConfig(N=N, N_y=2, use_exact_q=q))
       for q in (False, True) for N in range(12, 31, 2)]
    + [("example2", SolverConfig(N=20, N_y=2))])


def _assert_same_plans(A, keys):
    parts = ("cost", "cuts", "level", "entry", "span", "bounds", "top", "enough")
    for grading in _GRADINGS:
        got = _staircase(A, _exponents(keys))[grading]
        want = _key_staircase(A, grading, keys)
        for part, g, w in zip(parts, got, want, strict=True):
            assert np.array_equal(g, w), (grading, part)


class TestPlanAgainstKeyOracle:
    """`_staircase` takes its levels from an array of column exponents; the
    costs, cuts, levels, entry levels, spans, level bounds, window tops and
    row sufficiency of both gradings match the per-key planner exactly."""

    @pytest.mark.parametrize("name, cfg", _BENCH_SYSTEMS, ids=lambda v: (
        v if isinstance(v, str) else f"N{v.N}-Ny{v.N_y}-q{int(v.use_exact_q)}-s{v.sigma_sign}"))
    def test_benchmark_systems(self, solve_cache, name, cfg):
        system = assemble(solve_cache.problem(name).continuum, cfg)
        _assert_same_plans(system.A, col_keys(system.cols))

    @settings(max_examples=50, deadline=None)
    @given(shape=_staircase_shapes(), seed=st.integers(0, 2 ** 32 - 1),
           gap=st.integers(1, 3))
    def test_staircases(self, shape, seed, gap):
        rng = np.random.default_rng(seed)
        system = _staircase_system(*shape, rng)
        # grading values with gaps, and (x, xi)-degrees that differ from the
        # x-degrees, in "K" and "KB" keys
        keys = [("KB", (gap * e[0], int(rng.integers(3)))) if rng.random() < 0.3
                else (kind, (gap * e[0], int(rng.integers(3)), e[2]))
                for kind, e in col_keys(system.cols)]
        _assert_same_plans(system.A, keys)


@pytest.mark.parametrize("name, cfg", _BENCH_SYSTEMS, ids=lambda v: (
    v if isinstance(v, str) else f"N{v.N}-Ny{v.N_y}-q{int(v.use_exact_q)}-s{v.sigma_sign}"))
def test_certificate_norm_is_sparse_frobenius(solve_cache, name, cfg):
    # the certificate takes ||A||_F as the norm of A's stored values; on
    # assemble's canonical CSR that is scipy's sparse Frobenius norm, bit for bit
    system = assemble(solve_cache.problem(name).continuum, cfg)
    x = solve_cache.solution(name, cfg).x
    r = system.A @ x - system.b
    scale = max(float(np.linalg.norm(r)), 1e-6 * float(np.linalg.norm(system.b)))
    want = float(np.linalg.norm(system.A.T @ r)) / (
        float(scipy.sparse.linalg.norm(system.A)) * scale)
    assert system.A.has_canonical_format
    assert optimality_certificate(system, x) == want


def _assert_same_system(got: LinearSystem, want: LinearSystem):
    assert row_keys(got.rows) == want.rows
    assert col_keys(got.cols) == want.cols
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


@settings(max_examples=40, deadline=None)
@given(sigma=_coupling((X, Var.ETA, Y)), W=_coupling((X, Y)), N=st.integers(0, 12),
       N_y=st.integers(0, 4))
def test_moments_match_series_algebra(sigma, W, N, N_y):
    # the scatter oracle takes its sigma and W moments from _moments too
    for f, t, vars_, moment_vars in ((sigma, Var.ETA, (X, Var.ETA, Y), (XI, Y)),
                                     (W, Y, (X, Y), (XI,))):
        series = f.taylor(N).align_to(vars_)
        moments = _moments(series.array, N_y)
        at_xi = DictSeries.of(series).rename(X, XI)
        for c in range(N_y + 1):
            want = (at_xi * DictSeries((t,), {(c,): 1.0})).integrate_unit(t)
            got = TruncatedSeries(moment_vars, moments[:, c]).coeffs
            # sums of up to N + 1 terms below max |f|, in another order
            tol = (N + 1) ** 2 * 1.2e-16 * np.abs(series.array).max()
            for e in got.keys() | want.coeffs.keys():
                assert got.get(e, 0.0) == pytest.approx(want.coeffs.get(e, 0.0), rel=0.0,
                                                        abs=tol)


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
        assert row not in row_keys(cancelled.rows)
        assert row in row_keys(assemble(_cancelling_problem(0.5), cfg).rows)
        _assert_same_system(cancelled,
                            scatter_assemble(_cancelling_problem(1.0), cfg))

    def test_duplicate_entries_sum_in_scatter_order(self):
        # lam = mu = 1 + 1e16 x and sigma = -1: entry (k equation at x,
        # column K x) gets mu' = 1e16, then -dlam/dxi = -1e16, then the sigma
        # moment +1. In that order they sum to 1; 1e16 + 1 - 1e16 is 0
        lam, mu = _speeds(1e16, 1e16)
        p = ContinuumParams(lam=lam, mu=mu, sigma=SeparableSum([SeparableTerm(-1.0, [])]),
                            theta=SeparableSum.zero(), W=SeparableSum.zero(),
                            q=SeparableSum.poly(Y, [0.5, -1.0]))
        cfg = SolverConfig(N=3)
        got = assemble(p, cfg)
        _assert_same_system(got, scatter_assemble(p, cfg))
        i = row_keys(got.rows).index((SRC_PDE_K, (1, 0, 0)))
        j = col_keys(got.cols).index(("K", (1, 0, 0)))
        assert got.A[i, j] == 1.0 and (1e16 + 1.0) - 1e16 == 0.0

    @pytest.mark.parametrize("name, cfg", [
        ("example1", SolverConfig(N=30, N_y=2, use_exact_q=True)),
        ("example2", SolverConfig(N=20, N_y=2))])
    def test_label_arrays(self, solve_cache, name, cfg):
        # integer labels: kind or source first, exponents past the label's
        # variables 0, and the same row and column lists as the tuple labels
        got = assemble(solve_cache.problem(name).continuum, cfg)
        want = scatter_assemble(solve_cache.problem(name).continuum, cfg)
        assert got.cols.shape == (got.A.shape[1], 4) and got.cols.dtype.kind == "i"
        assert got.rows.shape == (got.A.shape[0], 4) and got.rows.dtype.kind == "i"
        assert not got.cols[got.cols[:, 0] == 1, 3].any()
        for src, arity in enumerate(ARITY):
            assert not got.rows[got.rows[:, 0] == src, 1 + arity:].any()
        assert col_keys(got.cols) == want.cols
        assert row_keys(got.rows) == want.rows
        assert set(col_keys(got.cols)) == set(want.cols)
        assert set(row_keys(got.rows)) == set(want.rows)

    @settings(max_examples=40, deadline=None)
    @example((_cancelling_problem(1.0), SolverConfig(N=10)))
    @example((_cancelling_problem(1.0), SolverConfig(N=12, N_y=3,
                                                      use_exact_q=True)))
    @given(case=_problems())
    def test_random_separable_configs(self, case):
        p, cfg = case
        _assert_same_system(assemble(p, cfg), scatter_assemble(p, cfg))
