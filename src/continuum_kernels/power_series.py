"""Truncated power-series solution of the ensemble kernel equations.

The kernel pair (k, kbar) is expanded as

    k(x, xi, y)  = sum K_{abc} x^a xi^b y^c,   a+b+c <= N, c <= N_y,
    kbar(x, xi)  = sum KB_{ab} x^a xi^b,       a+b <= N,

and substituted into the two kernel PDEs and two boundary conditions with
every parameter replaced by its Taylor expansion. Matching the coefficient
of each monomial yields an over-determined sparse linear system. It is
block-staircase by degree level, and a Householder QR that follows the
levels solves it by least squares; the 2-norm of its residual is the
accuracy metric.

Equations (everything moved to the left-hand side):

  E1: mu(x) dk/dx - lam(xi,y) dk/dxi - theta(xi,y) kbar
      - dlam/dxi(xi,y) k - s * int_0^1 sigma(xi,eta,y) k(x,xi,eta) deta = 0
  E2: mu(x) dkbar/dx + mu(xi) dkbar/dxi + mu'(xi) kbar
      - int_0^1 W(xi,y) k(x,xi,y) dy = 0
  E3: (lam(x,y) + mu(x)) k(x,x,y) + theta(x,y) = 0
  E4: mu(0) kbar(x,0) - int_0^1 q(y) lam(0,y) k(x,0,y) dy = 0

``s`` is the configurable sign of the sigma coupling (see SolverConfig).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .params import GRID_POINTS, ContinuumParams
from .series import TruncatedSeries, Var, grlex_key, integrate01

__all__ = [
    "SolverConfig",
    "LinearSystem",
    "PsKernelSolution",
    "count_unknowns",
    "assemble",
    "solve_ls",
    "solve",
    "optimality_check",
    "optimality_certificate",
    "residual_by_source",
    "coeff_vector",
    "residual_series",
    "OrderReductionWarning",
]


class OrderReductionWarning(UserWarning):
    """The requested y-order is below the structural lower bound."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    N
        total order of the truncated series.
    N_y
        order in the ensemble variable y (defaults to N); lowering it cuts
        the unknown count from O(N^3) to O(N_y N^2).
    use_exact_q
        evaluate the x=0 boundary integral with moments of the exact q,
        integrated by adaptive Gauss-Legendre to 1e-12, instead of
        expanding q as a series.
    sigma_sign
        sign s applied to the sigma integral coupling in the first kernel
        equation. +1 is the convention consistent with the sampled n+1
        equations solved by fd_kernels and with the closed-form
        construction; -1 selects the opposite orientation, which some
        reference result tables for the 'example2' benchmark follow.
    """

    N: int
    N_y: int | None = None
    use_exact_q: bool = False
    sigma_sign: int = 1

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("N must be non-negative")
        ny = self.N if self.N_y is None else self.N_y
        if not 0 <= ny <= self.N:
            raise ValueError("need 0 <= N_y <= N")
        object.__setattr__(self, "N_y", ny)
        if self.sigma_sign not in (1, -1):
            raise ValueError("sigma_sign must be +1 or -1")


def count_unknowns(N: int, N_y: int | None = None) -> tuple[int, int]:
    """Number of unknown coefficients (k series, kbar series)."""
    if N_y is None:
        N_y = N
    if not 0 <= N_y <= N:
        raise ValueError("need 0 <= N_y <= N")
    num_k = sum((N - c + 1) * (N - c + 2) // 2 for c in range(N_y + 1))
    num_kbar = (N + 1) * (N + 2) // 2
    return num_k, num_kbar


def _k_columns(N: int, N_y: int) -> list[tuple[int, int, int]]:
    cols = [(a, b, c) for c in range(N_y + 1) for a in range(N - c + 1)
            for b in range(N - c - a + 1)]
    return sorted(cols, key=grlex_key)


def _kbar_columns(N: int) -> list[tuple[int, int]]:
    cols = [(tot - b, b) for tot in range(N + 1) for b in range(tot + 1)]
    return sorted(cols, key=grlex_key)


# Row sources, in fixed order for reproducible output.
SRC_PDE_K = "pde_k"
SRC_PDE_KBAR = "pde_kbar"
SRC_BC_DIAG = "bc_diag"
SRC_BC_LEFT = "bc_left"
_SOURCES = (SRC_PDE_K, SRC_PDE_KBAR, SRC_BC_DIAG, SRC_BC_LEFT)
_ARITY = (3, 2, 2, 1)     # monomial variables: (x, xi, y), (x, xi), (x, y), (x,)


@dataclass
class LinearSystem:
    """The assembled coefficient-matching system A x = b."""

    A: scipy.sparse.csr_matrix
    b: np.ndarray
    cols: list[tuple[str, tuple[int, ...]]]      # ("K",(a,b,c)) / ("KB",(a,b))
    rows: list[tuple[str, tuple[int, ...]]]      # (source, monomial)
    config: SolverConfig


@dataclass
class PsKernelSolution:
    """Least-squares kernel coefficients in series form."""

    k: TruncatedSeries
    kbar: TruncatedSeries
    residual: float
    config: SolverConfig
    num_unknowns: int
    num_equations: int
    x: np.ndarray = field(repr=False)
    rank: int | None = None
    solve_path: str | None = None       # "staircase_qr" or "dense_lstsq"
    ordering: str | None = None         # column grading: "x+xi" or "x"
    r_diag_ratio: float | None = None   # min/max |R_jj| of the staircase QR
    wide_rows: int | None = None        # rows the staircase QR merged by tpqrt


def _param_series(p: ContinuumParams, cfg: SolverConfig):
    """Taylor-expand every parameter to total degree N and align each to its
    full variable tuple so coefficient keys have a fixed arity."""
    order = cfg.N
    lam = p.lam.taylor(order).align_to((Var.X, Var.Y))
    mu = p.mu.taylor(order).align_to((Var.X,))
    theta = p.theta.taylor(order).align_to((Var.X, Var.Y))
    W = p.W.taylor(order).align_to((Var.X, Var.Y))
    sigma = p.sigma.taylor(order).align_to((Var.X, Var.ETA, Var.Y))
    q = p.q.taylor(order).align_to((Var.Y,))
    return lam, mu, theta, W, sigma, q


def _check_ny_bound(cfg: SolverConfig, lam: TruncatedSeries, theta: TruncatedSeries):
    n_theta = theta.degree_in(Var.Y)
    n_lam = lam.degree_in(Var.Y)
    if cfg.N_y < n_theta - n_lam:
        warnings.warn(
            f"N_y={cfg.N_y} is below the structural bound "
            f"deg_y(theta) - deg_y(lambda) = {n_theta - n_lam}; the diagonal "
            f"boundary condition cannot be matched exactly",
            OrderReductionWarning,
            stacklevel=3,
        )


def _q_moments(p: ContinuumParams, cfg: SolverConfig,
               lam: TruncatedSeries, q_series: TruncatedSeries) -> np.ndarray:
    """m_c = int_0^1 q(y) lam(0,y) y^c dy for c = 0..N_y: with the exact q,
    by :func:`integrate01` at 1e-12; with the series q, exactly."""
    lam0 = lam.substitute_value(Var.X, 0.0)
    if cfg.use_exact_q:
        lam0_coeffs = sorted(lam0.coeffs.items())

        def q_lam0(y):
            return p.q.eval1(Var.Y, y) * sum(v * y ** e for (e,), v in lam0_coeffs)

        return np.array([integrate01(lambda y, c=c: q_lam0(y) * y ** c, 1e-12)
                         for c in range(cfg.N_y + 1)])
    G = q_series * lam0
    out = np.zeros(cfg.N_y + 1)
    for (e,), g in G.coeffs.items():
        for c in range(cfg.N_y + 1):
            out[c] += g / (e + c + 1)
    return out


def _terms(series: TruncatedSeries):
    """A series' terms in sorted key order: one (1, n) exponent row per
    variable, then the (1, n) coefficient row."""
    items = sorted(series.coeffs.items())
    exps = np.array([e for e, _ in items], dtype=np.int64)
    exps = exps.reshape(len(items), len(series.vars)).T[:, None, :]
    return (*exps, np.array([v for _, v in items], dtype=float)[None, :])


def assemble(p: ContinuumParams, cfg: SolverConfig) -> LinearSystem:
    """Insert the truncated series into the kernel equations and match the
    coefficient of every monomial. Products are never re-truncated, so rows
    reach total degree 2N and the system is over-determined.

    Each term family is scattered for all its columns at once. An entry sums
    its contributions in scatter order: per column, family, then term."""
    p.check_speeds(np.linspace(0.0, 1.0, GRID_POINTS))
    lamS, muS, thetaS, WS, sigmaS, qS = _param_series(p, cfg)
    _check_ny_bound(cfg, lamS, thetaS)
    N, Ny, s_sig = cfg.N, cfg.N_y, float(cfg.sigma_sign)

    k_cols = _k_columns(N, Ny)
    kb_cols = _kbar_columns(N)
    cols = [("K", e) for e in k_cols] + [("KB", e) for e in kb_cols]
    # column exponents and indices as (n, 1) arrays
    a, b, c = np.array(k_cols, dtype=np.int64).T[:, :, None]
    j = np.arange(len(k_cols))[:, None]
    ab, bb = np.array(kb_cols, dtype=np.int64).T[:, :, None]
    jb = len(k_cols) + np.arange(len(kb_cols))[:, None]

    md, mv = _terms(muS)
    lam_xi = lamS.rename(Var.X, Var.XI)
    lp, lq, lv = _terms(lam_xi)
    dp, dq, dv = _terms(lam_xi.diff(Var.XI))
    tp, tq, tv = _terms(thetaS.rename(Var.X, Var.XI))
    wp, wq, wv = _terms(WS.rename(Var.X, Var.XI))
    sp, sq, sv = _terms(lamS + muS)
    sigma_xi = sigmaS.rename(Var.X, Var.XI)
    q_mom = _q_moments(p, cfg, lamS, qS)
    mu0 = muS.coeffs.get((0,), 0.0)

    # An entry's key is (row code, column) with the row code in (source, grlex
    # monomial) order; rows reach total degree 2N, so each digit is below radix.
    ncol, radix = len(cols), 2 * N + 1
    keys, vals = [], []     # nonzero contributions, in scatter order

    def scat(src, col, val, *mono):
        col, val, *mono = np.broadcast_arrays(col, val, *mono, *(0,) * (3 - len(mono)))
        on = val != 0.0
        e0, e1, e2 = (m[on] for m in mono)
        code = (((src * radix + e0 + e1 + e2) * radix + e0) * radix + e1) * radix + e2
        keys.append(code * (ncol + 1) + col[on])
        vals.append(val[on])

    # E1: mu(x) dk/dx - lam(xi,y) dk/dxi - (dlam/dxi) k - s * sigma moments
    scat(0, j, mv * a, a - 1 + md, b, c)
    scat(0, j, -lv * b, a, b - 1 + lp, c + lq)
    scat(0, j, -dv, a, b + dp, c + dq)
    for cc in range(Ny + 1):    # M_c(xi, y) = int sigma(xi, eta, y) eta^c deta
        eta_c = TruncatedSeries.monomial({Var.ETA: cc})
        mp, mq, mom = _terms((sigma_xi * eta_c).integrate_unit(Var.ETA))
        on = c[:, 0] == cc
        scat(0, j[on], -s_sig * mom, a[on], b[on] + mp, mq)
    # E2: -int W(xi,y) k dy;  E3: (lam+mu)(x,y) k(x,x,y);  E4: -m_c x^a
    scat(1, j, -wv / (wq + c + 1), a, b + wp)
    scat(2, j, sv, a + b + sp, c + sq)
    scat(3, j, np.where(b == 0, -q_mom[c], 0.0), a)
    # E1: -theta(xi,y) kbar;  E2: mu(x) dkbar/dx + mu(xi) dkbar/dxi + mu'(xi) kbar
    scat(0, jb, -tv, ab, bb + tp, tq)
    scat(1, jb, mv * ab, ab - 1 + md, bb)
    scat(1, jb, mv * bb, ab, bb - 1 + md)
    scat(1, jb, mv * md, ab, bb + md - 1)
    # E4: mu(0) kbar(x,0)
    scat(3, jb, np.where(bb == 0, mu0, 0.0), ab)
    # constant side of E3: + theta(x,y), moved to b, scattered as column ncol
    bp, bq, bv = _terms(thetaS)
    scat(2, ncol, -bv, bp, bq)

    # duplicates summed one after another in scatter order
    keys, inv = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.zeros(len(keys))
    np.add.at(sums, inv, np.concatenate(vals))
    # rows with a nonzero entry or a nonzero b; keys are sorted
    code, col = np.divmod(keys[sums != 0.0], ncol + 1)
    first = np.diff(code, prepend=-1) != 0
    codes, row, val = code[first], np.cumsum(first) - 1, sums[sums != 0.0]
    in_A = col < ncol
    b_vec = np.bincount(row[~in_A], val[~in_A], minlength=len(codes))
    indptr = np.searchsorted(row[in_A], np.arange(len(codes) + 1))
    A = scipy.sparse.csr_matrix((val[in_A], col[in_A], indptr), shape=(len(codes), ncol))
    srcs = codes // radix ** 4
    exps = codes[:, None] // radix ** np.arange(2, -1, -1) % radix
    rows = []
    for k, name in enumerate(_SOURCES):
        rows += zip(itertools.repeat(name), zip(*exps[srcs == k, :_ARITY[k]].T.tolist()))
    return LinearSystem(A=A, b=b_vec, cols=cols, rows=rows, config=cfg)


# Column gradings of the staircase QR, from the keys ("K", (a, b, c)) and
# ("KB", (a, b)). example2's system is banded in a + b, and example1's in a:
# its lambda, theta, W and sigma do not depend on x, and mu is constant.
_GRADINGS = {"x+xi": lambda e: e[0] + e[1], "x": lambda e: e[0]}
# Weight of a flop of the wide-row merge (tpqrt, tpmqrt) against a flop of
# the panel factorization (geqrf, ormqr). Alone, the merge kernels ran at
# 60-100 % of the panel kernels' flop rate (one BLAS thread). With 2.5 each
# benchmark system gets a plan within about 20 % of its fastest one, and the
# closed-loop system (example2, N = 20, N_y = 2) keeps "x+xi" without wide
# rows. Below about 2.1 it moves to an "x" plan that solves faster alone,
# but the simulation after it ran slower: its pass took 0.32 s, not 0.28 s.
_WIDE_COST = 2.5


def _staircase(A: scipy.sparse.csr_matrix, grading: str, keys):
    """The staircase QR's plans for one column grading, one per span cut.

    Columns get levels 0, 1, ... from the grading. A nonempty row enters at
    the lowest level it touches, and its span is its highest level minus
    that. The plan with cut t factors the rows of span <= t (narrow) level by
    level over their window and merges the others (wide) into each level's
    triangle. Returns the estimated cost of each cut (inf where some level
    gets fewer narrow plus wide rows than columns), the cuts, the column
    levels, each row's entry level and span, the level bounds and, per cut,
    the top level of each level's narrow window."""
    _, level = np.unique([_GRADINGS[grading](e) for _, e in keys], return_inverse=True)
    lv, starts = level[A.indices], A.indptr[:-1][np.diff(A.indptr) > 0]
    entry = np.minimum.reduceat(lv, starts)
    span = np.maximum.reduceat(lv, starts) - entry
    size = np.bincount(level)
    nl, bounds = len(size), np.concatenate([[0], np.cumsum(size)])
    # rows by (span, entry level); a cut keeps the spans up to it narrow
    by_span = np.bincount(span * nl + entry, minlength=nl * nl).reshape(nl, nl)
    cuts = np.flatnonzero(by_span.any(axis=1))
    narrow = np.cumsum(by_span, axis=0)[cuts]
    wide = np.cumsum(by_span.sum(axis=0) - narrow, axis=1)
    reach = np.maximum.accumulate(np.where(by_span > 0, np.arange(nl)[:, None], 0), axis=0)
    top = np.maximum.accumulate(np.arange(nl) + reach[cuts], axis=1)
    cols = bounds[top + 1] - bounds[:-1] + 1 - size     # after the level's own, b included
    # narrow rows carried into each level, cut down to their R factor
    carry = np.zeros((len(cuts), nl + 1))
    for L, s in enumerate(size):
        carry[:, L + 1] = np.clip(carry[:, L] + narrow[:, L] - s, 0, cols[:, L])
    held = carry[:, :-1] + narrow
    r = np.maximum(held, size)          # panels get zero rows up to their level's columns
    k = r - size
    # geqrf and ormqr, then the QR that cuts the carried rows down
    flops = (2 * size * size * (r - size / 3) + (4 * r - 2 * size) * size * cols
             + np.where(k > cols, 2 * k * cols * cols - 2 / 3 * cols ** 3, 0.0))
    # dtpqrt against the level's triangle, dtpmqrt over all later columns
    rest = A.shape[1] - bounds[1:] + 1
    flops += _WIDE_COST * wide * size * (2 * size + 4 * rest)
    ok = np.all(held + wide >= size, axis=1)
    flops = flops.sum(axis=1)
    return np.where(ok, flops, np.inf), cuts, level, entry, span, bounds, top


def _panel(width: int, dense: np.ndarray, A, i0: int, i1: int, c0: int,
           b: np.ndarray, rows: int = 0) -> np.ndarray:
    """Fortran-ordered rows over the `width` columns from c0, with b last:
    the dense rows (b last, zero beyond their own width), then rows i0:i1 of
    the CSR matrix A (none outside those columns) and of b, then zero rows up
    to `rows` in all."""
    k, j = len(dense), len(dense) + i1 - i0
    M = np.zeros((max(j, rows), width + 1), order="F")
    M[:k, :dense.shape[1] - 1], M[:k, -1] = dense[:, :-1], dense[:, -1]
    lo, hi = A.indptr[i0], A.indptr[i1]
    at = k + np.repeat(np.arange(i1 - i0), np.diff(A.indptr[i0:i1 + 1]))
    M[at, A.indices[lo:hi] - c0], M[k:j, -1] = A.data[lo:hi], b[i0:i1]
    return M


def _staircase_qr(A: scipy.sparse.csr_matrix, b: np.ndarray, keys):
    """Least-squares solution by a Householder QR that follows the degree
    levels (Bjorck, Numerical Methods for Least Squares Problems, 1996, ch.
    6). The columns of A are scaled to unit 2-norm and ordered by level.
    The plan, a grading and a span cut, is the one with the smallest cost
    estimate of :func:`_staircase`. Level L stacks the narrow rows carried
    from L - 1 and the narrow rows entering there densely over its window,
    with b as a last column, factors its columns (LAPACK geqrf) and applies
    Q^T to the rest (ormqr). The top rows are the level's block of R; the
    others are carried on, cut down to their R factor when they outnumber
    their columns. The wide rows, dense over all columns from the level on,
    are then merged into the level's triangle (tpqrt) and the same
    transform is applied to the block row of R and their remaining columns
    (tpmqrt), so a level's diagonal of R is final only after the merge.
    Returns (x, grading, min/max |R_jj|, wide row count), or None when A is
    rank-deficient: a zero column, a level with fewer narrow plus wide rows
    than columns, a diagonal of R at roundoff level or a non-finite x."""
    m, n = A.shape
    norms = scipy.sparse.linalg.norm(A, axis=0)
    if not np.all(norms > 0.0):
        return None
    A = (A @ scipy.sparse.diags(1.0 / norms)).tocsr()
    plans = {g: _staircase(A, g, keys) for g in _GRADINGS}
    grading = min(plans, key=lambda g: plans[g][0].min())
    cost, cuts, level, entry, span, bounds, top = plans[grading]
    if not np.isfinite(cost.min()):
        return None
    i = np.argmin(cost)
    top, narrow = top[i], span <= cuts[i]
    # nonempty rows sorted as narrow rows by entry level, then wide rows by
    # entry level; at[L]:at[L + 1] and at[nl + L]:at[nl + L + 1] enter at L
    nl = len(bounds) - 1
    key = np.where(narrow, entry, nl + entry)
    order = np.argsort(key, kind="stable")
    at = np.searchsorted(key[order], np.arange(2 * nl + 1))
    rows = np.flatnonzero(np.diff(A.indptr) > 0)[order]
    perm = np.argsort(level, kind="stable")
    A, b = A[rows][:, perm], b[rows]
    lapack = scipy.linalg.lapack
    carry, wide, blocks = np.zeros((0, 1)), np.zeros((0, 1)), []
    for L, (c0, c1) in enumerate(zip(bounds[:-1], bounds[1:])):
        s, end = c1 - c0, bounds[top[L] + 1]
        M = _panel(end - c0, carry, A, at[L], at[L + 1], c0, b, s)
        # blocked workspaces for block size 64; ormqr adds its 65 x 64 T block
        qr, tau, _, _ = lapack.dgeqrf(M[:, :s], lwork=64 * s, overwrite_a=True)
        rest, _, _ = lapack.dormqr("L", "T", qr, tau, M[:, s:], 64 * M.shape[1] + 4160,
                                   overwrite_c=True)
        R, carry, rest = np.triu(qr[:s]), rest[s:], rest[:s].copy()
        c = carry.shape[1]
        if len(carry) > c:
            carry = np.triu(lapack.dgeqrf(carry, lwork=64 * c)[0][:c])
        else:
            carry = carry.copy()
        i0, i1 = at[nl + L], at[nl + L + 1]
        if len(wide) + i1 - i0:
            W = _panel(n - c0, wide, A, i0, i1, c0, b)
            R, V, T, _ = lapack.dtpqrt(0, min(s, 64), R, W[:, :s], overwrite_a=True)
            rest, wide, _ = lapack.dtpmqrt(0, V, T, _panel(n - c1, rest, A, 0, 0, c1, b),
                                           W[:, s:], trans="T", overwrite_a=True,
                                           overwrite_b=True)
        blocks.append((R, rest))
    diag = np.abs(np.concatenate([np.diagonal(R) for R, _ in blocks]))
    if diag.min() <= (m + n) * np.finfo(float).eps * diag.max():
        return None
    y = np.empty(n)
    for (R, rest), c0, c1 in reversed(list(zip(blocks, bounds[:-1], bounds[1:]))):
        rhs = rest[:, -1] - rest[:, :-1] @ y[c1:c1 + rest.shape[1] - 1]
        y[c0:c1] = scipy.linalg.solve_triangular(R, rhs, check_finite=False)
    x = (y / norms[perm])[np.argsort(perm)]
    if not np.all(np.isfinite(x)):
        return None
    return x, grading, float(diag.min() / diag.max()), int(np.count_nonzero(~narrow))


def solve_ls(system: LinearSystem) -> PsKernelSolution:
    """Least-squares solve of the coefficient-matching system.

    The normal path is the staircase QR of :func:`_staircase_qr`
    (``solve_path`` is ``"staircase_qr"``); A is never densified as a whole.
    The solution records the column grading it followed (``ordering``),
    the number of wide rows it merged into the levels' triangles
    (``wide_rows``) and min/max |R_jj| (``r_diag_ratio``). A full-rank
    factor implies full column rank, so ``rank`` is the column count. When
    A is rank-deficient the minimum-norm solution comes from a dense
    rank-revealing QR (``"dense_lstsq"``, LAPACK gelsy), whose rank estimate
    is reported. The returned residual is ||Ax - b||_2 recomputed from the
    solution."""
    out = _staircase_qr(system.A, system.b, system.cols)
    if out is not None:
        x, ordering, ratio, wide_rows = out
        solve_path, rank = "staircase_qr", system.A.shape[1]
    else:
        A = system.A.toarray()
        x, _, rank, _ = scipy.linalg.lstsq(A, system.b, lapack_driver="gelsy",
                                           check_finite=False)
        solve_path, ordering, ratio, wide_rows = "dense_lstsq", None, None, None
        if not np.all(np.isfinite(x)):
            raise RuntimeError(
                f"least-squares factorization produced non-finite values "
                f"({A.shape[0]}x{A.shape[1]} system, rank estimate {rank})")
    residual = float(np.linalg.norm(system.A @ x - system.b))
    cfg = system.config
    coeffs = {"K": {}, "KB": {}}
    for (kind, e), v in zip(system.cols, x):
        coeffs[kind][e] = v         # exact zeros are pruned by TruncatedSeries
    return PsKernelSolution(
        k=TruncatedSeries((Var.X, Var.XI, Var.Y), coeffs["K"]),
        kbar=TruncatedSeries((Var.X, Var.XI), coeffs["KB"]),
        residual=residual, config=cfg,
        num_unknowns=sum(count_unknowns(cfg.N, cfg.N_y)), num_equations=system.A.shape[0],
        x=x, rank=int(rank), solve_path=solve_path, ordering=ordering,
        r_diag_ratio=ratio, wide_rows=wide_rows,
    )


def solve(p: ContinuumParams, cfg: SolverConfig) -> PsKernelSolution:
    """Assemble and solve in one call."""
    return solve_ls(assemble(p, cfg))


def coeff_vector(system: LinearSystem, k: TruncatedSeries,
                 kbar: TruncatedSeries) -> np.ndarray:
    """Pack a kernel series pair into the system's column layout.

    Coefficients outside the column set are rejected: the vector must be
    conformal with the unknowns."""
    x = np.zeros(len(system.cols))
    index = {c: i for i, c in enumerate(system.cols)}
    for kind, name, series in (("K", "k", k), ("KB", "kbar", kbar)):
        for e, v in series.coeffs.items():
            if (kind, e) not in index:
                raise ValueError(f"{name} coefficient {e} outside the "
                                 f"truncation pattern")
            x[index[kind, e]] = v
    return x


def optimality_check(system: LinearSystem, candidate: np.ndarray,
                     reference: np.ndarray, slack: float = 1e-10) -> bool:
    """True iff the candidate's residual does not exceed the reference's.

    A least-squares minimizer must pass against any conformal reference
    vector, in particular against truncated expansions of an exact kernel."""
    candidate = np.asarray(candidate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    ncols = system.A.shape[1]
    if candidate.shape != (ncols,) or reference.shape != (ncols,):
        raise ValueError(
            f"coefficient vectors must have length {ncols}; got "
            f"{candidate.shape} and {reference.shape}"
        )
    rc = np.linalg.norm(system.A @ candidate - system.b)
    rr = np.linalg.norm(system.A @ reference - system.b)
    return bool(rc <= rr + slack)


def optimality_certificate(system: LinearSystem, x: np.ndarray) -> float:
    """||A^T r|| / (||A||_F max(||r||, 1e-6 ||b||)) with r = A x - b.

    Zero at an exact least-squares minimizer and at roundoff level at a
    computed one. The residual is floored at 1e-6 ||b||: once it is itself
    roundoff, the unfloored quotient is noise (2e-2 at example1, N = 30,
    N_y = 2) and cannot tell a good solve from a bad one. 0.0 when both r
    and b vanish."""
    r = system.A @ x - system.b
    scale = max(float(np.linalg.norm(r)), 1e-6 * float(np.linalg.norm(system.b)))
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(system.A.T @ r)) / (
        float(scipy.sparse.linalg.norm(system.A)) * scale)


def residual_by_source(system: LinearSystem, x: np.ndarray) -> dict[str, float]:
    """2-norm of A x - b over the rows of each equation source."""
    r = system.A @ x - system.b
    return {s: float(np.linalg.norm([v for (src, _), v in zip(system.rows, r)
                                     if src == s])) for s in _SOURCES}


def residual_series(p: ContinuumParams, cfg: SolverConfig,
                    k: TruncatedSeries, kbar: TruncatedSeries
                    ) -> dict[str, TruncatedSeries]:
    """Symbolic residuals of the four kernel equations for a concrete kernel
    pair, computed purely with series algebra.

    This is an independent reconstruction of what :func:`assemble` encodes
    row by row; evaluating these residual polynomials must agree with
    A x - b recombined against the monomial basis."""
    lamS, muS, thetaS, WS, sigmaS, qS = _param_series(p, cfg)
    s_sig = float(cfg.sigma_sign)
    lam_xi = lamS.rename(Var.X, Var.XI)
    theta_xi = thetaS.rename(Var.X, Var.XI)
    W_xi = WS.rename(Var.X, Var.XI)
    mu_xi = muS.rename(Var.X, Var.XI)
    sigma_xi = sigmaS.rename(Var.X, Var.XI)

    e1 = muS * k.diff(Var.X) - lam_xi * k.diff(Var.XI) - theta_xi * kbar \
        - lam_xi.diff(Var.XI) * k \
        - (sigma_xi * k.rename(Var.Y, Var.ETA)).integrate_unit(Var.ETA).scale(s_sig)
    e2 = muS * kbar.diff(Var.X) + mu_xi * kbar.diff(Var.XI) \
        + mu_xi.diff(Var.XI) * kbar \
        - (W_xi * k).integrate_unit(Var.Y)
    e3 = (lamS + muS) * k.rename(Var.XI, Var.X) + thetaS
    k0 = k.substitute_value(Var.XI, 0.0)
    kbar0 = kbar.substitute_value(Var.XI, 0.0)
    if cfg.use_exact_q:
        q_mom = _q_moments(p, cfg, lamS, qS)
        e4 = kbar0.scale(muS.coeffs.get((0,), 0.0))
        for (a, c), v in k0.coeffs.items():
            e4 = e4 - TruncatedSeries.monomial({Var.X: a}, v * q_mom[c])
    else:
        lam0 = lamS.substitute_value(Var.X, 0.0)
        e4 = kbar0.scale(muS.coeffs.get((0,), 0.0)) \
            - (qS * lam0 * k0).integrate_unit(Var.Y)
    return {SRC_PDE_K: e1, SRC_PDE_KBAR: e2, SRC_BC_DIAG: e3, SRC_BC_LEFT: e4}
