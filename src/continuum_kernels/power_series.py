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
      - dlam/dxi(xi,y) k - int_0^1 sigma(xi,eta,y) k(x,xi,eta) deta = 0
  E2: mu(x) dkbar/dx + mu(xi) dkbar/dxi + mu'(xi) kbar
      - int_0^1 W(xi,y) k(x,xi,y) dy = 0
  E3: (lam(x,y) + mu(x)) k(x,x,y) + theta(x,y) = 0
  E4: mu(0) kbar(x,0) - int_0^1 q(y) lam(0,y) k(x,0,y) dy = 0

with sigma oriented by the configured sign (see SolverConfig.oriented).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .params import GRID_POINTS, PARAMS, ContinuumParams
from .series import PRUNE_TOL, TruncatedSeries, Var, integrate01

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "SolverConfig",
    "LinearSystem",
    "PsKernelSolution",
    "count_unknowns",
    "assemble",
    "solve_ls",
    "optimality_certificate",
    "residual_by_source",
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

    def oriented(self, p: ContinuumParams) -> ContinuumParams:
        """The problem this config's series solves: ``p`` with sigma scaled
        by ``sigma_sign``. The only place the sign is applied."""
        return replace(p, sigma=p.sigma.scale(self.sigma_sign))


def count_unknowns(N: int, N_y: int | None = None) -> tuple[int, int]:
    """Number of unknown coefficients (k series, kbar series)."""
    if N_y is None:
        N_y = N
    if not 0 <= N_y <= N:
        raise ValueError("need 0 <= N_y <= N")
    num_k = sum((N - c + 1) * (N - c + 2) // 2 for c in range(N_y + 1))
    num_kbar = (N + 1) * (N + 2) // 2
    return num_k, num_kbar


def _monomials(N: int, *caps: int) -> np.ndarray:
    """Exponent rows of total degree <= N, each at most its cap, in grlex
    order: np.indices lists them lexicographically, then a stable sort."""
    e = np.indices([cap + 1 for cap in caps]).reshape(len(caps), -1)
    degree = e.sum(axis=0)
    keep = np.flatnonzero(degree <= N)
    return e[:, keep[np.argsort(degree[keep], kind="stable")]].T


# Row sources, in fixed order for reproducible output.
SRC_PDE_K = "pde_k"
SRC_PDE_KBAR = "pde_kbar"
SRC_BC_DIAG = "bc_diag"
SRC_BC_LEFT = "bc_left"
# monomial variables: (x, xi, y), (x, xi), (x, y) and (x,)
_SOURCES = (SRC_PDE_K, SRC_PDE_KBAR, SRC_BC_DIAG, SRC_BC_LEFT)
# column kinds, in column order: K over (x, xi, y), KB over (x, xi)
_KINDS = ("K", "KB")


@dataclass
class LinearSystem:
    """The assembled coefficient-matching system A x = b, with integer
    labels: a column's kind and exponents, a row's source and monomial.
    Exponents past a label's variables are 0."""

    A: scipy.sparse.csr_matrix
    b: np.ndarray
    cols: np.ndarray    # (n, 4): index into _KINDS, then (a, b, c)
    rows: np.ndarray    # (m, 4): index into _SOURCES, then the monomial
    config: SolverConfig


def _col_key(cols: np.ndarray, j: int) -> tuple:
    """Column j as ("K", (a, b, c)) or ("KB", (a, b)), for messages."""
    kind, *e = cols[j].tolist()
    return _KINDS[kind], tuple(e[:3 - kind])


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
    rank: int               # the column count: a solve that returns has full rank
    ordering: str           # column grading: "x+xi" or "x"
    span_cut: int           # widest span the panels carry
    r_diag_ratio: float     # min/max |R_jj| of the staircase QR
    wide_rows: int          # rows the staircase QR merged by tpqrt
    panel_cols: int         # columns past their level's own, summed over the panels


def _param_series(p: ContinuumParams, cfg: SolverConfig):
    """(lam, mu, theta, W, sigma, q), each Taylor-expanded to total degree N
    and aligned to its variables in ``PARAMS``, so its array has an axis for
    every variable."""
    return tuple(getattr(p, name).taylor(cfg.N).align_to(PARAMS[name][1])
                 for name in ("lam", "mu", "theta", "W", "sigma", "q"))


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
        def q_lam0(y):
            return p.q.eval1(Var.Y, y) * lam0.eval_grid({Var.Y: y})

        return np.array([integrate01(lambda y, c=c: q_lam0(y) * y ** c, 1e-12)
                         for c in range(cfg.N_y + 1)])
    return _moments(np.convolve(q_series.array, lam0.array)[None], cfg.N_y)[0]


def _moments(a: np.ndarray, N_y: int) -> np.ndarray:
    """The moments int_0^1 f t^c dt, c = 0..N_y, of the series f whose
    coefficient array is ``a`` and whose second variable is t: a's
    coefficients divided by e + c + 1, summed over t's exponent e. The
    moment index c takes t's axis. Sigma's moments over eta enter E1 and
    W's over y enter E2, and q lam(0, .)'s over y enter E4."""
    d = np.arange(a.shape[1])[:, None] + np.arange(N_y + 1) + 1.0
    return (a[:, :, None] / d.reshape(d.shape + (1,) * (a.ndim - 2))).sum(axis=1)


def _terms(a: np.ndarray):
    """The nonzero terms of a coefficient array in C (sorted exponent)
    order: one (1, t) exponent row per axis, then the (1, t) coefficients."""
    on = np.abs(a) > PRUNE_TOL
    return (*(e[None, :] for e in np.nonzero(on)), a[on][None, :])


def assemble(p: ContinuumParams, cfg: SolverConfig) -> LinearSystem:
    """Insert the truncated series into the kernel equations and match the
    coefficient of every monomial. Products are never re-truncated, so rows
    reach total degree 2N and the system is over-determined.

    Each term family is scattered for all its columns at once. An entry sums
    its contributions in scatter order: per column, family, then term."""
    # scipy is imported where it is used: commands that never assemble a
    # system start without it
    import scipy.sparse

    p = cfg.oriented(p)
    p.check_speeds(np.linspace(0.0, 1.0, GRID_POINTS))
    lamS, muS, thetaS, WS, sigmaS, qS = _param_series(p, cfg)
    _check_ny_bound(cfg, lamS, thetaS)
    N, Ny = cfg.N, cfg.N_y

    k_exps, kb_exps = _monomials(N, N, N, Ny), _monomials(N, N, N)
    nk = len(k_exps)
    cols = np.zeros((nk + len(kb_exps), 4), dtype=np.int64)
    cols[:nk, 1:], cols[nk:, 0], cols[nk:, 1:3] = k_exps, 1, kb_exps
    # column exponents and indices as (n, 1) arrays
    a, b, c = k_exps.T[:, :, None]
    j = np.arange(nk)[:, None]
    ab, bb = kb_exps.T[:, :, None]
    jb = nk + np.arange(len(kb_exps))[:, None]

    # lam, theta, W and sigma enter E1 and E2 at xi: the same coefficients
    md, mv = _terms(muS.array)
    lp, lq, lv = _terms(lamS.array)
    dp, dq, dv = _terms(lamS.diff(Var.X).array)
    tp, tq, tv = _terms(thetaS.array)
    sp, sq, sv = _terms((lamS + muS).array)
    sigma_mom, W_mom = _moments(sigmaS.array, Ny), _moments(WS.array, Ny)
    q_mom = _q_moments(p, cfg, lamS, qS)
    mu0 = float(muS.array[0])

    # An entry's key is (row code, column) with the row code in (source, grlex
    # monomial) order; rows reach total degree 2N, so each digit is below
    # radix. The key is linear in the monomial (e0, e1, e2), so it is the sum
    # of a column part, (n, 1), and a parameter term part, (1, t).
    ncol, radix = len(cols), 2 * N + 1
    weight = (ncol + 1) * (radix ** 3 + np.array([radix ** 2, radix, 1]))
    keys, vals = [], []     # nonzero contributions, in scatter order

    def scat(src, col, val, mono, shift=()):
        """Column(s) `col` get `val` in the rows of monomial `mono` + `shift`."""
        part = src * (ncol + 1) * radix ** 4 + col + sum(map(np.multiply, weight, mono))
        # term by term, (t, n): a term's keys mostly rise with the column, so
        # they come in sorted runs; an entry's still come by family, then term
        key = np.transpose(part) + np.transpose(sum(map(np.multiply, weight, shift)))
        val = np.broadcast_to(np.transpose(val), key.shape)
        on = val != 0.0
        keys.append(key[on])
        vals.append(val[on])

    # E1: mu(x) dk/dx - lam(xi,y) dk/dxi - (dlam/dxi) k - sigma moments
    scat(0, j, mv * a, (a - 1, b, c), (md,))
    scat(0, j, -lv * b, (a, b - 1, c), (0, lp, lq))
    scat(0, j, -dv, (a, b, c), (0, dp, dq))
    # E1's sigma and E2's -int W(xi,y) k dy: moments against the column's y^c
    for cc in range(Ny + 1):
        on = c[:, 0] == cc
        mp, mq, mom = _terms(sigma_mom[:, cc])
        scat(0, j[on], -mom, (a[on], b[on]), (0, mp, mq))
        wp, wm = _terms(W_mom[:, cc])
        scat(1, j[on], -wm, (a[on], b[on]), (0, wp))
    # E3: (lam+mu)(x,y) k(x,x,y);  E4: -m_c x^a
    scat(2, j, sv, (a + b, c), (sp, sq))
    scat(3, j, np.where(b == 0, -q_mom[c], 0.0), (a,))
    # E1: -theta(xi,y) kbar;  E2: mu(x) dkbar/dx + mu(xi) dkbar/dxi + mu'(xi) kbar
    scat(0, jb, -tv, (ab, bb), (0, tp, tq))
    scat(1, jb, mv * ab, (ab - 1, bb), (md,))
    scat(1, jb, mv * bb, (ab, bb - 1), (0, md))
    scat(1, jb, mv * md, (ab, bb - 1), (0, md))
    # E4: mu(0) kbar(x,0)
    scat(3, jb, np.where(bb == 0, mu0, 0.0), (ab,))
    # constant side of E3: + theta(x,y), moved to b, scattered as column ncol
    bp, bq, bv = _terms(thetaS.array)
    scat(2, ncol, -bv, (), (bp, bq))

    # duplicates summed one after another in scatter order: a stable sort,
    # cheap on the runs, keeps a key's contributions in that order, and the
    # repeats are added onto the first; only a cancelling key sums to 0
    keys, vals = np.concatenate(keys), np.concatenate(vals)
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    dup = np.flatnonzero(keys[1:] == keys[:-1]) + 1
    np.add.at(vals, np.searchsorted(keys, keys[dup]), vals[dup])
    on = vals != 0.0
    on[dup] = False
    keys, val = keys[on], vals[on]
    # rows with a nonzero entry or a nonzero b; keys are sorted, so a row's
    # entries are adjacent and b, column ncol, comes last
    code = keys // (ncol + 1)
    col = keys - code * (ncol + 1)
    ends = np.flatnonzero(np.append(code[1:] != code[:-1], True))
    codes, has_b = code[ends], col[ends] == ncol
    b_vec = np.where(has_b, val[ends], 0.0)
    indptr = np.concatenate([[0], ends + 1 - np.cumsum(has_b)])
    in_A = col < ncol
    A = scipy.sparse.csr_matrix((val[in_A], col[in_A], indptr), shape=(len(codes), ncol))
    # a code's digits: source, total degree, then the monomial's exponents
    rows = np.column_stack([codes // radix ** 4, codes // radix ** 2 % radix,
                            codes // radix % radix, codes % radix])
    return LinearSystem(A=A, b=b_vec, cols=cols, rows=rows, config=cfg)


# Column gradings of the staircase QR: a column's level is the dot product
# of these weights with its exponents (a, b) in ("K", (a, b, c)) or ("KB",
# (a, b)). example2's system is banded in a + b, and example1's in a: its
# lambda, theta, W and sigma do not depend on x, and mu is constant.
_GRADINGS = {"x+xi": (1, 1), "x": (1, 0)}


def _staircase(A: scipy.sparse.csr_matrix, exps: np.ndarray) -> dict:
    """The staircase QR's plans for each column grading, one per span cut.

    Columns get levels 0, 1, ... from a grading of their exponents, one row
    (a, b) of `exps` each. A nonempty row enters at the lowest level it
    touches; its span is its highest level minus that (one pass over A for
    every grading). The plan with cut t factors the rows of span <= t
    (narrow) level by level over their window and merges the others (wide)
    into each level's triangle. Returns, per grading: the estimated cost of
    each cut (inf where some level gets fewer narrow plus wide rows than
    columns), the cuts, the column levels, each row's entry level and span,
    the level bounds and, per cut, the top level of each level's narrow
    window and whether each level gets as many rows as columns."""
    grades = exps @ np.array(list(_GRADINGS.values())).T
    levels = np.array([(np.cumsum(np.bincount(g) > 0) - 1)[g] for g in grades.T])
    lv, starts = levels.take(A.indices, axis=1), A.indptr[:-1][np.diff(A.indptr) > 0]
    entries = np.minimum.reduceat(lv, starts, axis=1)
    spans = np.maximum.reduceat(lv, starts, axis=1) - entries
    plans = {}
    for g, level, entry, span in zip(_GRADINGS, levels, entries, spans):
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
        carry = np.zeros((nl + 1, len(cuts)))
        for L, (gain, c) in enumerate(zip((narrow - size).T, cols.T)):
            carry[L + 1] = np.minimum(np.maximum(carry[L] + gain, 0), c)
        held = carry[:-1].T + narrow
        r = np.maximum(held, size)          # panels get zero rows up to their level's columns
        k = r - size
        # geqrt and gemqrt, then the geqrf that cuts the carried rows down
        flops = (2 * size * size * (r - size / 3) + (4 * r - 2 * size) * size * cols
                 + np.where(k > cols, 2 * k * cols * cols - 2 / 3 * cols ** 3, 0.0))
        # dtpqrt against the level's triangle, dtpmqrt over the window and the
        # wide rows' factor
        flops += wide * size * (2 * size + 4 * (cols + wide))
        enough = held + wide >= size
        flops = np.where(enough.all(axis=1), flops.sum(axis=1), np.inf)
        plans[g] = flops, cuts, level, entry, span, bounds, top, enough
    return plans


@functools.lru_cache(maxsize=64)
def _below_diagonal(c: int) -> np.ndarray:
    """The read-only mask of a c x c block's strict lower triangle."""
    mask = np.tri(c, c, -1, dtype=bool)
    mask.setflags(write=False)
    return mask


def _staircase_qr(A: scipy.sparse.csr_matrix, b: np.ndarray, cols: np.ndarray):
    """Least-squares solution by a Householder QR that follows the degree
    levels (Bjorck, Numerical Methods for Least Squares Problems, 1996, ch.
    6). The columns of A are scaled to unit 2-norm and ordered by level.
    The plan, a grading and a span cut, is the one with the smallest cost
    estimate of :func:`_staircase`. Level L stacks the narrow rows carried
    from L - 1 and the narrow rows entering there densely over its support,
    with b as a last column: its own columns and the later ones a narrow row
    entering at L or below touches. The rest of its window, up to the
    furthest level those rows reach, is zero there and stays zero under
    Q^T. Each level's layout (support, carried columns' places, row count,
    a flat Fortran offset per window column) is computed before the loop.
    It factors its columns (LAPACK geqrt, compact WY with blocks of 32
    columns) and applies Q^T to the rest with the T factor it returns
    (gemqrt; Schreiber and Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989).
    The top rows are the level's block of R; the others are carried on, cut
    down to their R factor (geqrf) when they outnumber their columns. The
    wide rows are then merged into the level's triangle (tpqrt) and the
    same transform is applied to the block row of R, put onto the window,
    and their remaining columns (tpmqrt), so a level's diagonal of R is
    final only after the merge. The merges only mix the wide rows, so past
    the window end they stay G @ Wo, with Wo the wide rows as they entered:
    the merge carries the small factor G, not the columns, and the block
    row of R past its window is F @ Wo. Returns (x, grading, span cut,
    min/max |R_jj|, wide row count, support columns past their level's own
    summed over the panels). Raises np.linalg.LinAlgError, naming the rank
    test that failed and where, when A is rank-deficient: a zero column, a
    level with fewer narrow plus wide rows than columns in every plan, a
    diagonal of R at roundoff level or a non-finite x."""
    m, n = A.shape
    norms = np.sqrt(np.bincount(A.indices, A.data * A.data, minlength=n))
    zero = norms == 0.0
    if zero.any():
        raise np.linalg.LinAlgError(
            f"rank-deficient system: column {_col_key(cols, np.argmax(zero))} of A is zero")
    plans = _staircase(A, cols[:, 1:3])
    grading = min(plans, key=lambda g: plans[g][0].min())
    cost, cuts, level, entry, span, bounds, top, enough = plans[grading]
    if not np.isfinite(cost.min()):
        # the last cut carries every row narrow
        L = int(np.argmin(enough[-1]))
        raise np.linalg.LinAlgError(
            f"rank-deficient system: level {L} of the {grading!r} grading "
            f"({bounds[L + 1] - bounds[L]} columns) gets fewer rows than "
            f"columns in every plan of the staircase QR")
    i = np.argmin(cost)
    top, narrow = top[i], span <= cuts[i]
    # nonempty rows sorted as narrow rows by entry level, then wide rows by
    # entry level; at[L]:at[L + 1] and at[nl + L]:at[nl + L + 1] enter at L
    nl, size = len(bounds) - 1, np.diff(bounds)
    key = np.where(narrow, entry, nl + entry)
    at = np.concatenate([[0], np.cumsum(np.bincount(key, minlength=2 * nl))])
    rows = np.flatnonzero(np.diff(A.indptr) > 0)[np.argsort(key, kind="stable")]
    # A's nonzeros in that row order, each with its row, the columns scaled
    # to unit norm and ordered by level
    perm = np.argsort(level, kind="stable")
    where, A = np.argsort(perm), A[rows]
    ptr, acol = A.indptr, A.indices.astype(np.intp)
    row, col, val = (np.repeat(np.arange(len(rows)), np.diff(ptr)), where[acol],
                     A.data * (1.0 / norms)[acol])
    b, nw, q = b[rows], len(rows) - at[nl], ptr[at[nl]]
    # each column's first-touch level: the lowest entry level of the narrow
    # rows that touch it, and never above its own, so a panel has its own
    first = np.repeat(np.arange(nl), size)
    np.minimum.at(first, col[:q], np.repeat(np.arange(nl), np.diff(ptr[at[:nl + 1]])))
    # every level's layout: its window columns c0:e level after level, with
    # their level lv and pos, each one's place in its level's panel, which
    # holds those first touched at or below L (its support)
    end = bounds[top + 1]
    wptr = np.concatenate([[0], np.cumsum(end - bounds[:-1])])
    lv = np.repeat(np.arange(nl), np.diff(wptr))
    wcol = np.arange(wptr[-1]) - wptr[lv] + bounds[lv]
    on = first[wcol] <= lv
    cnt = np.concatenate([[0], np.cumsum(on)])
    pos, width = cnt[1:] - 1 - cnt[wptr[lv]], np.diff(cnt[wptr])
    # the support past level L's own columns, gone[L + 1]:gone[L + 2], goes on
    # with the carry and onto the window of a merged block row, b last in both
    past = on & (wcol >= bounds[lv + 1])
    sup, nxt = wcol[past], lv[past] + 1
    gone = np.concatenate([[0, 0], np.cumsum(width - size)])
    carried = np.insert(pos[wptr[nxt] + sup - bounds[nxt]], gone[1:-1], width)
    onto = np.insert(sup - bounds[nxt], gone[2:], end - bounds[1:] + at[nl + 1:] - at[nl])
    # carry and panel row counts: zero rows pad a panel to s, a carry taller than wide is cut
    ks, lds = [0], []
    for s, c, new in zip(size.tolist(), (width - size + 1).tolist(),
                         np.diff(at[:nl + 1]).tolist()):
        lds.append(max(ks[-1] + new, s))
        ks.append(min(lds[-1] - s, c))
    # flat Fortran panel offsets: sorted row r, column j at L: r + off[wptr[L] - c0 + j]
    off = pos * np.array(lds)[lv] + (np.array(ks[:-1]) - at[:nl])[lv]
    # Wo: the wide rows as they entered; past hi, the first w carried are G @ Wo[:w]
    Wo, bo = np.zeros((nw, n), order="F"), b[at[nl]:]
    Wo[row[q:] - at[nl], col[q:]] = val[q:]
    del A, acol, wcol, on, cnt, lv, pos, past, nxt     # room for the panels
    from scipy.linalg import lapack
    hi, blocks, carry, wide = 0, [], np.zeros((0, 1)), np.zeros((0, 1))
    bounds, end, width = bounds.tolist(), end.tolist(), width.tolist()
    at, nz, wptr, gone = at.tolist(), ptr[at].tolist(), wptr.tolist(), gone.tolist()
    for L, (c0, c1) in enumerate(zip(bounds[:-1], bounds[1:])):
        s, wd, k, ld, e = c1 - c0, width[L], ks[L], lds[L], end[L]
        w0, w = at[nl + L] - at[nl], at[nl + L + 1] - at[nl]
        # the panel: the carried rows, then the rows entering at L
        i0, i1 = nz[L], nz[L + 1]
        M = np.zeros(ld * (wd + 1))
        M[off[wptr[L] - c0:][col[i0:i1]] + row[i0:i1]] = val[i0:i1]
        M = M.reshape((ld, wd + 1), order="F")
        M[:k, carried[gone[L] + L:gone[L + 1] + L + 1]] = carry
        M[k:k + at[L + 1] - at[L], -1] = b[at[L]:at[L + 1]]
        # compact WY: one T factor for the panel, both calls in place
        qr, T, _ = lapack.dgeqrt(min(32, s), M[:, :s], overwrite_a=True)
        rest, _ = lapack.dgemqrt(qr, T, M[:, s:], side="L", trans="T", overwrite_c=True)
        # copies free the panel; R's reflectors below its diagonal are never
        # read (tpqrt, trtrs). The merge fills the block row over the window,
        # so there rest goes onto it, with w zero columns before b
        R, carry, blk = qr[:s].copy(order="F"), rest[s:], sup[gone[L + 1]:gone[L + 2]]
        if w:
            top_row = np.zeros((s, e - c1 + w + 1), order="F")
            top_row[:, onto[gone[L + 1] + L:gone[L + 2] + L + 1]] = rest[:s]
            rest, blk = top_row, slice(c1, e)
        else:
            rest = rest[:s].copy(order="F")
        c = carry.shape[1]
        if len(carry) > c:
            # no T is wanted here, and geqrf is 1.5-3x faster than geqrt
            # below about 64 columns with one OpenBLAS thread (dgeqrf takes
            # its unblocked path there)
            carry = lapack.dgeqrf(carry, lwork=64 * c)[0][:c]
            np.copyto(carry, 0.0, where=_below_diagonal(c))
        else:
            carry = carry.copy(order="F")
        if w:
            # [dense over c0:e | G | b]: the carried rows, made dense from
            # hi to the window end, then the rows entering at L
            k, d = hi - c0, e - c0
            W, G = np.zeros((w, d + w + 1), order="F"), wide[:, k:-1]
            W[:w0, :k], W[:w0, d:d + w0], W[:w0, -1] = wide[:, :k], G, wide[:, -1]
            np.matmul(G, Wo[:w0, hi:e], out=W[:w0, k:d])
            W[w0:, :d], W[w0:, -1] = Wo[w0:w, c0:e], bo[w0:w]
            np.fill_diagonal(W[w0:, d + w0:], 1.0)
            R, V, T, _ = lapack.dtpqrt(0, min(s, 64), R, W[:, :s], overwrite_a=True)
            rest, wide, _ = lapack.dtpmqrt(0, V, T, rest, W[:, s:], trans="T",
                                           overwrite_a=True, overwrite_b=True)
        hi = e
        blocks.append((R, rest, blk, e, w))
    diags = [np.abs(np.diagonal(R)) for R, *_ in blocks]
    diag = np.concatenate(diags)
    tol = (m + n) * np.finfo(float).eps * diag.max()
    if diag.min() <= tol:
        L = next(L for L, d in enumerate(diags) if d.min() <= tol)
        raise np.linalg.LinAlgError(
            f"rank-deficient system: the block of R at level {L} of the "
            f"{grading!r} grading holds a diagonal at roundoff, min/max "
            f"|R_jj| = {diag.min() / diag.max():.3g}")
    y = np.empty(n)
    for (R, rest, blk, e, w), c0, c1 in reversed(list(zip(blocks, bounds[:-1], bounds[1:]))):
        past = Wo[:w, e:] @ y[e:]
        rhs = rest[:, -1] - rest[:, :-1] @ np.concatenate([y[blk], past])
        y[c0:c1] = lapack.dtrtrs(R, rhs)[0]
    x = (y / norms[perm])[where]
    if not np.all(np.isfinite(x)):
        raise np.linalg.LinAlgError(
            f"the staircase QR gave a non-finite coefficient for column "
            f"{_col_key(cols, np.argmin(np.isfinite(x)))}")
    return (x, grading, int(cuts[i]), float(diag.min() / diag.max()),
            int(np.count_nonzero(~narrow)), gone[-1])


def solve_ls(system: LinearSystem) -> PsKernelSolution:
    """Least-squares solve of the coefficient-matching system by the
    staircase QR of :func:`_staircase_qr`; A is never densified as a whole.
    The solution records the plan it followed, a column grading
    (``ordering``) and a span cut (``span_cut``), the number of wide rows
    it merged into the levels' triangles (``wide_rows``), the columns its
    panels carried past their level's own (``panel_cols``) and min/max
    |R_jj| (``r_diag_ratio``). A full-rank factor implies full column rank,
    so ``rank`` is the column count; a rank-deficient system raises
    np.linalg.LinAlgError, naming the rank test that failed. The returned
    residual is ||Ax - b||_2 recomputed from the solution."""
    x, ordering, span_cut, ratio, wide_rows, panel_cols = _staircase_qr(
        system.A, system.b, system.cols)
    m, n = system.A.shape

    def dense(kind: int, nvars: int) -> np.ndarray:
        on = system.cols[:, 0] == kind
        exps = system.cols[on, 1:1 + nvars]
        out = np.zeros(exps.max(axis=0, initial=0) + 1)
        out[tuple(exps.T)] = x[on]
        return out

    return PsKernelSolution(
        k=TruncatedSeries((Var.X, Var.XI, Var.Y), dense(0, 3)),
        kbar=TruncatedSeries((Var.X, Var.XI), dense(1, 2)),
        residual=float(np.linalg.norm(system.A @ x - system.b)),
        config=system.config, num_unknowns=n, num_equations=m, x=x, rank=n,
        ordering=ordering, span_cut=span_cut, r_diag_ratio=ratio,
        wide_rows=wide_rows, panel_cols=panel_cols,
    )


def optimality_certificate(system: LinearSystem, x: np.ndarray) -> float:
    """||A^T r|| / (||A||_F max(||r||, 1e-6 ||b||)) with r = A x - b.

    Zero at an exact least-squares minimizer and at roundoff level at a
    computed one. The residual is floored at 1e-6 ||b||: once it is itself
    roundoff, the unfloored quotient is noise (2e-2 at example1, N = 30,
    N_y = 2) and cannot tell a good solve from a bad one. 0.0 when both r
    and b vanish. ||A||_F is the norm of A's values: its CSR has no repeats."""
    r = system.A @ x - system.b
    scale = max(float(np.linalg.norm(r)), 1e-6 * float(np.linalg.norm(system.b)))
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(system.A.T @ r)) / (
        float(np.linalg.norm(system.A.data)) * scale)


def residual_by_source(system: LinearSystem, x: np.ndarray) -> dict[str, float]:
    """2-norm of A x - b over the rows of each equation source."""
    r, src = system.A @ x - system.b, system.rows[:, 0]
    return {s: float(np.linalg.norm(r[src == k])) for k, s in enumerate(_SOURCES)}
