"""Reference solver for the sampled n+1 kernel equations.

The kernel family k^1..k^n propagates from the diagonal xi = x toward the
interior of the triangle, the counter kernel k^{n+1} from the edge xi = 0.
Both travel in +x, and every coupling source at x-level a-1 depends only on
kernel values at that level. So one Gauss-Seidel march in x, level by
level, each level's values traced back along the characteristic curves
from the level below and its sources taken from the values just computed,
solves the discrete equations; a second sweep certifies the answer by
reproducing it (sup change 0). Source integrals use the rectangle rule at
the upstream point and off-grid values linear interpolation, so the error
is in general first order in the mesh width, but not always. With an
integer lam/mu every foot lands on a node and the interpolation is exact:
on closed-form problems the error then fell 3.9-4.0x per halving of h.
With q != 0 the first-order rectangle-rule and interpolation terms can
cancel, as they did on some closed-form draws. Richardson extrapolation,
2 K_2m - K_m, assumes first order and would add error there instead of
removing it. The equations, their sums over the family weighted by
``GridParams.weights`` (1/n for the n+1 system), come from
``GridParams.sources``, ``diag_bc`` and ``left_bc``, shared with the
residuals of ``gains``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .params import LargeScaleParams

__all__ = ["TriGrid", "LsKernelSolution", "ConvergenceError",
           "solve_characteristics", "refine_study", "RefineReport"]


TOL = 1e-10  # a solve stops once a sweep's sup change drops below this


class ConvergenceError(RuntimeError):
    def __init__(self, history: list[float]):
        self.history = history
        self.iterations = len(history)
        self.final_delta = history[-1] if history else np.inf
        super().__init__(
            f"fixed point did not reach tol={TOL:.1e} in {self.iterations} "
            f"sweeps (last change {self.final_delta:.3e})"
        )


@dataclass(frozen=True)
class TriGrid:
    """Uniform grid on the triangle 0 <= xi <= x <= 1 with mesh width 1/m."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need at least two cells")

    @property
    def h(self) -> float:
        return 1.0 / self.m

    def nodes(self) -> np.ndarray:
        return np.arange(self.m + 1) / self.m


@dataclass
class LsKernelSolution:
    """Grid kernels: k[i, a, b] = k^{i+1}(x_a, xi_b) for i < n, k[n] the
    counter kernel; entries with b > a are unused and left at zero. ``k`` is
    a transposed view of the march's level-major array K[a, i, b], not a
    copy."""

    k: np.ndarray
    grid: TriGrid
    y_points: np.ndarray
    history: list[float]            # sup change of each sweep
    stages_s: dict[str, float] = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def final_delta(self) -> float:
        return self.history[-1]


def _weights(t: np.ndarray, h: float, length):
    """Cell index and weight of linear interpolation at t on the uniform grid
    {0, h, ..., (length-1)h}; a one-point grid gives index 0 and weight 0."""
    s = t / h
    np.clip(s, 0.0, length - 1.0, out=s)
    idx = s.astype(int)
    np.minimum(idx, np.maximum(length - 2, 0), out=idx)
    s -= idx
    return idx, s


class _Stencils:
    """The iterate-independent part of a sweep on one grid: the speeds'
    characteristics, so no boundary data.

    Flat indices address one level of the level-major kernel array
    K[a, i, b] (and the source row S[i, b] that shares its layout): node
    (i, b) is ``i*(m+1) + b``. An interior node of level a reads the
    interpolation nodes ``lo`` and ``lo + 1`` at the foot of its
    characteristic on level a-1. A family node ``d`` meets the diagonal and
    a counter node ``z`` the edge xi = 0 between the two levels; they read
    boundary data and diagonal or edge sources instead. Each kind is in
    level order: level a owns ``slice(starts[a], starts[a+1])`` of it.

    A family characteristic depends only on its row of lam, so each
    distinct row is traced once, and the rows that share it read its
    column of the traced tables.
    """

    def __init__(self, lam, mu, xs, h):
        n, m = lam.shape[0], len(xs) - 1
        mu_of = lambda t: np.interp(t, xs, mu)
        rows, inv = np.unique(lam, axis=0, return_inverse=True)
        r = len(rows)
        # Tables have one row per pair (a, b < a) of A, B, so they are in
        # level order. Traced tables hold the family characteristics of
        # lam's distinct rows in columns g < r and the counter one in
        # column r; node tables hold the family nodes (i, A, B) in columns
        # i < n and the counter node (n, A, B+1) in column n. Node column i
        # reads traced column col[i].
        A, B = np.tril_indices(m + 1, -1)
        col = np.append(inv.reshape(-1), r)
        feet = np.empty((len(A), r + 1))

        # family kernels: trace back along dxi/dx = -lam_g/mu
        xi = xs[B][:, None]
        slope = rows.T[B] / mu[A][:, None]              # predictor, then corrector
        j, w = _weights(xi + slope * h, h, m + 1)
        j += np.arange(r) * (m + 1)                     # rows[g, j], flat
        at = rows.reshape(-1)
        slope = 0.5 * (slope + (at[j] * (1.0 - w) + at[1:][j] * w)
                       / mu[A - 1][:, None])
        feet[:, :r] = xi + slope * h
        inside = feet <= xs[A - 1][:, None] + 1e-14

        # counter kernel: trace back along dxi/dx = +mu(xi)/mu(x)
        xi = xs[B + 1]
        sl0 = np.interp(xi, xs, mu) / mu[A]
        sl = 0.5 * (sl0 + mu_of(np.clip(xi - sl0 * h, 0.0, 1.0)) / mu[A - 1])
        t = xi - sl * h
        inside[:, r] = t >= -1e-14
        feet[:, r] = np.clip(t, 0.0, xs[A - 1])
        out = ~inside[:, r]
        x0 = xs[A][out] - xi[out] / np.maximum(sl[out], 1e-300)
        self.z_starts = _starts(out, m)
        self.z_node = n * (m + 1) + B[out] + 1
        self.z_x = x0
        self.z_c = (xs[A][out] - x0) / mu_of(x0)

        # family nodes that cross the diagonal: few, so their crossing
        # points are computed per node
        mask = np.take(inside, col, axis=1)
        p, i = np.nonzero(~mask[:, :n])
        s, xa = slope[p, col[i]], xs[A[p]]
        xd = (xs[B[p]] + s * xa) / (1.0 + s)
        j, w = _weights(xd, h, m + 1)
        self.d_starts = _starts(np.bincount(p, minlength=len(A)), m)
        self.d_node = i * (m + 1) + B[p]
        self.d_lo = i * (m + 1) + j                     # S_diag[i, j]
        self.d_w = w
        self.d_c = (xa - xd) / mu_of(xd)

        # interior nodes; the weights of crossing entries are computed and
        # dropped. With distinct rows each table is half the size of K, so
        # each is freed once used
        j, w = _weights(feet, h, A[:, None])
        del feet, slope
        base = np.arange(n + 1) * (m + 1)
        self.starts = _starts(mask.sum(axis=1), m)
        self.node = (B[:, None] + (base + (col == r)))[mask]
        self.lo = (np.take(j, col, axis=1) + base)[mask]
        self.w = np.take(w, col, axis=1)[mask]


def _starts(count, m):
    """Offsets of levels 0..m+1 in a level-ordered array with ``count[t]``
    entries for pair t of ``np.tril_indices(m + 1, -1)``: level a owns
    pairs a(a-1)/2 .. a(a+1)/2 - 1."""
    a = np.arange(m + 2)
    return np.concatenate(([0], np.cumsum(count)))[a * (a - 1) // 2]


def solve_characteristics(ls: LargeScaleParams, grid: TriGrid | None = None,
                          max_iter: int = 200) -> LsKernelSolution:
    """March the discrete kernel equations level by level in x.

    A sweep updates the previous iterate in place, level a = 0..m in turn.
    Every node value is the boundary value at its characteristic's origin
    plus the source integral; the sources at level a-1 are evaluated from
    the kernels this sweep has just computed there, and within level a the
    nodes come in dependency order (interior nodes, diagonal sources,
    diagonal-crossing nodes, the xi = 0 boundary value and source, edge-
    crossing nodes, then the source row for level a+1). So the first sweep
    solves the discrete equations, and the second reproduces it: its sup
    change, which certifies the answer, is 0. A value read before this sweep
    sets it is the previous iterate's, so a broken order would only cost more
    sweeps, never a wrong fixed point. The characteristics do not depend on
    K, so their stencils are built once per solve. Stops when the sup change
    drops below ``TOL``; raises :class:`ConvergenceError` otherwise.
    """
    if grid is None:
        grid = TriGrid(256)
    ls.check_speeds()
    t0 = time.perf_counter()
    n, m, h = ls.n, grid.m, grid.h
    xs = grid.nodes()

    g = ls.on_grid(xs)
    mu, dmu, TH, WW, diag_bc = g.mu, g.dmu, g.theta, g.weighted_W, g.diag_bc
    st = _Stencils(g.lam, mu, xs, h)
    # the diagonal data where family characteristics cross the diagonal
    bc = diag_bc.reshape(-1)
    d_k = bc[st.d_lo] * (1.0 - st.d_w) + bc[1:][st.d_lo] * st.d_w
    c = h / mu[:-1]                     # rectangle rule from level a-1
    # the diagonal sources S[:n, a, a] but for their TH * K[n, a, a] part
    D = g.sources(np.vstack((diag_bc, np.zeros(m + 1))))[:n]

    t1 = time.perf_counter()
    K = np.zeros((m + 1, n + 1, m + 1))             # K[a, i, b], level-major
    left = K[:, n, 0]                               # k^{n+1}(x_a, 0)
    S = np.zeros((n + 1, m + 1))                    # source row of level a-1
    S_diag = np.zeros((n, m + 1))                   # S[:n, a, a]
    S_left = np.zeros(m + 1)                        # S[n, a, 0]
    Sp, Sd = S.reshape(-1), S_diag.reshape(-1)
    history = []
    while len(history) < max_iter:
        # level 0 is the corner x = xi = 0, boundary data alone
        old = K[0, :, 0].copy()
        K[0, :n, 0] = diag_bc[:, 0]
        K[0, n, 0] = g.left_bc(diag_bc[:, 0])
        S[:, :1] = g.sources(K[0, :, :1])
        S_diag[:, 0], S_left[0] = S[:n, 0], S[n, 0]
        change = float(np.abs(K[0, :, 0] - old).max())
        for a in range(1, m + 1):
            old = K[a, :, :a + 1].copy()
            Kp, Ka = K[a - 1].reshape(-1), K[a].reshape(-1)
            # 1. interior nodes and the diagonal data
            j = slice(st.starts[a], st.starts[a + 1])
            # 1 - w is formed per level, not stored: the same bits, and no
            # second weight table as large as the first
            lo, w = st.lo[j], st.w[j]
            w1 = 1.0 - w
            Ka[st.node[j]] = (Kp[lo] * w1 + Kp[1:][lo] * w
                              + c[a - 1] * (Sp[lo] * w1 + Sp[1:][lo] * w))
            K[a, :n, a] = diag_bc[:, a]
            # 2. diagonal sources; 3. family nodes that cross the diagonal
            S_diag[:, a] = D[:, a] + TH[:, a] * K[a, n, a]
            j = slice(st.d_starts[a], st.d_starts[a + 1])
            lo, w = st.d_lo[j], st.d_w[j]
            Ka[st.d_node[j]] = d_k[j] + st.d_c[j] * (Sd[lo] * (1.0 - w) + Sd[1:][lo] * w)
            # 4. the xi = 0 boundary value; 5. its source
            K[a, n, 0] = g.left_bc(K[a, :n, 0])
            # written out: a g.sources call here made the march 10-20 % slower
            S_left[a] = -dmu[0] * K[a, n, 0] + WW[:, 0] @ K[a, :n, 0]
            # 6. counter nodes that cross xi = 0
            j = slice(st.z_starts[a], st.z_starts[a + 1])
            if j.start < j.stop:
                x0 = st.z_x[j]
                Ka[st.z_node[j]] = (np.interp(x0, xs, left)
                                    + st.z_c[j] * np.interp(x0, xs, S_left))
            # 7. the source row the next level reads
            S[:, :a + 1] = g.sources(K[a, :, :a + 1])
            change = max(change, float(np.abs(K[a, :, :a + 1] - old).max()))
        history.append(change)
        if change < TOL:
            return LsKernelSolution(
                k=K.transpose(1, 0, 2), grid=grid,
                y_points=ls.points, history=history,
                stages_s={"stencils": t1 - t0,
                          "sweeps": time.perf_counter() - t1})
    raise ConvergenceError(history)


@dataclass
class RefineReport:
    """Self-convergence data from a sequence of refinements."""

    m_list: list[int]
    diffs: list[float]              # sup difference between successive solutions
    ratios: list[float]             # diffs[k] / diffs[k+1]
    reference_errors: list[float] = field(default_factory=list)
    solutions: list[LsKernelSolution] = field(default_factory=list, repr=False)


def refine_study(ls: LargeScaleParams, m_list, reference=None) -> RefineReport:
    """Solve on increasingly fine grids and report successive sup-norm
    differences (restricted to the common coarse nodes) and, optionally,
    errors against a reference kernel family callable(ref(i, x, xi))."""
    m_list = list(m_list)
    grids = [TriGrid(m) for m in m_list]    # the whole ladder is checked first
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ValueError("mesh sizes must increase")
    if any(b % a for a, b in zip(m_list, m_list[1:])):
        raise ValueError("each refinement must be a multiple of the last")
    sols = []
    ref_errors = []
    for grid in grids:
        sol = solve_characteristics(ls, grid)
        sols.append(sol)
        if reference is not None:
            xs = sol.grid.nodes()
            X, XI = np.meshgrid(xs, xs, indexing="ij")
            tri = XI <= X
            err = 0.0
            for i in range(ls.n + 1):
                vals = reference(i, X, XI)
                err = max(err, float(np.abs((sol.k[i] - vals))[tri].max()))
            ref_errors.append(err)
    diffs = []
    for s1, s2 in zip(sols, sols[1:]):
        r = s2.grid.m // s1.grid.m
        sub = s2.k[:, ::r, ::r]
        xs = s1.grid.nodes()
        X, XI = np.meshgrid(xs, xs, indexing="ij")
        tri = XI <= X
        diffs.append(float(np.abs(s1.k - sub)[:, tri].max()))
    ratios = [d1 / d2 for d1, d2 in zip(diffs, diffs[1:]) if d2 > 0]
    return RefineReport(m_list=m_list, diffs=diffs, ratios=ratios,
                        reference_errors=ref_errors, solutions=sols)
