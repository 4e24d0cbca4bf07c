"""Reference solver for the sampled n+1 kernel equations.

The kernel family k^1..k^n propagates from the diagonal xi = x toward the
interior of the triangle, the counter kernel k^{n+1} from the edge xi = 0.
Each fixed-point sweep integrates the transport equations along their
characteristic curves with all coupling sources frozen at the previous
iterate (successive approximation), which contracts like a Volterra
iteration. Source integrals use the rectangle rule at the upstream point
and off-grid values linear interpolation, so the scheme converges at first
order in the mesh width.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import LargeScaleParams

__all__ = ["TriGrid", "LsKernelSolution", "ConvergenceError",
           "solve_characteristics", "refine_study", "RefineReport"]


class ConvergenceError(RuntimeError):
    def __init__(self, history: list[float], tol: float):
        self.history = history
        self.iterations = len(history)
        self.final_delta = history[-1] if history else np.inf
        super().__init__(
            f"fixed point did not reach tol={tol:.1e} in {self.iterations} "
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
    counter kernel; entries with b > a are unused and left at zero."""

    k: np.ndarray
    grid: TriGrid
    y_points: np.ndarray
    history: list[float]            # sup change of each sweep

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def final_delta(self) -> float:
        return self.history[-1]


def _weights(t: np.ndarray, h: float, length):
    """Cell index and weight of linear interpolation at t on the uniform grid
    {0, h, ..., (length-1)h}; a one-point grid gives index 0 and weight 0."""
    s = np.clip(t / h, 0.0, length - 1.0)
    idx = np.minimum(s.astype(int), np.maximum(length - 2, 0))
    return idx, s - idx


class _Stencils:
    """The iterate-independent part of a sweep on one grid.

    Kernels and sources share the layout of one (n+1, m+1, m+1) array, so a
    flat index ``lo`` addresses the lower interpolation node (``lo + 1`` the
    upper one) at the foot of a characteristic in both. Nodes whose foot lies
    on level a-1 are sorted by level: level a owns ``slice(starts[a],
    starts[a+1])``. A family node ``d`` meets the diagonal and a counter node
    ``z`` the edge xi = 0 between the two levels; their values come from
    boundary data and sources alone.
    """

    def __init__(self, lam, mu, diag_bc, xs, h):
        n, m = lam.shape[0], len(xs) - 1
        mu_of = lambda t: np.interp(t, xs, mu)
        rows = np.arange(n)[:, None]
        plane = (m + 1) ** 2

        # family kernels: trace back along dxi/dx = -lam_i/mu
        A, B = np.tril_indices(m + 1, -1)
        xi, xa = xs[B], xs[A]
        slope0 = lam[:, B] / mu[A]
        j, w = _weights(xi + slope0 * h, h, m + 1)
        slope = 0.5 * (slope0 + (lam[rows, j] * (1.0 - w) + lam[rows, j + 1] * w)
                       / mu[A - 1])
        feet = xi + slope * h
        inside = feet <= xs[A - 1] + 1e-14
        level = np.broadcast_to(A, inside.shape)
        node = rows * plane + A * (m + 1) + B
        out = ~inside
        xd = ((xi + slope * xa) / (1.0 + slope))[out]
        j, w = _weights(xd, h, m + 1)
        i = np.broadcast_to(rows, inside.shape)[out]
        self.d_node = node[out]
        self.d_lo = i * plane + j * (m + 2)     # S[i, j, j]
        self.d_w1, self.d_w = 1.0 - w, w
        self.d_k = diag_bc[i, j] * (1.0 - w) + diag_bc[i, j + 1] * w
        self.d_c = (xs[level[out]] - xd) / mu_of(xd)
        fam = (level[inside], node[inside], feet[inside],
               (rows * plane + (A - 1) * (m + 1))[inside])

        # counter kernel: trace back along dxi/dx = +mu(xi)/mu(x)
        A, B = np.tril_indices(m)
        A, B = A + 1, B + 1
        xi, xa = xs[B], xs[A]
        sl0 = np.interp(xi, xs, mu) / mu[A]
        sl = 0.5 * (sl0 + mu_of(np.clip(xi - sl0 * h, 0.0, 1.0)) / mu[A - 1])
        feet = xi - sl * h
        inside = feet >= -1e-14
        node = n * plane + A * (m + 1) + B
        out = ~inside
        x0 = xa[out] - xi[out] / np.maximum(sl[out], 1e-300)
        self.z_node = node[out]
        self.z_x = x0
        self.z_c = (xa[out] - x0) / mu_of(x0)
        cnt = (A[inside], node[inside],
               np.clip(feet, 0.0, xs[A - 1])[inside],
               (n * plane + (A - 1) * (m + 1))[inside])

        level, self.node, t, row = (np.concatenate(v) for v in zip(fam, cnt))
        order = np.argsort(level, kind="stable")
        level, self.node, t, row = level[order], self.node[order], t[order], row[order]
        j, w = _weights(t, h, level)
        self.lo = row + j
        self.w1, self.w = 1.0 - w, w
        self.c = h / mu[level - 1]
        self.starts = np.searchsorted(level, np.arange(m + 2))


def solve_characteristics(ls: LargeScaleParams, grid: TriGrid | None = None,
                          tol: float = 1e-10, max_iter: int = 200
                          ) -> LsKernelSolution:
    """Successive approximation along characteristics.

    Each sweep maps the previous iterate K to a new one: the diagonal and
    xi=0 boundary data are imposed from K, and every node value is the
    boundary value at the characteristic's origin plus the accumulated
    source integral, evaluated on K. The characteristics do not depend on K,
    so their stencils are built once per solve. Stops when the sup change
    drops below ``tol``; raises :class:`ConvergenceError` otherwise.
    """
    if grid is None:
        grid = TriGrid(256)
    ls.check_speeds()
    n, m, h = ls.n, grid.m, grid.h
    xs = grid.nodes()

    g = ls.on_grid(xs)
    lam, dlam, mu, dmu, TH, WW, q = g.lam, g.dlam, g.mu, g.dmu, g.theta, g.W, g.q
    lam0 = lam[:, 0]
    diag_bc = -TH / (lam + mu[None, :])                           # (n, m+1)
    st = _Stencils(lam, mu, diag_bc, xs, h)
    diag = np.arange(m + 1)

    K = np.zeros((n + 1, m + 1, m + 1))
    history = []
    while len(history) < max_iter:
        # sources from the previous iterate: S[:n] drives the family, S[n]
        # the counter kernel
        S = np.empty_like(K)
        np.divide(g.couple_kernel(K[:n]), n, out=S[:n])
        S[:n] += dlam[:, None, :] * K[:n] + TH[:, None, :] * K[n][None]
        S[n] = -dmu[None, :] * K[n] + np.einsum("jb,jab->ab", WW, K[:n]) / n
        Sf = S.reshape(-1)
        src = st.c * (Sf[st.lo] * st.w1 + Sf[1:][st.lo] * st.w)

        Kn = np.zeros_like(K)
        Knf = Kn.reshape(-1)
        Kn[:n, diag, diag] = diag_bc
        bc_left = (q[:, None] * lam0[:, None] * K[:n, :, 0]).sum(axis=0) / (n * mu[0])
        Kn[n, :, 0] = bc_left
        # crossing nodes read no kernel value of this sweep, so they are set
        # before the march, which then reads them from level a-1
        Knf[st.d_node] = st.d_k + st.d_c * (Sf[st.d_lo] * st.d_w1
                                            + Sf[m + 2:][st.d_lo] * st.d_w)
        Knf[st.z_node] = (np.interp(st.z_x, xs, bc_left)
                          + st.z_c * np.interp(st.z_x, xs, S[n, :, 0]))
        for a in range(1, m + 1):
            j = slice(st.starts[a], st.starts[a + 1])
            lo = st.lo[j]
            Knf[st.node[j]] = Knf[lo] * st.w1[j] + Knf[1:][lo] * st.w[j] + src[j]

        history.append(float(np.abs(Kn - K).max()))
        K = Kn
        if history[-1] < tol:
            return LsKernelSolution(k=K, grid=grid, y_points=ls.y_points(),
                                    history=history)
    raise ConvergenceError(history, tol)


@dataclass
class RefineReport:
    """Self-convergence data from a sequence of refinements."""

    m_list: list[int]
    diffs: list[float]              # sup difference between successive solutions
    ratios: list[float]             # diffs[k] / diffs[k+1]
    reference_errors: list[float] = field(default_factory=list)


def refine_study(ls: LargeScaleParams, m_list, tol: float = 1e-10,
                 max_iter: int = 200, reference=None) -> RefineReport:
    """Solve on increasingly fine grids and report successive sup-norm
    differences (restricted to the common coarse nodes) and, optionally,
    errors against a reference kernel family callable(ref(i, x, xi))."""
    m_list = list(m_list)
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ValueError("mesh sizes must increase")
    sols = []
    ref_errors = []
    for m in m_list:
        sol = solve_characteristics(ls, TriGrid(m), tol=tol, max_iter=max_iter)
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
        m1, m2 = s1.grid.m, s2.grid.m
        if m2 % m1 != 0:
            raise ValueError("each refinement must be a multiple of the last")
        r = m2 // m1
        sub = s2.k[:, ::r, ::r]
        xs = s1.grid.nodes()
        X, XI = np.meshgrid(xs, xs, indexing="ij")
        tri = XI <= X
        diffs.append(float(np.abs(s1.k - sub)[:, tri].max()))
    ratios = [d1 / d2 for d1, d2 in zip(diffs, diffs[1:]) if d2 > 0]
    return RefineReport(m_list=m_list, diffs=diffs, ratios=ratios,
                        reference_errors=ref_errors)
