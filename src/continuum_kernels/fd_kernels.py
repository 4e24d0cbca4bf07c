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
    def __init__(self, iterations: int, final_delta: float, tol: float):
        self.iterations = iterations
        self.final_delta = final_delta
        super().__init__(
            f"fixed point did not reach tol={tol:.1e} in {iterations} sweeps "
            f"(last change {final_delta:.3e})"
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
    iterations: int
    final_delta: float


def _interp_rows(values: np.ndarray, t: np.ndarray, h: float, length: int):
    """Row-wise linear interpolation of values[r, 0:length] on the uniform
    grid {0, h, ..., (length-1)h} at query points t[r, q]."""
    if length == 1:
        return np.broadcast_to(values[:, :1], t.shape).copy()
    s = np.clip(t / h, 0.0, length - 1.0)
    idx = np.minimum(s.astype(int), length - 2)
    w = s - idx
    rows = np.arange(values.shape[0])[:, None]
    lo = values[rows, idx]
    hi = values[rows, idx + 1]
    return lo * (1.0 - w) + hi * w


def solve_characteristics(ls: LargeScaleParams, grid: TriGrid | None = None,
                          tol: float = 1e-10, max_iter: int = 200
                          ) -> LsKernelSolution:
    """Successive approximation along characteristics.

    Each sweep maps the previous iterate K to a new one: the diagonal and
    xi=0 boundary data are imposed from K, and every node value is the
    boundary value at the characteristic's origin plus the accumulated
    source integral, evaluated on K. Stops when the sup change drops below
    ``tol``; raises :class:`ConvergenceError` otherwise.
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
    mu_of = lambda t: np.interp(t, xs, mu)

    K = np.zeros((n + 1, m + 1, m + 1))
    iterations = 0
    delta = np.inf
    while iterations < max_iter:
        iterations += 1
        # sources from the previous iterate, on the grid
        S = g.couple_kernel(K[:n]) / n
        S += dlam[:, None, :] * K[:n] + TH[:, None, :] * K[n][None]
        Sb = -dmu[None, :] * K[n] + np.einsum("jb,jab->ab", WW, K[:n]) / n

        Kn = np.zeros_like(K)
        Kn[:n, 0, 0] = diag_bc[:, 0]
        bc_left = (q[:, None] * lam0[:, None] * K[:n, :, 0]).sum(axis=0) / (n * mu[0])
        Kn[n, :, 0] = bc_left
        Sdiag = np.array([np.diagonal(S[i]) for i in range(n)])   # (n, m+1)

        for a in range(1, m + 1):
            xa = xs[a]
            # family kernels: trace back along dxi/dx = -lam_i/mu
            bs = np.arange(a)
            xi = xs[bs]
            slope0 = lam[:, bs] / mu[a]                            # (n, a)
            feet0 = xi[None, :] + slope0 * h
            slope = 0.5 * (slope0 + _interp_rows(lam, feet0, h, m + 1) / mu[a - 1])
            feet = xi[None, :] + slope * h
            inside = feet <= xs[a - 1] + 1e-14
            kfoot = _interp_rows(Kn[:n, a - 1, :], np.where(inside, feet, 0.0),
                                 h, a)
            sfoot = _interp_rows(S[:n, a - 1, :], np.where(inside, feet, 0.0),
                                 h, a)
            vals = kfoot + (h / mu[a - 1]) * sfoot
            if not inside.all():
                # characteristic meets the diagonal between the two levels
                xd = (xi[None, :] + slope * xa) / (1.0 + slope)
                kd = _interp_rows(diag_bc, np.broadcast_to(xd, (n, a)), h, m + 1)
                sd = _interp_rows(Sdiag, np.broadcast_to(xd, (n, a)), h, m + 1)
                cross = kd + (xa - xd) / mu_of(xd) * sd
                vals = np.where(inside, vals, cross)
            Kn[:n, a, :a] = vals
            Kn[:n, a, a] = diag_bc[:, a]

            # counter kernel: trace back along dxi/dx = +mu(xi)/mu(x)
            bs2 = np.arange(1, a + 1)
            xi2 = xs[bs2]
            sl0 = np.interp(xi2, xs, mu) / mu[a]
            feet2 = xi2 - sl0 * h
            sl = 0.5 * (sl0 + mu_of(np.clip(feet2, 0.0, 1.0)) / mu[a - 1])
            feet2 = xi2 - sl * h
            inside2 = feet2 >= -1e-14
            f2 = np.clip(feet2, 0.0, xs[a - 1])[None, :]
            kfoot2 = _interp_rows(Kn[n:n + 1, a - 1, :], f2, h, a)[0]
            sfoot2 = _interp_rows(Sb[None, a - 1, :], f2, h, a)[0]
            vals2 = kfoot2 + (h / mu[a - 1]) * sfoot2
            if not inside2.all():
                # characteristic meets xi = 0 between the two levels
                x0 = xa - xi2 / np.maximum(sl, 1e-300)
                k0 = np.interp(x0, xs, bc_left)
                s0 = np.interp(x0, xs, Sb[:, 0])
                vals2 = np.where(inside2, vals2,
                                 k0 + (xa - x0) / mu_of(x0) * s0)
            Kn[n, a, 1:a + 1] = vals2

        delta = float(np.abs(Kn - K).max())
        K = Kn
        if delta < tol:
            return LsKernelSolution(k=K, grid=grid, y_points=ls.y_points(),
                                    iterations=iterations, final_delta=delta)
    raise ConvergenceError(iterations, delta, tol)


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
