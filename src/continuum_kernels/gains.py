"""Gain extraction and kernel diagnostics.

The feedback law integrates the kernels at x = 1 against the state, so the
trace k(1, xi, y), kbar(1, xi) is the quantity of interest. This module
evaluates it on grids, samples it to per-component gain tables for n+1
systems, measures kernel-equation residuals for any candidate solution, and
compares solutions.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .closed_form import ClosedFormKernel
from .fd_kernels import LsKernelSolution
from .params import ContinuumParams, LargeScaleParams, sample_points
from .power_series import PsKernelSolution, residual_series
from .series import Var, integrate01

__all__ = [
    "GainTable",
    "gains",
    "sample_gains",
    "diff_solutions",
    "continuum_residual",
    "largescale_residual",
    "write_gain_csv",
    "read_gain_csv",
]

DEFAULT_GRID = 101


@dataclass
class GainTable:
    """Kernels evaluated at x = 1.

    ``k`` has one row per y value (for sampled tables, per component, with
    grid_y holding the sample points i/n); columns follow grid_xi.
    """

    grid_xi: np.ndarray
    grid_y: np.ndarray
    k: np.ndarray          # shape (len(grid_y), len(grid_xi))
    kbar: np.ndarray       # shape (len(grid_xi),)
    sampled: bool = False

    def __post_init__(self):
        self.grid_xi = np.asarray(self.grid_xi, dtype=float)
        self.grid_y = np.asarray(self.grid_y, dtype=float)
        self.k = np.asarray(self.k, dtype=float)
        self.kbar = np.asarray(self.kbar, dtype=float)
        if self.k.shape != (len(self.grid_y), len(self.grid_xi)):
            raise ValueError("gain matrix shape does not match grids")
        if self.kbar.shape != (len(self.grid_xi),):
            raise ValueError("kbar gain shape does not match grid_xi")
        if not (np.all(np.isfinite(self.k)) and np.all(np.isfinite(self.kbar))):
            raise ValueError("gain tables must be finite")
        for name in ("grid_xi", "grid_y"):  # np.interp needs increasing points
            if not np.all(np.diff(getattr(self, name)) > 0):
                raise ValueError(f"{name} must be strictly increasing")


def _ensemble_kernels(sol, xs, xis, ys, d: Var | None = None):
    """k on the outer grid (x, xi, y) and kbar on (x, xi) of a series or
    closed-form solution, or their derivatives in ``d`` (Var.X or Var.XI)."""
    if isinstance(sol, PsKernelSolution):
        k, kbar = (sol.k, sol.kbar) if d is None else (sol.k.diff(d), sol.kbar.diff(d))
        at = {Var.X: xs, Var.XI: xis, Var.Y: ys}
        return k.eval_grid(at), kbar.eval_grid(at)
    if not isinstance(sol, ClosedFormKernel):
        raise TypeError(f"unsupported kernel solution type {type(sol)!r}")
    k, kbar = {None: (sol.k, sol.kbar), Var.X: (sol.dk_dx, sol.dkbar_dx),
               Var.XI: (sol.dk_dxi, sol.dkbar_dxi)}[d]
    X, XI, Y = np.ix_(xs, xis, ys)
    return k(X, XI, Y), kbar(X[..., 0], XI[..., 0])


def gains(sol, grid_xi: np.ndarray | None = None,
          grid_y: np.ndarray | None = None) -> GainTable:
    """Control gains k(1, xi, y) and kbar(1, xi) on a grid.

    Grid-function solutions (from the n+1 reference solver) are returned on
    their own grid with grid_y at the component sample points.
    """
    if isinstance(sol, LsKernelSolution):
        return GainTable(grid_xi=sol.grid.nodes(), grid_y=sol.y_points, sampled=True,
                         k=sol.k[:-1, -1, :].copy(), kbar=sol.k[-1, -1, :].copy())
    default = np.linspace(0.0, 1.0, DEFAULT_GRID)
    grid_xi = np.asarray(default if grid_xi is None else grid_xi, dtype=float)
    grid_y = np.asarray(default if grid_y is None else grid_y, dtype=float)
    k, kbar = _ensemble_kernels(sol, np.ones(1), grid_xi, grid_y)
    return GainTable(grid_xi=grid_xi, grid_y=grid_y, k=k[0].T, kbar=kbar[0])


def sample_gains(sol, n: int, grid_xi: np.ndarray | None = None,
                 offset: float = 0.0) -> GainTable:
    """Per-component gains for an n+1 system: row i is k(1, xi, y_i) with
    y_i = (i+offset)/n for i = 1..n; the counter-convecting gain is kbar."""
    if n < 1:
        raise ValueError("n must be positive")
    t = gains(sol, grid_xi=grid_xi, grid_y=sample_points(n, offset))
    t.sampled = True
    return t


def diff_solutions(a: GainTable, b: GainTable) -> float:
    """Sup-norm difference of two gain tables over their shared grid."""
    if a.grid_xi.shape != b.grid_xi.shape or not np.allclose(
            a.grid_xi, b.grid_xi, rtol=0, atol=1e-12):
        raise ValueError("gain tables live on different xi grids")
    if a.grid_y.shape != b.grid_y.shape or not np.allclose(
            a.grid_y, b.grid_y, rtol=0, atol=1e-12):
        raise ValueError("gain tables live on different y grids")
    return float(max(np.abs(a.k - b.k).max(), np.abs(a.kbar - b.kbar).max()))


# ---------------------------------------------------------------------------
# Residuals in the ensemble kernel equations
# ---------------------------------------------------------------------------


def continuum_residual(sol, p: ContinuumParams,
                       grid_m: int = 21) -> dict[str, float]:
    """Sup-norm residual of each kernel equation for a candidate solution.

    Series solutions are checked against the same truncated-parameter
    equations the solver matched (exact monomial integration); closed-form
    solutions against the analytic parameters, with the integral couplings
    by adaptive Gauss-Legendre at 1e-10.
    """
    xs = np.linspace(0.0, 1.0, grid_m)
    if isinstance(sol, PsKernelSolution):
        at = {Var.X: xs, Var.XI: xs, Var.Y: xs}
        tri = np.tri(grid_m, dtype=bool)    # xi <= x on the (x, xi) axes of pde_*
        out = {}
        for src, r in residual_series(p, sol.config, sol.k, sol.kbar).items():
            e = r.eval_grid(at)
            out[src] = float(np.abs(e[tri] if src.startswith("pde") else e).max())
        return out
    return _closed_form_residual(sol, p, xs)


def _closed_form_residual(sol: ClosedFormKernel, p: ContinuumParams,
                          xs: np.ndarray) -> dict[str, float]:
    """Pointwise residuals for a separable solution; the y/eta integrals
    reduce to scalars (by separability of the kernel) computed once by
    adaptive Gauss-Legendre (:func:`integrate01`) at 1e-10."""
    sp = sol.problem

    def ky(t):
        # y-profile of k without the (x, xi) envelope
        return -sp.theta_y.eval1(Var.Y, t) / sp.lam_plus_mu(t)

    lam0 = p.lam.substitute(Var.X, 0.0)
    J_sig = integrate01(lambda t: sp.sigma_y.eval1(Var.Y, t) * -ky(t), 1e-10)
    J_w = integrate01(lambda t: sp.W_y.eval1(Var.Y, t) * -ky(t), 1e-10)
    J_q = integrate01(lambda t: p.q.eval1(Var.Y, t) * lam0.eval1(Var.Y, t)
                      * -ky(t), 1e-10)

    g = p.on_grid(xs, xs)                     # family fields are (y, x)
    lam, dlam, theta = g.lam.T[None], g.dlam.T[None], g.theta.T[None]
    k, kbar = _ensemble_kernels(sol, xs, xs, xs)
    k_x, kbar_x = _ensemble_kernels(sol, xs, xs, xs, Var.X)
    k_xi, kbar_xi = _ensemble_kernels(sol, xs, xs, xs, Var.XI)
    X, XI, Y = np.ix_(xs, xs, xs)
    tri = np.tri(len(xs), dtype=bool)         # xi <= x
    env = np.exp(sol.c_x / sol.mu * (X - XI))
    # int sigma(xi,eta,y) k(x,xi,eta) deta = sigma_x(xi) sigma_e(y) J_sig * (-env theta_x(xi))
    int_sigma_k = sp.sigma_x.eval1(Var.X, XI) * sp.sigma_e.eval1(Var.Y, Y) \
        * (-env * sp.theta_x.eval1(Var.X, XI)) * J_sig
    e1 = g.mu[:, None, None] * k_x - lam * k_xi - theta * kbar[..., None] \
        - dlam * k - int_sigma_k
    r1 = float(np.abs(e1[tri]).max())

    XI2 = XI[..., 0]
    int_w_k = sp.W_x.eval1(Var.X, XI2) * (-env[..., 0] * sp.theta_x.eval1(Var.X, XI2)) * J_w
    e2 = g.mu[:, None] * kbar_x + g.mu[None, :] * kbar_xi + g.dmu[None, :] * kbar - int_w_k
    r2 = float(np.abs(e2[tri]).max())

    diag = np.arange(len(xs))
    e3 = (lam[0] + g.mu[:, None]) * k[diag, diag] + theta[0]
    r3 = float(np.abs(e3).max())

    tx0 = float(sp.theta_x.eval1(Var.X, 0.0))
    e4 = g.mu[0] * kbar[:, 0] - env[:, 0, 0] * (-tx0) * J_q
    r4 = float(np.abs(e4).max())
    return {"pde_k": r1, "pde_kbar": r2, "bc_diag": r3, "bc_left": r4}


# ---------------------------------------------------------------------------
# Residuals in the sampled n+1 kernel equations
# ---------------------------------------------------------------------------


def _sampled_kernels(sol, ls: LargeScaleParams, xs: np.ndarray) -> list[np.ndarray]:
    """An ensemble solution as n+1 candidates on the grid ``xs``: k(x, xi, y_i)
    for i < n and kbar(x, xi) at i = n; then the same for d/dx and d/dxi."""
    shape = (ls.n, len(xs), len(xs))
    out = []
    for d in (None, Var.X, Var.XI):
        k, kbar = _ensemble_kernels(sol, xs, xs, ls.y_points(), d)
        out.append(np.concatenate([np.broadcast_to(np.moveaxis(k, 2, 0), shape),
                                   kbar[None]]))
    return out


def largescale_residual(sol, ls: LargeScaleParams,
                        grid_m: int = 64) -> dict[str, float]:
    """Plug a candidate kernel family into the n+1 kernel equations.

    ``sol`` is either an ensemble solution (series or closed form), whose
    sampling k_i(x, xi) = k(x, xi, y_i) supplies smooth candidates, or a
    grid solution from the n+1 reference solver (derivatives then fall back
    to centered differences). Reported values are sup norms over the
    triangle; for an ensemble solution they quantify how well the sampled
    continuum kernels approximate the n+1 kernels.
    """
    n = ls.n
    if isinstance(sol, LsKernelSolution):
        xs = sol.grid.nodes()
        m = sol.grid.m
        K = sol.k
        h = sol.grid.h
        dKdx = np.gradient(K, h, axis=1)
        dKdxi = np.gradient(K, h, axis=2)
        interior = np.zeros((m + 1, m + 1), dtype=bool)
        for a in range(2, m - 1):
            interior[a, 1:a - 1] = True
    else:
        m = grid_m
        xs = np.linspace(0.0, 1.0, m + 1)
        K, dKdx, dKdxi = _sampled_kernels(sol, ls, xs)
        interior = np.tri(m + 1, dtype=bool)                      # xi <= x

    g = ls.on_grid(xs)
    lam, dlam, mu, dmu, TH, WW = g.lam, g.dlam, g.mu, g.dmu, g.theta, g.W

    coup = g.couple_kernel(K[:n]) / n
    e_k = mu[:, None] * dKdx[:n] - lam[:, None, :] * dKdxi[:n] \
        - dlam[:, None, :] * K[:n] - coup - TH[:, None, :] * K[n][None]
    e_kb = mu[:, None] * dKdx[n] + mu[None, :] * dKdxi[n] \
        + dmu[None, :] * K[n] - np.einsum("jb,jab->ab", WW, K[:n]) / n
    r_pde_k = float(np.abs(e_k[:, interior]).max())
    r_pde_kb = float(np.abs(e_kb[interior]).max())

    diag = np.arange(len(xs))
    kdiag = K[:n, diag, diag]
    e_diag = kdiag + TH / (lam + mu[None, :])
    r_diag = float(np.abs(e_diag).max())
    lam0 = lam[:, 0]
    e_left = mu[0] * K[n, :, 0] - (g.q[:, None] * lam0[:, None] * K[:n, :, 0]
                                   ).sum(axis=0) / n
    r_left = float(np.abs(e_left).max())
    return {"pde_k": r_pde_k, "pde_kbar": r_pde_kb,
            "bc_diag": r_diag, "bc_left": r_left}


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def write_gain_csv(table: GainTable, path, report_path: str | None = None) -> None:
    """One row per xi: columns xi, kbar, then k at each y (header carries the
    y values). Lines starting with '#' are comments."""
    buf = io.StringIO()
    if report_path:
        buf.write(f"# report: {report_path}\n")
    buf.write(f"# sampled: {int(table.sampled)}\n")
    cols = ",".join(f"k@y={float(v)!r}" for v in table.grid_y)
    buf.write(f"xi,kbar,{cols}\n")
    for j, xi in enumerate(table.grid_xi):
        vals = ",".join(f"{table.k[i, j]:.17g}" for i in range(len(table.grid_y)))
        buf.write(f"{xi:.17g},{table.kbar[j]:.17g},{vals}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def read_gain_csv(path) -> GainTable:
    sampled = False
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# sampled:"):
                    sampled = bool(int(line.split(":")[1]))
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append([float(v) for v in line.split(",")])
    if header is None or not rows:
        raise ValueError(f"no gain table found in {path}")
    for h in header[2:]:
        if not h.startswith("k@y="):
            raise ValueError(f"{path}: gain column {h!r} is not of the form k@y=<value>")
    grid_y = np.array([float(h[4:]) for h in header[2:]])
    data = np.asarray(rows)
    return GainTable(grid_xi=data[:, 0], grid_y=grid_y,
                     k=data[:, 2:].T, kbar=data[:, 1], sampled=sampled)
