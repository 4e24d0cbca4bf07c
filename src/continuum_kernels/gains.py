"""Gain extraction and kernel diagnostics.

The feedback law integrates the kernels at x = 1 against the state, so the
trace k(1, xi, y), kbar(1, xi) is the quantity of interest. This module
evaluates it on grids, samples it to per-component gain tables for n+1
systems, measures kernel-equation residuals for any candidate solution, and
compares solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fd_kernels import LsKernelSolution
from .params import ContinuumParams, LargeScaleParams, sample_points
from .power_series import PsKernelSolution
from .series import GL_NODES, GL_WEIGHTS, Var

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
    """k on the outer grid (x, xi, y) and kbar on (x, xi) of a series
    solution, or of any other ensemble solution as a closed-form kernel
    (its ``k(x, xi, y, d)`` and ``kbar(x, xi, d)``), or their derivatives
    in ``d`` (Var.X or Var.XI)."""
    if isinstance(sol, PsKernelSolution):
        k, kbar = (sol.k, sol.kbar) if d is None else (sol.k.diff(d), sol.kbar.diff(d))
        at = {Var.X: xs, Var.XI: xis, Var.Y: ys}
        return k.eval_grid(at), kbar.eval_grid(at)
    X, XI, Y = np.ix_(xs, xis, ys)
    return sol.k(X, XI, Y, d), sol.kbar(X[..., 0], XI[..., 0], d)


def gains(sol, grid_xi: np.ndarray | None = None,
          grid_y: np.ndarray | None = None) -> GainTable:
    """Control gains k(1, xi, y) and kbar(1, xi) on a grid.

    Grid-function solutions (from the n+1 reference solver) are returned on
    their own grid with grid_y at the component sample points; giving
    either grid for one is a ValueError.
    """
    if isinstance(sol, LsKernelSolution):
        if grid_xi is not None or grid_y is not None:
            raise ValueError("a march's gains are on its own grid: give no grids")
        return GainTable(grid_xi=sol.grid.nodes(), grid_y=sol.y_points, sampled=True,
                         k=sol.k[:-1, -1, :].copy(), kbar=sol.k[-1, -1, :].copy())
    default = np.linspace(0.0, 1.0, DEFAULT_GRID)
    grid_xi = np.asarray(default if grid_xi is None else grid_xi, dtype=float)
    grid_y = np.asarray(default if grid_y is None else grid_y, dtype=float)
    k, kbar = _ensemble_kernels(sol, np.ones(1), grid_xi, grid_y)
    return GainTable(grid_xi=grid_xi, grid_y=grid_y, k=k[0].T, kbar=kbar[0])


def sample_gains(sol, n: int, grid_xi: np.ndarray | None = None) -> GainTable:
    """Per-component gains for an n+1 system: row i is k(1, xi, i/n) for
    i = 1..n; the counter-convecting gain is kbar. A family at other points
    samples its gains with ``gains(sol, grid_xi, grid_y=family.points)``."""
    if n < 1:
        raise ValueError("n must be positive")
    t = gains(sol, grid_xi=grid_xi, grid_y=sample_points(n))
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
    """Sup-norm residual of each kernel equation for an ensemble solution,
    series or closed form, in the equations of :func:`largescale_residual`
    on the family of the points y = xs, each of weight 0, followed by the
    nodes of the 15-point Gauss-Legendre rule, whose weights carry the
    integrals over y. A series solution is checked against the exact
    parameters of the problem it solves, its config's ``oriented(p)``.
    """
    if isinstance(sol, LsKernelSolution):     # a grid solution has no y
        raise TypeError(f"unsupported kernel solution type {type(sol)!r}")
    if isinstance(sol, PsKernelSolution):
        p = sol.config.oriented(p)
    xs = np.linspace(0.0, 1.0, grid_m)
    family = LargeScaleParams(p, np.concatenate((xs, GL_NODES)),
                              np.concatenate((np.zeros(grid_m), GL_WEIGHTS)))
    return largescale_residual(sol, family, grid_m - 1)


def _sampled_kernels(sol, ys: np.ndarray, xs: np.ndarray) -> list[np.ndarray]:
    """An ensemble solution as candidates at the family points ``ys`` on the
    grid ``xs``: k(x, xi, y_i) for i < n and kbar(x, xi) at i = n; then the
    same for d/dx and d/dxi."""
    shape = (len(ys), len(xs), len(xs))
    out = []
    for d in (None, Var.X, Var.XI):
        k, kbar = _ensemble_kernels(sol, xs, xs, ys, d)
        out.append(np.concatenate([np.broadcast_to(np.moveaxis(k, 2, 0), shape),
                                   kbar[None]]))
    return out


# ---------------------------------------------------------------------------
# Residuals in the sampled n+1 kernel equations
# ---------------------------------------------------------------------------


def largescale_residual(sol, ls: LargeScaleParams,
                        grid_m: int = 64) -> dict[str, float]:
    """Plug a candidate kernel family into the kernel equations of the
    family ``ls`` (the n+1 equations for ``Problem.large_scale``).

    ``sol`` is either an ensemble solution (series or closed form), whose
    sampling k_i(x, xi) = k(x, xi, y_i) supplies smooth candidates, or a
    grid solution from the n+1 reference solver (derivatives then fall back
    to centered differences). Reported values are sup norms over the
    triangle, the transport equations over its interior; for an ensemble
    solution they quantify how well the sampled continuum kernels
    approximate the n+1 kernels. The diagonal data is reported as
    (lam_i + mu) K_i(x, x) + theta_i, as ``assemble`` writes it.
    """
    if isinstance(sol, LsKernelSolution):
        xs = sol.grid.nodes()
        m = sol.grid.m
        if m < 5:
            raise ValueError(f"a reference solution needs m >= 5 for an interior "
                             f"of centered differences; got m = {m}")
        K = sol.k
        h = sol.grid.h
        dKdx, dKdxi = np.gradient(K, h, axis=1), np.gradient(K, h, axis=2)
        a, b = np.ogrid[:m + 1, :m + 1]
        interior = (a <= m - 2) & (b >= 1) & (b <= a - 2)   # x rows 2..m-2, xi 1..a-2
    else:
        xs = np.linspace(0.0, 1.0, grid_m + 1)
        K, dKdx, dKdxi = _sampled_kernels(sol, ls.points, xs)
        interior = np.tri(grid_m + 1, dtype=bool)                 # xi <= x
    g = ls.on_grid(xs)
    n, mu, S = ls.n, g.mu, g.sources(K)
    e_k = mu[:, None] * dKdx[:n] - g.lam[:, None, :] * dKdxi[:n] - S[:n]
    e_kb = mu[:, None] * dKdx[n] + mu[None, :] * dKdxi[n] - S[n]
    diag = np.arange(len(mu))
    e_diag = (g.lam + mu) * K[:n, diag, diag] + g.theta
    e_left = mu[0] * (K[n, :, 0] - g.left_bc(K[:n, :, 0]))
    return {"pde_k": float(np.abs(e_k[:, interior]).max()),
            "pde_kbar": float(np.abs(e_kb[interior]).max()),
            "bc_diag": float(np.abs(e_diag).max()),
            "bc_left": float(np.abs(e_left).max())}


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def write_gain_csv(table: GainTable, path, report_path: str | None = None) -> None:
    """One row per xi: columns xi, kbar, then k at each y (header carries the
    y values). Lines starting with '#' are comments."""
    report_line = f"# report: {report_path}\n" if report_path else ""
    cols = ",".join(f"k@y={float(v)!r}" for v in table.grid_y)
    with open(path, "w", encoding="utf-8") as fh:   # savetxt's default is latin1
        np.savetxt(fh, np.column_stack([table.grid_xi, table.kbar, table.k.T]),
                   fmt="%.17g", delimiter=",", comments="",
                   header=f"{report_line}# sampled: {int(table.sampled)}\nxi,kbar,{cols}")


def _is_number(field: str, kind=float) -> bool:
    try:
        kind(field)
    except ValueError:
        return False
    return True


def read_gain_csv(path) -> GainTable:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(i, line.strip()) for i, line in enumerate(fh, 1)]
    flags = [(i, line.split(":", 1)[1]) for i, line in lines
             if line.startswith("# sampled:")]
    for i, v in flags:
        if not _is_number(v, int):
            raise ValueError(f"{path}: line {i} has a sampled flag that is not "
                             f"an integer: {v.strip()!r}")
    lines = [(i, line) for i, line in lines if line and not line.startswith("#")]
    if len(lines) < 2:
        raise ValueError(f"no gain table found in {path}")
    header = lines[0][1].split(",")
    if len(header) < 3:
        raise ValueError(f"{path}: a gain table needs xi, kbar and k@y=<value> "
                         f"columns; the header names {len(header)}")
    for h in header[2:]:
        if not h.startswith("k@y="):
            raise ValueError(f"{path}: gain column {h!r} is not of the form k@y=<value>")
    rows = lines[1:]
    for i, line in rows:
        if line.count(",") + 1 != len(header):
            raise ValueError(f"{path}: line {i} has {line.count(',') + 1} fields, "
                             f"but the header names {len(header)}")
    try:
        data = np.loadtxt([line for _, line in rows], delimiter=",", ndmin=2)
    except ValueError as e:
        # numpy counts data rows from 0; name the file's line and field instead
        for i, line in rows:
            for j, v in enumerate(line.split(","), 1):
                if not _is_number(v):
                    raise ValueError(f"{path}: line {i} field {j} is not a "
                                     f"number: {v!r}") from None
        raise ValueError(f"{path}: {e}") from None
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: line {rows[int(np.argmin(finite))][0]} "
                         f"holds a non-finite value")
    try:    # GainTable checks that the grids increase: name the file
        return GainTable(grid_xi=data[:, 0], grid_y=[float(h[4:]) for h in header[2:]],
                         k=data[:, 2:].T, kbar=data[:, 1],
                         sampled=any(int(v) for _, v in flags))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
