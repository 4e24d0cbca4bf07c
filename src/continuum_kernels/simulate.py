"""Closed-loop simulation of the sampled n+1 hyperbolic system.

Semi-discretization in x with first-order upwind differences (the family
u^1..u^n advects rightward, the controlled component v leftward), classical
four-stage explicit time stepping (in Horner form) at a fixed CFL fraction,
and boundary injection u^i(t,0) = q_i v(t,0), v(t,1) = U(t). The feedback
U integrates the gain table against the state by the composite trapezoidal
rule; the v(1) = U coupling at the quadrature endpoint is solved exactly
(it is a scalar linear equation).

The stability verdict is a threshold on the final/initial norm ratio at
``t_final``. Exact kernels bring the closed loop to zero in finite time
t_F = 1/min(mu) + 1/min(lambda), and kernel and mesh error leave a
settling tail just past t_F, so the verdict means "stable" only when
``t_final`` is well past t_F, as its default 2 t_F is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gains import GainTable
from .params import LargeScaleParams

__all__ = ["SimConfig", "SimReport", "Simulator", "write_sim_csv"]

# Verdict threshold on the final/initial norm ratio at t_final; it reads as
# stability only when t_final is well past t_F = 1/min(mu) + 1/min(lambda).
STABLE_NORM_FRACTION = 1e-3
DIVERGE_LIMIT = 1e12           # sup-norm guard that raises the divergence flag

INITIAL_PROFILES = {
    "sine": lambda x: np.sin(np.pi * x),
    "zero": lambda x: np.zeros_like(x),
    "bump": lambda x: np.exp(-80.0 * (x - 0.5) ** 2),
}


@dataclass(frozen=True)
class SimConfig:
    n: int
    m_x: int = 256
    t_final: float | None = None    # None: 2 t_F, resolved by the Simulator
    cfl: float = 0.4
    initial_profile: str = "sine"
    amplitude: float = 1.0

    def __post_init__(self):
        if self.m_x < 16:
            raise ValueError("need at least 16 grid points")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("cfl must lie in (0, 1)")
        if not (self.t_final is None or 0.0 < self.t_final < math.inf):
            raise ValueError(f"t_final must be finite and positive, "
                             f"got {self.t_final}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        if self.initial_profile not in INITIAL_PROFILES:
            raise ValueError(f"unknown initial profile {self.initial_profile!r}")


@dataclass
class SimReport:
    t: np.ndarray
    U: np.ndarray
    norm: np.ndarray
    stable: bool
    diverged: bool
    dt: float
    initial_norm: float
    final_norm: float


class Simulator:
    """Method-of-lines integrator for one parameter set and gain table.

    The state X is one (n+1, m) array: rows 0..n-1 are the family u^i and
    row n is v, the layout of the n+1 kernels in ``fd_kernels``. ``gains``
    None runs the plant open loop (U = 0). The stage buffers are allocated
    once here; a step writes every term into them in place.

    The Simulator owns the run's rules, for API callers and the CLI alike.
    ``t_final`` None becomes 2 t_F = 2 (1/min mu + 1/min lambda), minima at
    the family points, and ``self.cfg`` holds the horizon that runs. A
    table's xi grid must reach 0 and 1, and its rows are interpolated onto
    the simulation grid; in y they are placed at ``ls.points`` by
    :func:`_rows_at`, and any other table is a ValueError naming its grid."""

    def __init__(self, cfg: SimConfig, ls: LargeScaleParams,
                 gains: GainTable | None):
        if cfg.n != ls.n:
            raise ValueError("config and parameters disagree on n")
        speeds = ls.check_speeds()
        if cfg.t_final is None:     # twice the settling time t_F
            cfg = replace(cfg, t_final=2.0 * sum(1.0 / s for s in speeds))
        self.cfg = cfg
        n, m = ls.n, cfg.m_x
        self.n, self.m = n, m
        self.xs = xs = np.linspace(0.0, 1.0, m)
        self.h = h = xs[1] - xs[0]
        g = ls.on_grid(xs)
        self.q = g.q
        speed = max(float(g.lam.max()), float(g.mu.max()))
        self.dt = cfg.cfl * h / speed
        self._lam_h = np.where(xs > 0, g.lam * (-1.0 / h), 0.0).reshape(-1)[1:]
        self._mu_h = g.mu[:-1] / h                 # upwind v, evolved nodes
        self.params = replace(g, lam=None, dlam=None)  # steps read the factors
        self.weights = np.full(m, h)
        self.weights[0] = self.weights[-1] = h / 2.0
        self._D, self._S = np.zeros((2, n + 1, m))  # derivative, stage state
        self._C = np.zeros(n * m - 1)              # flat upwind differences
        self.kgw = self.kbg = None
        if gains is not None:
            # y and trapezoid weights folded in; the v(1) = U entry is solved for
            k = _rows_at(gains, ls.points)
            self.kgw = _interp_rows(xs, gains.grid_xi, k) * self.weights
            self.kgw *= g.weights[:, None]
            self.kbg = _interp_rows(xs, gains.grid_xi, gains.kbar)
            self._kbw = (self.weights * self.kbg)[:-1]
            denom = 1.0 - self.weights[-1] * self.kbg[-1]
            if abs(denom) < 1e-8:
                raise ValueError("feedback endpoint equation is singular")
            self._denom = denom

    # -- u columns 1..m-1 and v columns 0..m-2 are evolved; the boundary
    #    columns u[:, 0] and v[-1] follow from them ---------------------------

    def initial_state(self) -> np.ndarray:
        prof = INITIAL_PROFILES[self.cfg.initial_profile]
        X = np.zeros((self.n + 1, self.m))
        X[:self.n] = self.cfg.amplitude * prof(self.xs)
        self._apply_bc(X)
        return X

    def control(self, X: np.ndarray) -> float:
        """Feedback value for the state X; open loop gives 0.

        The quadrature endpoint carries v(1) = U itself; the scalar equation
        is solved exactly, so the result never depends on the stale v[-1]."""
        if self.kgw is None:
            return 0.0
        su = float(np.vdot(self.kgw, X[:self.n]))
        return (su + float(self._kbw @ X[self.n, :-1])) / self._denom

    def _apply_bc(self, X: np.ndarray) -> None:
        np.multiply(self.q, X[self.n, 0], out=X[:self.n, 0])
        X[self.n, -1] = self.control(X)

    def _rhs(self, X: np.ndarray, D: np.ndarray) -> None:
        """Write the upwind space derivatives plus the coupling terms on
        evolved nodes into D. The u differences run over the flat family,
        weighted 0 at each row start so nothing leaks from u[i-1, m-1]."""
        n = self.n
        u, v = X[:n], X[n]
        du, dv = D[:n], D[n]
        drive = self.params.couple_plant(u, v, out=du)
        du[:, 0] = 0.0
        uf = u.reshape(-1)
        C = np.subtract(uf[1:], uf[:-1], out=self._C)
        C *= self._lam_h
        du.reshape(-1)[1:] += C
        np.subtract(v[1:], v[:-1], out=dv[:-1])
        dv[:-1] *= self._mu_h
        dv[:-1] += drive[:-1]
        dv[-1] = 0.0

    def step(self, X: np.ndarray, dt: float) -> np.ndarray:
        """One classical four-stage explicit step, written into X, which is
        returned. The loop is linear and time-invariant (no forcing), so with
        P the boundary projection and A = rhs o P, RK4 is exactly X <- P(X +
        dt A(X + dt/2 A(X + dt/3 A(X + dt/4 A X)))), evaluated inside out."""
        D, S = self._D, self._S
        self._apply_bc(X)
        self._rhs(X, D)
        for c in (dt / 4, dt / 3, dt / 2):
            np.multiply(D, c, out=S)
            S += X
            self._apply_bc(S)
            self._rhs(S, D)
        X += np.multiply(D, dt, out=D)
        self._apply_bc(X)
        return X

    def norm(self, X: np.ndarray) -> float:
        u, v = X[:self.n], X[self.n]
        uu = self.params.weights @ np.einsum("ix,ix->i", u, u)
        return math.sqrt(self.h * (uu + np.vdot(v, v)))

    def run(self) -> SimReport:
        X = self.initial_state()
        nsteps = int(np.ceil(self.cfg.t_final / self.dt))
        dt = self.cfg.t_final / nsteps
        ts = [0.0]
        Us = [float(X[self.n, -1])]
        norms = [self.norm(X)]
        diverged = False
        for k in range(nsteps):
            self.step(X, dt)
            ts.append((k + 1) * dt)
            # NaN fails both comparisons
            if not (X.max() <= DIVERGE_LIMIT and X.min() >= -DIVERGE_LIMIT):
                diverged = True
                Us.append(np.nan)
                norms.append(np.inf)
                break
            Us.append(float(X[self.n, -1]))
            norms.append(self.norm(X))
        initial, final = norms[0], norms[-1]
        stable = not diverged and (final == 0.0 if initial == 0.0
                                   else final < STABLE_NORM_FRACTION * initial)
        return SimReport(t=np.asarray(ts), U=np.asarray(Us), norm=np.asarray(norms),
                         stable=stable, diverged=diverged, dt=dt,
                         initial_norm=float(initial), final_norm=float(final))


def _rows_at(table: GainTable, ys: np.ndarray) -> np.ndarray:
    """The table's k rows at the component points ``ys``: its own rows when
    they sit there (within 1e-12), else an ensemble table's rows resampled
    there. A xi grid short of [0, 1] (interpolation would hold its end
    values), a sampled table elsewhere, or an ensemble table whose y grid
    does not span ``ys`` is a ValueError naming the grid."""
    gx, gy, tol = table.grid_xi, table.grid_y, 1e-12
    if gx[0] > tol or gx[-1] < 1.0 - tol:
        raise ValueError(f"gain table has a xi grid on [{gx[0]:g}, {gx[-1]:g}], "
                         f"which does not cover [0, 1]")
    if len(gy) == len(ys) and np.allclose(gy, ys, rtol=0, atol=tol):
        return table.k
    if table.sampled:
        raise ValueError(f"gain table is sampled at {len(gy)} points y = "
                         f"{np.array2string(gy)}, but the {len(ys)} components "
                         f"sit at y = {np.array2string(ys)}")
    if gy[0] > ys.min() + tol or gy[-1] < ys.max() - tol:
        raise ValueError(f"gain table has a y grid on [{gy[0]:g}, {gy[-1]:g}], "
                         f"which does not cover the components' span "
                         f"[{ys.min():g}, {ys.max():g}]")
    return _interp_rows(ys, gy, table.k.T).T


def _interp_rows(xs: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(xs, xp, row) of every row of ``fp`` in one gather; ``take``,
    unlike fp[..., lo], keeps the rows in C order. End values hold outside."""
    x = xs.clip(xp[0], xp[-1])
    lo = np.minimum(np.searchsorted(xp, x, side="right") - 1, max(len(xp) - 2, 0))
    hi = np.minimum(lo + 1, len(xp) - 1)
    t = np.divide(x - xp[lo], xp[hi] - xp[lo], out=np.zeros_like(x), where=hi > lo)
    return fp.take(lo, axis=-1) * (1.0 - t) + fp.take(hi, axis=-1) * t


def write_sim_csv(report: SimReport, path, report_path: str | None = None) -> None:
    report_line = f"# report: {report_path}\n" if report_path else ""
    with open(path, "w", encoding="utf-8") as fh:   # savetxt's default is latin1
        np.savetxt(fh, np.column_stack([report.t, report.U, report.norm]),
                   fmt="%.17g", delimiter=",", comments="",
                   header=f"{report_line}# stable: {int(report.stable)} "
                          f"diverged: {int(report.diverged)}\nt,U,norm")
