"""Closed-loop simulation of the sampled n+1 hyperbolic system.

Semi-discretization in x with first-order upwind differences (the family
u^1..u^n advects rightward, the controlled component v leftward), classical
four-stage explicit time stepping at a fixed CFL fraction, and boundary
injection u^i(t,0) = q_i v(t,0), v(t,1) = U(t). The feedback U integrates
the gain table against the state by the composite trapezoidal rule; the
v(1) = U coupling at the quadrature endpoint is solved exactly (it is a
scalar linear equation).

The stability verdict is a threshold on the final/initial norm ratio at
``t_final``. Exact kernels bring the closed loop to zero in finite time
t_F = 1/mu + 1/min(lambda), and kernel and mesh error leave
a settling tail just past t_F, so the verdict means "stable" only when
``t_final`` is well past t_F (twice t_F, say).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .gains import GainTable
from .params import LargeScaleParams

__all__ = ["SimConfig", "SimReport", "Simulator", "write_sim_csv"]

# Verdict threshold on the final/initial norm ratio at t_final; it reads as
# stability only when t_final is well past t_F = 1/mu + 1/min(lambda).
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
    t_final: float = 3.0
    cfl: float = 0.4
    initial_profile: str = "sine"
    amplitude: float = 1.0

    def __post_init__(self):
        if self.m_x < 16:
            raise ValueError("need at least 16 grid points")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("cfl must lie in (0, 1)")
        if not (math.isfinite(self.t_final) and self.t_final > 0):
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
    None runs the plant open loop (U = 0)."""

    def __init__(self, cfg: SimConfig, ls: LargeScaleParams,
                 gains: GainTable | None):
        if cfg.n != ls.n:
            raise ValueError("config and parameters disagree on n")
        ls.check_speeds()
        self.cfg = cfg
        n, m = ls.n, cfg.m_x
        self.n, self.m = n, m
        xs = np.linspace(0.0, 1.0, m)
        self.xs = xs
        self.h = xs[1] - xs[0]
        self.params = g = ls.on_grid(xs)
        self.lam, self.mu, self.q = g.lam, g.mu, g.q
        self.theta, self.W = g.theta, g.W
        speed = max(float(self.lam.max()), float(self.mu.max()))
        self.dt = cfg.cfl * self.h / speed
        self.weights = np.full(m, self.h)
        self.weights[0] = self.weights[-1] = self.h / 2.0

        if gains is not None:
            if len(gains.grid_y) != n:
                raise ValueError(
                    f"gain table has {len(gains.grid_y)} family rows, need n={n}"
                )
            self.kg = np.array([
                np.interp(xs, gains.grid_xi, gains.k[i]) for i in range(n)
            ])
            self.kbg = np.interp(xs, gains.grid_xi, gains.kbar)
            denom = 1.0 - self.weights[-1] * self.kbg[-1]
            if abs(denom) < 1e-8:
                raise ValueError("feedback endpoint equation is singular")
            self._denom = denom
        else:
            self.kg = None
            self.kbg = None
            self._denom = 1.0

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
        if self.kg is None:
            return 0.0
        u, v = X[:self.n], X[self.n]
        w = self.weights
        su = float((w * (self.kg * u).mean(axis=0)).sum())
        sv = float((w[:-1] * self.kbg[:-1] * v[:-1]).sum())
        return (su + sv) / self._denom

    def _apply_bc(self, X: np.ndarray) -> None:
        X[:self.n, 0] = self.q * X[self.n, 0]
        X[self.n, -1] = self.control(X)

    def _rhs(self, X: np.ndarray) -> np.ndarray:
        """Upwind space derivatives plus coupling terms on evolved nodes.

        The three couplings share one (n, m) temporary: at large n every
        fresh state-sized array costs page faults."""
        n, h = self.n, self.h
        u, v = X[:n], X[n]
        D = np.zeros_like(X)
        du, dv = D[:n], D[n]
        du[:, 1:] = -self.lam[:, 1:] * ((u[:, 1:] - u[:, :-1]) / h)
        c = self.params.couple(u)
        c /= n
        du += c
        du += np.multiply(self.W, v, out=c)
        du[:, 0] = 0.0
        dv[:-1] = self.mu[:-1] * (v[1:] - v[:-1]) / h
        dv += np.multiply(self.theta, u, out=c).mean(axis=0)
        dv[-1] = 0.0
        return D

    def step(self, X: np.ndarray, dt: float) -> np.ndarray:
        """One classical four-stage explicit step. Boundary values are set on
        every stage state before it is evaluated: in place on X, a no-op for
        states from ``initial_state`` or ``step``, and on the arrays the
        stage combinations allocate."""

        def f(S):
            self._apply_bc(S)
            return self._rhs(S)

        k1 = f(X)
        k2 = f(X + 0.5 * dt * k1)
        k3 = f(X + 0.5 * dt * k2)
        k4 = f(X + dt * k3)
        Xn = X + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        self._apply_bc(Xn)
        return Xn

    def norm(self, X: np.ndarray) -> float:
        u, v = X[:self.n], X[self.n]
        return float(np.sqrt(self.h * ((u ** 2).sum() / self.n + (v ** 2).sum())))

    def run(self) -> SimReport:
        X = self.initial_state()
        nsteps = int(np.ceil(self.cfg.t_final / self.dt))
        dt = self.cfg.t_final / nsteps
        ts = [0.0]
        Us = [self.control(X)]
        norms = [self.norm(X)]
        diverged = False
        for k in range(nsteps):
            X = self.step(X, dt)
            ts.append((k + 1) * dt)
            if not np.abs(X).max() <= DIVERGE_LIMIT:   # NaN fails it too
                diverged = True
                Us.append(np.nan)
                norms.append(np.inf)
                break
            Us.append(self.control(X))
            norms.append(self.norm(X))
        t_arr = np.asarray(ts)
        U_arr = np.asarray(Us)
        n_arr = np.asarray(norms)
        initial = n_arr[0]
        final = n_arr[-1]
        stable = (not diverged) and final < STABLE_NORM_FRACTION * initial
        if initial == 0.0:
            stable = not diverged and final == 0.0
        return SimReport(t=t_arr, U=U_arr, norm=n_arr, stable=stable,
                         diverged=diverged, dt=dt,
                         initial_norm=float(initial), final_norm=float(final))


def write_sim_csv(report: SimReport, path, report_path: str | None = None) -> None:
    buf = io.StringIO()
    if report_path:
        buf.write(f"# report: {report_path}\n")
    buf.write(f"# stable: {int(report.stable)} diverged: {int(report.diverged)}\n")
    buf.write("t,U,norm\n")
    for t, U, nv in zip(report.t, report.U, report.norm):
        buf.write(f"{t:.17g},{U:.17g},{nv:.17g}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
