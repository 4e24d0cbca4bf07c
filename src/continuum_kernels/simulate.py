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
from dataclasses import dataclass

import numpy as np

from .gains import GainTable
from .params import LargeScaleParams

__all__ = ["SimConfig", "SimReport", "Simulator", "run_closed_loop",
           "write_sim_csv"]

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
    control_mode: str = "gain_table"   # "gain_table" | "open_loop"

    def __post_init__(self):
        if self.m_x < 16:
            raise ValueError("need at least 16 grid points")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("cfl must lie in (0, 1)")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.initial_profile not in INITIAL_PROFILES:
            raise ValueError(f"unknown initial profile {self.initial_profile!r}")
        if self.control_mode not in ("gain_table", "open_loop"):
            raise ValueError(f"unknown control mode {self.control_mode!r}")


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
    """Method-of-lines integrator for one parameter set and gain table."""

    def __init__(self, cfg: SimConfig, ls: LargeScaleParams,
                 gains: GainTable | None = None):
        if cfg.n != ls.n:
            raise ValueError("config and parameters disagree on n")
        if cfg.control_mode == "gain_table" and gains is None:
            raise ValueError("gain_table control mode needs a gain table")
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

        if gains is not None and cfg.control_mode == "gain_table":
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

    # -- state layout: u rows 1..m-1 and v rows 0..m-2 are evolved ----------

    def initial_state(self) -> tuple[np.ndarray, np.ndarray]:
        prof = INITIAL_PROFILES[self.cfg.initial_profile]
        u = np.tile(self.cfg.amplitude * prof(self.xs), (self.n, 1))
        v = np.zeros(self.m)
        u[:, 0] = self.q * v[0]
        v[-1] = self.control(u, v)
        return u, v

    def control(self, u: np.ndarray, v: np.ndarray) -> float:
        """Feedback value for the current state; open loop gives 0.

        The quadrature endpoint carries v(1) = U itself; the scalar equation
        is solved exactly, so the result never depends on the stale v[-1]."""
        if self.kg is None:
            return 0.0
        w = self.weights
        su = float((w * (self.kg * u).mean(axis=0)).sum())
        sv = float((w[:-1] * self.kbg[:-1] * v[:-1]).sum())
        return (su + sv) / self._denom

    def _apply_bc(self, u: np.ndarray, v: np.ndarray) -> float:
        u[:, 0] = self.q * v[0]
        U = self.control(u, v)
        v[-1] = U
        return U

    def _rhs(self, u: np.ndarray, v: np.ndarray):
        """Upwind space derivatives plus coupling terms on evolved nodes."""
        h = self.h
        du = np.zeros_like(u)
        dv = np.zeros_like(v)
        adv_u = (u[:, 1:] - u[:, :-1]) / h
        du[:, 1:] = -self.lam[:, 1:] * adv_u
        du += self.params.couple(u) / self.n
        du += self.W * v[None, :]
        du[:, 0] = 0.0
        dv[:-1] = self.mu[:-1] * (v[1:] - v[:-1]) / h
        dv += (self.theta * u).mean(axis=0)
        dv[-1] = 0.0
        return du, dv

    def step(self, u: np.ndarray, v: np.ndarray, dt: float):
        """One classical four-stage explicit step; boundary values are
        reconstructed from the stage states before every evaluation."""

        def f(uu, vv):
            uu = uu.copy()
            vv = vv.copy()
            self._apply_bc(uu, vv)
            return self._rhs(uu, vv)

        k1u, k1v = f(u, v)
        k2u, k2v = f(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
        k3u, k3v = f(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
        k4u, k4v = f(u + dt * k3u, v + dt * k3v)
        un = u + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        vn = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        self._apply_bc(un, vn)
        return un, vn

    def norm(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.sqrt(self.h * ((u ** 2).sum() / self.n + (v ** 2).sum())))

    def run(self) -> SimReport:
        u, v = self.initial_state()
        nsteps = int(np.ceil(self.cfg.t_final / self.dt))
        dt = self.cfg.t_final / nsteps
        ts = [0.0]
        Us = [self.control(u, v)]
        norms = [self.norm(u, v)]
        diverged = False
        for k in range(nsteps):
            u, v = self.step(u, v, dt)
            t = (k + 1) * dt
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))) or \
                    max(np.abs(u).max(), np.abs(v).max()) > DIVERGE_LIMIT:
                diverged = True
                ts.append(t)
                Us.append(np.nan)
                norms.append(np.inf)
                break
            ts.append(t)
            Us.append(self.control(u, v))
            norms.append(self.norm(u, v))
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


def run_closed_loop(cfg: SimConfig, ls: LargeScaleParams,
                    gains: GainTable | None = None) -> SimReport:
    """Convenience wrapper: build a Simulator and integrate to t_final."""
    return Simulator(cfg, ls, gains).run()


def write_sim_csv(report: SimReport, path, manifest: str | None = None) -> None:
    buf = io.StringIO()
    if manifest:
        buf.write(f"# manifest: {manifest}\n")
    buf.write(f"# stable: {int(report.stable)} diverged: {int(report.diverged)}\n")
    buf.write("t,U,norm\n")
    for t, U, nv in zip(report.t, report.U, report.norm):
        buf.write(f"{t:.17g},{U:.17g},{nv:.17g}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
