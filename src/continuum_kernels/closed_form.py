"""Closed-form kernels for separable ensemble problems.

When mu is constant, lambda depends on y only, and the couplings sigma
and theta factor as

    sigma(x, eta, y) = sigma_x(x) sigma_y(eta) sigma_e(y),
    theta(x, y)      = theta_x(x) theta_y(y),

this module builds the separable candidate

    k(x, xi, y) = -exp(c_x (x - xi)/mu) theta_x(xi) theta_y(y)/(lam(y)+mu),
    kbar(x, xi) =  exp(c_x (x - xi)/mu) f(xi).

The sigma coupling enters only through kappa = c * int sigma_y theta_y/(lam+mu),
with c the least-squares ratio sigma_e/theta_y (:func:`sigma_coef`); the
rate c_x (:func:`compute_cx`) and the profile f (:func:`build_f`) are
averaged over y. The candidate never reads W. It solves the kernel
equations when sigma_e = c theta_y or kappa vanishes, when c_x and f do
not depend on y, and when

    mu f'(xi) = -theta_x(xi) int_0^1 W(xi, y) theta_y(y)/(lam(y)+mu) dy,

which W may meet as a sum of separable terms. No condition is checked by
hand: :func:`solve_closed_form` accepts the candidate only when its
residual in every kernel equation,
:func:`~continuum_kernels.gains.continuum_residual`, is at roundoff of its
size. Constant lambda is the special case in which every y-weight is the
constant 1/(lam+mu); only then is c_y = kappa (lam+mu) reported. Every
y-integral, weighted by 1/(lam+mu) where it applies, is one adaptive
Gauss-Legendre call (:func:`integrate01` at 1e-12).

``sigma_y`` weights the integrated family component (the eta slot of the
stored sigma) and ``sigma_e`` the free ensemble variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .gains import continuum_residual
from .params import PARAMS, ContinuumParams
from .series import SeparableSum, Var, integrate01

__all__ = [
    "NotApplicable",
    "ClosedFormError",
    "SeparableProblem",
    "ClosedFormKernel",
    "sigma_coef",
    "compute_cx",
    "build_f",
    "solve_closed_form",
]

GRID_Y = 101        # y-grid for the speed check and the y-averages
GRID_XI = 201       # xi-grid on which theta_x must not vanish
GRID_RESIDUAL = 21  # grid_m of the acceptance residual and of the kernel's size
TOL_RESIDUAL = 1e-10  # acceptance: residual <= TOL_RESIDUAL * max(1, size)
TOL_ZERO = 1e-12    # zero thresholds for integrals and theta_x magnitude


@dataclass(frozen=True)
class NotApplicable:
    """Returned when the separable construction does not apply."""

    reason: str
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return False


class ClosedFormError(RuntimeError):
    """The candidate cannot be built: theta_x vanishes where it divides."""


def _integral01(*funcs: SeparableSum, weight: Callable | None = None) -> float:
    """Integral over [0,1] of a product of univariate sums (times an optional
    vectorized weight), by :func:`integrate01` at 1e-12."""

    def integrand(t):
        out = np.ones_like(t) if weight is None else weight(t)
        for f in funcs:
            out = out * _eval1(f, t)
        return out

    return integrate01(integrand, 1e-12)


def _eval1(f: SeparableSum, t) -> np.ndarray:
    vs = f.vars()
    v = vs[0] if vs else Var.Y
    return f.eval1(v, t)


@dataclass
class SeparableProblem:
    """Factored problem data for the closed-form construction."""

    mu: float
    lam_y: SeparableSum                 # lam as a function of y only
    lam_const: float | None             # set when lam is constant
    sigma_x: SeparableSum
    sigma_y: SeparableSum               # factor on the integrated (eta) slot
    sigma_e: SeparableSum               # factor on the free ensemble slot
    theta_x: SeparableSum
    theta_y: SeparableSum
    q: SeparableSum

    @staticmethod
    def from_continuum(p: ContinuumParams) -> "SeparableProblem | NotApplicable":
        if p.mu.vars():
            return NotApplicable("mu is not constant")
        mu = float(p.mu({}))
        if mu <= 0:
            return NotApplicable("mu must be positive")
        if Var.X in p.lam.vars():
            return NotApplicable("lambda depends on x; constant-in-x lambda required")
        lam_const = float(p.lam({})) if not p.lam.vars() else None
        if float(_eval1(p.lam, np.linspace(0, 1, GRID_Y)).min()) <= 0:
            return NotApplicable("lambda must be positive on [0,1]")

        parts = {}
        for name in ("sigma", "theta"):
            nonzero = SeparableSum(t for t in getattr(p, name).terms if t.scale != 0.0)
            if len(nonzero.terms) > 1:
                return NotApplicable(f"{name} is a sum of {len(nonzero.terms)} "
                                     f"separable terms; a single product is required")
            parts[name] = [nonzero.part(v) for v in PARAMS[name][1]]
        (sx, sy, se), (tx, ty) = parts["sigma"], parts["theta"]
        return SeparableProblem(mu=mu, lam_y=p.lam, lam_const=lam_const,
                                sigma_x=sx, sigma_y=sy, sigma_e=se,
                                theta_x=tx, theta_y=ty, q=p.q)

    def lam_plus_mu(self, y) -> np.ndarray:
        return _eval1(self.lam_y, y) + self.mu

    def weighted_integral(self, *funcs: SeparableSum) -> float:
        """Integral over [0,1] of the product of ``funcs`` divided by
        lam(y) + mu."""
        return _integral01(*funcs, weight=lambda t: 1.0 / self.lam_plus_mu(t))


def _sup(f: SeparableSum) -> float:
    return float(np.abs(_eval1(f, np.linspace(0.0, 1.0, GRID_Y))).max())


def sigma_coef(p: SeparableProblem) -> float:
    """The sigma coefficient kappa = c * int_0^1 sigma_y theta_y/(lam+mu),
    with c the least-squares ratio sigma_e/theta_y on a y-grid.

    kappa is 0 when a sigma factor is zero or the weighted integral
    vanishes. Otherwise the candidate solves the kernel equations only if
    sigma_e = c theta_y, which the residual of :func:`solve_closed_form`
    decides. With constant lambda, c_y = kappa (lam+mu) is the classical
    ratio constant.
    """
    if p.sigma_x.is_zero() or p.sigma_y.is_zero() or p.sigma_e.is_zero():
        return 0.0
    J = p.weighted_integral(p.sigma_y, p.theta_y)
    if abs(J) <= TOL_ZERO * max(1.0, _sup(p.sigma_y), _sup(p.theta_y)):
        return 0.0
    ys = np.linspace(0.0, 1.0, GRID_Y)
    a, b = _eval1(p.sigma_e, ys), _eval1(p.theta_y, ys)
    return float(a @ b) / float(b @ b) * J


def compute_cx(p: SeparableProblem, kappa: float) -> float:
    """The exponential rate constant of the separable candidate,

        c_x = mu sigma_x(0) kappa + mu lam(y)/(lam(y)+mu) theta_x'(0)/theta_x(0)
              + theta_x(0) int lam q theta_y/(lam+mu),

    with kappa from :func:`sigma_coef`, averaged over a y-grid. It does not
    depend on y when lambda is constant or theta_x'(0) = 0; a rate that does
    leaves a residual that :func:`solve_closed_form` rejects.
    """
    mu = p.mu
    lam = _eval1(p.lam_y, np.linspace(0.0, 1.0, GRID_Y))
    sx0 = float(_eval1(p.sigma_x, 0.0))
    tx0 = float(_eval1(p.theta_x, 0.0))
    if abs(tx0) < TOL_ZERO:
        raise ClosedFormError(
            "theta_x(0.0) is (numerically) zero; the construction divides by it")
    logd0 = float(_eval1(p.theta_x.diff(Var.X), 0.0)) / tx0
    Jq = p.weighted_integral(p.lam_y, p.q, p.theta_y)
    cx_y = mu * sx0 * kappa + mu * lam / (lam + mu) * logd0 + tx0 * Jq
    return float(cx_y.mean())


def build_f(p: SeparableProblem, c_x: float, kappa: float
            ) -> tuple[Callable, Callable]:
    """The xi-profile of kbar and its derivative,

        f(xi) = kappa sigma_x(xi) - c_x/mu + r theta_x'(xi)/theta_x(xi),

    with r = lam(y)/(lam(y)+mu) averaged over a y-grid. The kbar equation
    holds when mu f'(xi) = -theta_x(xi) int_0^1 W(xi, y) theta_y(y)/(lam(y)
    + mu) dy; that, and whether f depends on y, is for the residual of
    :func:`solve_closed_form` to decide. Raises :class:`ClosedFormError`
    when theta_x vanishes on a xi-grid, as f divides by it.
    """
    mu = p.mu
    if np.abs(_eval1(p.theta_x, np.linspace(0.0, 1.0, GRID_XI))).min() < TOL_ZERO:
        raise ClosedFormError("theta_x vanishes on [0,1]; the construction divides by it")
    dtheta = p.theta_x.diff(Var.X)
    ddtheta = dtheta.diff(Var.X)
    lam = _eval1(p.lam_y, np.linspace(0.0, 1.0, GRID_Y))
    log_coef = float((lam / (lam + mu)).mean())

    def f(xi):
        xi = np.asarray(xi, dtype=float)
        txv = _eval1(p.theta_x, xi)
        return (kappa * _eval1(p.sigma_x, xi) - c_x / mu
                + log_coef * _eval1(dtheta, xi) / txv)

    def fprime(xi):
        xi = np.asarray(xi, dtype=float)
        txv = _eval1(p.theta_x, xi)
        return (kappa * _eval1(p.sigma_x.diff(Var.X), xi)
                + log_coef * (_eval1(ddtheta, xi) * txv
                              - _eval1(dtheta, xi) ** 2) / txv ** 2)

    return f, fprime


@dataclass
class ClosedFormKernel:
    """Separable kernel pair with analytic partial derivatives."""

    c_x: float
    c_y: float | None
    mu: float
    problem: SeparableProblem
    f: Callable = field(repr=False)
    fprime: Callable = field(repr=False)
    residual: dict = field(default_factory=dict)    # continuum_residual at acceptance

    def _envelope(self, x, xi):
        return np.exp(self.c_x / self.mu * (np.asarray(x, dtype=float)
                                            - np.asarray(xi, dtype=float)))

    def _ypart(self, y):
        p = self.problem
        return _eval1(p.theta_y, y) / p.lam_plus_mu(y)

    def k(self, x, xi, y):
        p = self.problem
        return -self._envelope(x, xi) * _eval1(p.theta_x, xi) * self._ypart(y)

    def kbar(self, x, xi):
        return self._envelope(x, xi) * self.f(xi)

    def dk_dx(self, x, xi, y):
        return self.c_x / self.mu * self.k(x, xi, y)

    def dk_dxi(self, x, xi, y):
        p = self.problem
        env = self._envelope(x, xi)
        tx = _eval1(p.theta_x, xi)
        dtx = _eval1(p.theta_x.diff(Var.X), xi)
        return -env * (dtx - self.c_x / self.mu * tx) * self._ypart(y)

    def dkbar_dx(self, x, xi):
        return self.c_x / self.mu * self.kbar(x, xi)

    def dkbar_dxi(self, x, xi):
        env = self._envelope(x, xi)
        return env * (self.fprime(xi) - self.c_x / self.mu * self.f(xi))

    def describe(self) -> dict:
        p = self.problem
        return {
            "c_x": self.c_x,
            "c_y": self.c_y,
            "mu": self.mu,
            "lambda_const": p.lam_const,
            "f_at": {str(t): float(self.f(t)) for t in (0.0, 0.5, 1.0)},
            "form": {
                "k": "-exp(c_x*(x-xi)/mu) * theta_x(xi) * theta_y(y)/(lambda(y)+mu)",
                "kbar": "exp(c_x*(x-xi)/mu) * f(xi)",
            },
        }


def solve_closed_form(p: ContinuumParams) -> ClosedFormKernel | NotApplicable:
    """Build the separable candidate and accept it when it solves the
    kernel equations.

    Returns :class:`NotApplicable` (never raises) when a structural
    prerequisite fails (constant mu, lambda in y only, single-product sigma
    and theta, theta_x nonzero), or when an entry of
    ``continuum_residual(kern, p)`` exceeds TOL_RESIDUAL * max(1, the
    kernel's sup on the prism xi <= x of the 21^3 grid); that reason names
    each equation's residual, and ``details`` holds them. An accepted kernel
    keeps them as ``residual``.
    """
    sep = SeparableProblem.from_continuum(p)
    if isinstance(sep, NotApplicable):
        return sep
    if sep.theta_x.is_zero() or sep.theta_y.is_zero():
        zf = lambda xi: np.zeros_like(np.asarray(xi, dtype=float))
        kern = ClosedFormKernel(c_x=0.0, c_y=0.0, mu=sep.mu, problem=sep, f=zf, fprime=zf)
    else:
        kappa = sigma_coef(sep)
        try:
            c_x = compute_cx(sep, kappa)
            f, fp = build_f(sep, c_x, kappa)
        except ClosedFormError as e:
            return NotApplicable(str(e))
        c_y = None if sep.lam_const is None else kappa * (sep.lam_const + sep.mu)
        kern = ClosedFormKernel(c_x=c_x, c_y=c_y, mu=sep.mu, problem=sep, f=f,
                                fprime=fp)
    x, xi, y = np.ix_(*[np.linspace(0.0, 1.0, GRID_RESIDUAL)] * 3)
    tri = np.tri(GRID_RESIDUAL, dtype=bool)     # xi <= x, where the kernels live
    size = max(np.abs(kern.k(x, xi, y))[tri].max(),
               np.abs(kern.kbar(x[..., 0], xi[..., 0]))[tri].max())
    kern.residual = continuum_residual(kern, p, GRID_RESIDUAL)
    if all(r <= TOL_RESIDUAL * max(1.0, size) for r in kern.residual.values()):
        return kern
    return NotApplicable(
        "closed form not applicable: kernel-equation residual "
        + ", ".join(f"{k} {v:.3g}" for k, v in kern.residual.items())
        + f" above {TOL_RESIDUAL:g} x max(1, size {size:.3g})",
        details=kern.residual)
