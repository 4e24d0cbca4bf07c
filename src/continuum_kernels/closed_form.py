"""Closed-form kernels for separable ensemble problems.

When mu is constant, lambda depends on y only, and the couplings factor as

    sigma(x, eta, y) = sigma_x(x) sigma_y(eta) sigma_e(y),
    theta(x, y)      = theta_x(x) theta_y(y),
    W(x, y)          = W_x(x) W_y(y),

the kernel equations admit a separable solution

    k(x, xi, y) = -exp(c_x (x - xi)/mu) theta_x(xi) theta_y(y)/(lam(y)+mu),
    kbar(x, xi) =  exp(c_x (x - xi)/mu) f(xi),

provided three compatibility conditions hold. The sigma coupling enters
only through kappa = c * int sigma_y theta_y/(lam+mu), where sigma_e =
c theta_y (see :func:`sigma_coef`). Constant lambda is the special case of
one construction in which every y-weight is the constant 1/(lam+mu); only
then is c_y = kappa (lam+mu) reported. This module checks the conditions
(grid-based, with fixed tolerances), constructs the kernels, and mirrors
the same checks on sampled n+1 parameter sets where the continuum
integrals become finite Riemann sums.

``sigma_y`` weights the integrated family component (the eta slot of the
stored sigma) and ``sigma_e`` the free ensemble variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import numpy.polynomial.polynomial as P
import scipy.integrate

from .params import ContinuumParams, LargeScaleParams
from .series import Polynomial, SeparableSum, SeparableTerm, Var

__all__ = [
    "NotApplicable",
    "ClosedFormError",
    "SeparableProblem",
    "ClosedFormKernel",
    "LargeScaleConditionReport",
    "sigma_coef",
    "compute_cx",
    "build_f",
    "build_kernels",
    "solve_closed_form",
    "check_largescale_conditions",
]

GRID_Y = 101        # y-grid for constancy checks
GRID_XI = 201       # xi-grid for the derivative compatibility condition
TOL_PROP = 1e-10    # proportionality tolerance (absolute, scale-relative)
TOL_CONST = 1e-8    # y-constancy tolerance
TOL_ZERO = 1e-12    # zero thresholds for integrals and theta_x magnitude


@dataclass(frozen=True)
class NotApplicable:
    """Returned when the separable construction does not apply."""

    reason: str
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return False


class ClosedFormError(RuntimeError):
    """A compatibility condition failed beyond tolerance."""


def _poly_coeffs(f: SeparableSum) -> np.ndarray:
    """Ascending coefficients of a univariate polynomial sum."""
    out = np.zeros(1)
    for t in f.terms:
        c = np.array([t.scale])
        for fac in t.factors:
            fc = fac.coeffs if isinstance(fac, Polynomial) else (fac.value,)
            c = P.polymul(c, fc or (0.0,))
        out = P.polyadd(out, c)
    return out


def _integral01(*funcs: SeparableSum, weight: Callable | None = None) -> float:
    """Integral over [0,1] of a product of univariate sums (times an optional
    weight). Polynomial products integrate exactly, from the multiplied
    coefficient arrays; otherwise adaptive quadrature at 1e-12."""
    if all(f.is_polynomial() for f in funcs) and weight is None:
        prod = np.ones(1)
        for f in funcs:
            prod = P.polymul(prod, _poly_coeffs(f))
        return float(prod @ (1.0 / np.arange(1, len(prod) + 1)))

    def integrand(t):
        out = 1.0
        for f in funcs:
            out *= float(_eval1(f, t))
        if weight is not None:
            out *= weight(t)
        return out

    val, _ = scipy.integrate.quad(integrand, 0.0, 1.0,
                                  epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


def _eval1(f: SeparableSum, t) -> np.ndarray:
    vs = f.vars()
    v = vs[0] if vs else Var.Y
    return f.eval1(v, t)


def _retag(s: SeparableSum, var: Var) -> SeparableSum:
    """Re-home a univariate profile onto a canonical variable."""
    return SeparableSum([
        SeparableTerm(t.scale, [replace(f, var=var) for f in t.factors])
        for t in s.terms
    ])


@dataclass
class SeparableProblem:
    """Factored problem data for the closed-form construction."""

    mu: float
    lam_y: SeparableSum                 # lam as a function of y only
    lam_const: float | None             # set when lam is constant
    sigma_x: SeparableSum
    sigma_y: SeparableSum               # factor on the integrated slot
    sigma_e: SeparableSum               # factor on the free ensemble slot
    theta_x: SeparableSum
    theta_y: SeparableSum
    W_x: SeparableSum
    W_y: SeparableSum
    q: SeparableSum

    @staticmethod
    def from_continuum(p: ContinuumParams) -> "SeparableProblem | NotApplicable":
        mu_vars = set(p.mu.vars())
        if mu_vars:
            return NotApplicable("mu is not constant")
        mu = float(p.mu({}))
        if mu <= 0:
            return NotApplicable("mu must be positive")
        if Var.X in p.lam.vars():
            return NotApplicable("lambda depends on x; constant-in-x lambda required")
        lam_y = p.lam
        lam_const = float(p.lam({})) if not p.lam.vars() else None
        if lam_const is not None:
            if lam_const <= 0:
                return NotApplicable("lambda must be positive")
        elif float(lam_y.eval1(Var.Y, np.linspace(0, 1, GRID_Y)).min()) <= 0:
            return NotApplicable("lambda must be positive on [0,1]")

        def split(param: SeparableSum, name: str, slots: tuple[Var, ...]):
            terms = [t for t in param.terms if t.scale != 0.0]
            if not terms:
                zero = SeparableSum.zero()
                return tuple([zero] * len(slots))
            if len(terms) > 1:
                return NotApplicable(f"{name} is a sum of {len(terms)} separable "
                                     f"terms; a single product is required")
            t = terms[0]
            groups = {v: [] for v in slots}
            for fobj in t.factors:
                groups[fobj.var].append(fobj)
            parts = []
            for i, v in enumerate(slots):
                scale = t.scale if i == 0 else 1.0
                parts.append(SeparableSum([SeparableTerm(scale, groups[v])]))
            return tuple(parts)

        sg = split(p.sigma, "sigma", (Var.X, Var.ETA, Var.Y))
        if isinstance(sg, NotApplicable):
            return sg
        th = split(p.theta, "theta", (Var.X, Var.Y))
        if isinstance(th, NotApplicable):
            return th
        ww = split(p.W, "W", (Var.X, Var.Y))
        if isinstance(ww, NotApplicable):
            return ww
        return SeparableProblem(
            mu=mu, lam_y=lam_y, lam_const=lam_const,
            sigma_x=sg[0], sigma_y=_retag(sg[1], Var.Y), sigma_e=sg[2],
            theta_x=th[0], theta_y=th[1], W_x=ww[0], W_y=ww[1], q=p.q,
        )

    def theta_is_zero(self) -> bool:
        return self.theta_x.is_zero() or self.theta_y.is_zero()

    def theta_x_min_abs(self) -> float:
        xs = np.linspace(0.0, 1.0, GRID_XI)
        return float(np.abs(_eval1(self.theta_x, xs)).min())

    def lam_plus_mu(self, y) -> np.ndarray:
        if self.lam_const is not None:
            return np.full_like(np.asarray(y, dtype=float), self.lam_const + self.mu)
        return _eval1(self.lam_y, y) + self.mu

    def weighted_integral(self, *funcs: SeparableSum) -> float:
        """Integral over [0,1] of the product of ``funcs`` divided by
        lam(y) + mu: exact for polynomials when lam is constant, adaptive
        quadrature otherwise."""
        if self.lam_const is not None:
            return _integral01(*funcs) / (self.lam_const + self.mu)
        return _integral01(*funcs, weight=lambda t: 1.0 / float(self.lam_plus_mu(t)))


def _proportionality(num: SeparableSum, den: SeparableSum) -> tuple[float, float]:
    """Best constant c with num = c * den on the audit grid, and the max
    deviation of the fit."""
    ys = np.linspace(0.0, 1.0, GRID_Y)
    a = _eval1(num, ys)
    b = _eval1(den, ys)
    denom = float(b @ b)
    c = float(a @ b) / denom if denom > 0 else 0.0
    dev = float(np.abs(a - c * b).max())
    return c, dev


def _sup(f: SeparableSum) -> float:
    return float(np.abs(_eval1(f, np.linspace(0.0, 1.0, GRID_Y))).max())


def sigma_coef(p: SeparableProblem) -> float | NotApplicable:
    """The sigma coefficient kappa = c * int_0^1 sigma_y theta_y/(lam+mu),
    where sigma_e = c theta_y.

    kappa is 0 when a sigma factor is zero or the weighted integral
    vanishes; otherwise sigma_e must be proportional to theta_y. With
    constant lambda, c_y = kappa (lam+mu) is the classical ratio constant.
    """
    if p.sigma_x.is_zero() or p.sigma_y.is_zero() or p.sigma_e.is_zero():
        return 0.0
    J = p.weighted_integral(p.sigma_y, p.theta_y)
    if abs(J) <= TOL_ZERO * max(1.0, _sup(p.sigma_y), _sup(p.theta_y)):
        return 0.0
    c, dev = _proportionality(p.sigma_e, p.theta_y)
    if dev <= TOL_PROP * max(1.0, _sup(p.sigma_e)):
        return c * J
    return NotApplicable(
        "no constant c_y: the integral of sigma_y*theta_y/(lambda+mu) is "
        "nonzero and sigma_e is not proportional to theta_y",
        details={"integral": _integral01(p.sigma_y, p.theta_y),
                 "best_ratio": c, "max_deviation": dev},
    )


def _theta_x_log_deriv_at(p: SeparableProblem, x: float) -> float:
    tx = float(_eval1(p.theta_x, x))
    if abs(tx) < TOL_ZERO:
        raise ClosedFormError(
            f"theta_x({x}) is (numerically) zero; the construction divides by it"
        )
    dtx = float(_eval1(p.theta_x.diff(Var.X), x))
    return dtx / tx


def _require_y_constant(vals: np.ndarray, name: str) -> None:
    """Raise unless ``vals`` (y along the last axis) is constant in y."""
    spread = float(np.ptp(vals, axis=-1).max())
    if spread > TOL_CONST * max(1.0, float(np.abs(vals).max())):
        raise ClosedFormError(
            f"closed form not applicable: {name} depends on y "
            f"(spread {spread:.3g})"
        )


def compute_cx(p: SeparableProblem, kappa: float) -> float:
    """The exponential rate constant of the separable solution,

        c_x = mu sigma_x(0) kappa + mu lam(y)/(lam(y)+mu) theta_x'(0)/theta_x(0)
              + theta_x(0) int lam q theta_y/(lam+mu),

    with kappa from :func:`sigma_coef`. It is evaluated on a y-grid and must
    be constant to tolerance (trivially so when lambda is constant).
    """
    mu = p.mu
    lam = _eval1(p.lam_y, np.linspace(0.0, 1.0, GRID_Y))
    sx0 = float(_eval1(p.sigma_x, 0.0))
    logd0 = _theta_x_log_deriv_at(p, 0.0)
    tx0 = float(_eval1(p.theta_x, 0.0))
    Jq = p.weighted_integral(p.lam_y, p.q, p.theta_y)
    cx_y = mu * sx0 * kappa + mu * lam / (lam + mu) * logd0 + tx0 * Jq
    _require_y_constant(cx_y, "c_x")
    return float(cx_y.mean())


def build_f(p: SeparableProblem, c_x: float, kappa: float
            ) -> tuple[Callable, Callable]:
    """The xi-profile of kbar and its derivative, after verifying the
    derivative compatibility condition on a xi-grid.

        f(xi) = kappa sigma_x(xi) - c_x/mu + r theta_x'(xi)/theta_x(xi),
        r = lam(y)/(lam(y)+mu),

    where f must not depend on y, and the condition
        kappa sigma_x'(xi) + r (theta_x'' theta_x - theta_x'^2)/theta_x^2
            = W_x(xi) theta_x(xi) * int W_y theta_y/(lam+mu)
    must hold for all xi.
    """
    mu = p.mu
    xs = np.linspace(0.0, 1.0, GRID_XI)
    tx = _eval1(p.theta_x, xs)
    if np.abs(tx).min() < TOL_ZERO:
        raise ClosedFormError(
            "theta_x vanishes on [0,1]; the construction divides by it"
        )
    dtheta = p.theta_x.diff(Var.X)
    ddtheta = dtheta.diff(Var.X)

    lam = _eval1(p.lam_y, np.linspace(0.0, 1.0, GRID_Y))
    ratio = lam / (lam + mu)
    logd = _eval1(dtheta, xs) / tx
    fgrid = kappa * _eval1(p.sigma_x, xs)[:, None] - c_x / mu \
        + ratio[None, :] * logd[:, None]
    _require_y_constant(fgrid, "f")
    log_coef = float(ratio.mean())

    Jw = p.weighted_integral(p.W_y, p.theta_y)
    lhs = kappa * _eval1(p.sigma_x.diff(Var.X), xs) + log_coef * (
        _eval1(ddtheta, xs) * tx - _eval1(dtheta, xs) ** 2) / tx ** 2
    rhs = _eval1(p.W_x, xs) * tx * Jw
    resid = float(np.abs(lhs - rhs).max())
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    if resid > TOL_CONST * scale:
        raise ClosedFormError(
            f"closed form not applicable: derivative compatibility condition "
            f"fails with residual {resid:.3g}"
        )

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


def _zero_kernel(p: SeparableProblem) -> ClosedFormKernel:
    zf = lambda xi: np.zeros_like(np.asarray(xi, dtype=float))
    return ClosedFormKernel(c_x=0.0, c_y=0.0, mu=p.mu, problem=p, f=zf, fprime=zf)


def build_kernels(p: SeparableProblem, c_x: float, f: Callable,
                  fprime: Callable, c_y: float | None = None) -> ClosedFormKernel:
    """Assemble the kernel pair and audit the diagonal boundary identity."""
    kern = ClosedFormKernel(c_x=c_x, c_y=c_y, mu=p.mu, problem=p, f=f, fprime=fprime)
    xs = np.linspace(0.0, 1.0, 21)
    ys = np.linspace(0.0, 1.0, 21)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    lhs = kern.k(X, X, Y)
    theta = _eval1(p.theta_x, X) * _eval1(p.theta_y, Y)
    rhs = -theta / p.lam_plus_mu(Y)
    err = float(np.abs(lhs - rhs).max())
    if err > 1e-10 * max(1.0, float(np.abs(rhs).max())):
        raise ClosedFormError(f"diagonal boundary identity violated: {err:.3g}")
    return kern


def solve_closed_form(p: ContinuumParams) -> ClosedFormKernel | NotApplicable:
    """Run all applicability checks and construct the kernels.

    Returns :class:`NotApplicable` (never raises) when any structural or
    compatibility condition fails, with the first failing condition as the
    reason.
    """
    sep = SeparableProblem.from_continuum(p)
    if isinstance(sep, NotApplicable):
        return sep
    if sep.theta_is_zero():
        return _zero_kernel(sep)
    kappa = sigma_coef(sep)
    if isinstance(kappa, NotApplicable):
        return kappa
    if sep.theta_x_min_abs() < TOL_ZERO:
        return NotApplicable(
            "theta_x vanishes somewhere on [0,1]; the construction divides by it"
        )
    c_y = None if sep.lam_const is None else kappa * (sep.lam_const + sep.mu)
    try:
        c_x = compute_cx(sep, kappa)
        f, fp = build_f(sep, c_x, kappa)
        return build_kernels(sep, c_x, f, fp, c_y)
    except ClosedFormError as e:
        return NotApplicable(str(e))


@dataclass
class LargeScaleConditionReport:
    """Finite-n mirror of the applicability conditions."""

    proportional: bool
    ratio: float
    ratio_deviation: float
    riemann_sigma_theta: float      # (1/n) sum s1_i * v_i
    riemann_w_theta: float          # (1/n) sum w_i * v_i
    condition_residual: float       # sup over xi of the finite-n condition gap
    lam_const: float
    mu_const: float


def check_largescale_conditions(ls: LargeScaleParams) -> LargeScaleConditionReport:
    """Evaluate the factored-form conditions on a sampled n+1 parameter set.

    The set must stem from a separable template (single product terms,
    constant speeds). Continuum integrals are replaced by the (1/n) Riemann
    sums over the sample points, so conditions that hold exactly in the
    limit generally show small finite-n residuals here.
    """
    if ls.template is None:
        raise ValueError("large-scale parameters carry no separable template")
    sep = SeparableProblem.from_continuum(ls.template)
    if isinstance(sep, NotApplicable):
        raise ValueError(f"not in factored form: {sep.reason}")
    if sep.lam_const is None:
        raise ValueError("factored-form conditions need constant lambda")
    ys = ls.y_points()
    s1 = _eval1(sep.sigma_y, ys)
    s2 = _eval1(sep.sigma_e, ys)
    vth = _eval1(sep.theta_y, ys)
    w = _eval1(sep.W_y, ys)
    denom = float(s2 @ s2)
    ratio = float(vth @ s2) / denom if denom > 0 else 0.0
    dev = float(np.abs(vth - ratio * s2).max())
    prop = dev <= 1e-8 * max(1.0, float(np.abs(vth).max()))
    r_sig = float(np.mean(s1 * vth))
    r_w = float(np.mean(w * vth))
    # finite-n analogue of the derivative condition, with the Riemann sum in
    # place of the integral and c_y from proportionality when it holds
    c_y_fin = r_sig / ratio if (prop and ratio != 0.0) else 0.0
    xs = np.linspace(0.0, 1.0, GRID_XI)
    tx = _eval1(sep.theta_x, xs)
    dtx = _eval1(sep.theta_x.diff(Var.X), xs)
    ddtx = _eval1(sep.theta_x.diff(Var.X).diff(Var.X), xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = c_y_fin * _eval1(sep.sigma_x.diff(Var.X), xs) + sep.lam_const * (
            ddtx * tx - dtx ** 2) / tx ** 2
    rhs = _eval1(sep.W_x, xs) * tx * r_w
    ok = np.isfinite(lhs)
    resid = float(np.abs(lhs[ok] - rhs[ok]).max()) if ok.any() else math.inf
    return LargeScaleConditionReport(
        proportional=bool(prop), ratio=ratio, ratio_deviation=dev,
        riemann_sigma_theta=r_sig, riemann_w_theta=r_w,
        condition_residual=resid, lam_const=sep.lam_const, mu_const=sep.mu,
    )
