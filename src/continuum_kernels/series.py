"""Exact dense algebra for truncated multivariate power series.

Series live in up to four variables: the spatial pair (x, xi), the ensemble
variable y, and the integration variable eta. Coefficients are stored in one
dense array with an axis per variable: entry e is the coefficient of the
monomial with exponents e. All operations return new objects, so series
values are immutable in practice and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "Var",
    "TruncatedSeries",
    "AnalyticFactor",
    "Polynomial",
    "Exp",
    "Cos",
    "Sin",
    "SeparableTerm",
    "SeparableSum",
    "integrate01",
    "GL_NODES",
    "GL_WEIGHTS",
]

# Coefficients at or below this magnitude count as absent in the sparse
# views (`coeffs`, `is_zero`, `degree_in` and the assembled terms).
# Deliberately at the underflow edge: it must never change assembled systems.
PRUNE_TOL = 1e-300


class Var(str, Enum):
    """Variable identifiers in canonical order (x, xi, y, eta)."""

    X = "x"
    XI = "xi"
    Y = "y"
    ETA = "eta"


VAR_ORDER: tuple[Var, ...] = (Var.X, Var.XI, Var.Y, Var.ETA)
_VAR_RANK = {v: i for i, v in enumerate(VAR_ORDER)}


def _canonical_vars(vars_: Iterable[Var]) -> tuple[Var, ...]:
    return tuple(sorted(set(vars_), key=lambda v: _VAR_RANK[v]))


def _along(i: int, ndim: int, values: np.ndarray) -> np.ndarray:
    """``values`` shaped to broadcast along axis i of an ndim-array."""
    return values.reshape([-1 if k == i else 1 for k in range(ndim)])


class TruncatedSeries:
    """Polynomial over an ordered subset of the canonical variables.

    ``array`` holds the coefficients densely, one axis per variable of
    ``vars``: entry e is the coefficient of the monomial with exponents e.
    The constructor takes that array only, and rejects a non-finite
    coefficient, naming its exponent.
    """

    __slots__ = ("vars", "array")

    def __init__(self, vars_: Iterable[Var], coeffs):
        vars_ = tuple(vars_)
        a = np.asarray(coeffs, dtype=float)
        if a.ndim != len(vars_):
            raise ValueError(f"coefficient array of shape {a.shape} does not "
                             f"match vars {vars_}")
        if not np.isfinite(a).all():
            e = tuple(np.argwhere(~np.isfinite(a))[0].tolist())
            raise ValueError(f"non-finite coefficient {a[e]} at exponent {e}")
        self.vars, self.array = vars_, a

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars_: Iterable[Var] = ()) -> TruncatedSeries:
        vs = _canonical_vars(vars_)
        return TruncatedSeries(vs, np.zeros((1,) * len(vs)))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> dict[tuple[int, ...], float]:
        """The coefficients above PRUNE_TOL in magnitude, keyed by exponent
        tuple, in sorted key order."""
        on = np.abs(self.array) > PRUNE_TOL
        return dict(zip(map(tuple, np.argwhere(on).tolist()), self.array[on].tolist()))

    def is_zero(self) -> bool:
        return not (np.abs(self.array) > PRUNE_TOL).any()

    def degree_in(self, v: Var) -> int:
        if v not in self.vars:
            return 0
        others = tuple(k for k, w in enumerate(self.vars) if w != v)
        on = (np.abs(self.array) > PRUNE_TOL).any(axis=others)
        return int(np.flatnonzero(on).max(initial=0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.vars == other.vars and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.vars!r}, {self.coeffs!r})"

    def _over(self, vars_: tuple[Var, ...]) -> np.ndarray:
        """The coefficients over a superset of variables: a length-1 axis,
        exponent 0, for each new one."""
        if vars_ == self.vars:
            return self.array
        if not set(self.vars) <= set(vars_):
            raise ValueError(f"cannot align {self.vars} to {vars_}")
        pos = [vars_.index(v) for v in self.vars]
        a = self.array if pos == sorted(pos) else np.transpose(self.array, np.argsort(pos))
        return a.reshape([self.array.shape[self.vars.index(v)] if v in self.vars else 1
                          for v in vars_])

    def align_to(self, vars_: tuple[Var, ...]) -> TruncatedSeries:
        """Re-express over a superset of variables (new exponents are 0)."""
        return TruncatedSeries(vars_, self._over(vars_))

    # -- sum ---------------------------------------------------------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        vs = _canonical_vars(self.vars + other.vars)
        a, b = self._over(vs), other._over(vs)
        out = np.zeros(np.maximum(a.shape, b.shape))
        out[tuple(map(slice, a.shape))] = a
        out[tuple(map(slice, b.shape))] += b
        return TruncatedSeries(vs, out)

    # -- calculus ----------------------------------------------------------

    def diff(self, v: Var) -> TruncatedSeries:
        """Formal partial derivative with respect to ``v``."""
        i = self.vars.index(v) if v in self.vars else -1
        if i < 0 or self.array.shape[i] == 1:
            return TruncatedSeries.zero(self.vars)
        a = self.array[(slice(None),) * i + (slice(1, None),)]
        w = _along(i, a.ndim, np.arange(1.0, a.shape[i] + 1))
        return TruncatedSeries(self.vars, a * w)

    def substitute_value(self, v: Var, value: float) -> TruncatedSeries:
        """Fix variable ``v`` at a numeric value."""
        if v not in self.vars:
            return self
        i = self.vars.index(v)
        powers = float(value) ** np.arange(self.array.shape[i])
        return TruncatedSeries(self.vars[:i] + self.vars[i + 1:],
                               np.tensordot(self.array, powers, axes=(i, 0)))

    def truncate_total(self, order: int) -> TruncatedSeries:
        """Drop every monomial of total degree above ``order``; no axis
        keeps an exponent above it."""
        a = self.array[tuple(slice(order + 1) for _ in self.vars)]
        if sum(a.shape) - a.ndim <= order:
            return TruncatedSeries(self.vars, a)
        degree = sum(np.ix_(*map(np.arange, a.shape)))
        return TruncatedSeries(self.vars, np.where(degree <= order, a, 0.0))

    # -- evaluation --------------------------------------------------------

    def eval_grid(self, grids: Mapping[Var, np.ndarray]) -> np.ndarray:
        """Evaluate on an outer-product grid.

        ``grids`` assigns a 1-D array to every variable of the series; the
        result has one axis per variable, in the series' variable order. The
        coefficient array is contracted with one power table per variable;
        each contraction moves that variable's grid axis last.
        """
        out = self.array
        for v in self.vars:
            a = np.asarray(grids[v], dtype=float)
            out = np.tensordot(out, a[:, None] ** np.arange(out.shape[0]), axes=(0, 1))
        return out if self.vars else out.copy()


# ---------------------------------------------------------------------------
# Analytic factors: closed-form Taylor coefficients to any order.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticFactor:
    """One univariate analytic building block of a separable parameter."""

    var: Var

    def taylor_coeffs(self, order: int) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, t):
        raise NotImplementedError

    def derivative(self) -> list[tuple[float, "AnalyticFactor"]]:
        """Return the derivative as a list of (scale, factor) summands."""
        raise NotImplementedError

    def taylor(self, order: int) -> TruncatedSeries:
        """Maclaurin expansion up to ``order``."""
        if order < 0:
            raise ValueError("order must be non-negative")
        return TruncatedSeries((self.var,), self.taylor_coeffs(order))


@dataclass(frozen=True)
class Polynomial(AnalyticFactor):
    coeffs: tuple[float, ...] = ()

    def __init__(self, var: Var, coeffs):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(float(c) for c in coeffs))

    def taylor_coeffs(self, order: int) -> np.ndarray:
        # no zeros past the degree: they would only widen the series' arrays
        return np.array(self.coeffs[:order + 1] or (0.0,))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for c in reversed(self.coeffs):
            out = out * t + c
        return out

    def derivative(self):
        if len(self.coeffs) <= 1:
            return []
        d = tuple(k * c for k, c in enumerate(self.coeffs))[1:]
        return [(1.0, Polynomial(self.var, d))]


@dataclass(frozen=True)
class Exp(AnalyticFactor):
    rate: float = 1.0

    def taylor_coeffs(self, order: int) -> np.ndarray:
        out = np.empty(order + 1)
        out[0] = 1.0
        for k in range(1, order + 1):
            out[k] = out[k - 1] * self.rate / k
        return out

    def __call__(self, t):
        return np.exp(self.rate * np.asarray(t, dtype=float))

    def derivative(self):
        return [(self.rate, self)]


def _trig_taylor(angular: float, phase: float, order: int, shift: int) -> np.ndarray:
    """a^k cos(phase + (k + shift) pi/2) / k!, k = 0..order, with the cosine
    from its cycle (cos p, -sin p, -cos p, sin p): exact zeros, no roundoff."""
    k = np.arange(order + 1)
    cycle = np.array([math.cos(phase), -math.sin(phase), -math.cos(phase), math.sin(phase)])
    return (angular ** k) * cycle[(k + shift) % 4] / \
        np.array([math.factorial(int(i)) for i in k], dtype=float)


@dataclass(frozen=True)
class Cos(AnalyticFactor):
    angular: float = 1.0
    phase: float = 0.0

    def taylor_coeffs(self, order: int) -> np.ndarray:
        return _trig_taylor(self.angular, self.phase, order, 0)

    def __call__(self, t):
        return np.cos(self.angular * np.asarray(t, dtype=float) + self.phase)

    def derivative(self):
        return [(-self.angular, Sin(self.var, self.angular, self.phase))]


@dataclass(frozen=True)
class Sin(AnalyticFactor):
    angular: float = 1.0
    phase: float = 0.0

    def taylor_coeffs(self, order: int) -> np.ndarray:
        # sin(p + k pi/2) = cos(p + (k - 1) pi/2)
        return _trig_taylor(self.angular, self.phase, order, -1)

    def __call__(self, t):
        return np.sin(self.angular * np.asarray(t, dtype=float) + self.phase)

    def derivative(self):
        return [(self.angular, Cos(self.var, self.angular, self.phase))]


# ---------------------------------------------------------------------------
# Separable terms and sums of them: the parameter representation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparableTerm:
    """scale * product of analytic factors.

    Several factors may share a variable (e.g. a polynomial times an
    exponential in x); their product is taken. Taylor expansion of such a
    term to a given order stays exact because degrees only add.
    """

    scale: float
    factors: tuple[AnalyticFactor, ...]

    def __init__(self, scale: float, factors: Iterable[AnalyticFactor]):
        object.__setattr__(self, "scale", float(scale))
        fs = tuple(sorted(factors, key=lambda f: (_VAR_RANK[f.var], repr(f))))
        object.__setattr__(self, "factors", fs)

    def vars(self) -> tuple[Var, ...]:
        return _canonical_vars(f.var for f in self.factors)

    def taylor(self, order: int) -> TruncatedSeries:
        """The factors' expansions to ``order`` multiplied out, never
        re-truncated: factors in one variable convolve, and the variables
        make an outer product. The scale enters the first variable's."""
        vs, a = self.vars(), np.array(self.scale)
        for i, v in enumerate(vs):
            c = np.array([self.scale]) if i == 0 else np.ones(1)
            for f in self.factors:
                if f.var == v:
                    c = np.convolve(c, f.taylor(order).array)
            a = c if i == 0 else np.multiply.outer(a, c)
        return TruncatedSeries(vs, a)

    def __call__(self, point: Mapping[Var, np.ndarray]) -> np.ndarray:
        out = None
        for f in self.factors:
            val = f(point[f.var])
            out = val if out is None else out * val
        if out is None:
            shapes = [np.asarray(a) for a in point.values()]
            out = np.ones(np.broadcast(*shapes).shape if shapes else ())
        return self.scale * out

    def diff(self, v: Var) -> list["SeparableTerm"]:
        out: list[SeparableTerm] = []
        for i, f in enumerate(self.factors):
            if f.var != v:
                continue
            for s, df in f.derivative():
                rest = self.factors[:i] + (df,) + self.factors[i + 1:]
                out.append(SeparableTerm(self.scale * s, rest))
        return out


@dataclass(frozen=True)
class SeparableSum:
    """A parameter: finite sum of separable terms over fixed variables."""

    terms: tuple[SeparableTerm, ...]

    def __init__(self, terms: Iterable[SeparableTerm]):
        object.__setattr__(self, "terms", tuple(terms))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: float) -> "SeparableSum":
        return SeparableSum([SeparableTerm(c, [])])

    @staticmethod
    def poly(var: Var, coeffs) -> "SeparableSum":
        return SeparableSum([SeparableTerm(1.0, [Polynomial(var, coeffs)])])

    @staticmethod
    def zero() -> "SeparableSum":
        return SeparableSum([])

    # -- structure ---------------------------------------------------------

    def vars(self) -> tuple[Var, ...]:
        return _canonical_vars(v for t in self.terms for v in t.vars())

    def is_zero(self) -> bool:
        return all(t.scale == 0.0 for t in self.terms)

    def part(self, v: Var) -> "SeparableSum":
        """Term t of the result is term t's factors in ``v`` (none when it has
        no factor in v), scaled by term t's scale if v is x and by 1 if not:
        the parts of a term in its variables multiply back to the term."""
        return SeparableSum([SeparableTerm(t.scale if v == Var.X else 1.0,
                                           [f for f in t.factors if f.var == v])
                             for t in self.terms])

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "SeparableSum") -> "SeparableSum":
        return SeparableSum(self.terms + other.terms)

    def scale(self, s: float) -> "SeparableSum":
        return SeparableSum([SeparableTerm(t.scale * s, t.factors) for t in self.terms])

    def diff(self, v: Var) -> "SeparableSum":
        return SeparableSum([d for t in self.terms for d in t.diff(v)])

    def taylor(self, order: int) -> TruncatedSeries:
        """Expand every term to ``order``, sum them in order, then drop total degrees above it."""
        vs = self.vars()
        parts = [t.taylor(order)._over(vs) for t in self.terms]
        out = np.zeros(np.max([a.shape for a in parts], axis=0) if parts else (1,) * len(vs))
        for a in parts:
            out[tuple(map(slice, a.shape))] += a
        return TruncatedSeries(vs, out).truncate_total(order)

    def __call__(self, point: Mapping[Var, np.ndarray]) -> np.ndarray:
        out = None
        for t in self.terms:
            val = t(point)
            out = val if out is None else out + val
        if out is None:
            shapes = [np.asarray(a) for a in point.values()]
            out = np.zeros(np.broadcast(*shapes).shape if shapes else ())
        return np.asarray(out)

    def eval1(self, v: Var, t) -> np.ndarray:
        """Shorthand for univariate evaluation."""
        return self({v: np.asarray(t, dtype=float)})


# ---------------------------------------------------------------------------
# Integration over [0, 1] of vectorized univariate integrands.
# ---------------------------------------------------------------------------

# The 15-point Gauss-Legendre rule on [0, 1]: numpy's Legendre weights carry
# about 1e-15 absolute error from 20 points on, against at most 3e-16 here.
# A unit panel's nodes are the rule on the whole panel, then on each half.
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
GL_NODES, GL_WEIGHTS = (GL_NODES + 1.0) / 2, GL_WEIGHTS / 2
_PANEL_NODES = np.concatenate([GL_NODES, GL_NODES / 2, (GL_NODES + 1.0) / 2])
MAX_PANELS = 200


def integrate01(f: Callable[[np.ndarray], np.ndarray], tol: float) -> float:
    """Integral over [0, 1] of ``f``, which maps a 1-D array of points to
    its values there, by adaptive 15-point Gauss-Legendre.

    A panel's value is checked against the rule on its two halves. Their
    sum is kept when the two agree within ``tol * max(1, |I|)`` times the
    panel's width, and the panel is halved otherwise: the error bound of
    ``quad`` with ``epsabs = epsrel = tol``. Each round calls ``f`` once,
    on every open panel.

    It never returns an unconverged estimate: it raises ValueError when
    ``f`` gives a non-finite value, and RuntimeError when more than
    ``MAX_PANELS`` panels would be needed. ``ckpde`` exits 1 on either.
    """
    a, h = np.zeros(1), np.ones(1)      # open panels: left ends and widths
    total, closed = 0.0, 0
    while True:
        t = (a[:, None] + h[:, None] * _PANEL_NODES).ravel()
        vals = np.asarray(f(t), dtype=float)
        if not np.isfinite(vals).all():
            raise ValueError(f"integrand is not finite at t = {t[~np.isfinite(vals)][0]:.17g}")
        whole, left, right = h * (vals.reshape(len(a), 3, -1) @ GL_WEIGHTS).T
        halves = (left + right) / 2
        ok = np.abs(whole - halves) <= tol * max(1.0, abs(total + halves.sum())) * h
        total += float(halves[ok].sum())
        closed += int(ok.sum())
        if ok.all():
            return total
        a, h = a[~ok], h[~ok] / 2
        a, h = np.concatenate([a, a + h]), np.concatenate([h, h])
        if closed + len(a) > MAX_PANELS:
            raise RuntimeError(
                f"integral did not converge to {tol:g} within {MAX_PANELS} panels")
