"""Exact sparse algebra for truncated multivariate power series.

Series live in up to four variables: the spatial pair (x, xi), the ensemble
variable y, and the integration variable eta. Coefficients are stored in a
dict keyed by exponent tuples; absent keys are zero. All operations return
new objects, so series values are immutable in practice and safe to share
across threads.
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
    "Constant",
    "SeparableTerm",
    "SeparableSum",
    "integrate01",
]

# Coefficients below this magnitude are dropped from storage. Deliberately at
# the underflow edge: pruning must never change assembled systems.
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


def grlex_key(exps: tuple[int, ...]) -> tuple:
    """Graded-lexicographic sort key: total degree first, then exponents."""
    return (sum(exps), exps)


@dataclass(frozen=True)
class TruncatedSeries:
    """Sparse polynomial over an ordered subset of the canonical variables.

    ``coeffs`` maps exponent tuples (aligned with ``vars``) to floats.
    """

    vars: tuple[Var, ...]
    coeffs: dict[tuple[int, ...], float]

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        # checked before pruning, which would drop a NaN (abs(nan) > tol is False)
        if not all(map(math.isfinite, self.coeffs.values())):
            e, c = next((e, c) for e, c in self.coeffs.items() if not math.isfinite(c))
            raise ValueError(f"non-finite coefficient {c} at exponent {tuple(e)}")
        cleaned = {
            tuple(e): float(c)
            for e, c in self.coeffs.items()
            if abs(c) > PRUNE_TOL
        }
        object.__setattr__(self, "coeffs", cleaned)
        for e in cleaned:
            if len(e) != len(self.vars):
                raise ValueError(f"exponent tuple {e} does not match vars {self.vars}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars_: Iterable[Var] = ()) -> TruncatedSeries:
        return TruncatedSeries(_canonical_vars(vars_), {})

    @staticmethod
    def constant(c: float) -> TruncatedSeries:
        return TruncatedSeries((), {(): float(c)} if c else {})

    @staticmethod
    def monomial(exps: Mapping[Var, int], coeff: float = 1.0) -> TruncatedSeries:
        vs = _canonical_vars(exps.keys())
        key = tuple(exps[v] for v in vs)
        return TruncatedSeries(vs, {key: float(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree_in(self, v: Var) -> int:
        if v not in self.vars:
            return 0
        i = self.vars.index(v)
        return max((e[i] for e in self.coeffs), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.vars == other.vars and self.coeffs == other.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items(), key=lambda kv: grlex_key(kv[0])):
            mono = "*".join(f"{v.value}^{p}" if p > 1 else v.value
                            for v, p in zip(self.vars, e) if p)
            parts.append(f"{c:g}*{mono}" if mono else f"{c:g}")
        return " + ".join(parts)

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.coeffs.items()))))

    def align_to(self, vars_: tuple[Var, ...]) -> TruncatedSeries:
        """Re-express over a superset of variables (new exponents are 0)."""
        if vars_ == self.vars:
            return self
        if not set(self.vars) <= set(vars_):
            raise ValueError(f"cannot align {self.vars} to {vars_}")
        pos = [vars_.index(v) for v in self.vars]
        out: dict[tuple[int, ...], float] = {}
        for e, c in self.coeffs.items():
            key = [0] * len(vars_)
            for p, ei in zip(pos, e):
                key[p] = ei
            out[tuple(key)] = c
        return TruncatedSeries(vars_, out)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        vs = _canonical_vars(self.vars + other.vars)
        a = self.align_to(vs)
        b = other.align_to(vs)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            out[e] = out.get(e, 0.0) + c
        return TruncatedSeries(vs, out)

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(self.vars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self + (-other)

    def scale(self, s: float) -> TruncatedSeries:
        if s == 0.0:
            return TruncatedSeries.zero(self.vars)
        return TruncatedSeries(self.vars, {e: s * c for e, c in self.coeffs.items()})

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        """Exact polynomial product. Never re-truncates: products of order-N
        operands legitimately carry terms up to order 2N."""
        vs = _canonical_vars(self.vars + other.vars)
        a = self.align_to(vs)
        b = other.align_to(vs)
        out: dict[tuple[int, ...], float] = {}
        for ea, ca in a.coeffs.items():
            for eb, cb in b.coeffs.items():
                key = tuple(i + j for i, j in zip(ea, eb))
                out[key] = out.get(key, 0.0) + ca * cb
        return TruncatedSeries(vs, out)

    # -- calculus ----------------------------------------------------------

    def diff(self, v: Var) -> TruncatedSeries:
        """Formal partial derivative with respect to ``v``."""
        if v not in self.vars:
            return TruncatedSeries.zero(self.vars)
        i = self.vars.index(v)
        out: dict[tuple[int, ...], float] = {}
        for e, c in self.coeffs.items():
            if e[i] == 0:
                continue
            key = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[key] = out.get(key, 0.0) + c * e[i]
        return TruncatedSeries(self.vars, out)

    def integrate_unit(self, v: Var) -> TruncatedSeries:
        """Definite integral over v in [0, 1]; v is removed from the series."""
        if v not in self.vars:
            return self
        i = self.vars.index(v)
        new_vars = self.vars[:i] + self.vars[i + 1:]
        out: dict[tuple[int, ...], float] = {}
        for e, c in self.coeffs.items():
            key = e[:i] + e[i + 1:]
            out[key] = out.get(key, 0.0) + c / (e[i] + 1)
        return TruncatedSeries(new_vars, out)

    def rename(self, src: Var, dst: Var) -> TruncatedSeries:
        """Substitute variable ``src`` by ``dst`` (exponents merge if present)."""
        if src not in self.vars or src == dst:
            return self
        new_vars = _canonical_vars(set(self.vars) - {src} | {dst})
        si = self.vars.index(src)
        out: dict[tuple[int, ...], float] = {}
        for e, c in self.coeffs.items():
            exps = {v: e[j] for j, v in enumerate(self.vars) if j != si}
            exps[dst] = exps.get(dst, 0) + e[si]
            key = tuple(exps.get(v, 0) for v in new_vars)
            out[key] = out.get(key, 0.0) + c
        return TruncatedSeries(new_vars, out)

    def substitute_value(self, v: Var, value: float) -> TruncatedSeries:
        """Fix variable ``v`` at a numeric value."""
        if v not in self.vars:
            return self
        i = self.vars.index(v)
        new_vars = self.vars[:i] + self.vars[i + 1:]
        out: dict[tuple[int, ...], float] = {}
        for e, c in self.coeffs.items():
            w = c * (value ** e[i] if e[i] else 1.0)
            key = e[:i] + e[i + 1:]
            out[key] = out.get(key, 0.0) + w
        return TruncatedSeries(new_vars, out)

    def truncate_total(self, order: int) -> TruncatedSeries:
        """Drop every monomial of total degree above ``order``."""
        return TruncatedSeries(self.vars, {e: c for e, c in self.coeffs.items()
                                           if sum(e) <= order})

    # -- evaluation --------------------------------------------------------

    def eval(self, point: Mapping[Var, float]) -> float:
        """Evaluate at a single point by nested Horner recursion."""
        for v in self.vars:
            if v not in point:
                raise KeyError(f"no value supplied for variable {v.value}")
        return self._horner(self.vars, self.coeffs, point)

    @staticmethod
    def _horner(vars_, coeffs, point) -> float:
        if not vars_:
            return coeffs.get((), 0.0)
        groups: dict[int, dict] = {}
        for e, c in coeffs.items():
            groups.setdefault(e[0], {})[e[1:]] = c
        t = point[vars_[0]]
        acc = 0.0
        prev = None
        for p in sorted(groups, reverse=True):
            inner = TruncatedSeries._horner(vars_[1:], groups[p], point)
            if prev is None:
                acc = inner
            else:
                acc = acc * t ** (prev - p) + inner
            prev = p
        if prev is None:
            return 0.0
        return acc * t ** prev

    def eval_grid(self, grids: Mapping[Var, np.ndarray]) -> np.ndarray:
        """Evaluate on an outer-product grid.

        ``grids`` assigns a 1-D array to every variable of the series; the
        result has one axis per variable, in the series' variable order.
        """
        axes = [np.asarray(grids[v], dtype=float) for v in self.vars]
        shape = tuple(len(a) for a in axes)
        out = np.zeros(shape)
        if not self.coeffs:
            return out
        pows = [
            {p: a ** p for p in sorted({e[i] for e in self.coeffs})}
            for i, a in enumerate(axes)
        ]
        for e, c in self.coeffs.items():
            term = np.asarray(c)
            for i, p in enumerate(e):
                vec = pows[i][p]
                term = np.multiply.outer(term, vec)
            out += term
        return out


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
        cs = self.taylor_coeffs(order)
        return TruncatedSeries((self.var,), {(k,): float(c) for k, c in enumerate(cs)})


@dataclass(frozen=True)
class Polynomial(AnalyticFactor):
    coeffs: tuple[float, ...] = ()

    def __init__(self, var: Var, coeffs):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(float(c) for c in coeffs))

    def taylor_coeffs(self, order: int) -> np.ndarray:
        out = np.zeros(order + 1)
        upto = min(order + 1, len(self.coeffs))
        out[:upto] = self.coeffs[:upto]
        return out

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


@dataclass(frozen=True)
class Constant(AnalyticFactor):
    value: float = 1.0

    def taylor_coeffs(self, order: int) -> np.ndarray:
        out = np.zeros(order + 1)
        out[0] = self.value
        return out

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.value)

    def derivative(self):
        return []


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
        out = TruncatedSeries.constant(self.scale)
        for f in self.factors:
            out = out * f.taylor(order)
        return out

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

    def substitute(self, v: Var, value: float) -> "SeparableTerm":
        scale = self.scale
        rest = []
        for f in self.factors:
            if f.var == v:
                scale *= float(f(value))
            else:
                rest.append(f)
        return SeparableTerm(scale, rest)


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

    def is_polynomial(self) -> bool:
        return all(
            isinstance(f, (Polynomial, Constant))
            for t in self.terms
            for f in t.factors
        )

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "SeparableSum") -> "SeparableSum":
        return SeparableSum(self.terms + other.terms)

    def scale(self, s: float) -> "SeparableSum":
        return SeparableSum([SeparableTerm(t.scale * s, t.factors) for t in self.terms])

    def diff(self, v: Var) -> "SeparableSum":
        return SeparableSum([d for t in self.terms for d in t.diff(v)])

    def substitute(self, v: Var, value: float) -> "SeparableSum":
        return SeparableSum([t.substitute(v, value) for t in self.terms])

    def taylor(self, order: int) -> TruncatedSeries:
        """Expand every term to ``order``, then drop total degrees above it."""
        out = TruncatedSeries.zero(self.vars())
        for t in self.terms:
            out = out + t.taylor(order)
        return out.truncate_total(order)

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

# 15 points: numpy's Legendre weights carry about 1e-15 absolute error from
# 20 points on, against at most 3e-16 here. A unit panel's nodes are the
# rule on the whole panel, then on each half.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(15)
_GL_X, _GL_W = (_GL_X + 1.0) / 2, _GL_W / 2
_PANEL_NODES = np.concatenate([_GL_X, _GL_X / 2, (_GL_X + 1.0) / 2])
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
        whole, left, right = h * (vals.reshape(len(a), 3, -1) @ _GL_W).T
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
