"""The dense-array TruncatedSeries against a dict-of-exponents oracle: the
representation it replaced, kept here in its smallest form."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from continuum_kernels.series import PRUNE_TOL, TruncatedSeries, Var

X, XI, Y, ETA = Var.X, Var.XI, Var.Y, Var.ETA
ORDER = (X, XI, Y, ETA)


class DictSeries:
    """Coefficients in a dict keyed by exponent tuples; every operation is
    a loop over them."""

    def __init__(self, vars_, coeffs):
        self.vars = tuple(vars_)
        self.coeffs = {tuple(e): float(c) for e, c in coeffs.items() if abs(c) > PRUNE_TOL}

    @staticmethod
    def of(s: TruncatedSeries) -> "DictSeries":
        return DictSeries(s.vars, s.coeffs)

    def _over(self, vars_):
        pos = [vars_.index(v) for v in self.vars]
        out = {}
        for e, c in self.coeffs.items():
            key = [0] * len(vars_)
            for p, ei in zip(pos, e):
                key[p] = ei
            out[tuple(key)] = c
        return out

    def __add__(self, other):
        vs = tuple(v for v in ORDER if v in self.vars + other.vars)
        out = self._over(vs)
        for e, c in other._over(vs).items():
            out[e] = out.get(e, 0.0) + c
        return DictSeries(vs, out)

    def __mul__(self, other):
        vs = tuple(v for v in ORDER if v in self.vars + other.vars)
        out = {}
        for ea, ca in self._over(vs).items():
            for eb, cb in other._over(vs).items():
                key = tuple(i + j for i, j in zip(ea, eb))
                out[key] = out.get(key, 0.0) + ca * cb
        return DictSeries(vs, out)

    def _fold(self, fn, new_vars):
        out = {}
        for e, c in self.coeffs.items():
            hit = fn(e, c)
            if hit is not None:
                key, w = hit
                out[key] = out.get(key, 0.0) + w
        return DictSeries(new_vars, out)

    def diff(self, v):
        i = self.vars.index(v)
        return self._fold(lambda e, c: None if e[i] == 0 else
                          (e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i]), self.vars)

    def integrate_unit(self, v):
        i = self.vars.index(v)
        return self._fold(lambda e, c: (e[:i] + e[i + 1:], c / (e[i] + 1)),
                          self.vars[:i] + self.vars[i + 1:])

    def substitute_value(self, v, value):
        i = self.vars.index(v)
        return self._fold(lambda e, c: (e[:i] + e[i + 1:], c * value ** e[i]),
                          self.vars[:i] + self.vars[i + 1:])

    def rename(self, src, dst):
        new_vars = tuple(v for v in ORDER if v in set(self.vars) - {src} | {dst})
        si = self.vars.index(src)

        def move(e, c):
            exps = {v: e[j] for j, v in enumerate(self.vars) if j != si}
            exps[dst] = exps.get(dst, 0) + e[si]
            return tuple(exps.get(v, 0) for v in new_vars), c
        return self._fold(move, new_vars)

    def truncate_total(self, order):
        return self._fold(lambda e, c: (e, c) if sum(e) <= order else None, self.vars)

    def at(self, point):
        return sum(c * math.prod(point[v] ** p for v, p in zip(self.vars, e))
                   for e, c in self.coeffs.items())


def assert_same(got: TruncatedSeries, want: DictSeries, tol=0.0):
    """Same variables and coefficients: exactly at tol = 0, else within tol
    relative, or 100 tol absolute where terms of size about 1 cancel."""
    assert got.vars == want.vars
    g = got.coeffs
    for e in set(g) | set(want.coeffs):
        assert g.get(e, 0.0) == pytest.approx(want.coeffs.get(e, 0.0), rel=tol, abs=100 * tol)


@st.composite
def dense_series(draw, vars_=None, max_extent=4):
    """A series over a subset of the variables, integer coefficients, many
    of them zero, in an array whose extents may exceed its degrees."""
    if vars_ is None:
        vars_ = tuple(v for v in ORDER if draw(st.booleans()))
    shape = [draw(st.integers(1, max_extent)) for _ in vars_]
    coeff = st.integers(-5, 5) | st.just(0)
    flat = draw(st.lists(coeff, min_size=math.prod(shape), max_size=math.prod(shape)))
    return TruncatedSeries(vars_, np.array(flat, dtype=float).reshape(shape))


SHARED = (dense_series((X, Y)), dense_series((XI, Y, ETA)))
DISJOINT = (dense_series((X,)), dense_series((XI, ETA)))


@settings(max_examples=150, deadline=None)
@given(dense_series(), dense_series())
@example(*(TruncatedSeries((X, Y), np.arange(6.0).reshape(2, 3)),
           TruncatedSeries((Y,), np.array([1.0, -2.0]))))      # shared y
@example(*(TruncatedSeries((X,), np.array([1.0, 2.0])),
           TruncatedSeries((XI, ETA), np.ones((2, 2)))))       # disjoint
def test_product_and_sum(a, b):
    # integer coefficients: every product and sum is exact
    assert_same(a * b, DictSeries.of(a) * DictSeries.of(b))
    assert (a * b) == (b * a)
    assert_same(a + b, DictSeries.of(a) + DictSeries.of(b))
    assert_same(a - b, DictSeries.of(a) + DictSeries.of(b.scale(-1.0)))


@settings(max_examples=100, deadline=None)
@given(*SHARED)
def test_product_over_shared_variables(a, b):
    assert_same(a * b, DictSeries.of(a) * DictSeries.of(b))


@settings(max_examples=50, deadline=None)
@given(*DISJOINT)
def test_product_over_disjoint_variables(a, b):
    assert_same(a * b, DictSeries.of(a) * DictSeries.of(b))


@settings(max_examples=150, deadline=None)
@given(dense_series(), st.sampled_from(ORDER), st.sampled_from(ORDER))
def test_rename_into_new_and_present_variables(s, src, dst):
    got = s.rename(src, dst)
    if src not in s.vars or src == dst:
        assert got is s
        return
    assert_same(got, DictSeries.of(s).rename(src, dst))


@pytest.mark.parametrize("src, dst", [(XI, X), (X, ETA), (ETA, X)])
def test_rename_examples(src, dst):
    # into a present variable (anti-diagonal sums) and into a new one that
    # moves the axis
    s = TruncatedSeries((X, XI, ETA), np.arange(1.0, 25.0).reshape(2, 3, 4))
    assert_same(s.rename(src, dst), DictSeries.of(s).rename(src, dst))


@settings(max_examples=150, deadline=None)
@given(dense_series(), st.sampled_from(ORDER), st.floats(-2, 2, allow_nan=False),
       st.integers(0, 8))
def test_calculus(s, v, value, order):
    d = DictSeries.of(s)
    if v in s.vars:
        assert_same(s.diff(v), d.diff(v))
        assert_same(s.integrate_unit(v), d.integrate_unit(v), tol=1e-15)
        assert_same(s.substitute_value(v, value), d.substitute_value(v, value), tol=1e-12)
    else:
        assert s.diff(v).is_zero() and s.integrate_unit(v) is s
    assert_same(s.truncate_total(order), d.truncate_total(order))


@settings(max_examples=100, deadline=None)
@given(dense_series(), st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=4, max_size=4))
def test_eval_grid(s, pts):
    point = dict(zip(ORDER, pts))
    got = s.eval_grid({v: [point[v]] for v in s.vars})
    assert got.shape == (1,) * len(s.vars)
    assert got.item() == pytest.approx(DictSeries.of(s).at(point), rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(dense_series(max_extent=3).filter(lambda s: s.vars), st.data(),
       st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_coefficient_message(s, data, bad):
    # the first non-finite coefficient in sorted exponent order is named
    a = s.array.copy()
    flat = data.draw(st.lists(st.integers(0, a.size - 1), min_size=1, max_size=3, unique=True))
    a.flat[flat] = bad
    first = tuple(int(i) for i in np.unravel_index(min(flat), a.shape))
    with pytest.raises(ValueError, match="^" + re.escape(
            f"non-finite coefficient {bad} at exponent {first}") + "$"):
        TruncatedSeries(s.vars, a)
