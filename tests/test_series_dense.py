"""The dense-array TruncatedSeries against a dict-of-exponents oracle,
``conftest.DictSeries``: the representation it replaced, kept in its
smallest form."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ETA, ORDER, XI, DictSeries, X, Y
from continuum_kernels.series import (GL_NODES, GL_WEIGHTS, Polynomial,
                                      SeparableTerm, TruncatedSeries)


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


@settings(max_examples=150, deadline=None)
@given(dense_series(), dense_series())
@example(*(TruncatedSeries((X, Y), np.arange(6.0).reshape(2, 3)),
           TruncatedSeries((Y,), np.array([1.0, -2.0]))))      # shared y
@example(*(TruncatedSeries((X,), np.array([1.0, 2.0])),
           TruncatedSeries((XI, ETA), np.ones((2, 2)))))       # disjoint
def test_sum(a, b):
    # integer coefficients: every sum is exact
    assert_same(a + b, DictSeries.of(a) + DictSeries.of(b))


@st.composite
def separable_terms(draw, vars_):
    """A SeparableTerm of integer polynomial factors, one per entry of
    ``vars_``, and the oracle product of the factors' expansions."""
    coeffs = st.lists(st.integers(-5, 5), min_size=1, max_size=4)
    factors = [Polynomial(v, draw(coeffs)) for v in vars_]
    scale = float(draw(st.integers(-3, 3)))
    want = DictSeries((), {(): scale})
    for f in factors:
        want = want * DictSeries.of(f.taylor(3))
    return SeparableTerm(scale, factors), want


# SeparableTerm.taylor is the package's multivariate product: factors in one
# variable convolve, and the variables make an outer product.

@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(Y, Y), (X, Y, Y), (XI, ETA, XI, ETA)]).flatmap(separable_terms))
def test_product_over_shared_variables(term_want):
    term, want = term_want
    assert_same(term.taylor(3), want)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([(X,), (XI, ETA), (X, XI, Y, ETA)]).flatmap(separable_terms))
def test_product_over_disjoint_variables(term_want):
    term, want = term_want
    assert_same(term.taylor(3), want)


# The oracle's rename, which conftest.residual_series builds on, has no
# dense counterpart; eval_grid checks it: the renamed series at a point is
# the series with src at dst's value.
POINT = dict(zip(ORDER, (0.7, -0.4, 1.3, 0.5)))


def assert_renamed(s: TruncatedSeries, src, dst):
    moved = {**POINT, src: POINT[dst]}
    want = s.eval_grid({v: [moved[v]] for v in s.vars}).item()
    assert DictSeries.of(s).rename(src, dst).at(POINT) == pytest.approx(want, rel=1e-12,
                                                                        abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(dense_series(), st.sampled_from(ORDER), st.sampled_from(ORDER))
def test_rename_into_new_and_present_variables(s, src, dst):
    assert_renamed(s, src, dst)


@pytest.mark.parametrize("src, dst", [(XI, X), (X, ETA), (ETA, X)])
def test_rename_examples(src, dst):
    # into a present variable (anti-diagonal sums) and into a new one that
    # moves the axis
    assert_renamed(TruncatedSeries((X, XI, ETA), np.arange(1.0, 25.0).reshape(2, 3, 4)),
                   src, dst)


@settings(max_examples=150, deadline=None)
@given(dense_series(), st.sampled_from(ORDER), st.floats(-2, 2, allow_nan=False),
       st.integers(0, 8))
def test_calculus(s, v, value, order):
    d = DictSeries.of(s)
    if v in s.vars:
        assert_same(s.diff(v), d.diff(v))
        assert_same(s.substitute_value(v, value), d.substitute_value(v, value), tol=1e-12)
        # the oracle's integral over v in [0, 1] against the 15-node rule on
        # eval_grid, exact at these degrees
        on_v = s.eval_grid({u: GL_NODES if u == v else [POINT[u]] for u in s.vars})
        assert d.integrate_unit(v).at(POINT) == pytest.approx(on_v.ravel() @ GL_WEIGHTS,
                                                              rel=1e-12, abs=1e-12)
    else:
        assert s.diff(v).is_zero()
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
