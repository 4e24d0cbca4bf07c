import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DictSeries, series_from
from continuum_kernels.series import (MAX_PANELS, Cos, Exp, Polynomial,
                                      SeparableSum, SeparableTerm, Sin,
                                      TruncatedSeries, Var, integrate01)

X, XI, Y, ETA = Var.X, Var.XI, Var.Y, Var.ETA


def at(s: TruncatedSeries, point: dict) -> float:
    """``s`` at one point, by a one-point eval_grid."""
    return s.eval_grid({v: [point[v]] for v in s.vars}).item()


def outer_product_eval(s: TruncatedSeries, grids: dict) -> np.ndarray:
    """The per-coefficient outer-product loop that eval_grid's contraction
    replaced, kept as its oracle."""
    axes = [np.asarray(grids[v], dtype=float) for v in s.vars]
    out = np.zeros(tuple(len(a) for a in axes))
    for e, c in s.coeffs.items():
        term = np.asarray(c)
        for a, p in zip(axes, e):
            term = np.multiply.outer(term, a ** p)
        out += term
    return out


def series(var_exps: dict) -> TruncatedSeries:
    """A sum of monomials, each keyed by its (variable, exponent) pairs."""
    out = TruncatedSeries.zero()
    for exps, c in var_exps.items():
        out = out + series_from([v for v, _ in exps], {tuple(e for _, e in exps): c})
    return out


def constant(c: float) -> TruncatedSeries:
    return series_from((), {(): c})


class TestTaylor:
    def test_exp_order2(self):
        rate = 35.0 / math.pi ** 2
        s = Exp(X, rate).taylor(2)
        assert s.coeffs == pytest.approx(
            {(0,): 1.0, (1,): rate, (2,): rate ** 2 / 2.0})

    def test_cos_order4(self):
        w = 2 * math.pi
        s = Cos(Y, w, 0.0).taylor(4)
        assert s.coeffs == {(0,): 1.0, (2,): -w ** 2 / 2, (4,): w ** 4 / 24}

    @pytest.mark.parametrize("factor, parity", [
        (Cos(Y, 2 * math.pi, 0.0), 0), (Cos(X, -0.7, 0.0), 0),
        (Sin(Y, 1.0, 0.0), 1), (Sin(X, 3.5, 0.0), 1)])
    def test_phase_zero_vanishing_powers_are_exact(self, factor, parity):
        # cos is even and sin odd: no roundoff may be stored at the other powers
        s = factor.taylor(11)
        assert set(s.coeffs) == {(k,) for k in range(12) if k % 2 == parity}

    def test_polynomial_truncation_below_degree(self):
        s = Polynomial(X, [0.0, 0.0, -70.0]).taylor(1)
        assert s.is_zero()

    def test_sin_phase(self):
        s = Sin(Y, 1.0, math.pi / 2).taylor(3)
        # sin(t + pi/2) = cos(t)
        assert s.coeffs[(0,)] == pytest.approx(1.0)
        assert s.coeffs.get((1,), 0.0) == pytest.approx(0.0, abs=1e-15)
        assert s.coeffs[(2,)] == pytest.approx(-0.5)

    def test_constant(self):
        s = Polynomial(X, [4.5]).taylor(3)
        assert s.coeffs == {(0,): 4.5}

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            Exp(X, 1.0).taylor(-1)


class TestConstruction:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            series_from((X, Y), {(0, 0): 1.0, (1, 2): bad})


class TestRingOps:
    def test_add_cancels(self):
        one_plus = series({((X, 1),): 1.0}) + constant(1.0)
        one_minus = constant(1.0) + series({((X, 1),): -1.0})
        out = one_plus + one_minus
        assert out.coeffs == {(0,): 2.0}
        assert at(out, {X: 0.7}) == pytest.approx(2.0)

    def test_add_identity(self):
        s = series({((X, 2), (Y, 1)): 3.0, ((X, 1),): -1.0})
        assert (TruncatedSeries.zero() + s) == s

    def test_add_merges_variables(self):
        s = series({((X, 1),): 1.0}) + series({((Y, 1),): 1.0})
        assert s.vars == (X, Y)
        assert s.coeffs == {(1, 0): 1.0, (0, 1): 1.0}


class TestCalculus:
    def test_diff_xi(self):
        s = series({((X, 1), (XI, 2)): 1.0})
        assert s.diff(XI).coeffs == {(1, 1): 2.0}

    def test_diff_absent_variable(self):
        s = series({((X, 2),): 1.0})
        assert s.diff(Y).is_zero()

    def test_diff_cube(self):
        s = series({((X, 3),): 1.0})
        assert s.diff(X).coeffs == {(2,): 3.0}

    # Integration over [0, 1] and renaming a variable live only in the series
    # oracle, conftest.DictSeries, which conftest.residual_series builds on.

    def test_integrate_unit_y(self):
        s = DictSeries.of(series({((Y, 1),): 1.0}))
        assert s.integrate_unit(Y).coeffs == {(): 0.5}

    def test_integrate_unit_eta(self):
        out = DictSeries.of(series({((X, 1), (XI, 1), (ETA, 2)): 1.0})).integrate_unit(ETA)
        assert out.vars == (X, XI)
        assert out.coeffs == {(1, 1): pytest.approx(1.0 / 3.0)}

    def test_integrate_centered_cubic_vanishes(self):
        # (y - 1/2) * y * (y - 1) expanded by hand: y^3 - (3/2) y^2 + y/2
        s = series({((Y, 3),): 1.0, ((Y, 2),): -1.5, ((Y, 1),): 0.5})
        # independent oracle: the package's adaptive quadrature
        quad = integrate01(lambda t: s.eval_grid({Y: t}), 1e-14)
        got = DictSeries.of(s).integrate_unit(Y).coeffs.get((), 0.0)
        assert got == pytest.approx(quad, abs=1e-16)
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_substitute_diag(self):
        s = DictSeries.of(series({((X, 2), (XI, 1)): 1.0}))
        assert s.rename(XI, X).coeffs == {(3,): 1.0}

    def test_substitute_diag_merges(self):
        s = DictSeries.of(series({((X, 1), (XI, 1), (Y, 1)): 1.0, ((XI, 2),): 1.0}))
        assert s.rename(XI, X).coeffs == {(2, 1): 1.0, (2, 0): 1.0}

    def test_substitute_diag_constant(self):
        s = DictSeries.of(constant(4.0))
        assert s.rename(XI, X).coeffs == {(): 4.0}

    def test_rename_merges_exponents(self):
        s = DictSeries.of(series({((X, 1), (Y, 2)): 1.0}))
        assert s.rename(Y, X).coeffs == {(3,): 1.0}

    def test_substitute_value(self):
        s = series({((X, 2), (Y, 1)): 3.0, ((Y, 2),): 1.0})
        out = s.substitute_value(X, 2.0)
        assert out.coeffs == {(1,): 12.0, (2,): 1.0}


class TestEval:
    def test_parabola_root(self):
        s = constant(1.0) + series({((X, 2),): -1.0})
        assert at(s, {X: 1.0}) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_midpoint(self):
        # 35 y (y-1) at y = 1/2 -> 35 * (1/2) * (-1/2)
        s = series({((Y, 2),): 35.0, ((Y, 1),): -35.0})
        assert at(s, {Y: 0.5}) == pytest.approx(35.0 * 0.5 * (-0.5))
        assert at(s, {Y: 0.5}) == pytest.approx(-8.75)

    def test_constant_everywhere(self):
        c = 35.0 / (2.0 * math.pi ** 2)
        s = constant(c)
        for y in (0.0, 0.3, 1.0):
            assert at(s, {Y: y}) == pytest.approx(1.7731207137, rel=1e-9)

    def test_missing_assignment(self):
        s = series({((X, 1), (Y, 1)): 1.0})
        with pytest.raises(KeyError):
            s.eval_grid({X: [1.0]})

    @pytest.mark.parametrize("s, vars_", [
        (TruncatedSeries.zero(), ()), (constant(2.5), ()),
        (TruncatedSeries.zero((X, Y)), (X, Y)), (series({((XI, 2),): 3.0}), (XI,))])
    def test_empty_and_constant_series(self, s, vars_):
        grids = {X: np.array([0.3]), XI: np.array([0.5, 2.0]), Y: np.array([1.0])}
        got = s.eval_grid(grids)
        assert s.vars == vars_
        assert got.shape == tuple(len(grids[v]) for v in vars_)
        np.testing.assert_array_equal(got, outer_product_eval(s, grids))

    def test_eval_grid_matches_pointwise(self):
        s = series({((X, 2), (Y, 1)): 2.0, ((X, 1),): -1.0, ((Y, 3),): 0.5})
        xs = np.linspace(0, 1, 7)
        ys = np.linspace(0, 1, 5)
        grid = s.eval_grid({X: xs, Y: ys})
        for i, xv in enumerate(xs):
            for j, yv in enumerate(ys):
                assert grid[i, j] == pytest.approx(2 * xv ** 2 * yv - xv + 0.5 * yv ** 3)


# -- property tests ---------------------------------------------------------

VARS = st.sampled_from([X, XI, Y, ETA])


def sparse_series(max_degree=5, max_terms=6):
    term = st.tuples(
        st.lists(st.tuples(VARS, st.integers(0, max_degree)), max_size=3),
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    )
    def build(terms):
        out = TruncatedSeries.zero()
        for exps, c in terms:
            merged: dict = {}
            for v, e in exps:
                merged[v] = merged.get(v, 0) + e
            out = out + series_from(list(merged), {tuple(merged.values()): float(c)})
        return out
    return st.lists(term, max_size=max_terms).map(build)


@settings(max_examples=150, deadline=None)
@given(sparse_series(max_degree=8), st.data())
def test_eval_grid_matches_outer_product_oracle(s, data):
    # 0-4 variables, the empty and the constant series, one-point grids
    points = st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=1, max_size=4)
    grids = {v: np.array(data.draw(points)) for v in s.vars}
    got, want = s.eval_grid(grids), outer_product_eval(s, grids)
    assert got.shape == want.shape == tuple(len(grids[v]) for v in s.vars)
    size = sum(abs(c) * math.prod(np.abs(grids[v]).max() ** p for v, p in zip(s.vars, e))
               for e, c in s.coeffs.items())
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * (1.0 + size))


@settings(max_examples=60, deadline=None)
@given(sparse_series(), sparse_series(),
       st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))
def test_integrate_unit_linearity(a, b, alpha, beta):
    a, b = DictSeries.of(a), DictSeries.of(b)
    lhs = (a.scale(alpha) + b.scale(beta)).integrate_unit(Y)
    rhs = a.integrate_unit(Y).scale(alpha) + b.integrate_unit(Y).scale(beta)
    keys = set(lhs.coeffs) | set(rhs.coeffs)
    for k in keys:
        assert lhs.coeffs.get(k, 0.0) == pytest.approx(
            rhs.coeffs.get(k, 0.0), rel=1e-12, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(-20, 20, allow_nan=False), st.integers(1, 30))
def test_exp_taylor_recurrence(rate, order):
    s = Exp(X, rate).taylor(order)
    for k in range(order):
        ck = s.coeffs.get((k,), 0.0)
        ck1 = s.coeffs.get((k + 1,), 0.0)
        expected = ck * rate / (k + 1)
        assert ck1 == pytest.approx(expected, rel=1e-15, abs=1e-300)


def test_separable_term_products_and_derivatives():
    # x (x+1) e^x in x times (y - 1/2): derivative in x follows product rule
    term = SeparableTerm(1.0, [
        Polynomial(X, [0, 1, 1]), Exp(X, 1.0), Polynomial(Y, [-0.5, 1.0]),
    ])
    f = SeparableSum([term])
    xs = np.linspace(0, 1, 41)
    vals = f({X: xs, Y: np.full_like(xs, 0.25)})
    expected = xs * (xs + 1) * np.exp(xs) * (0.25 - 0.5)
    np.testing.assert_allclose(vals, expected, rtol=1e-14)
    df = f.diff(X)
    dvals = df({X: xs, Y: np.full_like(xs, 0.25)})
    dexp = ((2 * xs + 1) + xs * (xs + 1)) * np.exp(xs) * (0.25 - 0.5)
    np.testing.assert_allclose(dvals, dexp, rtol=1e-13)


def test_parts_multiply_back_to_each_term():
    # sigma-like sum over (x, eta, y): one term without an eta factor
    f = SeparableSum([
        SeparableTerm(-2.0, [Polynomial(X, [0, 1]), Exp(X, 0.5),
                             Cos(ETA, 1.5, 0.0), Polynomial(Y, [1, 1])]),
        SeparableTerm(3.0, [Sin(Y, 2.0, 0.25)]),
    ])
    t = np.linspace(0, 1, 7)
    parts = [f.part(v) for v in (X, ETA, Y)]
    assert [p.terms[1] for p in parts] == [
        SeparableTerm(3.0, []), SeparableTerm(1.0, []),
        SeparableTerm(1.0, [Sin(Y, 2.0, 0.25)])]
    grid = dict(zip((X, ETA, Y), np.ix_(t, t, t)))
    for i, term in enumerate(f.terms):
        x, eta, y = (p.terms[i]({v: grid[v]}) for p, v in zip(parts, grid))
        np.testing.assert_allclose(x * eta * y, np.broadcast_to(term(grid), (7,) * 3),
                                   rtol=1e-15)


def test_separable_taylor_total_truncation_is_exact():
    f = SeparableSum([SeparableTerm(2.0, [Polynomial(X, [1, 1]), Exp(Y, 2.0)])])
    s = f.taylor(4)
    # coefficient of x^1 y^2: 2 * 1 * 2^2/2!
    assert s.coeffs[(1, 2)] == pytest.approx(4.0)
    assert all(sum(e) <= 4 for e in s.coeffs)


class TestIntegrate01:
    @pytest.mark.parametrize("f, exact", [
        (lambda y: y * y * np.cos(2 * math.pi * y), 1.0 / (2 * math.pi ** 2)),
        (lambda y: y ** 5, 1.0 / 6.0),
        (np.exp, math.e - 1.0)])
    def test_exact_values(self, f, exact):
        assert integrate01(f, 1e-12) == pytest.approx(exact, rel=0, abs=4e-16)

    def test_monomials_to_degree_100(self):
        # the closed form's polynomial y-integrals rest on this alone
        for d in range(101):
            assert integrate01(lambda t: t ** d, 1e-12) == pytest.approx(
                1.0 / (d + 1), rel=1e-14, abs=0)

    def test_divergent_integrand_raises(self):
        # the rule gives 1/t the same value on every [0, h], and the two
        # halves exceed it by log 2, so the panel at 0 never converges
        with pytest.raises(RuntimeError, match=f"{MAX_PANELS} panels"):
            integrate01(lambda t: 1.0 / t, 1e-12)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(ValueError, match="not finite"):
            integrate01(lambda t: np.where(t > 0.7, np.nan, t), 1e-12)


# products of at most one factor of each kind, so |f| stays below about 50
# and both rules' roundoff stays below the absolute part of the bound
_FACTORS = st.tuples(
    st.none() | st.lists(st.floats(-1, 1), min_size=1, max_size=4).map(
        lambda c: Polynomial(Y, c)),
    st.none() | st.floats(-2, 2).map(lambda r: Exp(Y, r)),
    st.none() | st.builds(lambda w, ph: Cos(Y, w, ph),
                          st.floats(0, 4 * math.pi), st.floats(-math.pi, math.pi)))
# a positive 1/(lam(y) + mu) weight, as in the closed form's y-integrals
_WEIGHT = st.none() | st.tuples(st.floats(0.5, 2), st.floats(0.1, 2), st.floats(0, 3))


@settings(max_examples=80, deadline=None)
@given(st.floats(-2, 2), _FACTORS, _WEIGHT)
def test_integrate01_matches_quad(scale, factors, weight):
    term = SeparableTerm(scale, [f for f in factors if f is not None])

    def f(t):
        out = term({Y: np.asarray(t, dtype=float)})
        if weight is not None:
            mu, lam0, lam2 = weight
            out = out / (mu + lam0 + lam2 * t * t)
        return out

    ref, _ = scipy.integrate.quad(lambda t: float(f(t)), 0.0, 1.0,
                                  epsabs=1e-12, epsrel=1e-12, limit=MAX_PANELS)
    assert abs(integrate01(f, 1e-12) - ref) <= 1e-14 + 1e-13 * abs(ref)
