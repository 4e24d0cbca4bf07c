import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate

from hypothesis import given, settings
from hypothesis import strategies as st

from continuum_kernels.closed_form import (NotApplicable, SeparableProblem,
                                           build_f, compute_cx, sigma_coef,
                                           solve_closed_form)
from continuum_kernels.fd_kernels import TriGrid, solve_characteristics
from continuum_kernels.gains import continuum_residual, diff_solutions, gains
from continuum_kernels.params import LargeScaleParams
from continuum_kernels.power_series import SolverConfig, assemble, solve_ls
from continuum_kernels.series import (Exp, Polynomial, SeparableSum,
                                      SeparableTerm, Var, integrate01)

X, XI, Y, ETA = Var.X, Var.XI, Var.Y, Var.ETA


def make_continuum(lam=1.0, mu=1.0, sigma=None, theta=None, W=None, q=None):
    from continuum_kernels.params import ContinuumParams

    def as_sum(v, default=0.0):
        if v is None:
            return SeparableSum.constant(default)
        if isinstance(v, (int, float)):
            return SeparableSum.constant(float(v))
        return v

    return ContinuumParams(
        lam=as_sum(lam), mu=as_sum(mu), sigma=as_sum(sigma),
        theta=as_sum(theta), W=as_sum(W), q=as_sum(q),
    )


def product(scale, *factors) -> SeparableSum:
    return SeparableSum([SeparableTerm(scale, list(factors))])


class TestCheckCy:
    def test_reference_benchmark_zero_integral(self, example1):
        sep = SeparableProblem.from_continuum(example1.continuum)
        assert sigma_coef(sep) == 0.0
        # the defining integral vanishes: int (y-1/2) y (y-1) dy = 0
        val, _ = scipy.integrate.quad(
            lambda t: (t - 0.5) * t * (t - 1.0), 0, 1, epsabs=1e-14)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_proportional_profile(self):
        # sigma_e = 3 * theta_y with unit weight integral: c_y = 3
        p = make_continuum(
            sigma=product(1.0, Polynomial(X, [0, 1]), Polynomial(ETA, [1.0]),
                          Polynomial(Y, [3.0])),
            theta=product(1.0, Exp(X, 0.5), Polynomial(Y, [1.0])),
            q=0.0,
        )
        sep = SeparableProblem.from_continuum(p)
        c_y = sigma_coef(sep) * (sep.lam_const + sep.mu)
        assert c_y == pytest.approx(3.0, abs=1e-12)

    def test_second_benchmark_not_applicable(self):
        # sigma_e = y is not proportional to theta_y = 1 + y/2 while
        # int sigma_y theta_y/(lam+mu) != 0 and theta_x(0) != 0: sigma_coef
        # still gives the least-squares kappa, and the k equation rejects it
        p = make_continuum(
            sigma=product(1.0, Polynomial(X, [1.0]), Polynomial(ETA, [1, 1]),
                          Polynomial(Y, [0, 1])),
            theta=product(1.0, Exp(X, 0.5), Polynomial(Y, [1, 0.5])), q=0.0)
        sep = SeparableProblem.from_continuum(p)
        assert sep.weighted_integral(sep.sigma_y, sep.theta_y) > 0.1
        assert isinstance(sigma_coef(sep), float) and sigma_coef(sep) != 0.0
        out = solve_closed_form(p)
        assert isinstance(out, NotApplicable)
        assert out.details["pde_k"] > 1e-6

    def test_zero_sigma_gives_zero(self):
        p = make_continuum(theta=product(-70.0, Exp(X, 1.0),
                                         Polynomial(Y, [0, -1, 1])), q=0.0)
        sep = SeparableProblem.from_continuum(p)
        assert sigma_coef(sep) == 0.0


    def test_polynomial_integral_above_degree_64(self):
        t70 = SeparableSum.poly(Y, [0] * 70 + [1])
        assert integrate01(lambda t: t70.eval1(Y, t), 1e-12) == \
            pytest.approx(1.0 / 71.0, rel=1e-14)


class TestComputeCx:
    def test_reference_benchmark_cancels(self, example1):
        sep = SeparableProblem.from_continuum(example1.continuum)
        c_x = compute_cx(sep, 0.0)
        # cross-check of the cancellation: (1/2)(35/pi^2 - 70/(2 pi^2)) = 0
        Jq, _ = scipy.integrate.quad(
            lambda t: math.cos(2 * math.pi * t) * t * (t - 1.0), 0, 1,
            epsabs=1e-14)
        assert Jq == pytest.approx(1.0 / (2 * math.pi ** 2), abs=1e-13)
        manual = 0.5 * (35.0 / math.pi ** 2 + (-70.0) * Jq)
        assert manual == pytest.approx(0.0, abs=1e-13)
        assert c_x == pytest.approx(0.0, abs=1e-10)

    def test_all_terms_vanish(self):
        p = make_continuum(theta=product(2.0, Polynomial(X, [1.0]),
                                         Polynomial(Y, [1, 1])), q=0.0)
        sep = SeparableProblem.from_continuum(p)
        assert compute_cx(sep, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_exponential_theta_halves_rate(self):
        a = 0.8
        p = make_continuum(theta=product(1.0, Exp(X, a),
                                         Polynomial(Y, [1, 1])), q=0.0)
        sep = SeparableProblem.from_continuum(p)
        assert compute_cx(sep, 0.0) == pytest.approx(a / 2.0, rel=1e-12)

    def test_vanishing_theta_x_at_origin_rejected(self):
        p = make_continuum(theta=product(1.0, Polynomial(X, [0, 1]),
                                         Polynomial(Y, [1, 1])), q=0.0)
        sep = SeparableProblem.from_continuum(p)
        assert isinstance(sep, NotApplicable)
        assert sep.reason == ("theta_x(0.0) is (numerically) zero; "
                              "the construction divides by it")


class TestBuildF:
    def test_reference_benchmark_constant_profile(self, example1):
        sep = SeparableProblem.from_continuum(example1.continuum)
        f, fp = build_f(sep, 0.0, 0.0)
        xs = np.linspace(0, 1, 31)
        np.testing.assert_allclose(f(xs), 35.0 / (2 * math.pi ** 2),
                                   rtol=1e-12)
        np.testing.assert_allclose(fp(xs), 0.0, atol=1e-10)

    def test_condition_violated_by_w_profile(self, example1):
        # replacing the mean-zero W profile by y breaks the condition:
        # int y * y(y-1) dy = -1/12 != 0 while the left side stays 0
        val, _ = scipy.integrate.quad(lambda t: t * t * (t - 1.0), 0, 1)
        assert val == pytest.approx(-1.0 / 12.0, abs=1e-14)
        W_bad = product(1.0, Polynomial(X, [0, 1, 1]), Exp(X, 1.0),
                        Polynomial(Y, [0, 1]))
        p = replace(example1.continuum, W=W_bad)
        out = solve_closed_form(p)
        assert isinstance(out, NotApplicable)
        assert out.details["pde_kbar"] > 1e-6

    def test_exponential_theta_makes_condition_trivial(self):
        p = make_continuum(
            theta=product(-3.0, Exp(X, 1.4), Polynomial(Y, [0, -1, 1])),
            W=product(1.0, Polynomial(X, [0, 1]), Polynomial(Y, [-0.5, 1.0])),
            q=0.0,
        )
        sep = SeparableProblem.from_continuum(p)
        c_x = compute_cx(sep, 0.0)
        f, _ = build_f(sep, c_x, 0.0)
        assert np.isfinite(f(np.linspace(0, 1, 11))).all()


class TestBuildKernels:
    def test_reference_benchmark_formulas(self, example1):
        kern = solve_closed_form(example1.continuum)
        assert not isinstance(kern, NotApplicable)
        rate = 35.0 / math.pi ** 2
        xs = np.linspace(0, 1, 9)
        for x in xs:
            for xi in xs[xs <= x]:
                for y in xs:
                    expected = 35.0 * y * (y - 1.0) * math.exp(rate * xi)
                    assert kern.k(x, xi, y) == pytest.approx(expected, abs=1e-9)
                assert kern.kbar(x, xi) == pytest.approx(
                    35.0 / (2 * math.pi ** 2), rel=1e-12)

    def test_point_value(self, example1):
        kern = solve_closed_form(example1.continuum)
        assert kern.k(1.0, 0.0, 0.5) == pytest.approx(-8.75, abs=1e-12)

    def test_zero_theta_gives_zero_kernels(self):
        p = make_continuum(W=product(1.0, Polynomial(X, [0, 1]),
                                     Polynomial(Y, [1.0])), q=0.0)
        kern = solve_closed_form(p)
        assert not isinstance(kern, NotApplicable)
        xs = np.linspace(0, 1, 5)
        Xg, XIg, Yg = np.meshgrid(xs, xs, xs, indexing="ij")
        np.testing.assert_array_equal(kern.k(Xg, XIg, Yg), 0.0)
        np.testing.assert_array_equal(kern.kbar(Xg[..., 0], XIg[..., 0]), 0.0)

    def test_zero_theta_skips_the_theta_x_check(self):
        # theta_x = x vanishes at 0, but a zero scale makes theta zero: the
        # zero kernel needs no division by theta_x
        p = make_continuum(theta=product(0.0, Polynomial(X, [0, 1]),
                                         Polynomial(Y, [1, 1])), q=0.0)
        assert not isinstance(SeparableProblem.from_continuum(p), NotApplicable)
        kern = solve_closed_form(p)
        assert not isinstance(kern, NotApplicable)
        assert kern.c_x == 0.0 and kern.k(1.0, 0.0, 0.5) == 0.0

    def test_diagonal_identity(self, example1):
        kern = solve_closed_form(example1.continuum)
        xs = np.linspace(0, 1, 21)
        Xg, Yg = np.meshgrid(xs, xs, indexing="ij")
        lhs = kern.k(Xg, Xg, Yg)
        theta = example1.continuum.theta({X: Xg, Y: Yg})
        rhs = -theta / 2.0
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


class TestPipeline:
    def test_reference_benchmark_residual(self, example1):
        kern = solve_closed_form(example1.continuum)
        res = continuum_residual(kern, example1.continuum, grid_m=21)
        assert max(res.values()) < 1e-8

    def test_second_benchmark_reason(self, example2):
        # theta_x = x: the rate c_x divides by theta_x(0) = 0
        out = solve_closed_form(example2.continuum)
        assert isinstance(out, NotApplicable)
        assert out.reason.startswith("theta_x(0.0) is (numerically) zero")

    def test_nonseparable_sum_rejected(self, example1):
        two_terms = example1.continuum.theta + product(
            1.0, Polynomial(X, [0, 1]), Polynomial(Y, [1, 1]))
        p = replace(example1.continuum, theta=two_terms)
        out = solve_closed_form(p)
        assert isinstance(out, NotApplicable)
        assert "separable" in out.reason

    @pytest.mark.parametrize("theta_x, reason", [
        # zero inside [0,1]: the xi-grid check of build_f
        (Polynomial(X, [-0.5, 1]), r"theta_x vanishes on \[0,1\]"),
        # zero at the origin: the rate c_x divides by theta_x(0) first
        (Polynomial(X, [0, 1]), r"theta_x\(0\.0\) is \(numerically\) zero")],
        ids=["interior", "origin"])
    def test_vanishing_theta_x_not_applicable(self, theta_x, reason):
        p = make_continuum(theta=product(1.0, theta_x, Polynomial(Y, [1, 1])), q=0.0)
        out = solve_closed_form(p)
        assert isinstance(out, NotApplicable)
        assert re.search(reason, out.reason)

    @pytest.mark.parametrize("lam, mu, reason", [
        (0.0, 1.0, "lambda must be positive"),
        (-1.0, 1.0, "lambda must be positive"),
        # positive at y = 0, zero at y = 1 and negative past y = 0.5
        (SeparableSum.poly(Y, [1.0, -1.0]), 1.0, "lambda must be positive"),
        (SeparableSum.poly(Y, [0.5, -1.0]), 1.0, "lambda must be positive"),
        (1.0, 0.0, "mu must be positive"),
        (1.0, -2.0, "mu must be positive"),
        # and the speeds' structure: mu constant, lambda free of x
        (1.0, SeparableSum.poly(X, [1.0, 0.5]), "mu is not constant"),
        (SeparableSum.poly(X, [1.0, 0.5]), 1.0, "lambda depends on x")],
        ids=["lam0", "lam-neg", "lam-y-zero", "lam-y-neg", "mu0", "mu-neg",
             "mu-x", "lam-x"])
    def test_non_positive_speed_not_applicable(self, lam, mu, reason):
        p = make_continuum(lam=lam, mu=mu,
                           theta=product(1.0, Polynomial(X, [1, 1]), Polynomial(Y, [1, 1])))
        out = solve_closed_form(p)
        assert isinstance(out, NotApplicable)
        assert reason in out.reason

    def test_general_path_with_varying_lambda(self):
        # y-varying speeds, constant theta_x, no in-family coupling
        lam = SeparableSum([SeparableTerm(1.0, []),
                            SeparableTerm(0.5, [Polynomial(Y, [0, 1])])])
        p = make_continuum(
            lam=lam,
            theta=product(4.0, Polynomial(X, [1.0]), Polynomial(Y, [1, 0, 1])),
            q=SeparableSum.poly(Y, [0.3, 0.2]),
        )
        kern = solve_closed_form(p)
        assert not isinstance(kern, NotApplicable)
        assert kern.c_y is None
        res = continuum_residual(kern, p, grid_m=15)
        assert max(res.values()) < 1e-8

    def test_general_path_cross_validated_by_series_solver(self):
        # independent route: the least-squares series solution of the same
        # problem must converge to the explicit kernels
        lam = SeparableSum([SeparableTerm(1.0, []),
                            SeparableTerm(0.5, [Polynomial(Y, [0, 1])])])
        p = make_continuum(
            lam=lam,
            theta=product(4.0, Polynomial(X, [1.0]), Polynomial(Y, [1, 0, 1])),
            q=SeparableSum.poly(Y, [0.3, 0.2]),
        )
        kern = solve_closed_form(p)
        assert not isinstance(kern, NotApplicable)
        sol = solve_ls(assemble(p, SolverConfig(N=16)))
        grid = np.linspace(0, 1, 41)
        d = diff_solutions(gains(sol, grid, grid), gains(kern, grid, grid))
        assert d < 1e-4, d
        assert sol.residual < 1e-4

    @staticmethod
    def sigma_coupled_problem():
        # y-varying speeds with sigma_e = theta_y/4: kappa is nonzero
        lam = SeparableSum([SeparableTerm(1.0, []),
                            SeparableTerm(0.5, [Polynomial(Y, [0, 1])])])
        return make_continuum(
            lam=lam,
            sigma=product(0.4, Polynomial(X, [1.0]), Polynomial(ETA, [1, 1]),
                          Polynomial(Y, [1, 0, 1])),
            theta=product(4.0, Polynomial(X, [1.0]), Polynomial(Y, [1, 0, 1])),
            q=SeparableSum.poly(Y, [0.3, 0.2]),
        )

    def test_general_path_with_sigma_coupling(self):
        p = self.sigma_coupled_problem()
        sep = SeparableProblem.from_continuum(p)
        assert sigma_coef(sep) != 0.0
        kern = solve_closed_form(p)
        assert not isinstance(kern, NotApplicable)
        assert kern.c_y is None
        res = continuum_residual(kern, p, grid_m=15)
        assert max(res.values()) < 1e-12

    def test_residual_detects_a_wrong_rate(self):
        # the residual is not vacuous: c_x off by one part in a million
        # leaves the PDE for k unsatisfied by far more than roundoff
        p = self.sigma_coupled_problem()
        kern = solve_closed_form(p)
        wrong = replace(kern, c_x=kern.c_x * (1.0 + 1e-6))
        assert continuum_residual(wrong, p, grid_m=15)["pde_k"] > 1e-5

    @staticmethod
    def kbar_coupled_problem(sign_mu: bool):
        # lam = 1 + y/2, mu = 1.5, theta_x = 2, sigma_x = 0.6 (1 + 0.8 x), so
        # f' = 0.48 kappa; W = W_x (0.2 + y) with J_W = int W_y theta_y/(lam+mu)
        # nonzero. The kbar equation asks mu f' = -W_x theta_x J_W.
        mu = 1.5
        kappa, _ = scipy.integrate.quad(
            lambda y: (1 - 0.3 * y) * (1 + y / 2) / (2.5 + y / 2), 0, 1, epsabs=1e-14)
        J_W, _ = scipy.integrate.quad(
            lambda y: (0.2 + y) * (1 + y / 2) / (2.5 + y / 2), 0, 1, epsabs=1e-14)
        assert (round(kappa, 4), round(J_W, 4)) == (0.3826, 0.3254)
        W_x = (-mu if sign_mu else 1.0) * kappa * 0.48 / (2 * J_W)
        half_y = Polynomial(Y, [1, 0.5])
        return make_continuum(
            lam=SeparableSum.poly(Y, [1, 0.5]), mu=mu,
            sigma=product(0.6, Polynomial(X, [1, 0.8]), Polynomial(ETA, [1, -0.3]),
                          half_y),
            theta=product(2.0, half_y), W=product(W_x, Polynomial(Y, [0.2, 1])),
            q=0.3)

    def test_kbar_condition_with_nonzero_J_W(self):
        # the kernel that meets the kbar equation is accepted and satisfies
        # every equation to roundoff
        p = self.kbar_coupled_problem(sign_mu=True)
        kern = solve_closed_form(p)
        assert not isinstance(kern, NotApplicable), kern.reason
        res = continuum_residual(kern, p, grid_m=15)
        assert max(res.values()) <= 1e-12, res

    def test_kbar_condition_without_mu_rejected(self):
        # W_x from f' = W_x theta_x J_W, the condition without -mu: the kbar
        # equation fails, and only it, so no closed form exists
        out = solve_closed_form(self.kbar_coupled_problem(sign_mu=False))
        assert isinstance(out, NotApplicable)
        assert out.details["pde_kbar"] > 1e-3
        assert all(out.details[e] <= 1e-12 for e in ("pde_k", "bc_diag", "bc_left"))
        assert "pde_kbar 0.726" in out.reason

    @staticmethod
    def two_term_w_problem(scale: float = 1.0):
        # kbar_coupled_problem's data with W = A (1 + x)(0.2 + y) + B x (1 - y),
        # no single product. With A J_1 + B J_2 = 0, J_t = int W_y,t
        # theta_y/(lam+mu), the x-linear part of int W theta_y/(lam+mu)
        # cancels and the kbar condition holds as it does for the one-term W;
        # ``scale`` multiplies the second term
        p = TestPipeline.kbar_coupled_problem(sign_mu=True)
        A = p.W.terms[0].scale
        J1, _ = scipy.integrate.quad(
            lambda y: (0.2 + y) * (1 + y / 2) / (2.5 + y / 2), 0, 1, epsabs=1e-14)
        J2, _ = scipy.integrate.quad(
            lambda y: (1 - y) * (1 + y / 2) / (2.5 + y / 2), 0, 1, epsabs=1e-14)
        W = (product(A, Polynomial(X, [1, 1]), Polynomial(Y, [0.2, 1]))
             + product(-scale * A * J1 / J2, Polynomial(X, [0, 1]), Polynomial(Y, [1, -1])))
        return replace(p, W=W)

    def test_two_term_w_accepted(self):
        p = self.two_term_w_problem()
        assert len(p.W.terms) == 2
        kern = solve_closed_form(p)
        assert not isinstance(kern, NotApplicable), kern.reason
        assert max(kern.residual.values()) <= 1e-12, kern.residual

    def test_two_term_w_perturbation_rejected(self):
        # the second term 0.1 % off: the kbar equation alone fails
        out = solve_closed_form(self.two_term_w_problem(scale=1.001))
        assert isinstance(out, NotApplicable)
        assert out.details["pde_kbar"] > 1e-8
        assert all(out.details[e] <= 1e-12 for e in ("pde_k", "bc_diag", "bc_left"))

    def test_general_path_violation_detected(self):
        # theta_x exponential makes the rate combination y-dependent
        lam = SeparableSum([SeparableTerm(1.0, []),
                            SeparableTerm(0.5, [Polynomial(Y, [0, 1])])])
        p = make_continuum(
            lam=lam,
            theta=product(4.0, Exp(X, 1.0), Polynomial(Y, [1, 0, 1])),
            q=0.0,
        )
        out = solve_closed_form(p)
        assert isinstance(out, NotApplicable)


# -- oracle: the constant-lambda construction as separate formulas ----------
#
# c_y = sigma_e/theta_y * int sigma_y theta_y must be constant;
# c_x = mu/(lam+mu) (c_y sigma_x(0) + lam theta_x'(0)/theta_x(0)
#       + (lam/mu) theta_x(0) int q theta_y);
# f = c_y sigma_x/(lam+mu) - c_x/mu + lam/(lam+mu) theta_x'/theta_x, under
# the kbar equation's mu f' = -theta_x int W theta_y/(lam+mu), that is
# c_y sigma_x' + lam (theta_x'' theta_x - theta_x'^2)/theta_x^2
#     = -theta_x int W theta_y / mu.
# Integrals use 48-point Gauss-Legendre, independent of the module.

_GL_T, _GL_W = np.polynomial.legendre.leggauss(48)
_GL_T, _GL_W = (_GL_T + 1.0) / 2.0, _GL_W / 2.0


def _ev(f, t):
    vs = f.vars()
    return f.eval1(vs[0] if vs else Y, t)


def _int01(*funcs):
    out = _GL_W.copy()
    for f in funcs:
        out = out * _ev(f, _GL_T)
    return float(out.sum())


def oracle_check_cy(p):
    """c_y, or None when no constant c_y exists."""
    if p.sigma_x.is_zero() or p.sigma_y.is_zero() or p.sigma_e.is_zero():
        return 0.0
    ys = np.linspace(0.0, 1.0, 101)
    I = _int01(p.sigma_y, p.theta_y)
    scale = max(1.0, np.abs(_ev(p.sigma_y, ys)).max(),
                np.abs(_ev(p.theta_y, ys)).max())
    if abs(I) <= 1e-12 * scale:
        return 0.0
    a, b = _ev(p.sigma_e, ys), _ev(p.theta_y, ys)
    c = float(a @ b) / float(b @ b)
    dev = np.abs(a - c * b).max()
    return c * I if dev <= 1e-10 * max(1.0, np.abs(a).max()) else None


def oracle_compute_cx(p, c_y):
    lam, mu = p.lam_const, p.mu
    tx0 = float(_ev(p.theta_x, 0.0))
    logd0 = float(_ev(p.theta_x.diff(X), 0.0)) / tx0
    Jq = _int01(p.q, p.theta_y)
    return mu / (lam + mu) * (c_y * float(_ev(p.sigma_x, 0.0)) + lam * logd0
                              + (lam / mu) * tx0 * Jq)


def oracle_build_f(p, W, c_x, c_y):
    """f, or None when the derivative compatibility condition on the
    coupling ``W`` fails."""
    lam, mu = p.lam_const, p.mu
    dth = p.theta_x.diff(X)
    xs = np.linspace(0.0, 1.0, 201)
    tx, dtx, ddtx = _ev(p.theta_x, xs), _ev(dth, xs), _ev(dth.diff(X), xs)
    lhs = c_y * _ev(p.sigma_x.diff(X), xs) + lam * (ddtx * tx - dtx ** 2) / tx ** 2
    Wg = np.broadcast_to(W({X: xs[:, None], Y: _GL_T}), (len(xs), len(_GL_T)))
    JW = Wg @ (_GL_W * _ev(p.theta_y, _GL_T))
    rhs = -tx * JW / mu
    scale = max(1.0, np.abs(lhs).max(), np.abs(rhs).max())
    if np.abs(lhs - rhs).max() > 1e-8 * scale:
        return None
    return lambda xi: (c_y * _ev(p.sigma_x, xi) / (lam + mu) - c_x / mu
                       + lam / (lam + mu) * _ev(dth, xi) / _ev(p.theta_x, xi))


def _inner(u, v):
    """int_0^1 u v for ascending coefficient lists."""
    return sum(a * b / (i + j + 1) for i, a in enumerate(u) for j, b in enumerate(v))


def _plus(u, v, s):
    """Coefficients of u + s v."""
    n = max(len(u), len(v))
    u, v = list(u) + [0.0] * (n - len(u)), list(v) + [0.0] * (n - len(v))
    return [a + s * b for a, b in zip(u, v)]


quarter = st.integers(-8, 8).map(lambda i: i / 4)       # -2 .. 2


@st.composite
def constant_lambda_configs(draw):
    """Random separable configs with constant speeds. Coefficients are
    quarter-integers, so no condition sits at the edge of a tolerance. Half
    the draws satisfy the derivative condition by construction: constant
    sigma_x, exponential theta_x and W_y orthogonal to theta_y."""
    easy = draw(st.booleans())
    th_y = [draw(st.integers(2, 8)) / 4, draw(quarter) / 2, draw(quarter) / 2]

    def profile(var, orthogonal):
        # a y-profile orthogonal to theta_y, plus a multiple of theta_y or not
        g = [draw(quarter) for _ in range(3)]
        g = _plus(g, th_y, -_inner(g, th_y) / _inner(th_y, th_y))
        s = 0.0 if orthogonal else draw(st.sampled_from([-1.5, -0.5, 0.5, 1.25]))
        return Polynomial(var, _plus(g, th_y, s))

    if easy or draw(st.booleans()):
        theta_x = Exp(X, draw(quarter))
    else:   # nonvanishing on [0,1]: |c1 x + c2 x^2| <= 0.5 < c0
        theta_x = Polynomial(X, [draw(st.integers(4, 8)) / 4,
                                 draw(st.sampled_from([-0.25, 0.0, 0.25])),
                                 draw(st.sampled_from([-0.25, 0.0, 0.25]))])
    theta = product(draw(st.sampled_from([-3.0, -1.0, 0.5, 2.0])), theta_x,
                    Polynomial(Y, th_y))
    sigma_x = Polynomial(X, [0.75]) if easy else draw(st.sampled_from(
        [Polynomial(X, [0.75]), Polynomial(X, [0.5, -1.0]), Exp(X, -0.5)]))
    c = draw(st.sampled_from([-2.0, 0.5, 1.5]))
    sigma_e = Polynomial(Y, _plus([c * t for t in th_y], [0, 0, 0, 1.0],
                                  draw(st.sampled_from([0.0, 0.75]))))
    sigma = product(draw(st.sampled_from([1.0, -0.5, 0.0])), sigma_x,
                    profile(ETA, draw(st.booleans())), sigma_e)
    W_x = draw(st.sampled_from([Polynomial(X, [0.5, 1.0]), Exp(X, 0.75)]))
    W = product(1.0, W_x, profile(Y, easy or draw(st.booleans())))
    q = draw(st.sampled_from([SeparableSum.poly(Y, [0.5, -1.0]),
                              product(0.5, Exp(Y, 1.25)), SeparableSum.zero()]))
    lam, mu = (draw(st.integers(1, 20)) / 4 for _ in range(2))
    return make_continuum(lam=lam, mu=mu, sigma=sigma, theta=theta, W=W, q=q)


class TestAgainstConstantLambdaOracle:
    @settings(max_examples=50, deadline=None)
    @given(constant_lambda_configs())
    def test_same_verdict_and_kernels(self, p):
        sep = SeparableProblem.from_continuum(p)
        kern = solve_closed_form(p)
        c_y = oracle_check_cy(sep)
        c_x = f = None
        if c_y is not None:
            c_x = oracle_compute_cx(sep, c_y)
            f = oracle_build_f(sep, p.W, c_x, c_y)
        assert isinstance(kern, NotApplicable) == (f is None)
        if f is None:
            return
        for new, old in ((kern.c_x, c_x), (kern.c_y, c_y)):
            assert abs(new - old) <= 1e-12 * max(1.0, abs(old))
        xs = np.linspace(0.0, 1.0, 31)
        old = f(xs)
        np.testing.assert_allclose(kern.f(xs), old, rtol=1e-12,
                                   atol=1e-12 * max(1.0, np.abs(old).max()))
        # the accepted kernel solves the kernel equations to roundoff of its size
        res = continuum_residual(kern, p, grid_m=15)
        x, xi, y = np.ix_(*[np.linspace(0.0, 1.0, 15)] * 3)
        size = max(np.abs(kern.k(x, xi, y)).max(), np.abs(kern.kbar(x[..., 0], xi[..., 0])).max())
        assert max(res.values()) <= 1e-12 * max(1.0, size), res


# -- problems inside the closed-form class by construction ------------------
#
# Every problem below has a closed form: sigma_e = c theta_y, and either
# lam = a + b y with constant theta_x, or constant lam with theta_x = e^{alpha x};
# either way c_x and f do not depend on y, and f' = kappa sigma_x'. W_x is
# then solved from the kbar condition mu f' = -W_x theta_x J_W, where
# J_W = int W_y theta_y/(lam+mu) > 0 as W_y and theta_y are positive.

nonzero = st.sampled_from([-1.0, -0.5, 0.5, 0.75, 1.0])


def _weighted(lam, mu, *profiles):
    """int_0^1 of a product of y-factors over lam(y) + mu by the 48-point
    Gauss-Legendre rule; ``lam`` holds ascending coefficients."""
    out = _GL_W / (np.polynomial.polynomial.polyval(_GL_T, lam) + mu)
    for f in profiles:
        out = out * f(_GL_T)
    return float(out.sum())


@st.composite
def closed_form_class(draw):
    """Closed-form problems with mu in [0.5, 2] and J_W != 0: lam = a + b y
    with theta_x constant, or constant lam with theta_x = e^{alpha x} and
    W_x proportional to e^{-alpha x}.

    In the second branch q = 0 and sigma_x(0) = 0, so the family sources
    vanish along the characteristics and the march's first-order error is
    its linear interpolation alone, which no other term can cancel; lam/mu
    is 1/4 or 1/2, as an integer slope would put every foot on a node and
    leave a second-order march."""
    mu = draw(st.integers(2, 8)) / 4
    varying = draw(st.booleans())
    theta_y = Polynomial(Y, [1.0, draw(st.integers(-2, 2)) / 4])
    sigma_y = Polynomial(Y, [1.0, draw(st.integers(-2, 2)) / 4])
    W_y = Polynomial(Y, [draw(st.integers(1, 4)) / 4, draw(st.integers(0, 2)) / 4])
    c, s_theta, s_sigma = draw(nonzero), draw(nonzero), draw(nonzero)
    if varying:
        lam = [draw(st.integers(2, 8)) / 4, draw(st.sampled_from([-0.25, 0.25, 0.5]))]
        alpha, sx = 0.0, [draw(quarter), draw(nonzero), draw(st.sampled_from([0, -0.5, 0.5]))]
        q = draw(st.sampled_from([SeparableSum.poly(Y, [0.5, -1.0]), product(0.5, Exp(Y, 1.25)),
                                  SeparableSum.poly(Y, [-0.75, 0.0, 1.0])]))
    else:
        lam = [mu * draw(st.sampled_from([0.25, 0.5]))]
        alpha, sx = draw(st.sampled_from([-2.0, -1.0, 1.0, 2.0])), [0.0, draw(nonzero)]
        q = SeparableSum.zero()
    kappa = c * _weighted(lam, mu, sigma_y, theta_y)
    J_W = _weighted(lam, mu, W_y, theta_y)
    dsx = [k * a for k, a in enumerate(sx)][1:]                # sigma_x' / s_sigma
    W_x = [Polynomial(X, dsx)] + ([Exp(X, -alpha)] if alpha else [])
    return make_continuum(
        lam=SeparableSum.poly(Y, lam) if varying else lam[0], mu=mu,
        sigma=product(s_sigma, Polynomial(X, sx), replace(sigma_y, var=ETA),
                      Polynomial(Y, [c * t for t in theta_y.coeffs])),
        theta=product(s_theta, Exp(X, alpha) if alpha else Polynomial(X, [1.0]), theta_y),
        W=product(-mu * kappa * s_sigma / (s_theta * J_W), *W_x, W_y), q=q)


def _size(kern):
    """The kernel's sup on the prism xi <= x of the 21^3 grid."""
    x, xi, y = np.ix_(*[np.linspace(0.0, 1.0, 21)] * 3)
    tri = np.tri(21, dtype=bool)
    return max(np.abs(kern.k(x, xi, y))[tri].max(),
               np.abs(kern.kbar(x[..., 0], xi[..., 0]))[tri].max())


class TestClosedFormClass:
    @settings(max_examples=50, deadline=None)
    @given(closed_form_class())
    def test_accepted_and_perturbation_rejected(self, p):
        kern = solve_closed_form(p)
        assert not isinstance(kern, NotApplicable), kern.reason
        assert max(kern.residual.values()) <= 1e-12 * max(1.0, _size(kern)), kern.residual
        # W_x off by 0.1 %: the kbar equation alone fails
        out = solve_closed_form(replace(p, W=p.W.scale(1.001)))
        assert isinstance(out, NotApplicable)
        assert "pde_kbar" in out.reason and out.details["pde_kbar"] > 1e-8
        assert all(out.details[e] <= 1e-12 * max(1.0, _size(kern))
                   for e in ("pde_k", "bc_diag", "bc_left"))

    @settings(max_examples=20, deadline=None)
    @given(closed_form_class())
    def test_series_and_march_converge(self, p):
        kern = solve_closed_form(p)
        grid = np.linspace(0.0, 1.0, 41)
        exact = gains(kern, grid, grid)
        errs = [diff_solutions(gains(solve_ls(assemble(p, SolverConfig(N=N))), grid, grid),
                               exact) for N in (8, 12, 16)]
        assert all(a < 1e-12 or b <= a / 3 for a, b in zip(errs, errs[1:])), errs
        # the march on the 8-node Gauss family converges at first order
        nodes, weights = np.polynomial.legendre.leggauss(8)
        family = LargeScaleParams(p, (nodes + 1) / 2, weights / 2)
        errs = []
        for m in (32, 64):
            t = gains(solve_characteristics(family, TriGrid(m)))
            errs.append(diff_solutions(t, gains(kern, t.grid_xi, t.grid_y)))
        assert 1.5 <= errs[0] / errs[1] <= 2.5, errs


def assert_partials_match_differences(kern):
    """k(..., d) and kbar(..., d) for d = x, xi against central differences
    of k and kbar at interior points, with a relative step of 1e-6."""
    Xg, XIg, Yg = np.meshgrid([0.35, 0.7, 0.9], [0.2, 0.5, 0.85], [0.25, 0.6],
                              indexing="ij")
    at = {X: Xg, XI: XIg}
    kernels = {"k": lambda a, d=None: kern.k(a[X], a[XI], Yg, d),
               "kbar": lambda a, d=None: kern.kbar(a[X], a[XI], d)}
    for d in (X, XI):
        up, down = at | {d: at[d] * (1 + 1e-6)}, at | {d: at[d] * (1 - 1e-6)}
        for name, f in kernels.items():
            diffs = (f(up) - f(down)) / (up[d] - down[d])
            exact = f(at, d)
            scale = max(np.abs(f(at)).max(), np.abs(exact).max())
            np.testing.assert_allclose(exact, diffs, rtol=1e-6, atol=1e-6 * scale,
                                       err_msg=f"d{name}/d{d.value}")


class TestPartials:
    def test_example1(self, example1):
        assert_partials_match_differences(solve_closed_form(example1.continuum))

    @settings(max_examples=20, deadline=None)
    @given(closed_form_class())
    def test_closed_form_class(self, p):
        assert_partials_match_differences(solve_closed_form(p))
