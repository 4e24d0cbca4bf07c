import copy
import dataclasses
import json

import numpy as np
import pytest

from continuum_kernels.closed_form import solve_closed_form
from continuum_kernels.gains import sample_gains
from continuum_kernels.params import (ConfigError, fit_q, lift_separable,
                                      load_problem, parse_problem_dict,
                                      sample_continuum, sample_points)
from continuum_kernels.series import (Polynomial, SeparableSum,
                                      SeparableTerm, Var)

X, Y, ETA = Var.X, Var.Y, Var.ETA
AUDIT = np.linspace(0.0, 1.0, 101)  # the (x, y) points assemble audits


def sigma_entry(g, i, j):
    """sigma_ij on the grid, from the factor form of the grid record."""
    return np.einsum("tx,t,t->x", g.sigma_x, g.sigma_eta[:, i],
                     g.sigma_y[:, j])


class TestSampleContinuum:
    def test_example2_sigma_vanishes_at_last_component(self, example2):
        ls = sample_continuum(example2.continuum, 10)
        xs = np.linspace(0, 1, 11)
        g = ls.on_grid(xs)
        np.testing.assert_allclose(sigma_entry(g, 9, 9), 0.0, atol=1e-15)
        # and a generic entry matches the product form
        vals = sigma_entry(g, 2, 4)
        expected = xs ** 3 * (xs + 1) * (0.3 - 1) * (0.5 - 1)
        np.testing.assert_allclose(vals, expected, rtol=1e-14)

    def test_theta_mid_component(self, example2):
        # theta(x, 1/2) = -70 x (1/2)(-1/2) = 17.5 x
        ls = sample_continuum(example2.continuum, 10)
        xs = np.linspace(0, 1, 11)
        np.testing.assert_allclose(ls.on_grid(xs).theta[4], 17.5 * xs,
                                   rtol=1e-14)

    def test_constant_family(self):
        cfg = {"lambda": 1.0, "mu": 1.0, "sigma": 0.0, "theta": 0.0,
               "w": 0.0, "q": 0.0}
        prob = parse_problem_dict(cfg)
        ls = sample_continuum(prob.continuum, 5)
        xs = np.linspace(0, 1, 5)
        for lam in ls.on_grid(xs).lam:
            np.testing.assert_allclose(lam, 1.0)

    def test_left_offset_sampling(self, example2):
        ls = sample_continuum(example2.continuum, 10, offset=-1.0)
        np.testing.assert_allclose(ls.y_points(), np.arange(0, 10) / 10)
        xs = np.linspace(0, 1, 5)
        np.testing.assert_allclose(ls.on_grid(xs).theta[0], 0.0, atol=1e-15)

    def test_q_data_used_verbatim(self, example2):
        ls = example2.large_scale()
        np.testing.assert_array_equal(
            ls.on_grid(np.linspace(0, 1, 5)).q,
            np.asarray(example2.q_data, dtype=float))

    @pytest.mark.parametrize("name, n, offset", [
        ("example1", 7, 0.0), ("example2", 10, 0.0), ("example2", 10, -1.0)])
    def test_sampled_grid_is_the_template_at_the_points(self, name, n, offset):
        prob = load_problem(name)
        ls = prob.large_scale(n, offset)
        xs = np.linspace(0, 1, 9)
        g, t = ls.on_grid(xs), ls.template.on_grid(xs, ls.y_points())
        for f in dataclasses.fields(g):
            if f.name != "q":
                assert np.array_equal(getattr(g, f.name), getattr(t, f.name)), f.name
        assert np.array_equal(g.q, ls.q)

    def test_left_offset_data_sampled_at_its_points(self, example2):
        # data at "(i-1)/n": the sampled system keeps that offset and the
        # raw data, not the fit
        cfg = copy.deepcopy(example2.source)
        cfg["q"]["points"] = "(i-1)/n"
        prob = parse_problem_dict(cfg)
        ls = prob.large_scale()
        assert ls.y_points()[0] == 0.0
        np.testing.assert_array_equal(
            ls.on_grid(np.linspace(0, 1, 5)).q,
            np.asarray(prob.q_data, dtype=float))


class TestLiftSeparable:
    def test_example2_roundtrip(self, example2):
        ls = sample_continuum(example2.continuum, 10)
        cont = lift_separable(ls)
        xs = np.linspace(0, 1, 13)
        ys = np.linspace(0, 1, 7)
        Xg, Yg = np.meshgrid(xs, ys, indexing="ij")
        np.testing.assert_array_equal(
            cont.theta({X: Xg, Y: Yg}),
            example2.continuum.theta({X: Xg, Y: Yg}))
        np.testing.assert_array_equal(
            cont.W({X: Xg, Y: Yg}), example2.continuum.W({X: Xg, Y: Yg}))

    def test_w_family_lifts_to_linear_profile(self):
        w = SeparableSum([SeparableTerm(2.0, [Polynomial(X, [0, 1, 1]),
                                              Polynomial(Y, [0, 1])])])
        cfg = {"lambda": 1.0, "mu": 1.0, "sigma": 0.0, "theta": 0.0,
               "w": 0.0, "q": 0.0}
        prob = parse_problem_dict(cfg)
        from dataclasses import replace
        cont = replace(prob.continuum, W=w)
        ls = sample_continuum(cont, 10)
        xs = np.linspace(0, 1, 9)
        g = ls.on_grid(xs)
        for i in (0, 4, 9):
            np.testing.assert_allclose(
                g.W[i], 2 * xs * (xs + 1) * (i + 1) / 10, rtol=1e-14)
        lifted = lift_separable(ls)
        Xg, Yg = np.meshgrid(xs, xs, indexing="ij")
        np.testing.assert_allclose(lifted.W({X: Xg, Y: Yg}),
                                   2 * Xg * (Xg + 1) * Yg, rtol=1e-14)

    def test_rejects_untemplated_input(self, example2):
        ls = sample_continuum(example2.continuum, 4)
        ls.template = None
        with pytest.raises(ValueError, match="fit_q"):
            lift_separable(ls)


@pytest.mark.parametrize("offset", [0.0, -1.0])
def test_one_sample_point_rule(example1, offset):
    # sampled parameters, sampled gains and the q fit share y_i = (i + offset)/n
    kern = solve_closed_form(example1.continuum)
    rng = np.random.default_rng(5)
    for n in range(1, 41):
        ys = sample_points(n, offset)
        np.testing.assert_array_equal(ys, (np.arange(1, n + 1) + offset) / n)
        np.testing.assert_array_equal(
            sample_continuum(example1.continuum, n, offset).y_points(), ys)
        np.testing.assert_array_equal(
            sample_gains(kern, n, grid_xi=np.linspace(0, 1, 3), offset=offset).grid_y, ys)
        data = rng.normal(size=n)
        deg = min(2, n - 1)
        np.testing.assert_array_equal(fit_q(data, deg, offset=offset).coeffs,
                                      fit_q(data, deg, points=ys).coeffs)


class TestFitQ:
    def test_exact_quadratic_recovery(self):
        ys = np.arange(1, 11) / 10
        data = ys * (ys - 1)
        fit = fit_q(data, 2, points=ys)
        np.testing.assert_allclose(fit.coeffs, [0.0, -1.0, 1.0], atol=1e-12)
        assert fit.rms_error < 1e-12

    def test_reference_data_against_normal_equations(self, example2):
        # independent oracle: solve the normal equations directly
        data = np.asarray(example2.q_data)
        ys = np.arange(1, 11) / 10
        V = np.vander(ys, 3, increasing=True)
        oracle = np.linalg.solve(V.T @ V, V.T @ data)
        fit = fit_q(data, 2, points=ys)
        np.testing.assert_allclose(fit.coeffs, oracle, atol=1e-10)
        # fitted curve stays within the data band
        curve = fit(ys)
        assert np.abs(curve - data).max() < 0.1

    def test_interpolation_at_full_degree(self):
        rng = np.random.default_rng(7)
        ys = np.linspace(0.05, 1, 8)
        data = rng.normal(size=8)
        fit = fit_q(data, 7, points=ys)
        assert fit.rms_error < 1e-10

    def test_rms_nonincreasing_in_degree(self, example2):
        data = np.asarray(example2.q_data)
        errs = [fit_q(data, M).rms_error for M in range(2, 7)]
        assert all(a >= b - 1e-14 for a, b in zip(errs, errs[1:]))

    def test_duplicate_abscissae_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            fit_q(np.ones(4), 2, points=np.array([0.1, 0.2, 0.2, 0.4]))

    def test_degree_bound(self):
        with pytest.raises(ValueError, match="degree"):
            fit_q(np.ones(3), 3)

    @pytest.mark.parametrize("data, degree, match", [
        ([1.0, np.nan, 3.0, 4.0], 2, "finite"),
        ([1.0, 2.0, np.inf, 4.0], 2, "finite"),
        ([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], 1, "flat"),
        ([1.0, 2.0, 3.0, 4.0], -1, "at least 0"),
    ])
    def test_non_finite_data_and_negative_degree_rejected(self, data, degree, match):
        # these used to return a fit with NaN coefficients, fit each column
        # of a nested array, or return an empty fit
        with pytest.raises(ValueError, match=match):
            fit_q(np.asarray(data), degree)


class TestPositivity:
    def test_unit_speeds_pass(self, example1):
        lam_min, mu_min = example1.continuum.check_speeds(AUDIT)
        assert lam_min == pytest.approx(1.0)
        assert mu_min == pytest.approx(1.0)

    def test_sign_change_fails(self):
        cfg = {"lambda": 1.0,
               "mu": {"terms": [{"scale": 1.0, "factors": [
                   {"var": "x", "kind": "poly", "coeffs": [-0.5, 1.0]}]}]},
               "sigma": 0.0, "theta": 0.0, "w": 0.0, "q": 0.0}
        with pytest.raises(ValueError, match=r"min mu=-0\.5\b"):
            parse_problem_dict(cfg).continuum.check_speeds(AUDIT)

    def test_bilinear_passes(self):
        cfg = {"lambda": {"terms": [
                   {"scale": 1.0, "factors": []},
                   {"scale": 1.0, "factors": [
                       {"var": "x", "kind": "poly", "coeffs": [0, 1]},
                       {"var": "y", "kind": "poly", "coeffs": [0, 1]}]}]},
               "mu": 1.0, "sigma": 0.0, "theta": 0.0, "w": 0.0, "q": 0.0}
        lam_min, _ = parse_problem_dict(cfg).continuum.check_speeds(AUDIT)
        assert lam_min == pytest.approx(1.0)


class TestConfigLoading:
    def test_builtin_names_load(self):
        for name in ("example1", "example2", "zero"):
            prob = load_problem(name)
            assert prob.name == name

    def test_missing_field(self):
        with pytest.raises(ConfigError, match="missing required field 'sigma'"):
            parse_problem_dict({"lambda": 1, "mu": 1, "theta": 0, "w": 0,
                                "q": 0})

    def test_unknown_factor_kind(self):
        bad = {"lambda": 1, "mu": 1, "theta": 0, "w": 0, "q": 0,
               "sigma": {"terms": [{"factors": [
                   {"var": "x", "kind": "wavelet"}]}]}}
        with pytest.raises(ConfigError, match="unknown factor kind"):
            parse_problem_dict(bad)

    def test_variable_not_allowed_in_slot(self):
        bad = {"lambda": 1, "mu": {"terms": [{"factors": [
            {"var": "y", "kind": "poly", "coeffs": [1]}]}]},
            "theta": 0, "w": 0, "q": 0, "sigma": 0}
        with pytest.raises(ConfigError, match="not allowed"):
            parse_problem_dict(bad)

    @pytest.mark.parametrize("field,value", [
        ("theta", {"terms": [{"scale": float("nan"), "factors": [
            {"var": "x", "kind": "poly", "coeffs": [1.0]}]}]}),
        ("sigma", {"terms": [{"factors": [
            {"var": "x", "kind": "exp", "rate": float("inf")}]}]}),
        ("mu", float("-inf")),
        ("q", {"data": [0.0, float("nan"), 0.1], "fit_degree": 1}),
    ])
    def test_non_finite_values_rejected(self, field, value):
        # NaN would otherwise be pruned from the series as a zero and solve
        # to the zero kernel with residual 0
        cfg = {"lambda": 1, "mu": 1, "sigma": 0, "theta": 0, "w": 0, "q": 0,
               field: value}
        with pytest.raises(ConfigError, match="non-finite"):
            parse_problem_dict(cfg)

    @pytest.mark.parametrize("field, value, match", [
        ("n", 2.7, r"\.n: expected an integer"),
        ("n", True, r"\.n: expected an integer"),
        ("n", None, r"\.n: expected an integer"),
        ("q", {"data": [0.1, 0.2, 0.4, 0.8], "fit_degree": 2.9}, "fit_degree"),
        ("q", {"data": [0.1, 0.2, 0.4, 0.8], "fit_degree": False}, "fit_degree"),
        ("q", {"data": [0.1, 0.2, 0.4, 0.8], "points": "(i-1)/N"}, "points"),
        ("q", {"data": [0.1, 0.2, 0.4, 0.8], "points": "i"}, "points"),
    ])
    def test_misread_values_rejected(self, field, value, match):
        # int() floored 2.7 to 2 and read true as 1, and any points string
        # but "(i-1)/n" was read as i/n
        cfg = {"lambda": 1, "mu": 1, "sigma": 0, "theta": 0, "w": 0, "q": 0,
               field: value}
        with pytest.raises(ConfigError, match=match):
            parse_problem_dict(cfg)

    def test_json_syntax_diagnostics(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"lambda": 1,\n  "mu": }\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_problem(str(path))

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="built-ins"):
            load_problem("no-such-problem")

    def test_file_roundtrip(self, tmp_path, example2):
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(example2.source))
        prob = load_problem(str(path))
        assert prob.n == 10
        np.testing.assert_allclose(prob.fit.coeffs, example2.fit.coeffs)

    def test_with_fit_degree(self, example2):
        p4 = example2.with_fit_degree(4)
        assert p4.fit.degree == 4
        assert p4.fit.rms_error <= example2.fit.rms_error + 1e-15
