import numpy as np
import pytest

from continuum_kernels.closed_form import solve_closed_form
from continuum_kernels.fd_kernels import (ConvergenceError, TriGrid,
                                          refine_study,
                                          solve_characteristics)
from continuum_kernels.params import parse_problem_dict, sample_continuum


def decoupled_problem(theta_scale=0.0):
    cfg = {"lambda": 1.0, "mu": 1.0, "sigma": 0.0, "w": 0.0, "q": 0.0,
           "theta": {"terms": [{"scale": theta_scale, "factors": [
               {"var": "x", "kind": "poly", "coeffs": [0.2, 1.0]},
               {"var": "y", "kind": "poly", "coeffs": [0.5, 0.5]}]}]}}
    return parse_problem_dict(cfg)


class TestSolveCharacteristics:
    def test_homogeneous_single_sweep(self, zero_problem):
        ls = sample_continuum(zero_problem.continuum, 3)
        sol = solve_characteristics(ls, TriGrid(16))
        assert sol.iterations == 1
        assert sol.final_delta == 0.0
        assert np.all(sol.k == 0.0)

    def test_decoupled_transport_is_boundary_propagation(self):
        # sigma = W = q = 0 and constant unit speeds: each family kernel is
        # its diagonal datum carried along xi = x - const, i.e.
        # k_i(x, xi) = -theta_i((x+xi)/2) / 2, exact for linear theta_i
        prob = decoupled_problem(theta_scale=3.0)
        n = 4
        ls = sample_continuum(prob.continuum, n)
        sol = solve_characteristics(ls, TriGrid(32))
        assert sol.iterations <= 3
        xs = sol.grid.nodes()
        Xg, XIg = np.meshgrid(xs, xs, indexing="ij")
        tri = XIg <= Xg
        for i in range(n):
            y = (i + 1) / n
            mid = (Xg + XIg) / 2.0
            expected = -3.0 * (0.2 + mid) * (0.5 + 0.5 * y) / 2.0
            err = np.abs(sol.k[i] - expected)[tri].max()
            assert err < 1e-12
        np.testing.assert_allclose(sol.k[n], 0.0, atol=1e-15)

    def test_diagonal_data_imposed_exactly(self, example2):
        ls = example2.large_scale()
        sol = solve_characteristics(ls, TriGrid(32))
        xs = sol.grid.nodes()
        diag = np.arange(len(xs))
        g = ls.on_grid(xs)
        for i in range(ls.n):
            lam = g.lam[i]
            mu = g.mu
            th = g.theta[i]
            np.testing.assert_array_equal(sol.k[i, diag, diag],
                                          -th / (lam + mu))

    def test_left_boundary_holds_at_convergence(self, example2):
        ls = example2.large_scale()
        sol = solve_characteristics(ls, TriGrid(32), tol=1e-11)
        xs = sol.grid.nodes()
        g = ls.on_grid(np.array([0.0]))
        mu0 = float(g.mu[0])
        lam0 = g.lam[:, 0]
        rhs = (g.q[:, None] * lam0[:, None] * sol.k[:ls.n, :, 0]).sum(0) / ls.n
        np.testing.assert_allclose(mu0 * sol.k[ls.n, :, 0], rhs, atol=1e-8)

    def test_nonconvergence_raises(self, example2):
        ls = example2.large_scale()
        with pytest.raises(ConvergenceError) as exc:
            solve_characteristics(ls, TriGrid(16), max_iter=2)
        assert exc.value.final_delta > 0.0

    def test_negative_speed_rejected(self):
        cfg = {"lambda": -1.0, "mu": 1.0, "sigma": 0.0, "theta": 0.0,
               "w": 0.0, "q": 0.0}
        ls = sample_continuum(parse_problem_dict(cfg).continuum, 2)
        with pytest.raises(ValueError, match="positive"):
            solve_characteristics(ls, TriGrid(8))

    def test_against_sampled_closed_form(self, example1):
        # continuum-limit reference: error has a finite-n floor plus an O(h)
        # part that shrinks under refinement
        kern = solve_closed_form(example1.continuum)
        ls = sample_continuum(example1.continuum, 10)
        errs = []
        for m in (32, 64):
            sol = solve_characteristics(ls, TriGrid(m))
            xs = sol.grid.nodes()
            Xg, XIg = np.meshgrid(xs, xs, indexing="ij")
            tri = XIg <= Xg
            err = 0.0
            for i in range(10):
                ref = kern.k(Xg, XIg, np.full_like(Xg, (i + 1) / 10))
                err = max(err, np.abs(sol.k[i] - ref)[tri].max())
            errs.append(err)
        assert errs[1] < errs[0]


class TestRefineStudy:
    def test_homogeneous_all_zero(self, zero_problem):
        ls = sample_continuum(zero_problem.continuum, 2)
        rep = refine_study(ls, [8, 16, 32])
        assert rep.diffs == [0.0, 0.0]

    def test_single_mesh_empty_report(self, example2):
        rep = refine_study(example2.large_scale(), [16])
        assert rep.diffs == [] and rep.ratios == []

    def test_first_order_ratios(self, example2):
        rep = refine_study(example2.large_scale(), [16, 32, 64])
        assert len(rep.diffs) == 2
        assert all(d > 0 for d in rep.diffs)
        assert 1.4 < rep.ratios[0] < 2.6

    def test_requires_increasing_multiples(self, example2):
        with pytest.raises(ValueError):
            refine_study(example2.large_scale(), [32, 16])
        with pytest.raises(ValueError):
            refine_study(example2.large_scale(), [16, 24])

    def test_reference_errors_recorded(self, example1):
        kern = solve_closed_form(example1.continuum)
        ls = sample_continuum(example1.continuum, 5)

        def ref(i, x, xi):
            if i == 5:
                return kern.kbar(x, xi)
            return kern.k(x, xi, np.full_like(np.asarray(x), (i + 1) / 5))

        rep = refine_study(ls, [16, 32], reference=ref)
        assert len(rep.reference_errors) == 2
        assert rep.reference_errors[1] <= rep.reference_errors[0]
