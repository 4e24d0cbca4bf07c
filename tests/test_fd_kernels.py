import tracemalloc
from unittest import mock

import numpy as np
import pytest

from conftest import asymmetric_sigma_problem, n_plus_one

from continuum_kernels import fd_kernels
from continuum_kernels.closed_form import solve_closed_form
from continuum_kernels.gains import diff_solutions, gains
from continuum_kernels.fd_kernels import (ConvergenceError, TriGrid,
                                          refine_study,
                                          solve_characteristics)
from continuum_kernels.params import (LargeScaleParams, load_problem,
                                      parse_problem_dict)
from continuum_kernels.series import Var


def decoupled_problem(theta_scale=0.0):
    cfg = {"lambda": 1.0, "mu": 1.0, "sigma": 0.0, "w": 0.0, "q": 0.0,
           "theta": {"terms": [{"scale": theta_scale, "factors": [
               {"var": "x", "kind": "poly", "coeffs": [0.2, 1.0]},
               {"var": "y", "kind": "poly", "coeffs": [0.5, 0.5]}]}]}}
    return parse_problem_dict(cfg)


def varying_speed_problem():
    # example2's coupling with lambda = (1+x)(1+y) and mu = 2-x: family
    # characteristics cross the diagonal several nodes back, and counter
    # characteristics next to xi = 0 cross that edge (the built-in configs
    # have unit speeds, where neither happens)
    cfg = dict(load_problem("example2").source)
    cfg["lambda"] = {"terms": [{"scale": 1.0, "factors": [
        {"var": "x", "kind": "poly", "coeffs": [1.0, 1.0]},
        {"var": "y", "kind": "poly", "coeffs": [1.0, 1.0]}]}]}
    cfg["mu"] = {"terms": [{"scale": 1.0, "factors": [
        {"var": "x", "kind": "poly", "coeffs": [2.0, -1.0]}]}]}
    return parse_problem_dict(cfg)


def _interp_rows(values, t, h, length):
    """Row-wise linear interpolation of values[r, 0:length] on the uniform
    grid {0, h, ..., (length-1)h} at query points t[r, q]."""
    if length == 1:
        return np.broadcast_to(values[:, :1], t.shape).copy()
    s = np.clip(t / h, 0.0, length - 1.0)
    idx = np.minimum(s.astype(int), length - 2)
    w = s - idx
    rows = np.arange(values.shape[0])[:, None]
    lo = values[rows, idx]
    hi = values[rows, idx + 1]
    return lo * (1.0 - w) + hi * w


def per_level_sweeps(ls, grid, tol=1e-10, max_iter=200):
    """Oracle for solve_characteristics: successive approximation with every
    source frozen at the previous iterate, each sweep recomputing the
    characteristics level by level. Returns the last iterate and the sup
    change of each sweep."""
    n, m, h = ls.n, grid.m, grid.h
    xs = grid.nodes()
    g = ls.on_grid(xs)
    lam, dlam, mu, dmu, TH, WW, q = g.lam, g.dlam, g.mu, g.dmu, g.theta, g.W, g.q
    lam0 = lam[:, 0]
    diag_bc = -TH / (lam + mu[None, :])
    # sig[j, i, b] = sigma(x_b, eta=y_j, y=y_i), so row i of the coupling
    # is sum_j sig[j, i] K_j / n
    ys = ls.points
    sig = np.broadcast_to(ls.template.sigma(
        {Var.X: xs, Var.ETA: ys[:, None, None], Var.Y: ys[None, :, None]}),
        (n, n, m + 1))
    mu_of = lambda t: np.interp(t, xs, mu)

    K = np.zeros((n + 1, m + 1, m + 1))
    deltas = []
    while len(deltas) < max_iter:
        S = np.einsum("jib,jab->iab", sig, K[:n]) / n
        S += dlam[:, None, :] * K[:n] + TH[:, None, :] * K[n][None]
        Sb = -dmu[None, :] * K[n] + np.einsum("jb,jab->ab", WW, K[:n]) / n

        Kn = np.zeros_like(K)
        Kn[:n, 0, 0] = diag_bc[:, 0]
        bc_left = (q[:, None] * lam0[:, None] * K[:n, :, 0]).sum(axis=0) / (n * mu[0])
        Kn[n, :, 0] = bc_left
        Sdiag = np.array([np.diagonal(S[i]) for i in range(n)])

        for a in range(1, m + 1):
            xa = xs[a]
            bs = np.arange(a)
            xi = xs[bs]
            slope0 = lam[:, bs] / mu[a]
            feet0 = xi[None, :] + slope0 * h
            slope = 0.5 * (slope0 + _interp_rows(lam, feet0, h, m + 1) / mu[a - 1])
            feet = xi[None, :] + slope * h
            inside = feet <= xs[a - 1] + 1e-14
            kfoot = _interp_rows(Kn[:n, a - 1, :], np.where(inside, feet, 0.0),
                                 h, a)
            sfoot = _interp_rows(S[:n, a - 1, :], np.where(inside, feet, 0.0),
                                 h, a)
            vals = kfoot + (h / mu[a - 1]) * sfoot
            if not inside.all():
                xd = (xi[None, :] + slope * xa) / (1.0 + slope)
                kd = _interp_rows(diag_bc, np.broadcast_to(xd, (n, a)), h, m + 1)
                sd = _interp_rows(Sdiag, np.broadcast_to(xd, (n, a)), h, m + 1)
                cross = kd + (xa - xd) / mu_of(xd) * sd
                vals = np.where(inside, vals, cross)
            Kn[:n, a, :a] = vals
            Kn[:n, a, a] = diag_bc[:, a]

            bs2 = np.arange(1, a + 1)
            xi2 = xs[bs2]
            sl0 = np.interp(xi2, xs, mu) / mu[a]
            feet2 = xi2 - sl0 * h
            sl = 0.5 * (sl0 + mu_of(np.clip(feet2, 0.0, 1.0)) / mu[a - 1])
            feet2 = xi2 - sl * h
            inside2 = feet2 >= -1e-14
            f2 = np.clip(feet2, 0.0, xs[a - 1])[None, :]
            kfoot2 = _interp_rows(Kn[n:n + 1, a - 1, :], f2, h, a)[0]
            sfoot2 = _interp_rows(Sb[None, a - 1, :], f2, h, a)[0]
            vals2 = kfoot2 + (h / mu[a - 1]) * sfoot2
            if not inside2.all():
                x0 = xa - xi2 / np.maximum(sl, 1e-300)
                k0 = np.interp(x0, xs, bc_left)
                s0 = np.interp(x0, xs, Sb[:, 0])
                vals2 = np.where(inside2, vals2,
                                 k0 + (xa - x0) / mu_of(x0) * s0)
            Kn[n, a, 1:a + 1] = vals2

        deltas.append(float(np.abs(Kn - K).max()))
        K = Kn
        if deltas[-1] < tol:
            break
    return K, deltas


class TestSolveCharacteristics:
    def test_homogeneous_single_sweep(self, zero_problem):
        ls = n_plus_one(zero_problem.continuum, 3)
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
        ls = n_plus_one(prob.continuum, n)
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
        sol = solve_characteristics(ls, TriGrid(32))
        xs = sol.grid.nodes()
        g = ls.on_grid(np.array([0.0]))
        mu0 = float(g.mu[0])
        lam0 = g.lam[:, 0]
        rhs = (g.q[:, None] * lam0[:, None] * sol.k[:ls.n, :, 0]).sum(0) / ls.n
        np.testing.assert_allclose(mu0 * sol.k[ls.n, :, 0], rhs, atol=1e-8)

    def test_nonconvergence_raises(self, example2):
        # one sweep cannot certify itself: its change is measured from zero
        ls = example2.large_scale()
        with pytest.raises(ConvergenceError) as exc:
            solve_characteristics(ls, TriGrid(16), max_iter=1)
        assert exc.value.final_delta > 0.0

    def test_march_memory_is_about_k(self, example2):
        # the stencils are kept per distinct row of lam, not per node: with
        # example2's one distinct row, all else the march holds is small
        # beside K itself
        ls = example2.large_scale(80)
        tracemalloc.start()
        try:
            sol = solve_characteristics(ls, TriGrid(64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * sol.k.nbytes

    def test_negative_speed_rejected(self):
        cfg = {"lambda": -1.0, "mu": 1.0, "sigma": 0.0, "theta": 0.0,
               "w": 0.0, "q": 0.0}
        ls = n_plus_one(parse_problem_dict(cfg).continuum, 2)
        with pytest.raises(ValueError, match="positive"):
            solve_characteristics(ls, TriGrid(8))

    def test_against_sampled_closed_form(self, example1):
        # continuum-limit reference: error has a finite-n floor plus an O(h)
        # part that shrinks under refinement
        kern = solve_closed_form(example1.continuum)
        ls = n_plus_one(example1.continuum, 10)
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

    def test_gauss_family_converges_to_closed_form(self, example1):
        # on the 8-node Gauss-Legendre family the march solves a quadrature
        # of the continuum equations; its gains reach the closed form's at
        # first order in the mesh width (errors 3.17, 1.54, 0.76)
        kern = solve_closed_form(example1.continuum)
        nodes, weights = np.polynomial.legendre.leggauss(8)
        family = LargeScaleParams(example1.continuum, (nodes + 1) / 2, weights / 2)
        errs = []
        for m in (32, 64, 128):
            t = gains(solve_characteristics(family, TriGrid(m)))
            errs.append(diff_solutions(t, gains(kern, t.grid_xi, t.grid_y)))
        assert all(1.5 <= a / b <= 2.5 for a, b in zip(errs, errs[1:])), errs


class TestAgainstPerLevelSweeps:
    """The level-by-level march solves the discrete equations the per-level
    successive approximation converges to: its first sweep lands on that
    fixed point, and the second reproduces it bit for bit."""

    @pytest.mark.parametrize("name,n,m,offset", [
        ("example2", 10, 64, None),
        ("example1", 8, 32, None),
        ("example2", 10, 32, -1.0),
        ("varying-speeds", 6, 32, None),
        ("asymmetric-sigma", 6, 32, None),
    ])
    def test_bit_identical(self, name, n, m, offset):
        made = {"varying-speeds": varying_speed_problem,
                "asymmetric-sigma": asymmetric_sigma_problem}
        problem = made[name]() if name in made else load_problem(name)
        ls = (problem.large_scale(n) if offset is None
              else n_plus_one(problem.continuum, n, offset))
        self.check_against_oracle(ls, m)

    def test_mixed_family(self):
        # repeated points in non-contiguous rows: the march traces lam's
        # three distinct rows once each and spreads them to rows (0, 2),
        # (3) and (1, 4)
        ls = LargeScaleParams(varying_speed_problem().continuum,
                              np.array([0.25, 0.75, 0.25, 0.5, 0.75]), np.full(5, 0.2))
        self.check_against_oracle(ls, 32)

    @staticmethod
    def check_against_oracle(ls, m):
        K, deltas = per_level_sweeps(ls, TriGrid(m), tol=1e-15, max_iter=500)
        assert deltas[-1] < 1e-15
        sol = solve_characteristics(ls, TriGrid(m))
        scale = np.abs(K).max()
        assert np.abs(sol.k - K).max() <= 1e-13 * scale
        assert sol.history == [np.abs(sol.k).max(), 0.0]

    def test_nonconvergence_bit_identical(self, example2):
        ls = example2.large_scale()
        sol = solve_characteristics(ls, TriGrid(16))
        with pytest.raises(ConvergenceError) as exc:
            solve_characteristics(ls, TriGrid(16), max_iter=1)
        assert exc.value.iterations == 1
        assert exc.value.history == sol.history[:1]


class TestSpotCheck:
    """One pass solves the march; rerunning every 16th level and the last
    from the stored level below certifies it."""

    @pytest.mark.parametrize("m,levels", [
        (16, [16]), (64, [16, 32, 48, 64]), (256, list(range(16, 257, 16)))])
    def test_checked_levels(self, example2, m, levels):
        sol = solve_characteristics(example2.large_scale(), TriGrid(m))
        assert sol.checked_levels == levels
        assert sol.history == [np.abs(sol.k).max(), 0.0]
        assert set(sol.stages_s) == {"stencils", "pass", "check"}

    def test_zero_pass_certifies_itself(self, zero_problem):
        sol = solve_characteristics(n_plus_one(zero_problem.continuum, 3), TriGrid(32))
        assert sol.history == [0.0] and sol.checked_levels == []

    @pytest.mark.parametrize("name", ["example2", "example1"])
    def test_order_bug_raises(self, name):
        # a forced order bug: the diagonal-crossing nodes of level a read the
        # diagonal sources of level a+1, which the pass computes after them.
        # The pass reads zeros there and the rerun the stored values, so the
        # first checked level moves
        ls = n_plus_one(load_problem(name).continuum, 10)
        real = fd_kernels._Stencils

        def early(lam, mu, xs, h):
            st = real(lam, mu, xs, h)
            # shift S_diag[i, j] to S_diag[i, j + 1] wherever j + 2 is a node
            st.d_lo = np.where(st.d_lo % len(xs) < len(xs) - 2, st.d_lo + 1, st.d_lo)
            return st

        with mock.patch.object(fd_kernels, "_Stencils", early):
            with pytest.raises(ConvergenceError,
                               match=r"spot check: level 16 moved by") as exc:
                solve_characteristics(ls, TriGrid(64))
        assert exc.value.level == 16 and exc.value.iterations == 2
        assert exc.value.final_delta >= fd_kernels.TOL
        assert exc.value.history[0] > exc.value.final_delta


class TestRefineStudy:
    def test_homogeneous_all_zero(self, zero_problem):
        ls = n_plus_one(zero_problem.continuum, 2)
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
        # the whole ladder is checked before the first solve
        with mock.patch.object(fd_kernels, "solve_characteristics") as solve:
            with pytest.raises(ValueError, match="must increase"):
                refine_study(example2.large_scale(), [32, 16])
            with pytest.raises(ValueError, match="multiple"):
                refine_study(example2.large_scale(), [16, 24])
            with pytest.raises(ValueError, match="two cells"):
                refine_study(example2.large_scale(), [16, 1])
            with pytest.raises(ValueError, match="at least one mesh size"):
                refine_study(example2.large_scale(), [])
        solve.assert_not_called()

    def test_reference_errors_recorded(self, example1):
        kern = solve_closed_form(example1.continuum)
        ls = n_plus_one(example1.continuum, 5)

        def ref(i, x, xi):
            if i == 5:
                return kern.kbar(x, xi)
            return kern.k(x, xi, np.full_like(np.asarray(x), (i + 1) / 5))

        rep = refine_study(ls, [16, 32], reference=ref)
        assert len(rep.reference_errors) == 2
        assert rep.reference_errors[1] <= rep.reference_errors[0]
