"""Correctness gate applied to every operation of a pass.

Each check records a failure against the operation that produced the
answer; an operation with any failure counts once in ``failed``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse.linalg

from continuum_kernels import SolverConfig, assemble, load_problem, solve_ls
from spans import Recorder

# Acceptance tables of the package's test suite (tests/test_acceptance.py),
# checked on the shipped configs, i.e. seed 0.
E2_RESIDUAL = {20: 0.414, 25: 2.6e-2}
E1_REDUCED_MAXERR = {14: 0.510, 16: 0.110, 18: 7.27e-3, 20: 5.68e-4}

# Optimality certificate ||A^T r|| / (||A||_F max(||r||, RESIDUAL_FLOOR ||b||)).
# Without the floor the quotient is roundoff noise once the residual reaches
# roundoff (up to 2e-2 at example1, N = 30). With it, every solve of the
# workloads gives 2e-10 or less; moving one coefficient by 1e-3 of the
# largest gives 4e-5 or more.
CERTIFICATE_TOL = 1e-7
RESIDUAL_FLOOR = 1e-6
CORRUPTION = 1e-3
REFERENCE_TOL = 1e-10      # solve_characteristics' default tol


def certificate(system, x: np.ndarray) -> tuple[float, float]:
    """Least-squares optimality certificate and residual norm of ``x``."""
    r = system.A @ x - system.b
    rn = float(np.linalg.norm(r))
    scale = float(scipy.sparse.linalg.norm(system.A)) * max(
        rn, RESIDUAL_FLOOR * float(np.linalg.norm(system.b)))
    return float(np.linalg.norm(system.A.T @ r)) / scale, rn


def check_solution(rec, system, sol, residual_bound: float | None = None):
    """Coefficients finite, reported residual recomputes, and x minimizes."""
    rec.check(bool(np.all(np.isfinite(sol.x))), "non-finite coefficients")
    cert, rn = certificate(system, sol.x)
    bn = float(np.linalg.norm(system.b))
    rec.check(abs(rn - sol.residual) <= 1e-9 * max(1.0, bn),
              f"reported residual {sol.residual:.6g} != ||Ax-b|| {rn:.6g}")
    rec.check(cert <= CERTIFICATE_TOL,
              f"optimality certificate {cert:.3g} > {CERTIFICATE_TOL:g}")
    if residual_bound is not None:
        rec.check(sol.residual <= residual_bound,
                  f"residual {sol.residual:.6g} > {residual_bound:.6g}")


def check_finite(rec, value: float, what: str) -> None:
    rec.check(bool(np.isfinite(value)), f"{what} is not finite")


def check_table(rec, table, rows: int, cols: int) -> None:
    """A gain table of the expected shape with finite entries."""
    rec.check(table.k.shape == (rows, cols), f"gain table shape {table.k.shape}")
    rec.check(bool(np.all(np.isfinite(table.k)) and np.all(np.isfinite(table.kbar))),
              "gain table is not finite")


def check_reference(rec, ref) -> None:
    """The characteristics solver converged (it raises if it does not)."""
    rec.check(ref.final_delta < REFERENCE_TOL,
              f"reference solver stopped after {ref.iterations} sweeps "
              f"(last change {ref.final_delta:.3g})")


def check_simulation(rec, report) -> None:
    rec.check(not report.diverged, "closed loop diverged")
    rec.check(bool(np.all(np.isfinite(report.norm)) and np.all(np.isfinite(report.U))),
              "closed-loop trajectory is not finite")


def self_test() -> list[str]:
    """Show that the gate counts a corrupted answer as failed.

    Solves example2 at order 10, then gates the true solution, a copy with
    one coefficient moved and its residual recomputed (so only the
    optimality certificate can tell) and a copy holding a NaN. Returns the
    problems found; empty means the gate works. It also warms the solver's
    code paths before any timed pass.
    """
    system = assemble(load_problem("example2").continuum,
                      SolverConfig(N=10, sigma_sign=-1))
    sol = solve_ls(system)
    x_bad = sol.x.copy()
    x_bad[len(x_bad) // 2] += CORRUPTION * float(np.abs(x_bad).max())
    r_bad = float(np.linalg.norm(system.A @ x_bad - system.b))
    x_nan = sol.x.copy()
    x_nan[0] = np.nan
    cases = [("true solution", sol, 0),
             ("moved coefficient",
              dataclasses.replace(sol, x=x_bad, residual=r_bad), 1),
             ("NaN coefficient", dataclasses.replace(sol, x=x_nan), 1)]
    problems = []
    for label, candidate, want in cases:
        rec = Recorder(traced=False)
        with rec.op("solve_s"):
            check_solution(rec, system, candidate)
        if rec.failed != want:
            problems.append(f"{label}: {rec.failed} failed, expected {want}")
    return problems
