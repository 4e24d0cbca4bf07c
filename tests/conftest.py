import os

import numpy as np
import pytest
import scipy.sparse

from continuum_kernels import (LinearSystem, Problem, PsKernelSolution,
                               SolverConfig, assemble, load_problem, solve_ls)

FULL = pytest.mark.skipif(
    not os.environ.get("CK_ACCEPT_FULL"),
    reason="high-order tier; set CK_ACCEPT_FULL=1 to run",
)


def duplicated_column_system(system: LinearSystem, j: int) -> LinearSystem:
    """`system` with column j appended again, under the same key: rank-deficient."""
    j %= system.A.shape[1]
    A = scipy.sparse.hstack([system.A, system.A[:, j]]).tocsr()
    return LinearSystem(A=A, b=system.b, cols=system.cols + [system.cols[j]],
                        rows=system.rows, config=system.config)


@pytest.fixture(scope="session")
def example1() -> Problem:
    return load_problem("example1")


@pytest.fixture(scope="session")
def example2() -> Problem:
    return load_problem("example2")


@pytest.fixture(scope="session")
def zero_problem() -> Problem:
    return load_problem("zero")


class SolveCache:
    """Memoizes power-series solves shared across acceptance criteria."""

    def __init__(self):
        self._problems = {}
        self._solutions = {}

    def problem(self, name: str) -> Problem:
        if name not in self._problems:
            self._problems[name] = load_problem(name)
        return self._problems[name]

    def solution(self, name: str, cfg: SolverConfig) -> PsKernelSolution:
        key = (name, cfg)
        if key not in self._solutions:
            self._solutions[key] = solve_ls(assemble(
                self.problem(name).continuum, cfg))
        return self._solutions[key]


@pytest.fixture(scope="session")
def solve_cache() -> SolveCache:
    return SolveCache()


@pytest.fixture(scope="session")
def exact_gain_reference():
    """Closed-form gains of the 'example1' benchmark on a grid."""
    from continuum_kernels import NotApplicable, solve_closed_form

    kern = solve_closed_form(load_problem("example1").continuum)
    assert not isinstance(kern, NotApplicable)

    def evaluate(grid_xi: np.ndarray, grid_y: np.ndarray):
        XI, Y = np.meshgrid(grid_xi, grid_y, indexing="xy")
        k = kern.k(np.ones_like(XI), XI, Y)
        kbar = kern.kbar(np.ones_like(grid_xi), grid_xi)
        return k, kbar

    return evaluate
