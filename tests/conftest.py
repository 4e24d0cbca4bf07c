import math
import os

import numpy as np
import pytest
import scipy.sparse

from continuum_kernels import (ContinuumParams, LargeScaleParams,
                               LinearSystem, Problem, PsKernelSolution,
                               SolverConfig, TruncatedSeries, assemble,
                               load_problem, parse_problem_dict, solve_ls)
from continuum_kernels.power_series import (_KINDS, _SOURCES, _param_series,
                                            _q_moments)
from continuum_kernels.series import PRUNE_TOL, Var

X, XI, Y, ETA = Var.X, Var.XI, Var.Y, Var.ETA
ORDER = (X, XI, Y, ETA)

FULL = pytest.mark.skipif(
    not os.environ.get("CK_ACCEPT_FULL"),
    reason="high-order tier; set CK_ACCEPT_FULL=1 to run",
)

# monomial variables of each row source: (x, xi, y), (x, xi), (x, y), (x,)
ARITY = (3, 2, 2, 1)


def col_keys(cols: np.ndarray) -> list[tuple[str, tuple[int, ...]]]:
    """A system's column labels as ("K", (a, b, c)) and ("KB", (a, b))."""
    return [(_KINDS[k], tuple(e[:3 - k])) for k, *e in cols.tolist()]


def row_keys(rows: np.ndarray) -> list[tuple[str, tuple[int, ...]]]:
    """A system's row labels as (source, monomial)."""
    return [(_SOURCES[s], tuple(e[:ARITY[s]])) for s, *e in rows.tolist()]


def col_array(keys) -> np.ndarray:
    """Column labels ("K", (a, b, c)) / ("KB", (a, b)) as a system's array."""
    return np.array([[_KINDS.index(kind), *e, *[0] * (3 - len(e))] for kind, e in keys],
                    dtype=np.int64).reshape(-1, 4)


def n_plus_one(p: ContinuumParams, n: int, offset: float = 0.0) -> LargeScaleParams:
    """The n+1 family of the template ``p``: points (i + offset)/n, weights
    1/n and p's q at the points."""
    return Problem("n+1", p, q_offset=offset).large_scale(n)


def asymmetric_sigma_problem():
    # example2 with sigma = x^3 (1+x) (eta - 1/2)(1 + y^2), not symmetric
    # in (eta, y) as the built-in configs' are, so a transposed coupling
    # shows
    cfg = dict(load_problem("example2").source)
    cfg["sigma"] = {"terms": [{"scale": 1.0, "factors": [
        {"var": "x", "kind": "poly", "coeffs": [0, 0, 0, 1, 1]},
        {"var": "eta", "kind": "poly", "coeffs": [-0.5, 1.0]},
        {"var": "y", "kind": "poly", "coeffs": [1.0, 0.0, 1.0]}]}]}
    return parse_problem_dict(cfg)


def series_from(vars_, coeffs: dict) -> TruncatedSeries:
    """The series over ``vars_`` with the {exponent tuple: coefficient}
    entries of ``coeffs`` and zeros elsewhere; () keys a constant."""
    a = np.zeros([max((e[i] for e in coeffs), default=0) + 1 for i in range(len(vars_))])
    for e, c in coeffs.items():
        a[tuple(e)] = c
    return TruncatedSeries(tuple(vars_), a)


class DictSeries:
    """Coefficients in a dict keyed by exponent tuples; every operation is
    a loop over them. The oracle of the dense-array TruncatedSeries (the
    representation it replaced, kept here in its smallest form) and the
    algebra of :func:`residual_series`."""

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

    def __sub__(self, other):
        return self + other.scale(-1.0)

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

    def scale(self, s):
        return self._fold(lambda e, c: (e, s * c), self.vars)

    def diff(self, v):
        i = self.vars.index(v)
        return self._fold(lambda e, c: None if e[i] == 0 else
                          (e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i]), self.vars)

    def integrate_unit(self, v):
        """The integral over v in [0, 1]; v leaves the variables."""
        if v not in self.vars:
            return self
        i = self.vars.index(v)
        return self._fold(lambda e, c: (e[:i] + e[i + 1:], c / (e[i] + 1)),
                          self.vars[:i] + self.vars[i + 1:])

    def substitute_value(self, v, value):
        i = self.vars.index(v)
        return self._fold(lambda e, c: (e[:i] + e[i + 1:], c * value ** e[i]),
                          self.vars[:i] + self.vars[i + 1:])

    def rename(self, src, dst):
        """src replaced by dst; the exponents add where dst is present."""
        if src not in self.vars:
            return self
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
        """The value at ``point``, {variable: value}; numpy arrays as values
        broadcast, so an open grid (np.ix_) gives the values on the grid."""
        return sum(c * math.prod(point[v] ** p for v, p in zip(self.vars, e))
                   for e, c in self.coeffs.items())


def residual_series(p: ContinuumParams, cfg: SolverConfig, k: TruncatedSeries,
                    kbar: TruncatedSeries) -> dict[str, DictSeries]:
    """Residuals of the four kernel equations for a kernel pair, in series
    algebra on the parameters truncated as ``assemble`` truncates them: an
    independent reconstruction of what ``assemble`` encodes row by row.
    Evaluating them must agree with A x - b recombined against the monomial
    basis."""
    series = _param_series(p, cfg)
    lam, mu, theta, W, sigma, q = map(DictSeries.of, series)
    k, kbar = DictSeries.of(k), DictSeries.of(kbar)
    lam_xi, theta_xi, W_xi, mu_xi, sigma_xi = (
        f.rename(X, XI) for f in (lam, theta, W, mu, sigma))
    e1 = mu * k.diff(X) - lam_xi * k.diff(XI) - theta_xi * kbar \
        - lam_xi.diff(XI) * k \
        - (sigma_xi * k.rename(Y, ETA)).integrate_unit(ETA).scale(cfg.sigma_sign)
    e2 = mu * kbar.diff(X) + mu_xi * kbar.diff(XI) + mu_xi.diff(XI) * kbar \
        - (W_xi * k).integrate_unit(Y)
    e3 = (lam + mu) * k.rename(XI, X) + theta
    k0 = k.substitute_value(XI, 0.0)
    e4 = kbar.substitute_value(XI, 0.0).scale(mu.coeffs.get((0,), 0.0))
    if cfg.use_exact_q:
        q_mom = _q_moments(p, cfg, series[0], series[5])
        left = {}
        for (a, c), v in k0.coeffs.items():
            left[a,] = left.get((a,), 0.0) + v * q_mom[c]
        e4 = e4 - DictSeries((X,), left)
    else:
        e4 = e4 - (q * lam.substitute_value(X, 0.0) * k0).integrate_unit(Y)
    return {"pde_k": e1, "pde_kbar": e2, "bc_diag": e3, "bc_left": e4}


def duplicated_column_system(system: LinearSystem, j: int) -> LinearSystem:
    """`system` with column j appended again, under the same key: rank-deficient."""
    j %= system.A.shape[1]
    A = scipy.sparse.hstack([system.A, system.A[:, j]]).tocsr()
    return LinearSystem(A=A, b=system.b, cols=np.vstack([system.cols, system.cols[j]]),
                        rows=system.rows, config=system.config)


def coeff_vector(system: LinearSystem, k: TruncatedSeries,
                 kbar: TruncatedSeries) -> np.ndarray:
    """Pack a kernel series pair into the system's column layout.

    Coefficients outside the column set are rejected: the vector must be
    conformal with the unknowns."""
    x = np.zeros(len(system.cols))
    index = {c: i for i, c in enumerate(col_keys(system.cols))}
    for kind, name, series in (("K", "k", k), ("KB", "kbar", kbar)):
        for e, v in series.coeffs.items():
            if (kind, e) not in index:
                raise ValueError(f"{name} coefficient {e} outside the "
                                 f"truncation pattern")
            x[index[kind, e]] = v
    return x


def optimality_check(system: LinearSystem, candidate: np.ndarray,
                     reference: np.ndarray, slack: float = 1e-10) -> bool:
    """True iff the candidate's residual does not exceed the reference's.

    A least-squares minimizer must pass against any conformal reference
    vector, in particular against truncated expansions of an exact kernel."""
    candidate = np.asarray(candidate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    ncols = system.A.shape[1]
    if candidate.shape != (ncols,) or reference.shape != (ncols,):
        raise ValueError(
            f"coefficient vectors must have length {ncols}; got "
            f"{candidate.shape} and {reference.shape}"
        )
    rc = np.linalg.norm(system.A @ candidate - system.b)
    rr = np.linalg.norm(system.A @ reference - system.b)
    return bool(rc <= rr + slack)


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
