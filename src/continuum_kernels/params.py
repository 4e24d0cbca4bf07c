"""Problem data: ensemble (continuum) parameter sets, their families at
quadrature points (the n+1 system among them), polynomial fitting of
ensemble data, and JSON config I/O.

Conventions
-----------
The ensemble coupling kernel ``sigma`` is stored over the variables
(x, eta, y). In the kernel equations it is integrated against the eta slot:
``integral_0^1 sigma(xi, eta, y) k(x, xi, eta) deta``. A grid of family
points y_j with quadrature weights w_j maps
``sigma_{i,j}(x) = sigma(x, eta=y_i, y=y_j)`` and turns that integral into
``sum_j w_j sigma_{j,i} k^j``. The n+1 system is the right-endpoint Riemann
rule: y_j = j/n (or (j-1)/n) with w_j = 1/n.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from typing import Mapping

import numpy as np

from .series import Cos, Exp, Polynomial, SeparableSum, SeparableTerm, Sin, Var

__all__ = [
    "PARAMS",
    "ContinuumParams",
    "LargeScaleParams",
    "GridParams",
    "FitResult",
    "Problem",
    "ConfigError",
    "sample_points",
    "fit_q",
    "number_array",
    "load_problem",
    "parse_problem_dict",
    "builtin_problem_names",
]

GRID_POINTS = 101  # audit grid of x (and of y in assemble) for the speed check


def sample_points(n: int, offset: float = 0.0) -> np.ndarray:
    """Component points y_i = (i + offset)/n, i = 1..n, of an n+1 system."""
    return (np.arange(1, n + 1) + offset) / n


class ConfigError(ValueError):
    """Raised on malformed problem configuration files."""


# Each ContinuumParams field: its config key and the variables it may use,
# sigma's in its stored (x, eta, y) order.
PARAMS: dict[str, tuple[str, tuple[Var, ...]]] = {
    "lam": ("lambda", (Var.X, Var.Y)),
    "mu": ("mu", (Var.X,)),
    "sigma": ("sigma", (Var.X, Var.ETA, Var.Y)),
    "theta": ("theta", (Var.X, Var.Y)),
    "W": ("w", (Var.X, Var.Y)),
    "q": ("q", (Var.Y,)),
}


@dataclass(frozen=True)
class ContinuumParams:
    """Parameters of the ensemble kernel equations.

    lam(x, y) and mu(x) are the transport speeds; sigma(x, eta, y) the
    in-family coupling; theta(x, y) and W(x, y) the cross couplings between
    the family and the single counter-convecting component; q(y) the
    reflection profile at x = 0.
    """

    lam: SeparableSum
    mu: SeparableSum
    sigma: SeparableSum
    theta: SeparableSum
    W: SeparableSum
    q: SeparableSum

    def __post_init__(self):
        for name, (_, vs) in PARAMS.items():
            got = set(getattr(self, name).vars())
            if not got <= set(vs):
                raise ValueError(f"parameter {name} uses variables {got}, "
                                 f"allowed {set(vs)}")

    def on_grid(self, xs, ys, weights) -> GridParams:
        """Evaluate every parameter on the grid ``xs`` of x, with row i of
        each family field at y = ys[i], whose quadrature weight in the sums
        over the family is weights[i]."""
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        at = {Var.X: xs[None, :], Var.Y: ys[:, None]}
        pts = {Var.X: xs, Var.ETA: ys, Var.Y: ys}

        def rows(p: SeparableSum) -> np.ndarray:
            return np.broadcast_to(p(at), (len(ys), len(xs))).copy()

        factors = {}    # sigma_x, sigma_eta, ..., W_y: row t is term t's part
        for name in ("sigma", "theta", "W"):
            for v in PARAMS[name][1]:
                factors[f"{name}_{v.value}"] = np.array(
                    [t({v: pts[v]}) for t in getattr(self, name).part(v).terms]
                ).reshape(-1, len(pts[v]))
        return GridParams(
            lam=rows(self.lam), dlam=rows(self.lam.diff(Var.X)),
            mu=self.mu.eval1(Var.X, xs), dmu=self.mu.diff(Var.X).eval1(Var.X, xs),
            q=self.q.eval1(Var.Y, ys), weights=np.asarray(weights, dtype=float),
            **factors)

    def check_speeds(self, ys) -> tuple[float, float]:
        """Minima of lambda on the audit grid of x times ``ys``, and of mu on
        the audit grid; raises ValueError unless both are positive."""
        xs = np.linspace(0.0, 1.0, GRID_POINTS)
        lam = self.lam({Var.X: xs[None, :], Var.Y: np.asarray(ys, dtype=float)[:, None]})
        lam_min, mu_min = float(lam.min()), float(self.mu.eval1(Var.X, xs).min())
        if mu_min <= 0 or lam_min <= 0:
            raise ValueError(
                f"transport speeds must be positive on [0,1]: "
                f"min lam={lam_min:.3g}, min mu={mu_min:.3g}"
            )
        return lam_min, mu_min


@dataclass(frozen=True)
class GridParams:
    """Parameters at n family points on an x grid of m points.

    Sigma, theta and W stay in factor form, one row per separable term t:
    ``sigma_ij(x) = sum_t sigma_x[t](x) sigma_eta[t, i] sigma_y[t, j]`` and
    ``theta_i(x) = sum_t theta_x[t](x) theta_y[t, i]`` (W alike), so each
    contraction costs O(r n m), not the O(n^2 m) of a dense sigma table.
    Every sum over the family is the quadrature rule sum_j weights[j] f_j;
    the weights are folded once into the factors each sum runs over.
    """

    lam: np.ndarray        # (n, m)
    dlam: np.ndarray       # (n, m), d/dx
    mu: np.ndarray         # (m,)
    dmu: np.ndarray        # (m,), d/dx
    q: np.ndarray          # (n,)
    sigma_x: np.ndarray    # (r, m), term scale times its x factors
    sigma_eta: np.ndarray  # (r, n), eta factors at the sample points
    sigma_y: np.ndarray    # (r, n), y factors at the sample points
    theta_x: np.ndarray    # (r, m), as sigma_x
    theta_y: np.ndarray    # (r, n)
    W_x: np.ndarray        # (r, m)
    W_y: np.ndarray        # (r, n)
    weights: np.ndarray    # (n,), quadrature weights of the family points

    @cached_property
    def theta(self) -> np.ndarray:
        """The dense (n, m) table of theta_i(x)."""
        return self.theta_y.T @ self.theta_x

    @cached_property
    def W(self) -> np.ndarray:
        """The dense (n, m) table of W_i(x)."""
        return self.W_y.T @ self.W_x

    @cached_property
    def weighted_W(self) -> np.ndarray:
        """The (n, m) table of weights_i W_i(x), which row n of sources sums."""
        return self.weights[:, None] * self.W

    @cached_property
    def _sigma_sums(self) -> np.ndarray:
        """sigma's eta factors times the weights, which sources sums."""
        return self.sigma_eta * self.weights

    @cached_property
    def _plant_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """couple_plant's stacked factors, the summed ones weighted, built on
        first use."""
        return (np.concatenate((self.sigma_y, self.theta_y)) * self.weights,
                np.concatenate((self.sigma_eta, self.W_y)).T)

    def couple_plant(self, u: np.ndarray, v: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
        """The plant's couplings for a family ``u`` (n, m) and counter
        component ``v`` (m,): writes sum_j w_j sigma_ij u_j + W_i v into
        ``out`` (n, m) and returns sum_i w_i theta_i u_i (m,), w the
        weights."""
        r = len(self.sigma_x)
        sums, spread = self._plant_factors
        s = sums @ u
        z = np.concatenate((self.sigma_x * s[:r], self.W_x * v))
        np.matmul(spread, z, out=out)
        return np.einsum("tx,tx->x", self.theta_x, s[r:])

    # The kernel equations at the family points, their sums over the family
    # weighted by the quadrature (1/n in the n+1 system):
    # mu(x) K_i,x - lam_i(xi) K_i,xi = sources(K)_i, K_i(x, x) = diag_bc_i(x) for
    # i < n; mu(x) K_n,x + mu(xi) K_n,xi = sources(K)_n, K_n(x, 0) = left_bc(K_:n(x, 0)).
    def sources(self, K: np.ndarray) -> np.ndarray:
        """Row i < n is sum_j w_j sigma_ji K_j + dlam_i K_i + theta_i K_n, row
        n is -dmu K_n + sum_j w_j W_j K_j, w the weights, for K (n+1, ..., b)
        with the parameters at the first b grid nodes along its last axis."""
        n, b = len(self.lam), K.shape[-1]
        shape = (n,) + (1,) * (K.ndim - 2) + (b,)
        S = np.empty_like(K)
        S[:n] = _contract(self.sigma_y, self._sigma_sums, self.sigma_x[:, :b], K[:n])
        S[:n] += (self.dlam[:, :b].reshape(shape) * K[:n]
                  + self.theta[:, :b].reshape(shape) * K[n])
        S[n] = -self.dmu[:b] * K[n] + np.einsum(
            "j...b,j...b->...b", self.weighted_W[:, :b].reshape(shape), K[:n])
        return S

    @cached_property
    def diag_bc(self) -> np.ndarray:
        """K_i(x, x) = -theta_i(x) / (lam_i(x) + mu(x)), (n, m)."""
        return -self.theta / (self.lam + self.mu[None, :])

    @cached_property
    def _left_weights(self) -> np.ndarray:
        return self.q * self.lam[:, 0] * self.weights / self.mu[0]

    def left_bc(self, K_fam: np.ndarray) -> np.ndarray:
        """sum_i w_i q_i lam_i(0) K_fam[i] / mu(0) for K_fam (n,) or (n, k),
        w the weights."""
        return self._left_weights @ K_fam


def _contract(out_f: np.ndarray, sum_f: np.ndarray, a: np.ndarray,
              u: np.ndarray) -> np.ndarray:
    """sum_t out_f[t, i] a[t, x] sum_j sum_f[t, j] u[j, ..., x]."""
    r, cols = len(a), u[0].size
    s = (sum_f @ u.reshape(len(u), cols)).reshape((r,) + u.shape[1:])
    s *= a.reshape((r,) + (1,) * (u.ndim - 2) + a.shape[1:])
    return (out_f.T @ s.reshape(r, cols)).reshape(u.shape)


@dataclass(frozen=True)
class LargeScaleParams:
    """A family of the kernel equations: the ensemble template at the family
    ``points`` in [0, 1], each with its quadrature weight, and q_i at the
    points (None: the template's q there). The n+1 system is the family of
    points (i + offset)/n, each of weight 1/n, that
    :meth:`Problem.large_scale` builds."""

    template: ContinuumParams
    points: np.ndarray
    weights: np.ndarray
    q: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or not len(pts):
            raise ValueError("points must be a flat array of at least one point")
        q = self.template.q.eval1(Var.Y, pts) if self.q is None else self.q
        for name, v in (("points", pts), ("weights", self.weights), ("q", q)):
            v = np.asarray(v, dtype=float)
            if v.shape != pts.shape:
                raise ValueError(f"{name} has shape {v.shape}, but the family "
                                 f"has {len(pts)} points")
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        if (self.weights < 0).any():
            raise ValueError("quadrature weights must be non-negative")
        if ((pts < 0) | (pts > 1)).any():
            raise ValueError("family points must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.points)

    def on_grid(self, xs) -> GridParams:
        """The template on ``xs`` at the family points and weights, with the
        family's q."""
        return replace(self.template.on_grid(xs, self.points, self.weights), q=self.q)

    def check_speeds(self) -> tuple[float, float]:
        """The template's speed minima at the family points."""
        return self.template.check_speeds(self.points)


@dataclass(frozen=True)
class FitResult:
    """Least-squares polynomial fit of ensemble data."""

    degree: int
    coeffs: np.ndarray   # ascending powers, length degree+1
    rms_error: float

    def as_sum(self) -> SeparableSum:
        return SeparableSum.poly(Var.Y, self.coeffs)


def fit_q(data: np.ndarray, degree: int,
          points: np.ndarray | None = None) -> FitResult:
    """Least-squares polynomial fit to ensemble reflection data at the
    abscissae ``points``, by default ``sample_points(len(data))``."""
    data = np.asarray(data, dtype=float)
    if degree < 0:
        raise ValueError(f"fit degree must be at least 0, got {degree}")
    if data.ndim != 1 or not np.isfinite(data).all():
        raise ValueError("reflection data must be a flat array of finite numbers")
    points = np.asarray(sample_points(len(data)) if points is None else points,
                        dtype=float)
    if degree >= len(points):
        raise ValueError("fit degree must be below the number of data points")
    if len(np.unique(points)) != len(points):
        raise ValueError("duplicate abscissae make the fit rank deficient")
    V = np.vander(points, degree + 1, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(V, data, rcond=None)
    if rank < degree + 1:
        raise ValueError("rank-deficient design matrix in polynomial fit")
    resid = V @ coeffs - data
    return FitResult(degree=degree, coeffs=coeffs,
                     rms_error=float(np.sqrt(np.mean(resid ** 2))))


# ---------------------------------------------------------------------------
# JSON problem configurations
# ---------------------------------------------------------------------------

@dataclass
class Problem:
    """A loaded problem configuration: the ensemble parameters plus, when the
    reflection profile was given as data, the raw samples and their fit."""

    name: str
    continuum: ContinuumParams
    n: int | None = None
    q_data: np.ndarray | None = None
    q_offset: float = 0.0
    fit: FitResult | None = None
    source: dict = field(default_factory=dict)

    def large_scale(self, n: int | None = None) -> LargeScaleParams:
        """The n+1 family: points (i + q_offset)/n, each of weight 1/n, with
        the raw q data when it has n entries."""
        if n is None:
            n = self.n
        if n is None:
            raise ValueError("the problem does not fix n; pass --n")
        if n < 1:
            raise ValueError("n must be positive")
        fits = self.q_data is not None and len(self.q_data) == n
        return LargeScaleParams(self.continuum, sample_points(n, self.q_offset),
                                np.full(n, 1.0 / n), self.q_data if fits else None)

    def with_fit_degree(self, degree: int) -> "Problem":
        """Refit the reflection data at another degree."""
        if self.q_data is None:
            raise ValueError(f"problem {self.name!r} has an analytic q; nothing to fit")
        fit = fit_q(self.q_data, degree,
                    sample_points(len(self.q_data), self.q_offset))
        cont = replace(self.continuum, q=fit.as_sum())
        return replace(self, continuum=cont, fit=fit)


def _number(value, where: str) -> float:
    """``value`` as a finite float; NaN and inf would otherwise be pruned
    from the series as zeros and solve to a plausible-looking kernel, and
    float() would read true as 1.0 and the string "2" as 2.0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{where}: non-finite value {value!r}")
    return v


def _integer(value, where: str) -> int:
    """``value`` as an int; int() would floor 2.7 and read true as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _array(value, where: str) -> list:
    """``value`` as a JSON array; iterating a number dies with a TypeError."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected an array, got {value!r}")
    return value


def number_array(value, where: str) -> np.ndarray:
    """``value``, a JSON array, as a float array of checked numbers."""
    return np.asarray([_number(v, f"{where}[{k}]")
                       for k, v in enumerate(_array(value, where))], dtype=float)


def _parse_factor(d: Mapping, where: str, allowed: tuple[Var, ...]):
    if not isinstance(d, Mapping):
        raise ConfigError(f"{where}: factor must be an object")
    kind = d.get("kind")
    names = [v.value for v in allowed]
    if d.get("var") not in names:
        raise ConfigError(f"{where}: variable {d.get('var')!r} not allowed here "
                          f"(allowed: {', '.join(names)})")
    v = Var(d["var"])
    try:
        if kind == "poly":
            return Polynomial(v, number_array(d["coeffs"], f"{where}.coeffs"))
        if kind == "exp":
            return Exp(v, _number(d["rate"], f"{where}.rate"))
        if kind == "cos":
            return Cos(v, _number(d["angular"], f"{where}.angular"),
                       _number(d.get("phase", 0.0), f"{where}.phase"))
        if kind == "sin":
            return Sin(v, _number(d["angular"], f"{where}.angular"),
                       _number(d.get("phase", 0.0), f"{where}.phase"))
        if kind == "const":
            return Polynomial(v, [_number(d["value"], f"{where}.value")])
    except KeyError as e:
        raise ConfigError(f"{where}: missing field {e} for kind {kind!r}") from None
    raise ConfigError(f"{where}: unknown factor kind {kind!r}")


def _parse_param(d, where: str, allowed: tuple[Var, ...]) -> SeparableSum:
    if isinstance(d, (int, float)):
        return SeparableSum.constant(_number(d, where))
    if not isinstance(d, Mapping) or "terms" not in d:
        raise ConfigError(f"{where}: expected a number or an object with 'terms'")
    terms = []
    for i, t in enumerate(_array(d["terms"], f"{where}.terms")):
        if not isinstance(t, Mapping):
            raise ConfigError(f"{where}.terms[{i}]: must be an object")
        scale = _number(t.get("scale", 1.0), f"{where}.terms[{i}].scale")
        factors = [
            _parse_factor(f, f"{where}.terms[{i}].factors[{j}]", allowed)
            for j, f in enumerate(_array(t.get("factors", []),
                                         f"{where}.terms[{i}].factors"))
        ]
        terms.append(SeparableTerm(scale, factors))
    return SeparableSum(terms)


def parse_problem_dict(cfg: Mapping, name: str = "<config>") -> Problem:
    """Build a Problem from a decoded JSON object, validating field by field."""
    if not isinstance(cfg, Mapping):
        raise ConfigError(f"{name}: top level must be an object")
    for key, _ in PARAMS.values():
        if key not in cfg:
            raise ConfigError(f"{name}: missing required field '{key}'")
    qcfg = cfg["q"]
    q_is_data = isinstance(qcfg, Mapping) and "data" in qcfg
    fields = {attr: _parse_param(cfg[key], f"{name}.{key}", vs)
              for attr, (key, vs) in PARAMS.items() if not (attr == "q" and q_is_data)}

    q_data, q_offset, fit = None, 0.0, None
    if q_is_data:
        q_data = number_array(qcfg["data"], f"{name}.q.data")
        degree = _integer(qcfg.get("fit_degree", 2), f"{name}.q.fit_degree")
        points = qcfg.get("points", "i/n")
        if points not in ("i/n", "(i-1)/n"):
            raise ConfigError(f"{name}.q.points: expected 'i/n' or '(i-1)/n', "
                              f"got {points!r}")
        q_offset = -1.0 if points == "(i-1)/n" else 0.0
        fit = fit_q(q_data, degree, sample_points(len(q_data), q_offset))
        fields["q"] = fit.as_sum()

    cont = ContinuumParams(**fields)
    n = _integer(cfg["n"], f"{name}.n") if "n" in cfg else None
    return Problem(
        name=str(cfg.get("name", name)), continuum=cont, n=n,
        q_data=q_data, q_offset=q_offset, fit=fit, source=dict(cfg),
    )


def builtin_problem_names() -> list[str]:
    root = resources.files("continuum_kernels").joinpath("configs")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_problem(path_or_name: str) -> Problem:
    """Load a problem from a JSON file path or a built-in config name."""
    text = None
    label = str(path_or_name)
    try:
        with open(path_or_name, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        res = resources.files("continuum_kernels").joinpath(
            f"configs/{path_or_name}.json")
        try:
            text = res.read_text(encoding="utf-8")
            label = f"builtin:{path_or_name}"
        except (FileNotFoundError, OSError):
            raise ConfigError(
                f"no such config file or built-in problem: {path_or_name!r} "
                f"(built-ins: {', '.join(builtin_problem_names())})"
            ) from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{label}: invalid JSON at line {e.lineno}, column "
                          f"{e.colno}: {e.msg}") from None
    return parse_problem_dict(cfg, label)
