"""Problem data: ensemble (continuum) parameter sets, sampled large-scale
parameter sets, polynomial fitting of ensemble data, and JSON config I/O.

Conventions
-----------
The ensemble coupling kernel ``sigma`` is stored over the variables
(x, eta, y). In the kernel equations it is integrated against the eta slot:
``integral_0^1 sigma(xi, eta, y) k(x, xi, eta) deta``. Sampling maps
``sigma_{i,j}(x) = sigma(x, eta=i/n, y=j/n)``, which makes the sampled sums
``(1/n) sum_j sigma_{j,i} k^j`` the Riemann discretisation of that integral.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Mapping

import numpy as np

from .series import (
    Constant,
    Cos,
    Exp,
    Polynomial,
    SeparableSum,
    SeparableTerm,
    Sin,
    Var,
)

__all__ = [
    "ContinuumParams",
    "LargeScaleParams",
    "GridParams",
    "FitResult",
    "Problem",
    "ConfigError",
    "sample_points",
    "sample_continuum",
    "lift_separable",
    "fit_q",
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
        allowed = {
            "lam": {Var.X, Var.Y},
            "mu": {Var.X},
            "sigma": {Var.X, Var.ETA, Var.Y},
            "theta": {Var.X, Var.Y},
            "W": {Var.X, Var.Y},
            "q": {Var.Y},
        }
        for name, vs in allowed.items():
            got = set(getattr(self, name).vars())
            if not got <= vs:
                raise ValueError(f"parameter {name} uses variables {got}, allowed {vs}")

    def on_grid(self, xs, ys) -> GridParams:
        """Evaluate every parameter on the grid ``xs`` of x, with row i of
        each family field at y = ys[i]."""
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        at = {Var.X: xs[None, :], Var.Y: ys[:, None]}

        def rows(p: SeparableSum) -> np.ndarray:
            return np.broadcast_to(p(at), (len(ys), len(xs))).copy()

        terms = self.sigma.terms

        def factor(v: Var, t: np.ndarray) -> np.ndarray:
            """(r, len(t)): each sigma term's v factors, ones if it has none."""
            return np.array([
                SeparableTerm(1.0, [f for f in term.factors if f.var == v])({v: t})
                for term in terms]).reshape(len(terms), len(t))

        return GridParams(
            lam=rows(self.lam), dlam=rows(self.lam.diff(Var.X)),
            mu=self.mu.eval1(Var.X, xs), dmu=self.mu.diff(Var.X).eval1(Var.X, xs),
            theta=rows(self.theta), W=rows(self.W), q=self.q.eval1(Var.Y, ys),
            sigma_x=np.array([t.scale for t in terms])[:, None] * factor(Var.X, xs),
            sigma_eta=factor(Var.ETA, ys), sigma_y=factor(Var.Y, ys),
        )

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
    """Sampled parameters of the n+1 system on an x grid of m points.

    Sigma stays in factor form, one row per separable term t:
    ``sigma_ij(x) = sum_t sigma_x[t](x) sigma_eta[t, i] sigma_y[t, j]``,
    so each contraction costs O(r n m), not the O(n^2 m) of a dense table.
    """

    lam: np.ndarray        # (n, m)
    dlam: np.ndarray       # (n, m), d/dx
    mu: np.ndarray         # (m,)
    dmu: np.ndarray        # (m,), d/dx
    theta: np.ndarray      # (n, m)
    W: np.ndarray          # (n, m)
    q: np.ndarray          # (n,)
    sigma_x: np.ndarray    # (r, m), term scale times its x factors
    sigma_eta: np.ndarray  # (r, n), eta factors at the sample points
    sigma_y: np.ndarray    # (r, n), y factors at the sample points

    def couple(self, u: np.ndarray) -> np.ndarray:
        """sum_j sigma_ij u_j, the plant's coupling; ``u`` is (n, ..., m)."""
        return _contract(self.sigma_eta, self.sigma_y, self.sigma_x, u)

    def couple_kernel(self, K: np.ndarray) -> np.ndarray:
        """sum_j sigma_ji K_j, the kernel equations' coupling; ``K`` is
        (n, ..., m) with sigma evaluated on its last axis."""
        return _contract(self.sigma_y, self.sigma_eta, self.sigma_x, K)


def _contract(out_f: np.ndarray, sum_f: np.ndarray, a: np.ndarray,
              u: np.ndarray) -> np.ndarray:
    """sum_t out_f[t, i] a[t, x] sum_j sum_f[t, j] u[j, ..., x]."""
    r, cols = len(a), u[0].size
    s = (sum_f @ u.reshape(len(u), cols)).reshape((r,) + u.shape[1:])
    s *= a.reshape((r,) + (1,) * (u.ndim - 2) + a.shape[1:])
    return (out_f.T @ s.reshape(r, cols)).reshape(u.shape)


@dataclass
class LargeScaleParams:
    """Sampled parameters of the n+1 kernel equations: the ensemble template
    at the component points, evaluated on demand by :meth:`on_grid`."""

    n: int
    template: ContinuumParams
    q: np.ndarray | None = None             # q_i; None samples template.q
    sample_offset: float = 0.0              # component i sits at y=(i+1+offset)/n

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.q is None:
            self.q = self.template.q.eval1(Var.Y, self.y_points())
        self.q = np.asarray(self.q, dtype=float)
        if self.q.shape != (self.n,):
            raise ValueError("q must have n entries")

    def y_points(self) -> np.ndarray:
        return sample_points(self.n, self.sample_offset)

    def on_grid(self, xs) -> GridParams:
        """The template on ``xs`` at the component points, with the sampled q."""
        return replace(self.template.on_grid(xs, self.y_points()), q=self.q)

    def check_speeds(self) -> tuple[float, float]:
        """The template's speed minima at the component points."""
        return self.template.check_speeds(self.y_points())


@dataclass(frozen=True)
class FitResult:
    """Least-squares polynomial fit of ensemble data."""

    degree: int
    coeffs: np.ndarray   # ascending powers, length degree+1
    rms_error: float

    def as_sum(self) -> SeparableSum:
        return SeparableSum.poly(Var.Y, self.coeffs)

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for c in self.coeffs[::-1]:
            out = out * y + c
        return out


def sample_continuum(c: ContinuumParams, n: int, offset: float = 0.0) -> LargeScaleParams:
    """Sample the ensemble parameters into an n+1 parameter set.

    Component i (1-based) is placed at y = (i + offset)/n; the default
    offset 0 puts the family at i/n, offset -1 at (i-1)/n.
    """
    return LargeScaleParams(n=n, template=c, sample_offset=offset)


def lift_separable(ls: LargeScaleParams) -> ContinuumParams:
    """The ensemble parameters a sampled set was generated from.

    A sampled set holds its generating template (the separable expressions
    in i/n and j/n), so the lift is exact by construction.
    """
    if ls.template is None:
        raise ValueError(
            "large-scale parameters are not in template form; build an "
            "ensemble approximation explicitly (e.g. with fit_q) instead"
        )
    return ls.template


def fit_q(data: np.ndarray, degree: int, points: np.ndarray | None = None,
          offset: float = 0.0) -> FitResult:
    """Least-squares polynomial fit to ensemble reflection data.

    ``points`` gives the abscissae explicitly; otherwise the data sit at
    ``sample_points(len(data), offset)``.
    """
    data = np.asarray(data, dtype=float)
    if degree < 0:
        raise ValueError(f"fit degree must be at least 0, got {degree}")
    if data.ndim != 1 or not np.isfinite(data).all():
        raise ValueError("reflection data must be a flat array of finite numbers")
    points = np.asarray(sample_points(len(data), offset) if points is None
                        else points, dtype=float)
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

_VAR_NAMES = {"x": Var.X, "xi": Var.XI, "y": Var.Y, "eta": Var.ETA}

_EXACT_Q = {
    "cos2pi": lambda: SeparableSum([SeparableTerm(1.0, [Cos(Var.Y, 2.0 * np.pi, 0.0)])]),
}


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

    def large_scale(self, n: int | None = None,
                    offset: float | None = None) -> LargeScaleParams:
        """Sample the n+1 parameter set, by default at the data's sample
        offset; raw q data is used verbatim when the requested size and
        offset match the data."""
        if n is None:
            n = self.n
        if n is None:
            raise ValueError("problem does not fix n; pass it explicitly")
        offset = self.q_offset if offset is None else offset
        ls = sample_continuum(self.continuum, n, offset)
        if self.q_data is not None and len(self.q_data) == n and offset == self.q_offset:
            ls.q = np.asarray(self.q_data, dtype=float)
        return ls

    def with_fit_degree(self, degree: int) -> "Problem":
        """Refit the reflection data at another degree."""
        if self.q_data is None:
            raise ValueError("problem has an analytic q; nothing to refit")
        fit = fit_q(self.q_data, degree, offset=self.q_offset)
        cont = replace(self.continuum, q=fit.as_sum())
        return replace(self, continuum=cont, fit=fit)


def _number(value, where: str) -> float:
    """``value`` as a finite float; NaN and inf would otherwise be pruned
    from the series as zeros and solve to a plausible-looking kernel."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{where}: non-finite value {value!r}")
    return v


def _integer(value, where: str) -> int:
    """``value`` as an int; int() would floor 2.7 and read true as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _parse_factor(d: Mapping, where: str):
    if not isinstance(d, Mapping):
        raise ConfigError(f"{where}: factor must be an object")
    kind = d.get("kind")
    var = d.get("var")
    if var not in _VAR_NAMES:
        raise ConfigError(f"{where}: unknown or missing 'var' {var!r}")
    v = _VAR_NAMES[var]
    try:
        if kind == "poly":
            return Polynomial(v, [_number(c, f"{where}.coeffs") for c in d["coeffs"]])
        if kind == "exp":
            return Exp(v, _number(d["rate"], f"{where}.rate"))
        if kind == "cos":
            return Cos(v, _number(d["angular"], f"{where}.angular"),
                       _number(d.get("phase", 0.0), f"{where}.phase"))
        if kind == "sin":
            return Sin(v, _number(d["angular"], f"{where}.angular"),
                       _number(d.get("phase", 0.0), f"{where}.phase"))
        if kind == "const":
            return Constant(v, _number(d["value"], f"{where}.value"))
    except KeyError as e:
        raise ConfigError(f"{where}: missing field {e} for kind {kind!r}") from None
    raise ConfigError(f"{where}: unknown factor kind {kind!r}")


def _parse_param(d, where: str, allowed: set[Var]) -> SeparableSum:
    if isinstance(d, (int, float)):
        return SeparableSum.constant(_number(d, where))
    if not isinstance(d, Mapping) or "terms" not in d:
        raise ConfigError(f"{where}: expected a number or an object with 'terms'")
    terms = []
    for i, t in enumerate(d["terms"]):
        if not isinstance(t, Mapping):
            raise ConfigError(f"{where}.terms[{i}]: must be an object")
        scale = _number(t.get("scale", 1.0), f"{where}.terms[{i}].scale")
        factors = [
            _parse_factor(f, f"{where}.terms[{i}].factors[{j}]")
            for j, f in enumerate(t.get("factors", []))
        ]
        for f in factors:
            if f.var not in allowed:
                raise ConfigError(
                    f"{where}.terms[{i}]: variable '{f.var.value}' not allowed here"
                )
        terms.append(SeparableTerm(scale, factors))
    return SeparableSum(terms)


def parse_problem_dict(cfg: Mapping, name: str = "<config>") -> Problem:
    """Build a Problem from a decoded JSON object, validating field by field."""
    if not isinstance(cfg, Mapping):
        raise ConfigError(f"{name}: top level must be an object")
    required = ["lambda", "mu", "sigma", "theta", "w", "q"]
    for key in required:
        if key not in cfg:
            raise ConfigError(f"{name}: missing required field '{key}'")
    lam = _parse_param(cfg["lambda"], f"{name}.lambda", {Var.X, Var.Y})
    mu = _parse_param(cfg["mu"], f"{name}.mu", {Var.X})
    sigma = _parse_param(cfg["sigma"], f"{name}.sigma", {Var.X, Var.ETA, Var.Y})
    theta = _parse_param(cfg["theta"], f"{name}.theta", {Var.X, Var.Y})
    W = _parse_param(cfg["w"], f"{name}.w", {Var.X, Var.Y})

    qcfg = cfg["q"]
    q_data = None
    q_offset = 0.0
    fit = None
    if isinstance(qcfg, Mapping) and "data" in qcfg:
        q_data = np.asarray([_number(v, f"{name}.q.data[{k}]")
                             for k, v in enumerate(qcfg["data"])])
        degree = _integer(qcfg.get("fit_degree", 2), f"{name}.q.fit_degree")
        points = qcfg.get("points", "i/n")
        if points not in ("i/n", "(i-1)/n"):
            raise ConfigError(f"{name}.q.points: expected 'i/n' or '(i-1)/n', "
                              f"got {points!r}")
        q_offset = -1.0 if points == "(i-1)/n" else 0.0
        fit = fit_q(q_data, degree, offset=q_offset)
        q = fit.as_sum()
    elif isinstance(qcfg, Mapping) and "exact" in qcfg:
        key = qcfg["exact"]
        if key not in _EXACT_Q:
            raise ConfigError(f"{name}.q: unknown exact profile {key!r}")
        q = _EXACT_Q[key]()
    else:
        q = _parse_param(qcfg, f"{name}.q", {Var.Y})

    cont = ContinuumParams(lam=lam, mu=mu, sigma=sigma, theta=theta, W=W, q=q)
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
