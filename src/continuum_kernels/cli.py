"""Command-line workflows: solve, closed-form, fit-q, bench, simulate,
ls-kernels.

Every run that writes files writes one strict-JSON report next to them:
the manifest (command, resolved arguments, wall clock), the problem, stage
timings, the figures that grade the answer and the command's own fields.
Numeric CSV outputs are deterministic across reruns; timings live only in
the report.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .closed_form import NotApplicable, solve_closed_form
from .fd_kernels import DEFAULT_M, TriGrid, refine_study, solve_characteristics
from .gains import (DEFAULT_GRID, GainTable, diff_solutions, gains, read_gain_csv,
                    write_gain_csv)
from .params import (ConfigError, ContinuumParams, Problem, fit_q, load_problem,
                     number_array)
from .power_series import (SolverConfig, assemble, optimality_certificate,
                           residual_by_source, solve_ls)
from .simulate import SimConfig, Simulator, write_sim_csv

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_APPLICABLE = 2

BENCH_PRESETS = {
    # example id -> (problem name, N_y or None for full, exact_q, sigma_sign)
    "example1": ("example1", None, False, 1),
    "example1-ry": ("example1", 2, False, 1),
    "example1-exactq": ("example1", 2, True, 1),
    "example2": ("example2", None, False, -1),
    "example2-ry": ("example2", 2, False, -1),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, 2 is reserved
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _write_json(path, obj) -> None:
    """Strict JSON: a NaN or inf raises ValueError and writes nothing."""
    text = json.dumps(obj, indent=2, default=_json_default, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _json_default(o):
    if isinstance(o, (np.generic, np.ndarray)):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _report_path(args) -> str | None:
    """Where a run's report goes: ``<prefix>_report.json``, ``X_report.json``
    for ``bench --out X.csv`` and the ``--out`` file itself for ``fit-q``;
    None when the run writes no file."""
    if args.command == "fit-q":
        return args.out
    if args.command == "bench":
        return args.out and f"{Path(args.out).with_suffix('')}_report.json"
    return f"{args.out_prefix}_report.json"


def _write_report(path, args, t0: float, problem: str | None, stages_s: dict,
                  quality: dict, **fields) -> None:
    """The run's one report: the manifest (command, resolved arguments and
    the wall clock of the whole command), the problem, the stage timings,
    the figures that grade the answer, then the command's own fields."""
    _write_json(path, {
        "manifest": {
            "command": args.command,
            "arguments": {k: v for k, v in vars(args).items() if k != "func"},
            "tool_version": __version__,
            "deterministic": "all numeric outputs are seed-free and rerun-stable",
            "wall_clock_s": time.perf_counter() - t0,
        },
        "problem": problem, "stages_s": stages_s, "quality": quality,
    } | fields)


def _series_json(series) -> dict:
    return {",".join(map(str, e)): c for e, c in series.coeffs.items()}


def _exact_table(p: ContinuumParams, grid: np.ndarray) -> GainTable | None:
    """The exact reference of ``solve`` and ``bench``: the closed form's gains
    on ``grid`` x ``grid`` wherever it applies to ``p``, the problem as the
    series solves it (sigma oriented), else None."""
    kern = solve_closed_form(p)
    if isinstance(kern, NotApplicable):
        return None
    return gains(kern, grid_xi=grid, grid_y=grid)


def _int_list(flag: str, text: str) -> list[int]:
    """The entries of a comma-list flag as integers; blank entries are
    skipped."""
    out = []
    for v in filter(str.strip, text.split(",")):
        try:
            out.append(int(v))
        except ValueError:
            raise ConfigError(f"{flag}: {v.strip()!r} is not an integer") from None
    return out


def _gain_grid(points: int) -> np.ndarray:
    """The uniform gain grid on [0, 1]; a table needs both end points."""
    if points < 2:
        raise ConfigError(f"--grid must be at least 2, got {points}")
    return np.linspace(0.0, 1.0, points)


def _timed(stages: dict, name: str, f, *args, **kwargs):
    t = time.perf_counter()
    out = f(*args, **kwargs)
    stages[name] = time.perf_counter() - t
    return out


def _series_solve(problem: Problem, cfg: SolverConfig, grid_xi, grid_y) -> tuple:
    """One timed power-series solve: the solution, its gain table on
    ``grid_xi`` x ``grid_y`` and the solve's report block (settings, shape,
    plan, quality figures and stage times)."""
    stages = {}
    system = _timed(stages, "assemble", assemble, problem.continuum, cfg)
    sol = _timed(stages, "solve_ls", solve_ls, system)
    table = _timed(stages, "gains", gains, sol, grid_xi=grid_xi, grid_y=grid_y)
    return sol, table, dict(
        order=cfg.N, order_y=cfg.N_y, exact_q=cfg.use_exact_q,
        sigma_sign=cfg.sigma_sign, num_unknowns=sol.num_unknowns,
        num_equations=sol.num_equations, nnz=int(system.A.nnz),
        ordering=sol.ordering, span_cut=sol.span_cut, wide_rows=sol.wide_rows,
        panel_cols=sol.panel_cols, r_diag_ratio=sol.r_diag_ratio,
        residual=sol.residual, certificate=optimality_certificate(system, sol.x),
        residual_by_source=residual_by_source(system, sol.x),
        stages_s=stages, timing_s=stages["assemble"] + stages["solve_ls"])


def _march_block(sol) -> dict:
    """The report block of an n+1 reference march: its pass, its spot check
    (the levels it reran and the largest change) and times."""
    return dict(iterations=sol.iterations, final_delta=sol.final_delta,
                sweep_history=sol.history, checked_levels=sol.checked_levels,
                stages_s=sol.stages_s, timing_s=sum(sol.stages_s.values()))


def _import_scipy() -> None:
    """Load the scipy modules a series solve uses, so that the first row of
    an order sweep does not time their import."""
    import scipy.linalg.lapack  # noqa: F401
    import scipy.sparse  # noqa: F401


# Each command takes the parsed arguments and its report path, writes its
# outputs and returns its exit code with the report's fields (None: no report).

def cmd_solve(args, report_path) -> tuple:
    grid = _gain_grid(args.grid)
    problem = load_problem(args.config)
    cfg = SolverConfig(N=args.order, N_y=args.order_y, use_exact_q=args.exact_q,
                       sigma_sign=args.sigma_sign)
    sol, table, block = _series_solve(problem, cfg, grid, grid)
    quality = {"residual": sol.residual, "certificate": block["certificate"]}
    exact = _exact_table(cfg.oriented(problem.continuum), grid)
    if exact is not None:
        quality["max_error_vs_exact"] = diff_solutions(table, exact)
    write_gain_csv(table, f"{args.out_prefix}_gains.csv", report_path=report_path)
    _write_json(f"{args.out_prefix}_coeffs.json", {
        "report": report_path,
        "k": _series_json(sol.k), "kbar": _series_json(sol.kbar),
        "exponent_order": ["x", "xi", "y"],
    })
    print(f"solve: unknowns={sol.num_unknowns} equations={sol.num_equations} "
          f"residual={sol.residual:.6g}")
    if exact is not None:
        print(f"solve: max gain error vs exact reference "
              f"{quality['max_error_vs_exact']:.6g}")
    return EXIT_OK, block | quality | {"problem": problem.name, "quality": quality}


def cmd_closed_form(args, report_path) -> tuple:
    grid = _gain_grid(args.grid)
    problem = load_problem(args.config)
    stages = {}
    kern = _timed(stages, "closed_form", solve_closed_form, problem.continuum)
    quality = {"applicable": not isinstance(kern, NotApplicable)}
    if not quality["applicable"]:
        print(f"closed-form: not applicable: {kern.reason}")
        return EXIT_NOT_APPLICABLE, dict(
            problem=problem.name, stages_s=stages, quality=quality, **quality,
            reason=kern.reason, details=kern.details)
    quality["residual"] = kern.residual
    table = _timed(stages, "gains", gains, kern, grid_xi=grid, grid_y=grid)
    write_gain_csv(table, f"{args.out_prefix}_gains.csv", report_path=report_path)
    print(f"closed-form: c_x={kern.c_x:.6g} "
          f"c_y={'n/a' if kern.c_y is None else format(kern.c_y, '.6g')}")
    return EXIT_OK, dict(problem=problem.name, stages_s=stages, quality=quality,
                         **quality, kernel=kern.describe())


def cmd_fit_q(args, report_path) -> tuple:
    stages = {}
    if args.config:
        problem = load_problem(args.config)
        name = problem.name
        fit = _timed(stages, "fit", problem.with_fit_degree, args.degree).fit
    else:
        name, data = None, number_array(json.loads(args.data), "--data JSON array")
        fit = _timed(stages, "fit", fit_q, data, args.degree)
    print(f"fit-q: degree={fit.degree} rms_error={fit.rms_error:.6g}")
    print("fit-q: coefficients (ascending powers):",
          " ".join(f"{c:.12g}" for c in fit.coeffs))
    quality = {"rms_error": fit.rms_error}
    return EXIT_OK, dict(problem=name, stages_s=stages, quality=quality, **quality,
                         degree=fit.degree, coefficients_ascending=fit.coeffs)


def cmd_bench(args, report_path) -> tuple:
    problem_name, order_y, exact_q, sigma_sign = BENCH_PRESETS[args.example]
    if args.sigma_sign is not None:
        sigma_sign = args.sigma_sign
    problem = load_problem(problem_name)
    orders = _int_list("--orders", args.orders)
    fit_degrees = _int_list("--fit-degrees", args.fit_degrees) or [None]
    if len(fit_degrees) > 1 and len(orders) != 1:
        raise ConfigError("a fit-degree sweep needs exactly one order")
    # the rows: each one's reflection-fit degree and solve settings
    sweep = [(M, SolverConfig(N=N, N_y=order_y if order_y is None else min(order_y, N),
                              use_exact_q=exact_q, sigma_sign=sigma_sign))
             for M in fit_degrees for N in orders]
    rows = []
    grid = _gain_grid(DEFAULT_GRID)
    exact_table = reference = baseline = None
    t = time.perf_counter()
    if sweep:
        # the problem the series solve: sigma oriented alike, for the exact
        # reference and the n+1 system
        oriented = replace(problem, continuum=sweep[0][1].oriented(problem.continuum))
        exact_table = _exact_table(oriented.continuum, grid)
    if sweep and problem.n is not None and not args.skip_baseline:
        march = solve_characteristics(oriented.large_scale(), TriGrid(args.baseline_m))
        reference, baseline = _march_block(march), gains(march)
    stages = {"reference": time.perf_counter() - t}
    if sweep:
        _timed(stages, "import", _import_scipy)
    prev_table = None
    for M, cfg in sweep:
        prob = problem if M is None else problem.with_fit_degree(M)
        sol, cur, block = _series_solve(prob, cfg, grid, grid)
        row = {
            "N": cfg.N,
            "num_unknowns": sol.num_unknowns,
            "num_equations": sol.num_equations,
            "residual": sol.residual,
        }
        if M is not None:
            row["fit_degree"] = M
        if exact_table is not None:
            row["max_error"] = diff_solutions(cur, exact_table)
        if baseline is not None:
            sampled = gains(sol, grid_xi=baseline.grid_xi, grid_y=baseline.grid_y)
            row["d_np1"] = diff_solutions(sampled, baseline)
        if prev_table is not None:
            row["d_prev"] = diff_solutions(cur, prev_table)
        prev_table = cur
        print("bench:", " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                 for k, v in row.items()), f"time_s={block['timing_s']:.3f}")
        rows.append(row | block)
    if args.out:    # no timings: the CSV is rerun-stable
        cols = ["N", "fit_degree", "num_unknowns", "num_equations",
                "residual", "max_error", "d_np1", "d_prev"]
        cols = [c for c in cols if c == "d_prev" or any(c in r for r in rows)] \
            if rows else cols[:5]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for r in rows:
                fh.write(",".join(f"{r.get(c, float('nan'))}" for c in cols) + "\n")
    # the sweep's last row grades its final answer
    quality = {k: rows[-1][k] for k in ("residual", "max_error", "d_np1", "d_prev")
               if rows and k in rows[-1]}
    return EXIT_OK, dict(problem=problem_name, stages_s=stages, quality=quality,
                         example=args.example, reference=reference, rows=rows)


def _sim_gains(args, problem: Problem, ls) -> tuple:
    """The feedback gains of ``simulate`` and the report block of their
    solve: a fresh power-series solve and its block, or no block with None
    for the open loop or a gain CSV, which the Simulator checks and places
    at the components."""
    if args.solve_order_y is not None and args.solve_order is None:
        raise ConfigError("--solve-order-y applies only to --solve-order")
    if args.solve_order is not None:   # the plant simulated fixes sigma_sign +1
        cfg = SolverConfig(N=args.solve_order, N_y=args.solve_order_y)
        _, table, block = _series_solve(problem, cfg, np.linspace(0, 1, args.mx),
                                        ls.points)
        return table, block
    if args.open_loop:
        return None, None
    return read_gain_csv(args.gains), None


def cmd_simulate(args, report_path) -> tuple:
    t = time.perf_counter()
    problem = load_problem(args.config)
    ls = problem.large_scale(args.n)
    cfg = SimConfig(n=ls.n, m_x=args.mx, t_final=args.t_final, cfl=args.cfl,
                    initial_profile=args.profile, amplitude=args.amplitude)
    stages = {"setup": time.perf_counter() - t}
    table, solve = _timed(stages, "gains", _sim_gains, args, problem, ls)
    try:
        sim = _timed(stages, "init", Simulator, cfg, ls, table)
    except ValueError as e:     # the Simulator checks the table: name the file
        if args.gains:
            msg = str(e).replace("gain table", f"gain table {args.gains}", 1)
            raise ConfigError(msg) from None
        raise
    args.t_final = sim.cfg.t_final  # the manifest records the horizon that ran
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rep = _timed(stages, "run", sim.run)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    steps = len(rep.t) - 1
    write_sim_csv(rep, f"{args.out_prefix}_sim.csv", report_path=report_path)
    verdict = "stable" if rep.stable else (
        "diverged" if rep.diverged else "not stable")
    print(f"simulate: {verdict}; initial norm {rep.initial_norm:.6g}, "
          f"final norm {rep.final_norm:.6g}")
    quality = {"verdict": verdict, "initial_norm": rep.initial_norm}
    if not rep.diverged:    # a diverged run's final norm is inf
        quality["final_norm"] = rep.final_norm
        quality["norm_ratio"] = (rep.final_norm / rep.initial_norm
                                 if rep.initial_norm else 0.0)
    return EXIT_OK, dict(problem=problem.name, stages_s=stages, quality=quality,
                         n=ls.n, steps=steps, dt=rep.dt, solve=solve,
                         step_ms=1e3 * stages["run"] / steps, minor_faults=faults)


def cmd_ls_kernels(args, report_path) -> tuple:
    problem = load_problem(args.config)
    ls = problem.large_scale(args.n)
    if args.refine:
        ms = _int_list("--refine", args.refine)
        rep = refine_study(ls, ms)
        for (m1, m2), d in zip(zip(rep.m_list, rep.m_list[1:]), rep.diffs):
            print(f"ls-kernels: refine {m1}->{m2} sup diff {d:.6g}")
        for r in rep.ratios:
            print(f"ls-kernels: refinement ratio {r:.3f}")
        meshes = [_march_block(sol) for sol in rep.solutions]
        stages = {s: sum(b["stages_s"][s] for b in meshes) for s in meshes[0]["stages_s"]}
        quality = {k: v[-1] for k, v in (("diff", rep.diffs), ("ratio", rep.ratios)) if v}
        return EXIT_OK, dict(problem=problem.name, stages_s=stages, quality=quality,
                             n=ls.n, m_list=rep.m_list, diffs=rep.diffs,
                             ratios=rep.ratios, meshes=meshes)
    sol = solve_characteristics(ls, TriGrid(args.m))
    write_gain_csv(gains(sol), f"{args.out_prefix}_gains.csv", report_path=report_path)
    print(f"ls-kernels: solved in one pass; spot check of {len(sol.checked_levels)} "
          f"levels, largest change {sol.final_delta:.3e}")
    quality = {"iterations": sol.iterations, "final_delta": sol.final_delta}
    return EXIT_OK, dict(problem=problem.name, quality=quality,
                         **_march_block(sol), n=ls.n, m=args.m)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ckpde", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="power-series kernel solve")
    sp.add_argument("--config", required=True)
    sp.add_argument("--order", "-N", type=int, required=True)
    sp.add_argument("--order-y", type=int, default=None)
    sp.add_argument("--exact-q", action="store_true")
    sp.add_argument("--sigma-sign", type=int, choices=(1, -1),
                    default=SolverConfig.sigma_sign)
    sp.add_argument("--grid", type=int, default=DEFAULT_GRID)
    sp.add_argument("--out-prefix", default="solve")
    sp.set_defaults(func=cmd_solve)

    cp = sub.add_parser("closed-form", help="separable closed-form kernels")
    cp.add_argument("--config", required=True)
    cp.add_argument("--grid", type=int, default=DEFAULT_GRID)
    cp.add_argument("--out-prefix", default="closed_form")
    cp.set_defaults(func=cmd_closed_form)

    fp = sub.add_parser("fit-q", help="polynomial fit of reflection data")
    source = fp.add_mutually_exclusive_group(required=True)
    source.add_argument("--config")
    source.add_argument("--data", help="JSON array of samples")
    fp.add_argument("--degree", "-M", type=int, required=True)
    fp.add_argument("--out", default=None, help="report JSON")
    fp.set_defaults(func=cmd_fit_q)

    bp = sub.add_parser("bench", help="order sweeps with reference metrics")
    bp.add_argument("--example", required=True, choices=sorted(BENCH_PRESETS))
    bp.add_argument("--orders", default="")
    bp.add_argument("--baseline-m", type=int, default=DEFAULT_M)
    bp.add_argument("--skip-baseline", action="store_true")
    bp.add_argument("--sigma-sign", type=int, choices=(1, -1), default=None)
    bp.add_argument("--fit-degrees", default="",
                    help="comma list of reflection-fit degrees to sweep at a "
                         "single order")
    bp.add_argument("--out", default=None)
    bp.set_defaults(func=cmd_bench)

    mp = sub.add_parser("simulate", help="closed-loop simulation")
    mp.add_argument("--config", required=True)
    mp.add_argument("--n", type=int, default=None)
    mp.add_argument("--mx", type=int, default=SimConfig.m_x)
    mp.add_argument("--t-final", type=float, default=SimConfig.t_final,
                    help="end time (default: the Simulator's 2 t_F, twice "
                         "the closed loop's settling time)")
    mp.add_argument("--cfl", type=float, default=SimConfig.cfl)
    mp.add_argument("--profile", default=SimConfig.initial_profile)
    mp.add_argument("--amplitude", type=float, default=SimConfig.amplitude)
    control = mp.add_mutually_exclusive_group(required=True)
    control.add_argument("--gains", default=None, help="gain CSV (sampled rows)")
    control.add_argument("--solve-order", type=int, default=None)
    control.add_argument("--open-loop", action="store_true")
    mp.add_argument("--solve-order-y", type=int, default=None)
    mp.add_argument("--out-prefix", default="sim")
    mp.set_defaults(func=cmd_simulate)

    lp = sub.add_parser("ls-kernels", help="n+1 reference kernel solve")
    lp.add_argument("--config", required=True)
    lp.add_argument("--n", type=int, default=None)
    lp.add_argument("--m", type=int, default=DEFAULT_M)
    lp.add_argument("--refine", default=None,
                    help="comma list of mesh sizes for a refinement study")
    lp.add_argument("--out-prefix", default="ls_kernels")
    lp.set_defaults(func=cmd_ls_kernels)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:    # ConfigError is a ValueError
        path = _report_path(args)
        if path:    # outputs go last: a missing directory must not waste the run
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        code, report = args.func(args, path)
        if path and report is not None:
            _write_report(path, args, t0, **report)
        return code
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
