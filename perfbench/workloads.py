"""Seeded inputs and one pass of each workload.

Each pass replays a ``ckpde`` command through the package's public
functions, one operation at a time, and gates every answer (``checks``).
Seed 0 is the shipped configuration; another seed perturbs values at noise
level and never sizes or sparsity, so every seed does the same work.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from continuum_kernels import closed_form as cf
from continuum_kernels import fd_kernels as fd
from continuum_kernels import params
from continuum_kernels import power_series as ps
from continuum_kernels import simulate as sim
from continuum_kernels.gains import diff_solutions, gains, sample_gains

import checks

GRID = np.linspace(0.0, 1.0, 101)   # the grid `ckpde bench` compares on
REF_M = 256                         # --baseline-m of `ckpde bench`
REF_MAX_ITER = 200                  # solve_characteristics' default
E2_ORDERS = (20, 25)
E1_ORDERS = tuple(range(12, 31, 2))
E1_PRESETS = (False, True)          # example1-ry (series q), example1-exactq
# n = 400 rather than 200: the 82 MB sigma array of n = 200 fits the 300 MB
# shared L3 cache of the machine the benchmark was tuned on only while other
# tenants leave it room, so its simulation time flipped between 1.7 s and
# 4.9 s from run to run. At n = 400 (330 MB) it never fits: in runs
# alternating the two sizes, the quartile spread of the pass time over ten
# runs was 0.39 at n = 200 and 0.15 at n = 400.
CL_N = 400
CL_MX = 256
# 20 steps: the sigma coupling is about a third of the pass; sampling the
# parameters and evaluating them on the grid are most of the rest
CL_T_FINAL = 0.03


@dataclass
class Inputs:
    seed: int
    problem: params.Problem
    amplitude: float = 1.0


def _perturbed(rec, name: str, seed: int, edit) -> params.Problem:
    problem = rec.call("params.load_problem", params.load_problem, name)
    if seed == 0:
        return problem
    cfg = copy.deepcopy(problem.source)
    edit(cfg, np.random.default_rng(seed))
    return params.parse_problem_dict(cfg, problem.name)


def _noisy_q(cfg, rng) -> None:
    # the example2 reflection data carry three decimals: noise of 1e-3
    q = cfg["q"]["data"]
    cfg["q"]["data"] = list(np.asarray(q) + 1e-3 * rng.standard_normal(len(q)))


def _scaled_couplings(cfg, rng) -> None:
    # scales of separable terms keep the closed form applicable
    for key in ("theta", "w", "sigma"):
        cfg[key]["terms"][0]["scale"] *= 1.0 + 0.01 * rng.uniform(-1.0, 1.0)


def make_inputs(rec, workload: str, seed: int) -> Inputs:
    if workload == "sweep-example1":
        return Inputs(seed, _perturbed(rec, "example1", seed, _scaled_couplings))
    problem = _perturbed(rec, "example2", seed, _noisy_q)
    amplitude = 1.0
    if workload == "closed-loop-n400" and seed != 0:
        amplitude = 1.0 + 0.1 * np.random.default_rng(seed).uniform(-1.0, 1.0)
    return Inputs(seed, problem, amplitude)


def _record_system(rec, system, sol) -> None:
    """Counts of the largest system of the pass."""
    rows, cols = system.A.shape
    if rows * cols * 8 >= rec.counts.get("power_series.dense_bytes", 0):
        rec.count("power_series.rows", rows)
        rec.count("power_series.cols", cols)
        rec.count("power_series.nnz", system.A.nnz)
        rec.count("power_series.rank", sol.rank)
        rec.count("power_series.dense_bytes", rows * cols * 8)


def _solve(rec, problem, cfg):
    system = rec.call("power_series.assemble", ps.assemble, problem.continuum, cfg)
    sol = rec.call("power_series.solve_ls", ps.solve_ls, system)
    _record_system(rec, system, sol)
    return system, sol


def pass_bench_example2(rec, inp: Inputs) -> None:
    """`ckpde bench --example example2 --orders 20,25`."""
    problem = inp.problem
    with rec.op("reference_s"):
        ls = rec.call("params.large_scale", problem.large_scale)
        ref = rec.call("fd_kernels.solve_characteristics", fd.solve_characteristics,
                       ls, fd.TriGrid(REF_M), max_iter=REF_MAX_ITER)
        baseline = rec.call("gains.gains", gains, ref)
        with rec.gate():
            checks.check_reference(rec, ref)
            checks.check_table(rec, baseline, ls.n, REF_M + 1)
        rec.count("fd_kernels.sweeps", ref.iterations)
        rec.count("fd_kernels.sigma_bytes", ls.n * ls.n * (REF_M + 1) * 8)
    prev = None
    for N in E2_ORDERS:
        with rec.op("solve_s"):
            system, sol = _solve(rec, problem, ps.SolverConfig(N=N, sigma_sign=-1))
            sampled = rec.call("gains.sample_gains", sample_gains, sol, ls.n,
                               grid_xi=baseline.grid_xi)
            d_np1 = rec.call("gains.diff_solutions", diff_solutions,
                             sampled, baseline)
            cur = rec.call("gains.gains", gains, sol, grid_xi=GRID, grid_y=GRID)
            d_prev = (rec.call("gains.diff_solutions", diff_solutions, cur, prev)
                      if prev is not None else 0.0)
            prev = cur
            with rec.gate():
                bound = 2.0 * checks.E2_RESIDUAL[N] if inp.seed == 0 else None
                checks.check_solution(rec, system, sol, bound)
                checks.check_finite(rec, d_np1, "d_np1")
                checks.check_finite(rec, d_prev, "d_prev")
                checks.check_table(rec, sampled, ls.n, REF_M + 1)


def pass_sweep_example1(rec, inp: Inputs) -> None:
    """`ckpde bench --example example1-ry` and `--example example1-exactq`
    at orders 12, 14, ..., 30, each solve compared with the closed form."""
    problem = inp.problem
    for exact_q in E1_PRESETS:
        with rec.op("solve_s"):
            exact = rec.call("closed_form.solve_closed_form", cf.solve_closed_form,
                             problem.continuum)
            with rec.gate():
                rec.check(not isinstance(exact, cf.NotApplicable),
                          "example1 lost its closed form")
        prev = None
        for N in E1_ORDERS:
            with rec.op("solve_s"):
                cfg = ps.SolverConfig(N=N, N_y=2, use_exact_q=exact_q)
                system, sol = _solve(rec, problem, cfg)
                t = rec.call("gains.gains", gains, sol, grid_xi=GRID, grid_y=GRID)
                r = rec.call("gains.gains", gains, exact, grid_xi=GRID, grid_y=GRID)
                err = rec.call("gains.diff_solutions", diff_solutions, t, r)
                cur = rec.call("gains.gains", gains, sol, grid_xi=GRID, grid_y=GRID)
                d_prev = (rec.call("gains.diff_solutions", diff_solutions, cur, prev)
                          if prev is not None else 0.0)
                prev = cur
                with rec.gate():
                    checks.check_solution(rec, system, sol)
                    checks.check_finite(rec, err, "max gain error")
                    checks.check_finite(rec, d_prev, "d_prev")
                    table_n = min(N, 20) if N >= 14 else None
                    if inp.seed == 0 and table_n is not None:
                        bound = 3.0 * checks.E1_REDUCED_MAXERR[table_n]
                        rec.check(err <= bound, f"N={N} exact_q={exact_q}: max gain "
                                                f"error {err:.3g} > {bound:.3g}")


def pass_closed_loop_n400(rec, inp: Inputs) -> None:
    """`ckpde simulate --config example2 --n 400 --solve-order 20
    --solve-order-y 2 --mx 256` to t = CL_T_FINAL."""
    problem = inp.problem
    with rec.op("sample_s"):
        ls = rec.call("params.large_scale", problem.large_scale, CL_N)
        with rec.gate():
            rec.check(ls.n == CL_N, f"sampled {ls.n} components")
    with rec.op("solve_s"):
        system, sol = _solve(rec, problem, ps.SolverConfig(N=20, N_y=2, sigma_sign=1))
        with rec.gate():
            checks.check_solution(rec, system, sol)
    with rec.op("sample_s"):
        table = rec.call("gains.sample_gains", sample_gains, sol, CL_N,
                         grid_xi=np.linspace(0.0, 1.0, CL_MX))
        with rec.gate():
            checks.check_table(rec, table, CL_N, CL_MX)
    with rec.op("simulate_s"):
        cfg = sim.SimConfig(n=CL_N, m_x=CL_MX, t_final=CL_T_FINAL,
                            amplitude=inp.amplitude)
        simulator = rec.call("simulate.init", sim.Simulator, cfg, ls, table)
        report = rec.call("simulate.run", simulator.run)
        with rec.gate():
            checks.check_simulation(rec, report)
        rec.count("simulate.steps", len(report.t) - 1)
        rec.count("simulate.sigma_bytes", CL_N * CL_N * CL_MX * 8)


PASSES = {
    "bench-example2": pass_bench_example2,
    "sweep-example1": pass_sweep_example1,
    "closed-loop-n400": pass_closed_loop_n400,
}
