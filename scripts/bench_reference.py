"""Time the n+1 reference solver, `fd_kernels.solve_characteristics`.

Usage, from the root of the repository:

    python scripts/bench_reference.py --tree after=src [--tree before=OTHER/src]
        [--reps 5] [--out times.json]

Each `--tree label=path` names a source directory to import the package
from; with two trees the runs alternate, so both see the same machine
state. Every (case, tree, repetition) runs in a fresh interpreter with one
BLAS thread and reports the solve's wall time, the part of it that builds
the stencils, its sweep count, and the process's peak RSS before the solve
(the imports and the problem) and after it. The cases are
example2 at n = 10 with m = 128, 256 and 512; example2 at m = 256 with
n = 20, 80 and 160; example1 at n = 10, m = 256; and, at m = 256 with n = 10
and 160, `varying`: example2's couplings with lambda = (1+x)(1+y) and
mu = 2-x, so every family row of lambda differs. The JSON written has the
median and quartiles of each case per tree, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

CASES = [("example2", 10, 128), ("example2", 10, 256), ("example2", 10, 512),
         ("example2", 20, 256), ("example2", 80, 256), ("example2", 160, 256),
         ("example1", 10, 256), ("varying", 10, 256), ("varying", 160, 256)]


def problem(name: str):
    from continuum_kernels.params import load_problem, parse_problem_dict

    if name != "varying":
        return load_problem(name)
    cfg = dict(load_problem("example2").source)
    cfg["lambda"] = {"terms": [{"scale": 1.0, "factors": [
        {"var": "x", "kind": "poly", "coeffs": [1.0, 1.0]},
        {"var": "y", "kind": "poly", "coeffs": [1.0, 1.0]}]}]}
    cfg["mu"] = {"terms": [{"scale": 1.0, "factors": [
        {"var": "x", "kind": "poly", "coeffs": [2.0, -1.0]}]}]}
    return parse_problem_dict(cfg)


def one_run(name: str, n: int, m: int) -> dict:
    from continuum_kernels.fd_kernels import TriGrid, solve_characteristics

    ls = problem(name).large_scale(n)
    base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t = time.perf_counter()
    sol = solve_characteristics(ls, TriGrid(m))
    t = time.perf_counter() - t
    return {"time_s": t, "stencils_s": sol.stages_s["stencils"], "sweeps": sol.iterations,
            "base_rss_mb": base,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def spawn(src: str, case: tuple) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--case", ",".join(map(str, case))],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2]}


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "cpus": os.cpu_count(),
            "blas_threads": 1}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tree", action="append", default=[],
                   help="label=path of a source directory (repeatable)")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out", default=None)
    p.add_argument("--case", default=None, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.case:
        name, n, m = args.case.split(",")
        print(json.dumps(one_run(name, int(n), int(m))))
        return 0
    trees = dict(t.split("=", 1) for t in args.tree) or {"after": "src"}
    runs = {label: {} for label in trees}
    for case in CASES:
        key = f"{case[0]} n={case[1]} m={case[2]}"
        for rep in range(args.reps):
            order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
            for label in order:
                runs[label].setdefault(key, []).append(spawn(trees[label], case))
        print(key, {label: round(statistics.median(r["time_s"] for r in runs[label][key]), 3)
                    for label in trees}, file=sys.stderr)
    result = {"environment": environment(), "reps": args.reps, "cases": {
        label: {key: {"time_s": summary([r["time_s"] for r in rs]),
                      "stencils_s": summary([r["stencils_s"] for r in rs]),
                      "sweeps": rs[0]["sweeps"],
                      "base_rss_mb": summary([r["base_rss_mb"] for r in rs]),
                      "peak_rss_mb": summary([r["peak_rss_mb"] for r in rs])}
                for key, rs in cases.items()}
        for label, cases in runs.items()}}
    text = json.dumps(result, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
