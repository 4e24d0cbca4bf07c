"""Benchmark of the continuum-kernels workflows.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload bench-example2 --seed 0 --seconds 10 --trace 0

One client runs passes of the workload back to back (a closed loop: each
operation starts when the previous one ends) until the next pass would end
after ``--seconds``. Every operation's answer is checked. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
(operations that failed a check or raised) and ``metrics``, which are the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. A full record of the run, with the environment, the exact
counts and, when traced, every span, is written to
``perfbench/runs/<workload>-seed<seed>-trace<trace>.json``. The exit code is
0 when every check passed and 1 otherwise.
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
from pathlib import Path

from spans import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("bench-example2", "sweep-example1", "closed-loop-n400")
SETUP_SAMPLES = 5          # one in this process, the rest in fresh processes
# One BLAS thread: with two on a two-CPU machine, a stalled CPU leaves the
# other spinning at OpenBLAS's barriers (a 0.1 s solve was measured at 2.6 s),
# which makes run-to-run times unrepeatable.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# spans recorded around calls into the package, one per public function
LAYERS = ("params.load_problem", "params.large_scale", "power_series.assemble",
          "power_series.solve_ls", "closed_form.solve_closed_form",
          "gains.gains", "gains.sample_gains", "gains.diff_solutions",
          "fd_kernels.solve_characteristics", "simulate.init", "simulate.run")
COUNTS = ("power_series.rows", "power_series.cols", "power_series.nnz",
          "power_series.rank", "power_series.dense_bytes", "fd_kernels.sweeps",
          "fd_kernels.sigma_bytes", "simulate.steps", "simulate.sigma_bytes")


def timed_setup(workload: str, seed: int):
    """Import the package, load the config and make the seeded inputs."""
    t0 = time.perf_counter()
    import workloads  # imports numpy, scipy and continuum_kernels
    rec = Recorder(traced=True)
    inputs = workloads.make_inputs(rec, workload, seed)
    setup_s = time.perf_counter() - t0
    return inputs, setup_s, rec.self_times()["params.load_problem"]


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Time the set-up in a fresh interpreter, where nothing is imported."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["load_problem_s"]


def environment(threads: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "blas": blas, "blas_threads": threads, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": platform.python_version()}


def run_passes(pass_fn, inputs, seconds: float, traced_every_other: bool):
    """Passes back to back until the next one would end after ``seconds``.

    With tracing, passes alternate untraced and traced, at least one each,
    so that one run gives the tracing overhead.
    """
    records = []
    t0 = time.perf_counter()
    while True:
        rec = Recorder(traced=traced_every_other and len(records) % 2 == 1)
        try:
            with rec.run_pass():
                pass_fn(rec, inputs)
        except Exception as e:  # the operation that raised counts as failed
            rec.failures.append((rec.op_id, f"{type(e).__name__}: {e}"))
        records.append(rec)
        if rec.failures:
            break
        enough = len(records) >= (2 if traced_every_other else 1)
        typical = statistics.median(r.pass_s for r in records)
        if enough and time.perf_counter() - t0 + typical > seconds:
            break
    return records


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(records, setup_s) -> dict:
    plain = [r for r in records if not r.traced]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "solve_s": (_median(r.stages["solve_s"] for r in plain), "s"),
        "pass_s": (_median(r.pass_s for r in plain), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(records, load_problem_s) -> dict:
    plain = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]
    selfs = [r.self_times() for r in traced]
    counts = records[0].counts
    out = {f"{layer}_s": (_median(s.get(layer, 0.0) for s in selfs), "s")
           for layer in LAYERS}
    out["params.load_problem_s"] = (statistics.median(load_problem_s), "s")
    out.update({name: (counts.get(name, 0), "B" if name.endswith("_bytes") else "count")
                for name in COUNTS})
    sweeps, steps = counts.get("fd_kernels.sweeps", 0), counts.get("simulate.steps", 0)
    out["fd_kernels.sweep_ms"] = (
        1e3 * out["fd_kernels.solve_characteristics_s"][0] / sweeps if sweeps else 0.0, "ms")
    out["simulate.step_ms"] = (
        1e3 * out["simulate.run_s"][0] / steps if steps else 0.0, "ms")
    for stage in ("reference_s", "sample_s", "simulate_s"):
        out[stage] = (_median(r.stages[stage] for r in plain), "s")
    traced_pass = _median(r.pass_s for r in traced)
    out["trace.overhead_s"] = (traced_pass - _median(r.pass_s for r in plain), "s")
    out["trace.harness_s"] = (_median(
        r.pass_s - sum(s.get(layer, 0.0) for layer in LAYERS)
        for r, s in zip(traced, selfs)), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "continuum_kernels" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))

    if args.probe_setup:
        _, setup_s, load_s = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "load_problem_s": load_s}))
        return 0

    samples = [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    inputs, setup_s, load_s = timed_setup(args.workload, args.seed)
    samples.append((setup_s, load_s))

    import checks
    import workloads
    problems = checks.self_test()
    if problems:
        print("error: the correctness gate missed a corrupted solution: "
              + "; ".join(problems), file=sys.stderr)
        return 1

    records = run_passes(workloads.PASSES[args.workload], inputs,
                         args.seconds, bool(args.trace))
    first = records[0].counts
    for i, r in enumerate(records[1:], 1):
        if r.counts != first and not r.failures:
            r.failures.append((-1, f"pass {i} counts {r.counts} differ from {first}"))
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    failures = [msg for r in records for _, msg in r.failures]
    correct = not failures
    setup_samples = [s for s, _ in samples]
    metrics = (per_layer(records, [l for _, l in samples]) if args.trace
               else end_to_end(records, setup_samples))

    env = environment(BLAS_THREADS)
    out_dir = HERE / "runs"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failures": failures, "counts": first, "setup_s": setup_samples,
        "passes": [{"traced": r.traced, "pass_s": r.pass_s, "gate_s": r.gate_s,
                    "stages": r.stages, "attempted": r.attempted, "failed": r.failed}
                   for r in records],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": [[dict(zip(("name", "start", "end", "parent", "op"), sp))
                   for sp in r.spans] for r in records if r.traced],
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for msg in failures:
        print(f"FAILED: {msg}")
    print(f"{args.workload} seed {args.seed}: {len(records)} passes, "
          f"{attempted} operations, failed_ops {failed / max(attempted, 1):.3g}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
