"""Run every ``ckpde`` command of the README's ``## CLI`` code block, in
order, in a scratch directory, and fail on any unexpected exit code or on a
missing or malformed run report.

    python scripts/run_readme_cli.py [--keep DIR]

Commands run as ``python -m continuum_kernels.cli`` with this checkout's
``src`` first on ``PYTHONPATH``. The only nonzero exit the README documents
is 2 from ``closed-form --config example2`` (closed form not applicable).
Each command that names its outputs (``--out-prefix P``, ``bench --out X.csv``,
``fit-q --out F``) must leave its report (``P_report.json``, ``X_report.json``,
``F``) as strict JSON, without NaN or Infinity, holding the shared keys
``manifest``, ``problem``, ``stages_s`` and ``quality``; no run may write a
``_manifest.json``. ``--keep DIR`` runs in DIR, which should start empty,
and leaves the outputs there.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
EXPECTED_EXIT = {"closed-form --config example2": 2}
SHARED_KEYS = {"manifest", "problem", "stages_s", "quality"}


def readme_commands(text: str) -> list[list[str]]:
    """The ckpde commands of the first sh block under ``## CLI``, with line
    continuations joined and comments dropped."""
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    block = block.replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.strip().startswith("ckpde ")]


def expected_exit(argv: list[str]) -> int:
    joined = " ".join(argv)
    return next((code for cmd, code in EXPECTED_EXIT.items() if cmd in joined), 0)


def report_path(argv: list[str]) -> str | None:
    """The report a command writes, or None when it names no output file."""
    opts = dict(zip(argv, argv[1:]))
    if "--out-prefix" in opts and "--refine" not in opts:
        return f"{opts['--out-prefix']}_report.json"
    if "--out" in opts:
        out = opts["--out"]
        return out if argv[1] == "fit-q" else f"{Path(out).with_suffix('')}_report.json"
    return None


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def report_fault(path: Path) -> str | None:
    """What is wrong with a run report, or None when it is sound."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"),
                            parse_constant=_reject_constant)
    except (OSError, ValueError) as e:
        return f"report {path.name}: {e}"
    missing = SHARED_KEYS - set(report) if isinstance(report, dict) else SHARED_KEYS
    return f"report {path.name}: missing keys {sorted(missing)}" if missing else None


def run(workdir: Path) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    failures = 0
    for argv in readme_commands(README.read_text(encoding="utf-8")):
        want = expected_exit(argv)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "continuum_kernels.cli", *argv[1:]],
                              cwd=workdir, env=env, capture_output=True, text=True)
        report = report_path(argv)
        fault = report and report_fault(workdir / report)
        ok = proc.returncode == want and not fault
        failures += not ok
        print(f"{'ok ' if ok else 'FAIL'} exit {proc.returncode} (want {want}) "
              f"{time.perf_counter() - t0:6.1f} s  {shlex.join(argv)}", flush=True)
        if not ok:
            print(proc.stdout + proc.stderr + (fault or ""), file=sys.stderr)
    manifests = sorted(str(p.relative_to(workdir)) for p in workdir.rglob("*_manifest.json"))
    if manifests:
        failures += 1
        print(f"FAIL manifests written: {manifests}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--keep", type=Path, help="run in this directory and keep the outputs")
    args = ap.parse_args()
    if args.keep:
        args.keep.mkdir(parents=True, exist_ok=True)
        return run(args.keep)
    with tempfile.TemporaryDirectory() as d:
        return run(Path(d))


if __name__ == "__main__":
    sys.exit(main())
