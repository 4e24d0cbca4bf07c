"""Run every ``ckpde`` command of the README's ``## CLI`` code block, in
order, in a scratch directory, and fail on any unexpected exit code.

    python scripts/run_readme_cli.py [--keep DIR]

Commands run as ``python -m continuum_kernels.cli`` with this checkout's
``src`` first on ``PYTHONPATH``. The only nonzero exit the README documents
is 2 from ``closed-form --config example2`` (closed form not applicable).
``--keep DIR`` runs in DIR and leaves the outputs there.
"""

from __future__ import annotations

import argparse
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
        ok = proc.returncode == want
        failures += not ok
        print(f"{'ok ' if ok else 'FAIL'} exit {proc.returncode} (want {want}) "
              f"{time.perf_counter() - t0:6.1f} s  {shlex.join(argv)}", flush=True)
        if not ok:
            print(proc.stdout + proc.stderr, file=sys.stderr)
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
