"""Fail when a module of the package imports a private name from another
module.

    python scripts/check_private_imports.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/continuum_kernels``. A private name starts
with an underscore; dunder names such as ``__version__`` are public. The
imports are parsed with ``ast``, so parenthesised and multi-line imports
count too. Prints each offence as ``path:line: name from module`` and exits
1 if there is one, else 0.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(path: Path) -> list[tuple[int, str, str]]:
    """(line, name, module) of each private name that ``path`` imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found += [(node.lineno, a.name, module) for a in node.names
                      if is_private(a.name)]
        elif isinstance(node, ast.Import):
            for a in node.names:
                *parents, name = a.name.split(".")
                if any(map(is_private, parents + [name])):
                    found.append((node.lineno, name, ".".join(parents)))
    return found


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else ROOT / "src" / "continuum_kernels"
    offences = [f"{path}:{line}: {name} from {module or '<top level>'}"
                for path in sorted(package.rglob("*.py"))
                for line, name, module in private_imports(path)]
    print("\n".join(offences) or f"no private imports under {package}")
    return 1 if offences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
