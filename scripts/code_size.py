"""Print the package's code-size counters.

One line per counter, ``<name> <count>``:

- lines in ``src/lockeysim/*.py``;
- names that ``src/lockeysim/__init__.py`` imports, counted on its syntax tree;
- keys of ``lockeysim.config.DEFAULTS``, the configuration keys the program reads.

Run from anywhere: ``python3 scripts/code_size.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lockeysim"
sys.path.insert(0, str(PACKAGE.parent))

from lockeysim.config import DEFAULTS  # noqa: E402


def code_size() -> list:
    """``[(name, count)]`` of the counters listed in the module docstring."""
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    names = sum(len(node.names) for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)))
    return [("src/lockeysim lines", lines), ("__init__ imported names", names), ("DEFAULTS keys", len(DEFAULTS))]


if __name__ == "__main__":
    for name, count in code_size():
        print(f"{name:24s} {count}")
