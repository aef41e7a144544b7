"""Stdlib stand-in for ``ruff check`` when ruff is not installed (``make lint``).

Two pyflakes-class checks over every ``*.py`` under the given paths:

* **unused import** — a name bound by ``import`` that the module never reads,
  does not list in ``__all__`` and does not mark ``# noqa``;
* **undefined name** — a name read that no statement in the module binds
  and that is not a builtin.

Binding is judged per module, not per scope: this misses a name bound only
in some *other* function, but it never flags working code, and it catches
what a deletion leaves behind — an import of, or a reference to, a name that
is gone.  Exit status is non-zero on any finding.
"""

from __future__ import annotations

import ast
import builtins
import sys
from pathlib import Path

MODULE_NAMES = {"__file__", "__name__", "__doc__", "__spec__", "__path__", "__class__"}


def _names_in(node: ast.AST) -> set[str]:
    """Names read under ``node``, looking inside string annotations too."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                quoted = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def check(path: Path) -> list[str]:
    """Findings for one file, as ``path:line: message`` strings."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    imports: dict[str, int] = {}
    bound = set(dir(builtins)) | MODULE_NAMES
    loads: list[ast.Name] = []
    star = False
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                star |= alias.name == "*"
                imports[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                loads.append(node)
            else:
                bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.ExceptHandler, ast.MatchAs, ast.MatchStar)) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
    used = _names_in(tree)
    findings = [
        (lineno, f"unused import {name!r}") for name, lineno in imports.items() if name not in used
    ]
    if not star:
        bound |= imports.keys()
        findings += [
            (node.lineno, f"undefined name {node.id!r}") for node in loads if node.id not in bound
        ]
    return [
        f"{path}:{lineno}: {message}"
        for lineno, message in findings
        if "noqa" not in lines[lineno - 1]
    ]


def main(argv: list[str]) -> int:
    """Lint every ``*.py`` under the paths in ``argv``; print findings."""
    files = sorted(p for root in argv for p in Path(root).rglob("*.py"))
    findings = [finding for path in files for finding in check(path)]
    print("\n".join(findings) or f"lint fallback: {len(files)} files clean")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
