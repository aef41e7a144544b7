"""Stdlib stand-in for ``ruff check`` when ruff is not installed.

    python3 tools/lint_fallback.py PATH...               # make lint
    python3 tools/lint_fallback.py --docstrings PATH...  # make docs-check

Each ``PATH`` is a directory (every ``*.py`` under it) or one file.  By
default, two pyflakes-class checks:

* **unused import** — a name bound by ``import`` that the module never reads,
  does not list in ``__all__`` and does not mark ``# noqa``;
* **undefined name** — a name read that no statement in the module binds
  and that is not a builtin, or a name listed in ``__all__`` that the
  module neither defines nor imports (ruff F822).

Binding is judged per module, not per scope: this misses a name bound only
in some *other* function, but it never flags working code, and it catches
what a deletion leaves behind — an import of, or a reference to, a name that
is gone.

With ``--docstrings``, the pydocstyle rules the docs job selects instead
(``ruff check --select D100,D101,D102,D103,D104,D419``): a missing
docstring on a public module (D100), class (D101), method (D102), function
(D103) or package ``__init__.py`` (D104), and an empty docstring anywhere
(D419).  Public means as ruff judges it: no leading underscore on the name
or on an enclosing module, package or class, listed in ``__all__`` when the
module defines one, and not nested in a function.  Dunder methods and
``__init__`` are other rules (D105, D107); property setters and deleters,
``@overload`` and ``@override`` methods are exempt, as in ruff.

Exit status is non-zero on any finding.
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
        findings += [
            (lineno, f"undefined name {name!r} in __all__")
            for name, lineno in (_exports(tree) or {}).items()
            if name not in bound
        ]
    return [
        f"{path}:{lineno}: {message}"
        for lineno, message in findings
        if "noqa" not in lines[lineno - 1]
    ]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _exports(tree: ast.Module) -> dict[str, int] | None:
    """Each entry of the module's literal ``__all__`` → its line, or ``None``
    when it defines none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            return {e.value: e.lineno for e in node.value.elts if isinstance(e, ast.Constant)}
    return None


def _exempt(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Setters, deleters, ``@overload`` and ``@override`` need no docstring."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Attribute):
            if isinstance(decorator.value, ast.Name) and decorator.value.id == node.name:
                return True  # @<name>.setter / @<name>.deleter
            decorator = ast.Name(decorator.attr)
        if isinstance(decorator, ast.Name) and decorator.id in ("overload", "override"):
            return True
    return False


def _definitions(body, scope: str, public: bool, exports: dict[str, int] | None):
    """Yield ``(node, kind, public)`` for every class and function under
    ``body``, where ``scope`` is ``"module"``, ``"class"`` or ``"function"``
    and ``public`` whether the enclosing scope is."""
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            is_class = isinstance(node, ast.ClassDef)
            visible = public and scope != "function" and not node.name.startswith("_")
            if scope == "module" and exports is not None:
                visible = visible and node.name in exports
            if not is_class and _exempt(node):
                visible = False
            kind = "class" if is_class else ("method" if scope == "class" else "function")
            yield node, kind, visible
            inner = "class" if is_class else "function"
            yield from _definitions(node.body, inner, visible, None)
        else:
            # Compound statements (if / try / with / for) keep their scope.
            for field in ("body", "orelse", "finalbody", "handlers"):
                block = getattr(node, field, None)
                if isinstance(block, list):
                    yield from _definitions(block, scope, public, exports)


DOC_RULES = {
    "module": "D100 missing docstring in public module",
    "package": "D104 missing docstring in public package",
    "class": "D101 missing docstring in public class",
    "method": "D102 missing docstring in public method",
    "function": "D103 missing docstring in public function",
}


def check_docstrings(path: Path) -> list[str]:
    """Docstring findings (D100-D104, D419) for one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package = path.name == "__init__.py"
    stem = path.parent.name if package else path.stem
    public = not _private(stem)
    parent = path.parent
    while public and (parent / "__init__.py").exists():
        public = not _private(parent.name)  # inside a private package
        parent = parent.parent
    findings = []
    nodes = [(tree, "package" if package else "module", public)]
    nodes += _definitions(tree.body, "module", public, _exports(tree))
    for node, kind, visible in nodes:
        doc = ast.get_docstring(node, clean=False)
        lineno = getattr(node, "lineno", 1)
        name = getattr(node, "name", stem)
        if doc is None:
            if visible:
                findings.append(f"{path}:{lineno}: {DOC_RULES[kind]} {name!r}")
        elif not doc.strip():
            findings.append(f"{path}:{lineno}: D419 docstring is empty {name!r}")
    return findings


def main(argv: list[str]) -> int:
    """Lint every ``*.py`` under the paths in ``argv``; print findings."""
    checker, label = check, "lint fallback"
    if argv[:1] == ["--docstrings"]:
        argv, checker, label = argv[1:], check_docstrings, "docstring fallback"
    files = sorted(
        p for root in map(Path, argv) for p in (root.rglob("*.py") if root.is_dir() else [root])
    )
    findings = [finding for path in files for finding in checker(path)]
    print("\n".join(findings) or f"{label}: {len(files)} files clean")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
