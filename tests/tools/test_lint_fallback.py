"""The docstring rules of ``tools/lint_fallback.py`` (the ``make docs-check``
stand-in for ``ruff check --select D100,D101,D102,D103,D104,D419``), and its
stale-``__all__`` rule (ruff F822)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("lint_fallback", ROOT / "tools" / "lint_fallback.py")
lint_fallback = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint_fallback)

MODULE = '''\
"""Doc."""


class Public:
    """Doc."""

    def method(self):
        pass

    def _private(self):
        pass

    def __init__(self):
        pass

    def __len__(self):
        return 0

    @property
    def value(self):
        """Doc."""

    @value.setter
    def value(self, new):
        pass

    class Inner:
        pass

    def blank(self):
        """   """


class _Hidden:
    def method(self):
        pass


def function():
    def nested():
        pass

    class Local:
        def method(self):
            pass


def _helper():
    pass


if True:
    def guarded():
        pass
'''


def _codes(path: Path) -> list[tuple[str, str]]:
    """``(code, name)`` of each finding for ``path``."""
    out = []
    for finding in lint_fallback.check_docstrings(path):
        message = finding.split(": ", 1)[1]
        out.append((message.split()[0], message.rsplit(" ", 1)[1].strip("'")))
    return out


def test_public_definitions_need_docstrings(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    assert _codes(path) == [
        ("D102", "method"),
        ("D101", "Inner"),
        ("D419", "blank"),
        ("D103", "function"),
        ("D103", "guarded"),
    ]


def test_all_narrows_the_public_names(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text('__all__ = ["Public"]\n' + MODULE)
    assert ("D103", "function") not in _codes(path)
    assert ("D102", "method") in _codes(path)


def test_modules_and_packages(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "_private").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "mod.py").write_text('""""""\n')
    (tmp_path / "_private" / "__init__.py").write_text('"""Doc."""\n')
    (tmp_path / "_private" / "mod.py").write_text("def f():\n    pass\n")
    assert _codes(tmp_path / "pkg" / "__init__.py") == [("D104", "pkg")]
    assert _codes(tmp_path / "pkg" / "mod.py") == [("D419", "mod")]
    assert _codes(tmp_path / "_private" / "mod.py") == []


def test_docs_check_paths_are_clean(capsys):
    paths = ["src/repro/kvcache", "src/repro/speculative", "src/repro/serving", "tools",
             "benchmarks/run_bench.py"]
    assert lint_fallback.main(["--docstrings", *(str(ROOT / p) for p in paths)]) == 0
    assert "files clean" in capsys.readouterr().out


def test_all_entries_must_be_defined_or_imported(tmp_path):
    """A name deleted from a module but left in its ``__all__`` is flagged."""
    path = tmp_path / "mod.py"
    path.write_text(
        'from os import sep\n\n__all__ = ["sep", "kept", "CONST", "gone"]\n'
        "CONST = 1\n\n\ndef kept():\n    pass\n"
    )
    assert [f.split(": ", 1)[1] for f in lint_fallback.check(path)] == [
        "undefined name 'gone' in __all__"
    ]
