"""Every public name in ``src/repro`` is called by code outside ``tests/``.

A public module-level function or class, or a public method, counts as
called when its name appears as a word in ``src/``, ``benchmarks/``,
``tools/``, ``examples/`` or the ``Makefile`` outside its own definition.
Imports (the ``__init__`` re-exports among them), ``__all__`` lists,
docstrings, comments and the name token of a ``def``/``class`` statement are
not calls; any other string literal is (the e2e tracer names its targets in
strings).  Dropping an uncalled name also drops the words inside its body, so
the search repeats until nothing changes.  The names in :data:`KEPT`, and the
public methods of a kept class, are entry points that are never dropped;
each kept name must itself be uncalled, and nothing else may be.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "tools", "examples")
WORD = re.compile(r"[A-Za-z_]\w*")

#: Public names no code outside ``tests/`` calls, each kept for a reason.
KEPT = {
    "BeamSearch": "public beam-search entry point (ROADMAP 17(c))",
    "BatchedGenerator": "public batch-of-prompts front-end of the serving engine",
    "Generator.perplexity": "teacher-forced perplexity of a sequence under a cache policy",
    "KeyformerScore.noisy_softmax": "the paper's Eq. 9; the prompt-scoring reference calls it",
    "KeyformerScore.configure_schedule": "the paper's Eq. 10 temperature schedule",
    "NoiseDistribution.pdf": "noise density of the Table 4 distributions",
    "GumbelNoise.pdf": "noise density of the Table 4 distributions",
    "GaussianNoise.pdf": "noise density of the Table 4 distributions",
    "SummarizationDataset.corpus_text": "tokenizer-training text of a dataset",
    "ConversationDataset.corpus_text": "tokenizer-training text of a dataset",
    "FewShotTask.corpus_text": "tokenizer-training text of a dataset",
    "make_fewshot_task": "builds one few-shot task by name",
    "CacheManager.initialize_empty": "test oracle: a manager with no prompt",
    "BatchedCacheManager.total_kv_bytes": "test oracle: the bytes the rows hold",
    "WTinyLFUAdmissionPolicy.segments": "inspects the window/probation/protected split",
    "ShardedEngine.kill_replica": "fault injection on one replica",
    "ShardedEngine.drain": "steps until every in-flight request finishes",
    "Trace.from_json": "reader of Trace.to_json",
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Start lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.add(body[0].lineno)
    return lines


def _skipped_lines(tree: ast.Module) -> set[int]:
    """Lines of import statements and ``__all__`` assignments."""
    lines = set()
    for node in ast.walk(tree):
        skip = isinstance(node, (ast.Import, ast.ImportFrom))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            skip = any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)
        if skip:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _python_words(path: Path) -> list[tuple[str, int]]:
    """``(word, line)`` for every word of ``path`` that can be a call."""
    source = path.read_text()
    tree = ast.parse(source)
    docstrings = _docstring_lines(tree)
    skipped = _skipped_lines(tree)
    words = []
    previous = None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        line = tok.start[0]
        if tok.type == tokenize.COMMENT or line in skipped:
            pass
        elif tok.type == tokenize.NAME:
            if previous not in ("def", "class"):
                words.append((tok.string, line))
        elif tok.type == tokenize.STRING and line not in docstrings:
            words.extend((word, line) for word in WORD.findall(tok.string))
        if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
            previous = tok.string
    return words


def _definitions() -> dict[str, list[tuple[Path, int, int]]]:
    """Public functions, classes and methods under ``src/repro`` → spans."""
    found: dict[str, list[tuple[Path, int, int]]] = {}

    def add(key, path, node):
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        found.setdefault(key, []).append((path, start, node.end_lineno))

    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            add(node.name, path, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not item.name.startswith("_"):
                        add(f"{node.name}.{item.name}", path, item)
    return found


def _corpus() -> list[tuple[str, Path, int]]:
    """``(word, path, line)`` for every call-capable word outside ``tests/``."""
    words = []
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            words.extend((word, path, line) for word, line in _python_words(path))
    for number, text in enumerate((ROOT / "Makefile").read_text().splitlines(), 1):
        words.extend((word, ROOT / "Makefile", number) for word in WORD.findall(text.split("#")[0]))
    return words


def surface(kept) -> tuple[set[str], set[str]]:
    """``(dropped, kept_uncalled)`` at the fixed point.

    ``kept`` names, and the public methods of kept classes, are entry
    points: never dropped, so the words in their bodies stay calls.
    ``dropped`` are the other names nothing surviving calls;
    ``kept_uncalled`` are the ``kept`` names that indeed nothing calls.
    """
    definitions = _definitions()
    corpus = _corpus()
    roots = {key for key in definitions if key in kept or key.split(".")[0] in kept}
    dropped: set[str] = set()

    def inside(spans, path, line):
        return any(p == path and start <= line <= end for p, start, end in spans)

    while True:
        dead_spans = [span for key in dropped for span in definitions[key]]
        by_word: dict[str, list[tuple[Path, int]]] = {}
        for word, path, line in corpus:
            if not inside(dead_spans, path, line):
                by_word.setdefault(word, []).append((path, line))
        uncalled = {
            key
            for key, spans in definitions.items()
            if key not in dropped
            and all(
                inside(spans, path, line)
                for path, line in by_word.get(key.rsplit(".", 1)[-1], ())
            )
        }
        if uncalled <= roots:
            return dropped, uncalled & set(kept)
        dropped |= uncalled - roots


def test_every_public_name_is_called_or_kept():
    assert all(reason.strip() for reason in KEPT.values())
    dropped, kept_uncalled = surface(KEPT)
    assert not dropped, f"uncalled outside tests/, delete or keep: {sorted(dropped)}"
    called = set(KEPT) - kept_uncalled
    assert not called, f"in KEPT but called or gone: {sorted(called)}"
