"""Documentation link checker for the CI docs job.

Verifies that:

1. ``README.md`` exists and every page in ``docs/`` is reachable from it by
   following relative markdown links (the repo's navigability contract);
2. every relative markdown link and image in ``README.md`` and ``docs/*.md``
   resolves to an existing file (anchors are stripped; external ``http(s)``
   and ``mailto`` links are not fetched);
3. every `path`-like inline-code reference to a tracked top-level artifact
   (``docs/…``, ``benchmarks/…``, ``tools/…``, ``examples/…``, ``src/…``,
   ``tests/…``) in those pages points at something that exists — stale file
   references are doc drift;
4. the knob table in ``docs/serving.md`` has one row per
   :class:`repro.serving.EngineConfig` field, in declaration order, showing
   the field's actual default — the table is the only place docs state
   knob defaults, so it may not drift from the dataclass.

Checks 1-3 need only the standard library; check 4 imports ``repro``.
Exit status is non-zero on any failure, so CI can gate on it.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
README = REPO_ROOT / "README.md"

#: Inline markdown links/images: [text](target) — fenced code is stripped first.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
#: Inline-code path references like `docs/kvcache.md` or `tools/check_docs.py`.
CODE_PATH_RE = re.compile(
    r"`((?:docs|benchmarks|tools|examples|src|tests)/[A-Za-z0-9_./-]+)`"
)
FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
#: A knob-table row: | `name` | `default` | meaning | consumed by |
KNOB_ROW_RE = re.compile(r"^\| `(\w+)` \| `([^`]*)` \|.*\|.*\|$", re.MULTILINE)


def _strip_code(text: str) -> str:
    """Remove fenced code blocks (shell snippets are full of fake 'links')."""
    return FENCE_RE.sub("", text)


def _is_external(target: str) -> bool:
    return target.startswith(("http://", "https://", "mailto:", "#"))


def check_file(path: Path) -> tuple[list[Path], list[str]]:
    """Return ``(linked_markdown_files, errors)`` for one markdown page."""
    text = _strip_code(path.read_text())
    errors: list[str] = []
    linked: list[Path] = []
    for match in LINK_RE.finditer(text):
        target = match.group(1).split("#", 1)[0]
        if not target or _is_external(match.group(1)):
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: dead link -> {target}")
        elif resolved.suffix == ".md":
            linked.append(resolved)
    for match in CODE_PATH_RE.finditer(text):
        target = (REPO_ROOT / match.group(1)).resolve()
        if not target.exists():
            errors.append(
                f"{path.relative_to(REPO_ROOT)}: stale path reference -> {match.group(1)}"
            )
    return linked, errors


def check_knob_table() -> list[str]:
    """Compare the ``docs/serving.md`` knob table with ``EngineConfig``."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.serving import EngineConfig

    want = [(f.name, repr(f.default)) for f in dataclasses.fields(EngineConfig)]
    rows = KNOB_ROW_RE.findall((DOCS_DIR / "serving.md").read_text())
    if rows == want:
        return []
    return [
        "docs/serving.md: knob table (name, default) rows differ from EngineConfig's "
        f"fields — missing or stale: {sorted(set(rows) ^ set(want)) or 'row order'}"
    ]


def main() -> int:
    """Walk the link graph from README.md and report every problem found."""
    errors: list[str] = check_knob_table()
    if not README.exists():
        print("FAILED: README.md does not exist")
        return 1

    # Walk the link graph from README.md.
    reachable: set[Path] = set()
    queue = [README.resolve()]
    while queue:
        page = queue.pop()
        if page in reachable:
            continue
        reachable.add(page)
        linked, page_errors = check_file(page)
        errors.extend(page_errors)
        queue.extend(linked)

    for doc in sorted(DOCS_DIR.glob("*.md")):
        if doc.resolve() not in reachable:
            errors.append(f"docs/{doc.name}: not reachable from README.md")

    checked = sorted(str(p.relative_to(REPO_ROOT)) for p in reachable)
    print(f"checked {len(checked)} pages: {', '.join(checked)}")
    if errors:
        print(f"\nFAILED — {len(errors)} problem(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    print("OK — README reaches every docs page and no link is dead")
    return 0


if __name__ == "__main__":
    sys.exit(main())
