"""A/B verdict of two revisions on one end-to-end benchmark workload.

    python3 tools/ab.py REV_A REV_B --workload W [--pairs N] [--seed S]

Both revisions are checked out as git worktrees at paths of equal length
(``peak_rss_mb`` moves with the length of the file paths a process loads)
and byte-compiled, so neither side pays for compiling its modules.  Each
pair runs ``benchmarks/e2e/run.py --workload W --trace 0`` once per side,
in a fresh interpreter, in ABBA order: A then B, then B then A, and so on.

It prints one JSON verdict per end-to-end metric of ``BENCHMARK.json``:
each side's median, the median of the per-pair B/A ratios, B's wins out of
the ``n`` untied pairs (the metric's ``better`` sets the direction), the
exact two-sided sign-test p-value, ``iqr_a`` (the distance between the
quartiles of A's runs), whether the difference is resolved, and each side's
per-pair values.  A difference is resolved only when there are at least ten
untied pairs, one side wins at least nine tenths of them, and the medians
differ by more than ``iqr_a``: fewer pairs, a split verdict or a shift
inside A's own spread is reported as unresolved, not as a change.

After the verdicts come report-only rows, one per metric that every run of
both sides carries beyond that list (the report's ``not_in_contract``
entries: ``ttft_p90_s``, ``tpot_p90_s``, ``tpot_p99_s`` and the warm-up
round's ``cold_round_s``).  They hold the same arithmetic, lower being
better, and ``"report_only": true`` in place of ``resolved``: they are never
part of a verdict or of the exit status.

The run fails (exit 1) if any run is incorrect or failed a request, or if
``peak_kv_bytes`` or an exact counter (the ``counters`` of the run's
``reports/e2e/<workload>.seed<S>.trace0.json``) is not the same in every
run.  A value that differs between runs of one side is reported as not
deterministic; one that is steady on each side but differs between them is
reported as moved between revisions, with both values.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNER = "benchmarks/e2e/run.py"
#: Fewest untied pairs that can resolve a metric.
MIN_PAIRS = 10
#: Share of the untied pairs one side must win to resolve a metric.
MIN_WIN_SHARE = 0.9


def sign_test_p(wins: int, n: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` out of ``n`` untied pairs."""
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, n - wins) + 1))
    return min(1.0, 2 * tail / 2**n)


def iqr(values: list[float]) -> float:
    """Distance between the lower and upper quartile of ``values``."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(name: str, better: str, a: list[float], b: list[float]) -> dict:
    """The verdict on one metric from its per-pair values on each side."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    n = sum(x != y for x, y in zip(a, b))
    ratios = [y / x for x, y in zip(a, b)]
    median_a, median_b = statistics.median(a), statistics.median(b)
    iqr_a = iqr(a)
    resolved = (
        n >= MIN_PAIRS
        and max(wins, n - wins) >= MIN_WIN_SHARE * n
        and abs(median_b - median_a) > iqr_a
    )
    return {
        "metric": name,
        "better": better,
        "median_a": median_a,
        "median_b": median_b,
        "median_ratio": statistics.median(ratios),
        "wins": wins,
        "n": n,
        "pairs": len(a),
        "p": sign_test_p(wins, n),
        "iqr_a": iqr_a,
        "resolved": resolved,
        "a": a,
        "b": b,
    }


def _unsteady(name: str, values: dict[str, list]) -> str | None:
    """Why ``name``'s per-side run values are not one steady value."""
    for side, vals in values.items():
        if len(set(vals)) > 1:
            return f"not deterministic: {name} read {vals} on side {side}"
    a, b = (vals[0] for vals in values.values())
    if a != b:
        return f"counters moved between revisions: {name} a={a} b={b}"
    return None


def run_problems(runs_a: list[dict], runs_b: list[dict]) -> list[str]:
    """Why the runs of two sides cannot be compared (empty when they can)."""
    problems = [
        f"run {side}{i}: correct={run['correct']} failed={run['failed']}"
        for side, runs in (("a", runs_a), ("b", runs_b))
        for i, run in enumerate(runs)
        if not run["correct"] or run["failed"]
    ]
    sides = {"a": runs_a, "b": runs_b}
    kv = {s: [run["metrics"]["peak_kv_bytes"]["value"] for run in r] for s, r in sides.items()}
    names = sorted({name for run in runs_a + runs_b for name in run["counters"]})
    counters = {
        name: {s: [run["counters"].get(name) for run in r] for s, r in sides.items()}
        for name in names
    }
    for name, values in [("peak_kv_bytes", kv), *counters.items()]:
        problem = _unsteady(name, values)
        if problem is not None:
            problems.append(problem)
    return problems


def verdicts(spec: dict, runs_a: list[dict], runs_b: list[dict]) -> list[dict]:
    """One verdict per end-to-end metric of ``spec`` (``BENCHMARK.json``)."""
    out = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        a = [run["metrics"][name]["value"] for run in runs_a]
        b = [run["metrics"][name]["value"] for run in runs_b]
        out.append(verdict(name, metric["better"], a, b))
    return out


def report_only(spec: dict, runs_a: list[dict], runs_b: list[dict]) -> list[dict]:
    """One row per metric every run of both sides carries beyond ``spec``'s
    end-to-end list, with :func:`verdict`'s arithmetic but no ``resolved``:
    these are tail latencies and times, so lower is better."""
    contract = {metric["name"] for metric in spec["end_to_end"]}
    runs = runs_a + runs_b
    names = [
        name
        for name in (runs[0].get("extras", {}) if runs else {})
        if name not in contract and all(name in run.get("extras", {}) for run in runs)
    ]
    out = []
    for name in names:
        a = [run["extras"][name]["value"] for run in runs_a]
        b = [run["extras"][name]["value"] for run in runs_b]
        row = verdict(name, "lower", a, b)
        del row["resolved"]
        out.append({**row, "report_only": True})
    return out


def _run(tree: Path, workload: str, seed: int) -> dict:
    """One untraced run in ``tree``: its last stdout line, plus the exact
    ``counters`` and the ``not_in_contract`` metrics (as ``extras``) of the
    report it wrote."""
    proc = subprocess.run(
        [sys.executable, RUNNER, "--workload", workload, "--trace", "0", "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree.name}: no output (exit {proc.returncode})\n{proc.stderr}")
    path = tree / "reports" / "e2e" / f"{workload}.seed{seed}.trace0.json"
    report = json.loads(path.read_text())
    return {
        **json.loads(lines[-1]),
        "counters": report["counters"],
        "extras": report["not_in_contract"],
    }


def _git(*args: str) -> None:
    subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True)


def main(argv=None) -> int:
    """Run the ABBA pairs of one workload and print a verdict per metric;
    returns the exit status (1 on an incorrect run or a moved counter)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = Path(tempfile.mkdtemp(prefix="ab-"))
    trees = {"a": workdir / "a", "b": workdir / "b"}
    try:
        for side, rev in (("a", args.rev_a), ("b", args.rev_b)):
            _git("worktree", "add", "--detach", str(trees[side]), rev)
            subprocess.run(
                [sys.executable, "-m", "compileall", "-q", "src", "benchmarks"],
                cwd=trees[side], check=True, capture_output=True,
            )
        runs: dict[str, list[dict]] = {"a": [], "b": []}
        for pair in range(args.pairs):
            for side in ("ab" if pair % 2 == 0 else "ba"):
                runs[side].append(_run(trees[side], args.workload, args.seed))
            print(f"# pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    finally:
        for tree in trees.values():
            if tree.exists():
                _git("worktree", "remove", "--force", str(tree))
        _git("worktree", "prune")
        workdir.rmdir()

    problems = run_problems(runs["a"], runs["b"])
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    for entry in verdicts(spec, runs["a"], runs["b"]) + report_only(spec, runs["a"], runs["b"]):
        print(json.dumps({"workload": args.workload, **entry}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
