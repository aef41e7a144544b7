"""CI benchmark regression gate.

Compares a fresh smoke-benchmark report against the committed reference
(``BENCH_micro.json``) and fails when a pinned metric regresses by more than
the threshold (default 1.5x).

Three kinds of metrics are gated:

* **Timing metrics** (components with ``min_s``): raw wall-clock differs
  between the pinning machine and a CI runner, so each component's slowdown
  is normalized by the *median* slowdown across all shared components — a
  uniformly slower machine shifts every component equally and passes, while
  a single hot path regressing relative to the rest fails.
* **Ratio metrics** (components with ``speedup``, e.g. the batched-serving
  speedup): dimensionless and machine-independent, gated directly against
  the pinned value divided by the threshold.
* **Exact counters** (:data:`EXACT_COUNTERS`): integers from pinned
  deterministic workloads that count what the KV stack's victim choices did
  (spills, restores, peak pages, registry hit tokens).  They are the same in
  smoke and full runs on every machine, so any change means a victim order
  changed: each must equal its pinned value exactly.

Usage::

    python benchmarks/check_regression.py --report BENCH_smoke.json \
        [--baseline BENCH_micro.json] [--threshold 1.5]

Exit status is non-zero on any regression, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_micro.json"
DEFAULT_THRESHOLD = 1.5

#: Component -> fields gated for exact equality with the pinned report.
EXACT_COUNTERS = {
    "offload_capacity_ratio": (
        "spills",
        "restores",
        "peak_pages_offload",
        "peak_pages_no_offload",
    ),
    "prefix_admission_hit_tokens_lru": ("hit_tokens",),
    "prefix_admission_hit_tokens_wtinylfu": ("hit_tokens",),
}


def load_components(path: Path) -> dict:
    data = json.loads(path.read_text())
    return data.get("components", data)


def check(
    baseline: dict, report: dict, threshold: float
) -> tuple[list[str], list[str]]:
    """Return ``(log_lines, failures)`` for the shared metrics."""
    lines: list[str] = []
    failures: list[str] = []

    timing = {
        name
        for name, component in report.items()
        if "min_s" in component
        and name in baseline
        and "min_s" in baseline[name]
        and baseline[name]["min_s"] > 0
    }
    slowdowns = {
        name: report[name]["min_s"] / baseline[name]["min_s"] for name in sorted(timing)
    }
    if slowdowns:
        machine_factor = statistics.median(slowdowns.values())
        lines.append(
            f"median slowdown vs pinned baseline: {machine_factor:.2f}x "
            "(machine-speed normalization factor)"
        )
        for name, slowdown in slowdowns.items():
            normalized = slowdown / machine_factor
            status = "ok"
            if normalized > threshold:
                status = "REGRESSION"
                failures.append(
                    f"{name}: {slowdown:.2f}x slower "
                    f"({normalized:.2f}x after machine normalization, "
                    f"threshold {threshold}x)"
                )
            lines.append(
                f"  {name:40s} {slowdown:6.2f}x raw  {normalized:6.2f}x norm  {status}"
            )

    ratios = {
        name
        for name, component in report.items()
        if "speedup" in component and name in baseline and "speedup" in baseline[name]
    }
    for name in sorted(ratios):
        pinned = baseline[name]["speedup"]
        observed = report[name]["speedup"]
        floor = pinned / threshold
        status = "ok"
        if observed < floor:
            status = "REGRESSION"
            failures.append(
                f"{name}: speedup {observed:.2f}x fell below floor {floor:.2f}x "
                f"(pinned {pinned:.2f}x / threshold {threshold}x)"
            )
        lines.append(
            f"  {name:40s} {observed:6.2f}x (pinned {pinned:.2f}x, floor {floor:.2f}x)  {status}"
        )

    exact = 0
    for name, fields in EXACT_COUNTERS.items():
        for field in fields:
            if field not in baseline.get(name, {}):
                continue
            exact += 1
            pinned = baseline[name][field]
            observed = report.get(name, {}).get(field)
            status = "ok"
            if observed != pinned:
                status = "CHANGED"
                failures.append(
                    f"{name}.{field}: {observed} != pinned {pinned} "
                    "(a victim order changed)"
                )
            lines.append(f"  {name + '.' + field:40s} {observed} (pinned {pinned})  {status}")

    if not slowdowns and not ratios and not exact:
        failures.append("no shared metrics between report and baseline — wrong files?")
    return lines, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", type=Path, required=True, help="fresh smoke report")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    args = parser.parse_args()

    baseline = load_components(args.baseline)
    report = load_components(args.report)
    lines, failures = check(baseline, report, args.threshold)

    print(f"benchmark regression gate: {args.report} vs {args.baseline}")
    for line in lines:
        print(line)
    if failures:
        print(f"\nFAILED — {len(failures)} regression(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nOK — no pinned metric regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
