"""The exact-counter half of ``benchmarks/check_regression.py`` on synthetic
reports, and the pinned ``BENCH_micro.json`` it gates against."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "check_regression", ROOT / "benchmarks" / "check_regression.py"
)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)

PINNED = check_regression.load_components(ROOT / "BENCH_micro.json")


def _counters(components: dict) -> dict:
    """Only the exact-counter components (no timing or ratio metrics)."""
    return {
        name: dict(components[name]) for name in check_regression.EXACT_COUNTERS
    }


class TestExactCounters:
    def test_every_gated_counter_is_pinned(self):
        for name, fields in check_regression.EXACT_COUNTERS.items():
            for field in fields:
                assert isinstance(PINNED[name][field], int), (name, field)

    def test_pinned_victim_counters(self):
        # Measured: the tiered engine's spill/restore traffic and the
        # registry's saved prefill tokens under each admission policy.
        offload = PINNED["offload_capacity_ratio"]
        assert (offload["spills"], offload["restores"]) == (292, 244)
        assert PINNED["prefix_admission_hit_tokens_lru"]["hit_tokens"] == 128
        assert PINNED["prefix_admission_hit_tokens_wtinylfu"]["hit_tokens"] == 640

    def test_equal_counters_pass(self):
        baseline = _counters(PINNED)
        lines, failures = check_regression.check(baseline, copy.deepcopy(baseline), 1.5)
        assert failures == []
        log = "\n".join(lines)
        for name, fields in check_regression.EXACT_COUNTERS.items():
            assert all(f"{name}.{field}" in log for field in fields)

    @pytest.mark.parametrize(
        "name, field",
        [
            (name, field)
            for name, fields in check_regression.EXACT_COUNTERS.items()
            for field in fields
        ],
    )
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_any_change_fails_either_way(self, name, field, delta):
        baseline = _counters(PINNED)
        report = copy.deepcopy(baseline)
        report[name][field] += delta  # fewer spills is a change too
        _, failures = check_regression.check(baseline, report, 1.5)
        assert len(failures) == 1 and f"{name}.{field}" in failures[0]

    def test_a_counter_missing_from_the_report_fails(self):
        baseline = _counters(PINNED)
        report = copy.deepcopy(baseline)
        del report["offload_capacity_ratio"]["spills"]
        _, failures = check_regression.check(baseline, report, 1.5)
        assert failures and "offload_capacity_ratio.spills" in failures[0]

    def test_cli_exit_status(self, tmp_path, capsys, monkeypatch):
        baseline = tmp_path / "baseline.json"
        report = tmp_path / "report.json"
        counters = _counters(PINNED)
        baseline.write_text(json.dumps({"components": counters}))
        counters["offload_capacity_ratio"]["restores"] += 8
        report.write_text(json.dumps({"components": counters}))
        argv = ["check_regression.py", "--report", str(report), "--baseline", str(baseline)]
        monkeypatch.setattr(sys, "argv", argv)
        assert check_regression.main() == 1
        assert "restores" in capsys.readouterr().out
