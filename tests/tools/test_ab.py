"""The verdict arithmetic of ``tools/ab.py`` on synthetic runs (no
subprocess, no worktree)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _run(correct=True, failed=0, counters=None, extras=None, **values) -> dict:
    metrics = {"peak_kv_bytes": 100, **values}
    return {
        "correct": correct,
        "failed": failed,
        "metrics": {name: {"value": v} for name, v in metrics.items()},
        "counters": counters or {"models.decode_calls": 64, "kvcache.gather_calls": 8},
        "extras": {name: {"value": v, "unit": "s"} for name, v in (extras or {}).items()},
    }


class TestSignTest:
    @pytest.mark.parametrize(
        "wins, n, p",
        [(6, 6, 2 / 64), (0, 6, 2 / 64), (5, 6, 14 / 64), (3, 6, 1.0), (9, 10, 22 / 1024)],
    )
    def test_exact_two_sided(self, wins, n, p):
        assert ab.sign_test_p(wins, n) == pytest.approx(p)

    def test_no_untied_pair_is_unresolved(self):
        assert ab.sign_test_p(0, 0) == 1.0


class TestVerdict:
    def test_lower_is_better(self):
        v = ab.verdict("peak_rss_mb", "lower", [180.0] * 6, [130.0] * 5 + [190.0])
        assert (v["wins"], v["n"], v["pairs"]) == (5, 6, 6)
        assert v["b"] == [130.0] * 5 + [190.0]
        assert v["median_ratio"] == pytest.approx(130 / 180)
        assert v["p"] == pytest.approx(14 / 64) and not v["resolved"]

    def test_six_of_six_is_unresolved(self):
        v = ab.verdict("tokens_per_s", "higher", [100.0] * 6, [110.0] * 6)
        assert v["wins"] == 6 and v["p"] == pytest.approx(2 / 64)
        assert v["median_ratio"] == pytest.approx(1.1)
        assert not v["resolved"]

    def test_ten_of_ten_outside_a_spread_is_resolved(self):
        a = [134.7, 134.8, 134.9, 135.0, 135.1] * 2
        v = ab.verdict("peak_rss_mb", "lower", a, [116.7] * 10)
        assert (v["wins"], v["n"]) == (10, 10)
        assert v["iqr_a"] == pytest.approx(0.2)
        assert v["resolved"]

    def test_nine_of_ten_inside_a_spread_is_unresolved(self):
        a = [100.0, 110.0, 120.0, 130.0, 140.0] * 2
        b = [x - 5.0 for x in a[:9]] + [a[9] + 1.0]
        v = ab.verdict("peak_rss_mb", "lower", a, b)
        assert (v["wins"], v["n"]) == (9, 10)
        assert abs(v["median_b"] - v["median_a"]) < v["iqr_a"]
        assert not v["resolved"]

    def test_a_regression_resolves_too(self):
        v = ab.verdict("tokens_per_s", "higher", [100.0, 101.0] * 5, [80.0] * 10)
        assert (v["wins"], v["n"]) == (0, 10) and v["resolved"]

    def test_ties_leave_the_sign_test(self):
        v = ab.verdict("peak_kv_bytes", "lower", [5.0] * 6, [5.0] * 6)
        assert (v["wins"], v["n"], v["p"], v["resolved"]) == (0, 0, 1.0, False)
        assert v["median_ratio"] == 1.0

    def test_one_verdict_per_end_to_end_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"]]
        run = _run(**{name: 1.0 for name in names if name != "peak_kv_bytes"})
        out = ab.verdicts(spec, [run, run], [run, run])
        assert [v["metric"] for v in out] == names
        assert json.loads(json.dumps(out)) == out


class TestRunProblems:
    def test_clean_runs(self):
        assert ab.run_problems([_run(), _run()], [_run(), _run()]) == []

    def test_incorrect_or_failed_runs(self):
        problems = ab.run_problems([_run(), _run(correct=False)], [_run(failed=2), _run()])
        assert problems == ["run a1: correct=False failed=0", "run b0: correct=True failed=2"]

    def test_peak_kv_bytes_must_not_move(self):
        (problem,) = ab.run_problems([_run(), _run()], [_run(peak_kv_bytes=101)] * 2)
        assert problem == "counters moved between revisions: peak_kv_bytes a=100 b=101"

    def test_a_counter_unsteady_within_one_side_is_not_deterministic(self):
        moved = {"models.decode_calls": 64, "kvcache.gather_calls": 9}
        (problem,) = ab.run_problems([_run(), _run()], [_run(), _run(counters=moved)])
        assert problem == "not deterministic: kvcache.gather_calls read [8, 9] on side b"

    def test_a_counter_steady_on_each_side_moved_between_revisions(self):
        moved = {"models.decode_calls": 64, "kvcache.gather_calls": 9}
        (problem,) = ab.run_problems([_run(), _run()], [_run(counters=moved)] * 2)
        assert problem == "counters moved between revisions: kvcache.gather_calls a=8 b=9"

    def test_a_counter_missing_from_one_run_is_a_change(self):
        (problem,) = ab.run_problems([_run()], [_run(counters={"models.decode_calls": 64})])
        assert problem == "counters moved between revisions: kvcache.gather_calls a=8 b=None"


class TestReportOnlyRows:
    SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_tail_metrics_both_sides_carry_are_reported_not_judged(self):
        """``tpot_p99_s`` halving on every pair is a row with the verdict's
        arithmetic, but no ``resolved``; a metric one run lacks has no row."""
        a = [_run(extras={"tpot_p99_s": 0.2 + i / 100, "ttft_p90_s": 0.1}) for i in range(10)]
        b = [_run(extras={"tpot_p99_s": 0.1, "ttft_p90_s": 0.1}) for _ in range(9)]
        b.append(_run(extras={"tpot_p99_s": 0.1}))
        (row,) = ab.report_only(self.SPEC, a, b)
        assert row["metric"] == "tpot_p99_s" and row["report_only"] is True
        assert (row["wins"], row["n"], row["better"]) == (10, 10, "lower")
        assert "resolved" not in row
        assert json.loads(json.dumps(row)) == row

    def test_contract_metrics_are_never_report_only(self):
        names = [m["name"] for m in self.SPEC["end_to_end"]]
        run = _run(extras={name: 1.0 for name in names} | {"tpot_p90_s": 0.01})
        assert [row["metric"] for row in ab.report_only(self.SPEC, [run], [run])] == [
            "tpot_p90_s"
        ]

    def test_runs_without_extras_give_no_rows(self):
        assert ab.report_only(self.SPEC, [_run()], [_run()]) == []
        assert ab.report_only(self.SPEC, [], []) == []
