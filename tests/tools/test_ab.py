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


def _run(correct=True, failed=0, counters=None, **values) -> dict:
    metrics = {"peak_kv_bytes": 100, **values}
    return {
        "correct": correct,
        "failed": failed,
        "metrics": {name: {"value": v} for name, v in metrics.items()},
        "counters": counters or {"models.decode_calls": 64, "kvcache.gather_calls": 8},
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

    def test_higher_is_better_resolves_at_six_of_six(self):
        v = ab.verdict("tokens_per_s", "higher", [100.0] * 6, [110.0] * 6)
        assert v["wins"] == 6 and v["resolved"]
        assert v["median_ratio"] == pytest.approx(1.1)

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
        assert ab.run_problems([_run(), _run()]) == []

    def test_incorrect_or_failed_runs(self):
        problems = ab.run_problems([_run(), _run(correct=False), _run(failed=2)])
        assert len(problems) == 2

    def test_peak_kv_bytes_must_not_move(self):
        (problem,) = ab.run_problems([_run(), _run(peak_kv_bytes=101)])
        assert "peak_kv_bytes" in problem

    def test_exact_counters_must_not_move(self):
        moved = {"models.decode_calls": 64, "kvcache.gather_calls": 9}
        (problem,) = ab.run_problems([_run(), _run(), _run(counters=moved)])
        assert problem == "exact counters differ between runs: kvcache.gather_calls"

    def test_a_counter_missing_from_one_run_is_a_change(self):
        (problem,) = ab.run_problems([_run(), _run(counters={"models.decode_calls": 64})])
        assert "kvcache.gather_calls" in problem
