"""Smoke test of the end-to-end benchmark: every workload at ``--smoke`` size."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import e2e_workloads as wl  # noqa: E402
from e2e_trace import LAYER_METRICS  # noqa: E402

from repro.models.transformer import DecoderLM  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == wl.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_METRICS
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_smoke_workload(name):
    workload = wl.WORKLOADS[name]
    decode_step = DecoderLM.decode_step
    bench = wl.set_up(workload, seed=0, smoke=True)
    wl.warm_up(bench)
    m = wl.measure(bench, seconds=0.0, trace=True)
    rounds = [bench.warm] + m.untraced + m.traced
    assert (len(m.untraced), len(m.traced)) == (1, 1)
    # Oracle: exact counters and outputs repeat, spans nest, nothing failed.
    assert m.problems == []
    assert [p for rnd in rounds for p in rnd.failed] == []
    checked, _, mismatches = wl.verify(bench)
    assert mismatches == [] and checked == (len(bench.requests) if workload.serve else 0)
    # Every wrapper is gone once the traced round ends.
    assert DecoderLM.decode_step is decode_step
    assert not hasattr(DecoderLM.decode_step, "__wrapped__")

    layer = m.layer[0]
    assert set(layer) == set(LAYER_METRICS)
    for metric, unit in LAYER_METRICS.items():
        if unit == "s":
            assert layer[metric] >= -1e-9, f"{metric} is negative"
    assert layer["trace.root_share"] >= 0.9
    assert m.last_tracer.summarize()["_root"]["total_s"] <= m.traced[0].wall_s

    # Which layers a workload must leave untouched (README interaction table).
    policy_calls = layer["core.step_selection_calls"]
    if workload.keyformer:
        assert policy_calls > 0 and layer["kvcache.gather_calls"] > 0
        assert layer["kvcache.evicted_tokens"] > 0 and layer["core.score_update_s"] > 0
    else:
        assert policy_calls == 0 and layer["kvcache.gather_calls"] == 0
        assert layer["kvcache.evicted_tokens"] == 0 and layer["core.score_update_s"] == 0
        assert layer["core.initial_selection_s"] == 0
    assert (layer["kvcache.spills"] > 0) == (name == "serve_offload_tight")
    assert (layer["kvcache.spill_store_s"] > 0) == (name == "serve_offload_tight")
    assert (layer["kvcache.prefix_hit_share"] > 0) == (name == "serve_shared_mix")
    assert (layer["serving.prefill_chunks"] > 0) == (name == "serve_shared_mix")
    if name != "serve_shared_mix":
        assert layer["serving.preemptions"] == 0
    assert (layer["serving.steps"] > 0) == workload.serve
    assert (layer["generation.generate_s_total"] > 0) == (not workload.serve)

    # End-to-end metrics are never zero.
    end_to_end = wl.end_to_end_metrics(m, setup_s=1.0)
    assert set(wl.END_TO_END) <= set(end_to_end)
    for metric, value in end_to_end.items():
        assert value > 0, metric


def test_command_line_contract(tmp_path):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "solo_keyformer_long", "--smoke"]
    out = subprocess.run(cmd + ["--trace", "0"], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wl.END_TO_END

    # Without the program (only BENCHMARK.json and the benchmark's own
    # files) the command must fail and print no result.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    bare = [sys.executable, str(copy / "run.py")]
    bare += ["--workload", "solo_full_long", "--seed", "0", "--seconds", "1", "--trace", "0"]
    env = {"PATH": "/usr/bin:/bin"}
    out = subprocess.run(bare, capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
