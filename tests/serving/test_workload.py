"""Workload traces: generation determinism, JSON round-trip, replay property.

The load harness's headline guarantee is end-to-end determinism: the same
``(config, seed)`` pair always yields the same trace, and replaying a trace
twice through fresh engines yields identical per-request outputs and a
byte-identical percentile report.  Hypothesis drives the property over
seeds, arrival processes and scheduler shapes; the remaining tests pin the
distributional structure of generated traces (sorted arrivals, page-aligned
shared prefixes, Zipf skew, tier mixture) and the virtual-time bookkeeping
of :func:`repro.serving.workload.replay_trace`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.config import ModelConfig
from repro.models.transformer import DecoderLM
from repro.perfmodel.serving import StepCostModel
from repro.serving.engine import ContinuousBatchingEngine
from repro.serving.slo import SLOSpec, PriorityScheduler
from repro.serving.workload import (
    Trace,
    TraceEvent,
    WorkloadConfig,
    generate_trace,
    replay_trace,
)

_MODEL = DecoderLM(
    ModelConfig(
        vocab_size=96,
        d_model=32,
        n_layers=2,
        n_heads=4,
        d_ff=64,
        max_seq_len=256,
        positional="rope",
    ),
    seed=0,
)

#: Small geometry keeping every hypothesis example fast: short prompts and
#: outputs, prompt lengths bounded well under the model's max_seq_len.
_SMALL = dict(
    n_requests=6,
    vocab_size=96,
    mean_interarrival=4.0,
    prefix_len_pages=1,
    suffix_len_range=(2, 8),
    prompt_len_range=(4, 24),
    output_len_choices=(2, 4),
    output_len_weights=(0.5, 0.5),
    tier_weights={0: 0.4, 2: 0.6},
)


# ----------------------------------------------------------------------
# generation determinism and structure
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=2**31), arrival=st.sampled_from(["poisson", "bursty"]))
@settings(max_examples=10, deadline=None)
def test_trace_generation_deterministic(seed, arrival):
    config = WorkloadConfig(arrival=arrival, **_SMALL)
    assert generate_trace(config, seed) == generate_trace(config, seed)


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=10, deadline=None)
def test_trace_json_round_trip_exact(seed):
    trace = generate_trace(WorkloadConfig(arrival="bursty", **_SMALL), seed)
    assert Trace.from_json(trace.to_json()) == trace
    assert Trace.from_json(trace.to_json(indent=2)) == trace


def test_trace_structure():
    config = WorkloadConfig(n_requests=200, arrival="poisson", zipf_alpha=1.3)
    trace = generate_trace(config, seed=1)
    assert len(trace) == 200
    times = [e.arrival_time for e in trace.events]
    assert times == sorted(times)
    assert all(t > 0 for t in times)
    shared = [e for e in trace.events if e.prefix_id is not None]
    unique = [e for e in trace.events if e.prefix_id is None]
    assert shared and unique
    for e in shared:
        assert 0 <= e.prefix_id < config.n_prefixes
        lo, hi = config.suffix_len_range
        assert config.prefix_len + lo <= len(e.prompt_ids) <= config.prefix_len + hi
    for e in unique:
        lo, hi = config.prompt_len_range
        assert lo <= len(e.prompt_ids) <= hi
    for e in trace.events:
        assert e.max_new_tokens in config.output_len_choices
        assert e.priority in config.tier_weights
        assert all(0 <= t < config.vocab_size for t in e.prompt_ids)


def test_shared_prefixes_are_shared_tokens():
    """Events with the same prefix_id carry identical leading tokens —
    page-aligned, so the prefix registry can dedup their prefill."""
    config = WorkloadConfig(n_requests=60, prefix_share_prob=1.0)
    trace = generate_trace(config, seed=2)
    by_prefix: dict[int, tuple[int, ...]] = {}
    for e in trace.events:
        head = e.prompt_ids[: config.prefix_len]
        assert by_prefix.setdefault(e.prefix_id, head) == head
    assert config.prefix_len % config.page_size == 0


def test_zipf_skew():
    """Lower ranks are drawn more often (monotone in expectation; a pinned
    seed makes the assertion exact)."""
    config = WorkloadConfig(
        n_requests=400, prefix_share_prob=1.0, n_prefixes=6, zipf_alpha=1.5
    )
    trace = generate_trace(config, seed=3)
    counts = np.bincount(
        [e.prefix_id for e in trace.events], minlength=config.n_prefixes
    )
    assert counts[0] == counts.max()
    assert counts[0] > 2 * counts[-1]


def test_bursty_differs_from_poisson():
    common = dict(_SMALL, n_requests=50)
    poisson = generate_trace(WorkloadConfig(arrival="poisson", **{k: v for k, v in common.items()}), seed=4)
    bursty = generate_trace(WorkloadConfig(arrival="bursty", **{k: v for k, v in common.items()}), seed=4)
    assert [e.arrival_time for e in poisson.events] != [
        e.arrival_time for e in bursty.events
    ]


def test_workload_config_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(arrival="uniform")
    with pytest.raises(ValueError):
        WorkloadConfig(n_requests=0)
    with pytest.raises(ValueError):
        WorkloadConfig(burst_factor=0.5)
    with pytest.raises(ValueError):
        WorkloadConfig(output_len_choices=(4, 8), output_len_weights=(1.0,))
    with pytest.raises(ValueError):
        WorkloadConfig(tier_weights={})


def test_config_round_trip():
    config = WorkloadConfig(arrival="bursty", tier_weights={0: 0.5, 2: 0.5})
    assert WorkloadConfig.from_dict(config.to_dict()) == config


# ----------------------------------------------------------------------
# replay determinism (the harness's headline property)
# ----------------------------------------------------------------------
def _replay(trace, chunk_tokens=8, max_batch_size=2):
    scheduler = PriorityScheduler(
        max_batch_size=max_batch_size, prefill_chunk_tokens=chunk_tokens
    )
    engine = ContinuousBatchingEngine(_MODEL, scheduler=scheduler)
    result = replay_trace(
        engine, trace, StepCostModel(), slo=SLOSpec.three_tier(ttft=50.0, e2e=500.0)
    )
    tokens = {s.request_id: list(s.tokens) for s in engine._finished}
    return result, tokens


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    arrival=st.sampled_from(["poisson", "bursty"]),
    max_batch_size=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=6, deadline=None)
def test_replay_determinism_property(seed, arrival, max_batch_size):
    """Replaying one trace twice: identical tokens, byte-identical report."""
    trace = generate_trace(WorkloadConfig(arrival=arrival, **_SMALL), seed)
    first, tokens_a = _replay(trace, max_batch_size=max_batch_size)
    second, tokens_b = _replay(trace, max_batch_size=max_batch_size)
    assert tokens_a == tokens_b
    assert first.report.to_dict() == second.report.to_dict()
    assert first.engine_stats == second.engine_stats


def test_replay_bookkeeping():
    trace = generate_trace(WorkloadConfig(**_SMALL), seed=11)
    result, _ = _replay(trace)
    assert len(result.records) == len(trace)
    by_id = {r.request_id: r for r in result.records}
    arrivals = sorted(e.arrival_time for e in trace.events)
    assert sorted(r.submit_time for r in result.records) == pytest.approx(arrivals)
    assert result.makespan >= max(arrivals)
    for record in result.records:
        if record.completed:
            assert record.ttft is not None and record.ttft > 0
            assert record.e2e is not None and record.e2e >= record.ttft
    assert result.engine_stats["steps"] > 0
    assert by_id  # every record carries a unique id


def test_replay_handmade_trace():
    """replay_trace works on hand-built traces, not just generated ones."""
    rng = np.random.default_rng(0)
    events = tuple(
        TraceEvent(
            arrival_time=float(i + 1),
            prompt_ids=tuple(int(x) for x in rng.integers(0, 96, size=6)),
            max_new_tokens=3,
            priority=i % 2,
        )
        for i in range(4)
    )
    result, tokens = _replay(Trace(events=events, seed=0))
    assert result.report.to_dict()["n_completed"] == 4
    assert all(len(t) == 3 for t in tokens.values())
