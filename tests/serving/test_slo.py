"""SLO tiers: priority scheduling, preemption bit-exactness, report math.

Priorities may only ever change *when* a request runs, never *what* it
generates — the preemption tests replay every outcome against dedicated
solo runs.  The latency-report tests pin the metric definitions (TTFT /
TPOT / E2E / goodput) and the determinism contract (byte-identical JSON
for the same records).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.generation.generator import Generator
from repro.generation.sampler import GreedySampler
from repro.models.config import GenerationConfig, ModelConfig
from repro.models.transformer import DecoderLM
from repro.serving.engine import ContinuousBatchingEngine
from repro.serving.scheduler import PagedScheduler
from repro.serving.slo import (
    TIER_BATCH,
    TIER_INTERACTIVE,
    TIER_STANDARD,
    LatencyRecord,
    LatencyReport,
    PriorityScheduler,
    SLOSpec,
    SLOTarget,
    percentile,
)

VOCAB = 96
_CONFIG = GenerationConfig(max_new_tokens=12)

_MODEL = DecoderLM(
    ModelConfig(
        vocab_size=VOCAB,
        d_model=32,
        n_layers=2,
        n_heads=4,
        d_ff=64,
        max_seq_len=256,
        positional="rope",
    ),
    seed=0,
)

_RNG = np.random.default_rng(7)
_PROMPTS = [_RNG.integers(0, VOCAB, size=n).astype(np.int64) for n in (12, 14, 10)]

_RNG_LATE = np.random.default_rng(8)

_EXPECTED = [
    Generator(_MODEL).generate(p, _CONFIG, sampler=GreedySampler()) for p in _PROMPTS
]


# ----------------------------------------------------------------------
# PriorityScheduler ordering
# ----------------------------------------------------------------------
def _state(request_id: int, priority: int):
    from repro.core.policies import FullAttentionPolicy
    from repro.serving.request import Request, RequestState

    request = Request(
        request_id=request_id,
        prompt_ids=np.zeros((1, 4), dtype=np.int64),
        priority=priority,
    )
    return RequestState(request=request, sampler=GreedySampler(), policy=FullAttentionPolicy())


def test_priority_queue_ordering():
    """Queue sorts by (-priority, request_id): tiers first, FCFS within."""
    sched = PriorityScheduler(max_batch_size=8)
    for rid, prio in ((0, TIER_BATCH), (1, TIER_INTERACTIVE), (2, TIER_STANDARD), (3, TIER_INTERACTIVE)):
        sched.submit(_state(rid, prio))
    assert [s.request_id for s in sched.pending] == [1, 3, 2, 0]


def test_priority_requeue_slots_by_tier():
    """A preempted low-tier request re-enters behind queued higher tiers."""
    sched = PriorityScheduler(max_batch_size=8)
    sched.submit(_state(5, TIER_INTERACTIVE))
    victim = _state(0, TIER_BATCH)
    sched.requeue(victim)
    sched.submit(_state(6, TIER_STANDARD))
    assert [s.request_id for s in sched.pending] == [5, 6, 0]


def test_uniform_priority_is_fcfs():
    """Single-tier workloads order exactly like the paged scheduler
    (engine-assigned ids are monotonic at submission, so arrival order is
    id order; a requeued older victim slots in ahead in both)."""
    sched = PriorityScheduler(max_batch_size=8)
    paged = PagedScheduler(max_batch_size=8)
    for rid in (1, 2, 3, 4):
        sched.submit(_state(rid, TIER_STANDARD))
        paged.submit(_state(rid, TIER_STANDARD))
    sched.requeue(_state(0, TIER_STANDARD))
    paged.requeue(_state(0, TIER_STANDARD))
    assert [s.request_id for s in sched.pending] == [
        s.request_id for s in paged.pending
    ]


# ----------------------------------------------------------------------
# priority preemption through the engine, bit-exact
# ----------------------------------------------------------------------
def test_priority_preemption_bit_exact():
    """A late interactive request preempts a batch-tier one; everyone's
    output still matches its solo run bit for bit."""
    sched = PriorityScheduler(max_batch_size=2)
    engine = ContinuousBatchingEngine(_MODEL, scheduler=sched)
    assert engine.scheduler is sched  # an empty scheduler must not be replaced
    low0 = engine.submit(_PROMPTS[0], _CONFIG, priority=TIER_BATCH)
    low1 = engine.submit(_PROMPTS[1], _CONFIG, priority=TIER_BATCH)
    engine.step()
    engine.step()
    assert low0.tokens and low1.tokens  # both decoding
    high = engine.submit(_PROMPTS[2], _CONFIG, priority=TIER_INTERACTIVE)
    engine.step()
    assert engine.n_preemptions >= 1, "blocked high tier should preempt"
    running = [s.request_id for s in engine._states]
    assert high.request_id in running
    finished = engine.run()
    order = [s.request_id for s in finished]
    # The high-priority arrival must not finish last.
    assert order.index(high.request_id) < len(order) - 1
    for state, expected in zip((low0, low1, high), _EXPECTED):
        assert state.result().sequences[0] == expected.sequences[0]
        assert state.result().log_probs[0] == expected.log_probs[0]
    preempted = [s for s in (low0, low1) if s.preemptions > 0]
    assert preempted, "a batch-tier request should have restarted"
    for state in finished:
        assert state.first_token_step is not None
        assert state.finished_step is not None
        assert state.finished_step >= state.first_token_step


def test_priority_preemption_only_for_the_request_it_admits():
    """Two interactive arrivals at a full batch-tier batch: a step admits
    one request, so it preempts one victim — for the head it admits — and
    the second arrival's victim waits for the second arrival's step."""
    late = _RNG_LATE.integers(0, VOCAB, size=11).astype(np.int64)
    expected = Generator(_MODEL).generate(late, _CONFIG, sampler=GreedySampler())
    engine = ContinuousBatchingEngine(_MODEL, scheduler=PriorityScheduler(max_batch_size=2))
    low0 = engine.submit(_PROMPTS[0], _CONFIG, priority=TIER_BATCH)
    low1 = engine.submit(_PROMPTS[1], _CONFIG, priority=TIER_BATCH)
    engine.step()
    engine.step()
    assert engine.n_running == 2
    high0 = engine.submit(_PROMPTS[2], _CONFIG, priority=TIER_INTERACTIVE)
    high1 = engine.submit(late, _CONFIG, priority=TIER_INTERACTIVE)
    engine.step()
    assert engine.n_preemptions == 1 and low1.preemptions == 1
    assert [s.request_id for s in engine._states] == [low0.request_id, high0.request_id]
    assert [s.request_id for s in engine.scheduler.pending] == [
        high1.request_id,
        low1.request_id,
    ]
    engine.step()
    assert engine.n_preemptions == 2 and low0.preemptions == 1
    assert {s.request_id for s in engine._states} == {high0.request_id, high1.request_id}
    engine.run()
    for state, want in zip((low0, low1, high0, high1), (*_EXPECTED, expected)):
        assert state.result().sequences[0] == want.sequences[0]
        assert state.result().log_probs[0] == want.log_probs[0]


def test_no_preemption_among_equal_priorities():
    """Priority preemption never fires when the head does not outrank."""
    sched = PriorityScheduler(max_batch_size=2)
    engine = ContinuousBatchingEngine(_MODEL, scheduler=sched)
    engine.submit(_PROMPTS[0], _CONFIG, priority=TIER_STANDARD)
    engine.submit(_PROMPTS[1], _CONFIG, priority=TIER_STANDARD)
    engine.step()
    engine.submit(_PROMPTS[2], _CONFIG, priority=TIER_STANDARD)
    engine.run()
    assert engine.n_preemptions == 0


def test_paged_scheduler_ignores_priority():
    """Without a PriorityScheduler, a high tier waits its FCFS turn."""
    engine = ContinuousBatchingEngine(
        _MODEL, scheduler=PagedScheduler(max_batch_size=2)
    )
    engine.submit(_PROMPTS[0], _CONFIG, priority=TIER_BATCH)
    engine.submit(_PROMPTS[1], _CONFIG, priority=TIER_BATCH)
    engine.step()
    engine.submit(_PROMPTS[2], _CONFIG, priority=TIER_INTERACTIVE)
    engine.run()
    assert engine.n_preemptions == 0


# ----------------------------------------------------------------------
# SLO targets and latency records
# ----------------------------------------------------------------------
def _record(**overrides):
    defaults = dict(
        request_id=0,
        priority=TIER_STANDARD,
        prompt_len=16,
        n_tokens=5,
        finish_reason="eos",
        submit_time=10.0,
        first_token_time=14.0,
        finish_time=22.0,
    )
    defaults.update(overrides)
    return LatencyRecord(**defaults)


def test_latency_record_metrics():
    record = _record()
    assert record.ttft == 4.0
    assert record.e2e == 12.0
    assert record.tpot == pytest.approx((22.0 - 14.0) / 4)
    assert record.completed


def test_latency_record_edge_cases():
    assert _record(n_tokens=1).tpot is None
    aborted = _record(finish_reason="aborted", first_token_time=None, finish_time=11.0)
    assert not aborted.completed
    assert aborted.ttft is None
    assert aborted.e2e == 1.0


def test_slo_target_and_spec():
    target = SLOTarget(ttft=5.0, e2e=15.0)
    assert target.met_by(_record())
    assert not target.met_by(_record(first_token_time=16.0))  # ttft 6 > 5
    assert not target.met_by(_record(finish_reason="error"))
    spec = SLOSpec.three_tier(ttft=200.0, e2e=2000.0)
    assert spec.target_for(TIER_INTERACTIVE).ttft == 100.0
    assert spec.target_for(TIER_BATCH).ttft == 800.0
    assert spec.target_for(99).ttft == 200.0  # default for unknown tiers


def test_percentile_matches_numpy():
    values = [3.0, 1.0, 4.0, 1.5, 9.0]
    assert percentile(values, 50) == float(np.percentile(values, 50))


def test_report_goodput_and_determinism():
    records = [
        _record(request_id=0),
        _record(request_id=1, first_token_time=16.0),  # ttft 6: misses 5.0 target
        _record(request_id=2, finish_reason="timeout"),
    ]
    spec = SLOSpec(default=SLOTarget(ttft=5.0, e2e=50.0))
    report = LatencyReport.from_records(records, makespan=30.0, slo=spec)
    assert report.goodput() == pytest.approx(1 / 3)
    no_slo = LatencyReport.from_records(records, makespan=30.0)
    assert no_slo.goodput() == pytest.approx(2 / 3)  # completions only
    d = report.to_dict()
    assert d["n_requests"] == 3
    assert d["n_completed"] == 2
    assert d["finish_reasons"] == {"eos": 2, "timeout": 1}
    assert d["throughput"]["total_tokens"] == 10
    assert str(TIER_STANDARD) in d["per_tier"]
    assert d == LatencyReport.from_records(list(records), makespan=30.0, slo=spec).to_dict()


def test_report_empty():
    report = LatencyReport.from_records([], makespan=0.0)
    assert report.goodput() == 0.0
    d = report.to_dict()
    assert d["n_requests"] == 0
    assert d["ttft"]["n"] == 0
