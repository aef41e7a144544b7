"""Unit tests for the fault-tolerance layer: injector determinism and replay,
watchdog livelock detection, deadlines, retries and the engine's
pool-integrity audit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policies import FullAttentionPolicy
from repro.generation.generator import Generator
from repro.generation.sampler import GreedySampler
from repro.models.config import GenerationConfig, ModelConfig
from repro.models.transformer import DecoderLM
from repro.serving.engine import ContinuousBatchingEngine
from repro.serving.faults import (
    INJECTION_POINTS,
    EngineWatchdog,
    FaultInjector,
    InjectedFault,
    LivelockError,
)
from repro.serving.request import FinishReason

VOCAB = 96


def make_model(**overrides) -> DecoderLM:
    config = dict(
        vocab_size=VOCAB,
        d_model=32,
        n_layers=2,
        n_heads=4,
        d_ff=64,
        max_seq_len=512,
        positional="rope",
    )
    config.update(overrides)
    return DecoderLM(ModelConfig(**config), seed=0)


def prompts_for(rng, n, length=24):
    return [rng.integers(0, VOCAB, size=length).astype(np.int64) for _ in range(n)]


def solo(model, prompt, config):
    return Generator(model, FullAttentionPolicy()).generate(
        prompt, config, sampler=GreedySampler()
    )


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_decisions_are_deterministic_and_order_independent(self):
        a = FaultInjector(rate=0.3, seed=7)
        b = FaultInjector(rate=0.3, seed=7)
        decisions_a = [a.should_fire("decode", i) for i in range(200)]
        # Interleave other points' checks: decode's stream must not shift.
        for i in range(200):
            b.should_fire("verify", i)
            b.should_fire("page_alloc", i)
        decisions_b = [b.should_fire("decode", i) for i in range(200)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_different_seeds_differ(self):
        a = [FaultInjector(rate=0.3, seed=1).should_fire("decode", i) for i in range(64)]
        b = [FaultInjector(rate=0.3, seed=2).should_fire("decode", i) for i in range(64)]
        assert a != b

    def test_check_counts_and_fires(self):
        injector = FaultInjector(rate=1.0, seed=0)
        with pytest.raises(InjectedFault) as excinfo:
            injector.check("prefill", request_id=5)
        assert excinfo.value.point == "prefill"
        assert excinfo.value.occurrence == 0
        assert excinfo.value.request_id == 5
        assert injector.counters["prefill"] == 1
        assert injector.fired == [("prefill", 0)]

    def test_points_subset_gates_firing_but_counters_advance(self):
        injector = FaultInjector(rate=1.0, seed=0, points=("verify",))
        injector.check("decode")  # must not raise
        assert injector.counters["decode"] == 1
        with pytest.raises(InjectedFault):
            injector.check("verify")

    def test_max_faults_caps_firing(self):
        injector = FaultInjector(rate=1.0, seed=0, max_faults=1)
        with pytest.raises(InjectedFault):
            injector.check("decode")
        injector.check("decode")  # cap reached: silent
        assert injector.counters["decode"] == 2
        assert len(injector.fired) == 1

    def test_replay_fires_identical_schedule(self):
        original = FaultInjector(rate=0.25, seed=11)
        fired = []
        for i in range(100):
            try:
                original.check("decode")
            except InjectedFault:
                fired.append(("decode", i))
        assert original.fired == fired
        replayed = original.replay()
        refired = []
        for i in range(100):
            try:
                replayed.check("decode")
            except InjectedFault:
                refired.append(("decode", i))
        assert refired == fired

    def test_hook_closure_checks_named_point(self):
        injector = FaultInjector(rate=1.0, seed=0)
        hook = injector.hook("page_alloc")
        with pytest.raises(InjectedFault) as excinfo:
            hook()
        assert excinfo.value.point == "page_alloc"
        assert excinfo.value.request_id is None

    def test_rejects_unknown_points_and_bad_rate(self):
        with pytest.raises(ValueError):
            FaultInjector(points=("warp_core",))
        with pytest.raises(ValueError):
            FaultInjector(rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector().check("warp_core")

    def test_all_injection_points_listed(self):
        assert INJECTION_POINTS == (
            "page_alloc",
            "prefill",
            "decode",
            "verify",
            "draft",
            "spill_io",
        )


# ----------------------------------------------------------------------
# EngineWatchdog
# ----------------------------------------------------------------------
class TestEngineWatchdog:
    def test_no_progress_livelock(self):
        dog = EngineWatchdog(no_progress_patience=3)
        for _ in range(3):
            dog.observe(False)
        with pytest.raises(LivelockError, match="no-progress"):
            dog.observe(False)

    def test_progress_resets_counters(self):
        dog = EngineWatchdog(no_progress_patience=2, preemption_patience=2)
        dog.observe(False, preemptions=2)
        dog.observe(True)
        assert dog.stalled_steps == 0
        assert dog.preemptions_since_progress == 0

    def test_preemption_thrash(self):
        dog = EngineWatchdog(no_progress_patience=100, preemption_patience=4)
        dog.observe(False, preemptions=3)
        with pytest.raises(LivelockError, match="thrash"):
            dog.observe(False, preemptions=2)

    def test_rejects_nonpositive_patience(self):
        with pytest.raises(ValueError):
            EngineWatchdog(no_progress_patience=0)


# ----------------------------------------------------------------------
# Engine: deadlines, retries, quarantine, auditing
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_running_request_times_out(self):
        model = make_model()
        engine = ContinuousBatchingEngine(model, max_batch_size=2)
        rng = np.random.default_rng(0)
        config = GenerationConfig(max_new_tokens=64)
        state = engine.submit(
            prompts_for(rng, 1)[0], config, sampler=GreedySampler(), deadline_steps=5
        )
        engine.run()
        assert state.finish_reason is FinishReason.TIMEOUT
        assert 0 < len(state.tokens) < 64
        assert engine.n_timeouts == 1
        # Nothing leaked: pools clean after retirement.
        assert engine.check_invariants() == []

    def test_queued_request_times_out_without_running(self):
        model = make_model()
        # Batch of one: the second request waits in the queue past its deadline.
        engine = ContinuousBatchingEngine(model, max_batch_size=1)
        rng = np.random.default_rng(1)
        config = GenerationConfig(max_new_tokens=16)
        p1, p2 = prompts_for(rng, 2)
        first = engine.submit(p1, config, sampler=GreedySampler())
        second = engine.submit(p2, config, sampler=GreedySampler(), deadline_steps=4)
        engine.run()
        assert first.finish_reason is FinishReason.LENGTH
        assert second.finish_reason is FinishReason.TIMEOUT
        assert second.tokens == []
        assert engine.n_timeouts == 1

    def test_engine_default_applies_and_submit_overrides(self):
        model = make_model()
        engine = ContinuousBatchingEngine(model, max_batch_size=2, deadline_steps=3)
        rng = np.random.default_rng(2)
        config = GenerationConfig(max_new_tokens=24)
        capped = engine.submit(prompts_for(rng, 1)[0], config, sampler=GreedySampler())
        roomy = engine.submit(
            prompts_for(rng, 1)[0], config, sampler=GreedySampler(), deadline_steps=500
        )
        engine.run()
        assert capped.finish_reason is FinishReason.TIMEOUT
        assert roomy.finish_reason is FinishReason.LENGTH

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            ContinuousBatchingEngine(make_model(), deadline_steps=0)


class TestRetries:
    def test_prefill_fault_retries_then_succeeds_bit_exact(self):
        model = make_model()
        rng = np.random.default_rng(3)
        prompt = prompts_for(rng, 1)[0]
        config = GenerationConfig(max_new_tokens=8)
        faults = FaultInjector(schedule=[("prefill", 0)])
        engine = ContinuousBatchingEngine(
            model, max_batch_size=2, faults=faults, max_retries=2, retry_backoff_steps=2
        )
        state = engine.submit(prompt, config, sampler=GreedySampler())
        engine.run()
        assert state.finish_reason is FinishReason.LENGTH
        assert state.retries == 1
        assert state.error is not None and "prefill" in state.error
        assert "InjectedFault" in state.error_traceback
        reference = solo(model, prompt, config)
        assert state.tokens == reference.sequences[0]
        assert state.result().log_probs == reference.log_probs
        assert engine.n_faults == 1 and engine.n_retries == 1

    def test_retry_backoff_blocks_readmission(self):
        model = make_model()
        rng = np.random.default_rng(4)
        prompt = prompts_for(rng, 1)[0]
        faults = FaultInjector(schedule=[("prefill", 0)])
        engine = ContinuousBatchingEngine(
            model, max_batch_size=2, faults=faults, max_retries=1, retry_backoff_steps=4
        )
        state = engine.submit(
            prompt, GenerationConfig(max_new_tokens=4), sampler=GreedySampler()
        )
        engine.step()  # fault fires; requeued with retry_at = 1 + 4*2^0 = 5
        assert state.retry_at == engine.step_count + 4
        while engine.has_work and engine.n_running == 0:
            engine.step()
        # Re-admission happened only once the backoff window elapsed
        # (admission opens at the first step where step_count >= retry_at).
        assert engine.step_count >= state.retry_at
        engine.run()
        assert state.finish_reason is FinishReason.LENGTH

    def test_retry_budget_exhausted_retires_with_error(self):
        model = make_model()
        rng = np.random.default_rng(5)
        prompt = prompts_for(rng, 1)[0]
        # Every prefill attempt faults; one retry allowed -> second failure final.
        faults = FaultInjector(schedule=[("prefill", 0), ("prefill", 1)])
        engine = ContinuousBatchingEngine(
            model, max_batch_size=2, faults=faults, max_retries=1, retry_backoff_steps=1
        )
        state = engine.submit(
            prompt, GenerationConfig(max_new_tokens=4), sampler=GreedySampler()
        )
        engine.run()
        assert state.finish_reason is FinishReason.ERROR
        assert state.retries == 1
        assert state.tokens == []
        assert engine.n_faults == 2 and engine.n_retries == 1
        assert engine.check_invariants() == []

    def test_fault_without_tolerance_propagates(self):
        model = make_model()
        rng = np.random.default_rng(6)
        faults = FaultInjector(schedule=[("prefill", 0)])
        engine = ContinuousBatchingEngine(
            model, max_batch_size=2, faults=faults, fault_tolerant=False
        )
        engine.submit(
            prompts_for(rng, 1)[0],
            GenerationConfig(max_new_tokens=4),
            sampler=GreedySampler(),
        )
        with pytest.raises(InjectedFault):
            engine.run()


class TestQuarantine:
    def test_decode_fault_quarantines_one_row_survivors_bit_exact(self):
        model = make_model()
        rng = np.random.default_rng(7)
        prompts = prompts_for(rng, 3)
        config = GenerationConfig(max_new_tokens=10)
        # Fire the decode point once: the faulted row retires with ERROR
        # (no retries), the other rows must be untouched.
        faults = FaultInjector(schedule=[("decode", 4)])
        engine = ContinuousBatchingEngine(model, max_batch_size=3, faults=faults)
        states = [engine.submit(p, config, sampler=GreedySampler()) for p in prompts]
        engine.run()
        errored = [s for s in states if s.finish_reason is FinishReason.ERROR]
        survivors = [s for s in states if s.finish_reason is FinishReason.LENGTH]
        assert len(errored) == 1 and len(survivors) == 2
        assert errored[0].error is not None
        for state, prompt in zip(states, prompts):
            if state in survivors:
                reference = solo(model, prompt, config)
                assert state.tokens == reference.sequences[0]
                assert state.result().log_probs == reference.log_probs
        assert engine.check_invariants() == []

    def test_decode_fault_with_retry_is_transparent(self):
        model = make_model()
        rng = np.random.default_rng(8)
        prompts = prompts_for(rng, 2)
        config = GenerationConfig(max_new_tokens=8)
        faults = FaultInjector(schedule=[("decode", 3)])
        engine = ContinuousBatchingEngine(
            model, max_batch_size=2, faults=faults, max_retries=1, retry_backoff_steps=1
        )
        states = [engine.submit(p, config, sampler=GreedySampler()) for p in prompts]
        engine.run()
        for state, prompt in zip(states, prompts):
            assert state.finish_reason is FinishReason.LENGTH
            reference = solo(model, prompt, config)
            assert state.tokens == reference.sequences[0]
            assert state.result().log_probs == reference.log_probs
        assert engine.n_retries == 1
        assert engine.check_invariants() == []

    def test_page_alloc_fault_during_prefill_is_quarantined(self):
        model = make_model()
        rng = np.random.default_rng(9)
        prompt = prompts_for(rng, 1)[0]
        faults = FaultInjector(schedule=[("page_alloc", 2)])
        engine = ContinuousBatchingEngine(
            model, max_batch_size=2, faults=faults, max_retries=1, retry_backoff_steps=1
        )
        state = engine.submit(
            prompt, GenerationConfig(max_new_tokens=6), sampler=GreedySampler()
        )
        engine.run()
        assert state.finish_reason is FinishReason.LENGTH
        reference = solo(model, prompt, GenerationConfig(max_new_tokens=6))
        assert state.tokens == reference.sequences[0]
        assert engine.check_invariants() == []


class TestAuditingAndTelemetry:
    def test_check_invariants_clean_through_run(self):
        model = make_model()
        engine = ContinuousBatchingEngine(model, max_batch_size=3)
        rng = np.random.default_rng(12)
        config = GenerationConfig(max_new_tokens=6)
        for p in prompts_for(rng, 4):
            engine.submit(p, config, sampler=GreedySampler())
        while engine.has_work:
            engine.step()
            assert engine.check_invariants() == []
        assert engine.check_invariants() == []

    def test_check_invariants_detects_leaked_page(self):
        from repro.kvcache.paged import PoolIntegrityError

        model = make_model()
        engine = ContinuousBatchingEngine(model, max_batch_size=2)
        rng = np.random.default_rng(13)
        engine.submit(
            prompts_for(rng, 1)[0],
            GenerationConfig(max_new_tokens=8),
            sampler=GreedySampler(),
        )
        engine.step()
        # Simulate a leak: bump a live page's refcount behind the store's back.
        pool = engine._manager.store.pools[0]
        page = engine._manager.caches[0].tables[0].pages[0]
        pool.refcounts[page] += 1
        violations = engine.check_invariants(strict=False)
        assert violations and any("refcount" in v for v in violations)
        with pytest.raises(PoolIntegrityError):
            engine.check_invariants()
        pool.refcounts[page] -= 1  # restore so teardown stays clean

    def test_fault_telemetry_counters(self):
        model = make_model()
        faults = FaultInjector(schedule=[("prefill", 0)])
        engine = ContinuousBatchingEngine(
            model, max_batch_size=2, faults=faults, max_retries=1, retry_backoff_steps=1
        )
        rng = np.random.default_rng(14)
        state = engine.submit(
            prompts_for(rng, 1)[0],
            GenerationConfig(max_new_tokens=4),
            sampler=GreedySampler(),
        )
        engine.run()
        telemetry = engine.fault_telemetry()
        assert telemetry["faults"] == 1
        assert telemetry["retries"] == 1
        assert telemetry["faults_fired"] == 1
        assert telemetry["steps"] == engine.step_count > 0
        assert telemetry["tokens_recorded"] == len(state.tokens)

    def test_idle_polling_never_trips_watchdog(self):
        model = make_model()
        engine = ContinuousBatchingEngine(
            model, max_batch_size=2, watchdog=EngineWatchdog(no_progress_patience=4)
        )
        for _ in range(64):
            engine.step()  # idle: no work, watchdog must not observe
        assert engine.watchdog.stalled_steps == 0

    def test_validation_of_retry_params(self):
        with pytest.raises(ValueError):
            ContinuousBatchingEngine(make_model(), max_retries=-1)
        with pytest.raises(ValueError):
            ContinuousBatchingEngine(make_model(), retry_backoff_steps=-1)
