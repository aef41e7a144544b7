"""Abort/cancel audit: every request state, no leaks, no stale telemetry.

``engine.abort()`` must work identically well on queued, running and
already-finished requests — across vanilla, int8 and speculative modes —
leaving the paged store clean and every counter consistent.  This file also
pins a scheduler bug found by the audit:

* **FCFS priority inversion** — ``FCFSScheduler.requeue`` used to
  ``appendleft``, so a young request requeued after a failed prefill could
  overtake an older preemption victim requeued in the same step.  The queue
  is now kept sorted by (monotonic) ``request_id``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CachePolicyConfig
from repro.core.policies import WindowAttentionPolicy
from repro.generation.sampler import GreedySampler
from repro.models.config import GenerationConfig, ModelConfig
from repro.models.transformer import DecoderLM
from repro.serving.engine import ContinuousBatchingEngine
from repro.serving.request import FinishReason, Request, RequestState, RequestStatus
from repro.serving.scheduler import FCFSScheduler
from repro.speculative.config import SpeculationConfig

VOCAB = 96
MAX_NEW = 8


def make_model() -> DecoderLM:
    return DecoderLM(
        ModelConfig(
            vocab_size=VOCAB,
            d_model=32,
            n_layers=2,
            n_heads=4,
            d_ff=64,
            max_seq_len=512,
            positional="rope",
        ),
        seed=0,
    )


def prompts(n, seed=0, length=24):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, VOCAB, size=length).astype(np.int64) for _ in range(n)]


def assert_store_clean(engine):
    assert engine.check_invariants() == []
    if engine._manager is None:
        return
    engine._manager.registry.clear()
    for pool in engine._manager.store.pools:
        assert int((pool.refcounts != 0).sum()) == 0
        assert pool.free_pages == pool.n_pages


ENGINE_MODES = {
    "vanilla": {},
    "int8": {"kv_dtype": "int8", "enable_prefix_sharing": False},
    "spec": {"speculation": SpeculationConfig(k=3)},
}


@pytest.mark.parametrize("mode", sorted(ENGINE_MODES))
class TestAbortAcrossStates:
    def _engine(self, mode):
        return ContinuousBatchingEngine(make_model(), max_batch_size=2, **ENGINE_MODES[mode])

    def test_abort_queued_request(self, mode):
        engine = self._engine(mode)
        config = GenerationConfig(max_new_tokens=MAX_NEW)
        p1, p2, p3 = prompts(3)
        running = engine.submit(p1, config)
        engine.step()
        queued = engine.submit(p2, config)
        waiting = engine.submit(p3, config)
        # max_batch_size=2 admits p2; abort the still-queued p3 first.
        assert engine.abort(waiting.request_id)
        assert waiting.status is RequestStatus.FINISHED
        assert waiting.finish_reason is FinishReason.ABORTED
        assert waiting.tokens == [] and waiting.pending_token is None
        assert waiting.cache_stats is not None
        engine.run()
        assert running.finish_reason is FinishReason.LENGTH
        assert queued.finish_reason is FinishReason.LENGTH
        assert_store_clean(engine)

    def test_abort_running_request_frees_pages(self, mode):
        engine = self._engine(mode)
        # Long enough that the first request, which a speculative round
        # advances by up to k + 1 tokens a step, still runs when the second
        # joins a step later.
        config = GenerationConfig(max_new_tokens=2 * MAX_NEW)
        p1, p2 = prompts(2, seed=1)
        first = engine.submit(p1, config)
        second = engine.submit(p2, config)
        engine.step()  # one request joins per step
        engine.step()
        assert engine.n_running == 2
        assert engine.abort(first.request_id)
        assert first.finish_reason is FinishReason.ABORTED
        assert engine.n_running == 1
        assert engine.check_invariants() == []  # freed pages, clean refcounts
        if mode == "spec":
            assert first.request_id not in engine._spec
        engine.run()
        assert second.finish_reason is FinishReason.LENGTH
        assert_store_clean(engine)

    def test_abort_finished_or_unknown_returns_false(self, mode):
        engine = self._engine(mode)
        state = engine.submit(prompts(1, seed=2)[0], GenerationConfig(max_new_tokens=4))
        engine.run()
        assert state.finished
        assert not engine.abort(state.request_id)
        assert not engine.abort(987654)
        # Double-abort must not corrupt the finished list or telemetry.
        assert len(engine._finished) == 1
        assert_store_clean(engine)

    def test_abort_running_keeps_survivor_bit_exact(self, mode):
        config = GenerationConfig(max_new_tokens=16)
        p1, p2 = prompts(2, seed=3)
        reference = self._engine(mode)
        ref_state = reference.submit(p2, config)
        reference.run()

        engine = self._engine(mode)
        victim = engine.submit(p1, config)
        survivor = engine.submit(p2, config)
        engine.step()
        assert engine.abort(victim.request_id)
        engine.run()
        assert survivor.tokens == ref_state.tokens
        assert survivor.result().log_probs == ref_state.result().log_probs
        assert_store_clean(engine)


class TestSchedulerOrderingFixes:
    def _state(self, request_id):
        return RequestState(
            request=Request(request_id=request_id, prompt_ids=np.zeros((1, 4), np.int64)),
            sampler=GreedySampler(),
            policy=WindowAttentionPolicy(CachePolicyConfig(kv_budget=8)),
        )

    def test_requeue_preserves_arrival_order(self):
        """An old preemption victim and a young failed admission requeued in
        the same step must come back out oldest-first (the inversion bug)."""
        scheduler = FCFSScheduler(max_batch_size=4)
        old, young = self._state(3), self._state(7)
        waiting = self._state(5)
        scheduler.submit(waiting)
        # Young (failed prefill) happens to requeue before old (victim).
        scheduler.requeue(young)
        scheduler.requeue(old)
        assert [s.request_id for s in scheduler.pending] == [3, 5, 7]

    def test_requeue_many_keeps_order(self):
        scheduler = FCFSScheduler(max_batch_size=4)
        scheduler.requeue_many([self._state(9), self._state(2), self._state(6)])
        assert [s.request_id for s in scheduler.pending] == [2, 6, 9]

    def test_retry_backoff_blocks_head_of_line(self):
        scheduler = FCFSScheduler(max_batch_size=4)
        head, behind = self._state(1), self._state(2)
        head.retry_at = 10
        scheduler.requeue(head)
        scheduler.submit(behind)
        # Inside the backoff window nothing is admitted (head-of-line rule).
        assert scheduler.admit(0, 0, now_step=5) == []
        assert scheduler.admit(0, 0, now_step=10) == [head, behind]

    def test_cancel_returns_state_and_removes(self):
        scheduler = FCFSScheduler(max_batch_size=4)
        state = self._state(4)
        scheduler.submit(state)
        assert scheduler.cancel(4) is state
        assert scheduler.cancel(4) is None
        assert len(scheduler) == 0


class TestSpeculationStatsAccounting:
    def test_lone_row_pool_exhaustion_propagates(self, monkeypatch):
        """A lone row has nothing to preempt, and submit() only accepts a
        request whose worst case fits the pool alone: a mid-round
        ``PoolExhausted`` there is a bug, so it surfaces instead of looping."""
        import repro.serving.engine as engine_mod
        from repro.kvcache.paged import PoolExhausted

        engine = ContinuousBatchingEngine(
            make_model(), max_batch_size=1, speculation=SpeculationConfig(k=3)
        )
        real_run_round = engine_mod.run_round
        calls = {"n": 0}

        def flaky_run_round(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise PoolExhausted("synthetic mid-round exhaustion")
            return real_run_round(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "run_round", flaky_run_round)
        prompt = prompts(1, seed=4, length=32)[0]
        state = engine.submit(prompt, GenerationConfig(max_new_tokens=16))
        with pytest.raises(PoolExhausted, match="synthetic"):
            while engine.has_work:
                engine.step()
        assert calls["n"] == 3 and not state.finished
        assert engine.n_preemptions == 0
        assert engine.check_invariants() == []

    def test_aborted_spec_request_counts_work_once(self):
        model = make_model()
        engine = ContinuousBatchingEngine(
            model,
            max_batch_size=2,
            speculation=SpeculationConfig(k=3),
        )
        config = GenerationConfig(max_new_tokens=MAX_NEW)
        p1, p2 = prompts(2, seed=5)
        victim = engine.submit(p1, config)
        keeper = engine.submit(p2, config)
        engine.step()
        rounds_before = engine.speculation_stats.rounds
        assert engine.abort(victim.request_id)
        # The aborted request's rounds moved to the discarded aggregate, once.
        assert engine.speculation_stats.rounds == rounds_before
        engine.run()
        assert keeper.finish_reason is FinishReason.LENGTH
        assert victim.request_id not in engine._spec
        assert_store_clean(engine)
