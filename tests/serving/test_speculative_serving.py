"""Engine speculation mode: bit-exact outputs under batching, pressure, FCFS."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CachePolicyConfig
from repro.core.policies import WindowAttentionPolicy
from repro.models.config import GenerationConfig
from repro.models.transformer import DecoderLM
from repro.serving.engine import ContinuousBatchingEngine
from repro.speculative import SpeculationConfig
from tests.conftest import tiny_config

MAX_NEW = 12


def _prompts(n=5, base=24, vocab=64):
    rng = np.random.default_rng(3)
    return [rng.integers(0, vocab, size=base + 6 * i).astype(np.int64) for i in range(n)]


def _run(engine, prompts, config):
    states = [engine.submit(prompt, config) for prompt in prompts]
    engine.run()
    return states


def _outputs(states):
    return [(list(s.tokens), s.total_logprob, s.finish_reason) for s in states]


@pytest.fixture
def model(positional):
    return DecoderLM(tiny_config(positional, max_seq_len=512), seed=0)


@pytest.fixture
def reference(model):
    config = GenerationConfig(max_new_tokens=MAX_NEW)
    states = _run(ContinuousBatchingEngine(model, max_batch_size=3), _prompts(), config)
    return _outputs(states)


SPEC = SpeculationConfig(k=3)

#: Round shapes: one draft per round, the default-sized block, and a block
#: longer than most accepted runs (more of each verify append rolls back).
DRAFT_LENGTHS = [1, 3, 6]


class TestSpeculativeServingEquivalence:
    @pytest.mark.parametrize("k", DRAFT_LENGTHS)
    def test_matches_vanilla_engine(self, model, reference, k):
        config = GenerationConfig(max_new_tokens=MAX_NEW)
        engine = ContinuousBatchingEngine(
            model, max_batch_size=3, speculation=SpeculationConfig(k=k)
        )
        states = _run(engine, _prompts(), config)
        assert _outputs(states) == reference
        agg = engine.speculation_stats
        # Each request's first token comes from its prefill, not a round.
        assert agg.committed == sum(len(tokens) - 1 for tokens, _, _ in reference)

    @pytest.mark.parametrize("k", DRAFT_LENGTHS)
    def test_fixed_pool_preemption_preserves_outputs(self, model, reference, k):
        """A pool tight enough to force preemption changes when requests
        finish, never what they emit."""
        config = GenerationConfig(max_new_tokens=MAX_NEW)
        engine = ContinuousBatchingEngine(
            model,
            max_batch_size=3,
            speculation=SpeculationConfig(k=k),
            max_pool_tokens=192,
            page_size=8,
        )
        states = _run(engine, _prompts(), config)
        assert engine.n_preemptions >= 1
        assert _outputs(states) == reference

    def test_rejected_drafts_under_preemption_match_vanilla(self, model):
        """Small-alphabet prompts make the n-gram drafter guess wrong inside
        a batch whose fixed pool also preempts: rolled-back tails and
        requeued rows together still emit vanilla decoding's output."""
        prompts = _prompts(vocab=8)
        config = GenerationConfig(max_new_tokens=MAX_NEW)
        vanilla = _outputs(
            _run(ContinuousBatchingEngine(model, max_batch_size=3), prompts, config)
        )
        engine = ContinuousBatchingEngine(
            model,
            max_batch_size=3,
            speculation=SPEC,
            max_pool_tokens=192,
            page_size=8,
        )
        states = _run(engine, prompts, config)
        agg = engine.speculation_stats
        assert agg.accepted < agg.drafted
        assert engine.n_preemptions >= 1
        assert _outputs(states) == vanilla
        assert engine.check_invariants(strict=True) == []

    def test_speculation_composes_with_prefix_sharing(self, model):
        prefix = np.random.default_rng(9).integers(0, 64, size=64).astype(np.int64)
        prompts = [
            np.concatenate([prefix, np.random.default_rng(i).integers(0, 64, size=8)])
            for i in range(3)
        ]
        config = GenerationConfig(max_new_tokens=MAX_NEW)
        vanilla = _outputs(
            _run(ContinuousBatchingEngine(model, max_batch_size=3), prompts, config)
        )
        engine = ContinuousBatchingEngine(
            model, max_batch_size=3, speculation=SPEC
        )
        states = _run(engine, prompts, config)
        assert _outputs(states) == vanilla
        assert engine.prefill_savings > 1.0


class TestSpeculativeServingLifecycle:
    def test_eos_retires_early(self, model):
        config = GenerationConfig(max_new_tokens=MAX_NEW)
        probe = _run(
            ContinuousBatchingEngine(model, max_batch_size=2), _prompts(2), config
        )
        eos = probe[0].tokens[4]
        config_eos = GenerationConfig(max_new_tokens=MAX_NEW, eos_token_id=eos)
        vanilla = _outputs(
            _run(
                ContinuousBatchingEngine(model, max_batch_size=2),
                _prompts(2),
                config_eos,
            )
        )
        spec = _outputs(
            _run(
                ContinuousBatchingEngine(
                    model, max_batch_size=2, speculation=SPEC
                ),
                _prompts(2),
                config_eos,
            )
        )
        assert spec == vanilla

    def test_abort_in_speculation_mode(self, model):
        engine = ContinuousBatchingEngine(
            model, max_batch_size=2, speculation=SPEC
        )
        config = GenerationConfig(max_new_tokens=MAX_NEW)
        states = [engine.submit(prompt, config) for prompt in _prompts(3)]
        engine.step()
        assert engine.abort(states[2].request_id)  # still queued
        engine.step()
        assert engine.abort(states[0].request_id)  # running
        engine.run()
        assert states[0].finish_reason.value == "aborted"
        assert states[2].finish_reason.value == "aborted"
        assert states[1].finish_reason is not None
        # Aborted rows' drafters went with them.
        assert not engine._spec

    def test_accepted_lone_request_always_completes(self, model):
        """submit() accounts for the transient draft block: any lone request
        it accepts into a fixed pool must run to completion instead of
        exhausting the pool with nothing to preempt."""
        prompt = _prompts(1)[0]
        config = GenerationConfig(max_new_tokens=MAX_NEW)
        accepted = 0
        for pool_tokens in range(40, 137, 8):
            engine = ContinuousBatchingEngine(
                model,
                max_batch_size=1,
                speculation=SPEC,
                max_pool_tokens=pool_tokens,
                page_size=8,
            )
            try:
                state = engine.submit(prompt, config)
            except ValueError:
                continue  # rejected up front — the acceptable outcome
            engine.run()
            assert len(state.tokens) == MAX_NEW
            accepted += 1
        assert accepted > 0  # the sweep must exercise the accepting side

    def test_ngram_history_tracks_every_committed_token(self, model):
        """The first (prefill-sampled) token must enter the lookup history —
        a hole at the prompt/generation seam silently degrades acceptance."""
        engine = ContinuousBatchingEngine(
            model, max_batch_size=1, speculation=SPEC
        )
        state = engine.submit(_prompts(1)[0], GenerationConfig(max_new_tokens=MAX_NEW))
        engine.step()  # prefill + first round; request still running
        drafter, _ = engine._spec[state.request_id]
        prompt_len = state.request.prompt_len
        assert drafter._history[prompt_len:] == state.tokens
        engine.run()

    def test_speculation_leaves_the_engine_registry_reclaiming(self, model):
        """Speculative rows live in the engine's one store, and every pool's
        reclaimer stays the engine registry's, mid-run and after."""
        engine = ContinuousBatchingEngine(model, max_batch_size=2, speculation=SPEC)
        state = engine.submit(_prompts(1)[0], GenerationConfig(max_new_tokens=MAX_NEW))
        engine.step()  # prefill + first round; request still running
        assert state.request_id in engine._spec
        registry = engine._manager.registry
        for pool in engine._manager.store.pools:
            assert pool.reclaimer.__self__ is registry
            assert pool.reclaimer.__func__ is type(registry).reclaim
        assert engine.check_invariants() == []
        engine.run()
        assert engine.check_invariants() == []

    def test_result_carries_speculation_summary(self, model):
        engine = ContinuousBatchingEngine(
            model, max_batch_size=2, speculation=SPEC
        )
        config = GenerationConfig(max_new_tokens=MAX_NEW)
        state = engine.submit(_prompts(1)[0], config)
        engine.run()
        result = state.result()
        assert result.speculation["committed"] == MAX_NEW - 1
        assert result.speculation["rounds"] >= 1


class TestSpeculativeServingValidation:
    def test_rejects_stochastic_sampling(self, model):
        engine = ContinuousBatchingEngine(model, speculation=SPEC)
        with pytest.raises(ValueError, match="greedy"):
            engine.submit(
                _prompts(1)[0], GenerationConfig(max_new_tokens=4, temperature=0.7, top_k=5)
            )

    def test_temperature_zero_counts_as_greedy(self, model):
        engine = ContinuousBatchingEngine(model, speculation=SPEC)
        state = engine.submit(
            _prompts(1)[0], GenerationConfig(max_new_tokens=4, temperature=0.0)
        )
        engine.run()
        assert len(state.tokens) == 4

    def test_rejects_sparse_target_policy(self, model):
        engine = ContinuousBatchingEngine(
            model,
            policy_factory=lambda: WindowAttentionPolicy(CachePolicyConfig(kv_budget=8)),
            speculation=SPEC,
        )
        with pytest.raises(ValueError, match="full-attention"):
            engine.submit(_prompts(1)[0], GenerationConfig(max_new_tokens=4))
