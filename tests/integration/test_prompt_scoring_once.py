"""Every prompt-pass entry point sets its policies up once, before the pass
that scores them, and never again while seeding: tokens and log-probability
bytes equal a run whose scores come from the post-forward reference loop,
and a join retried after ``PoolExhausted`` equals an unblocked run."""

import numpy as np
import pytest

from repro.core.config import KeyformerConfig
from repro.core.keyformer import KeyformerPolicy
from repro.generation.beam import BeamSearch
from repro.generation.generator import Generator
from repro.kvcache.batch import BatchedCacheManager
from repro.kvcache.paged import PoolExhausted
from repro.models.config import GenerationConfig
from repro.models.transformer import DecoderLM
from repro.serving.engine import ContinuousBatchingEngine
from repro.speculative import SpeculationConfig, SpeculativeGenerator
from tests.conftest import tiny_config
from tests.reference.prompt_scoring import score_after_the_pass


def keyformer():
    return KeyformerPolicy(KeyformerConfig(kv_fraction=0.5, recent_ratio=0.25, seed=3))


SELF_DRAFTING = SpeculationConfig(k=3, drafter="policy", drafter_policy_factory=keyformer)


@pytest.fixture(params=["float64", "float32"])
def model(request):
    return DecoderLM(tiny_config("rope", compute_dtype=request.param), seed=0)


def prompts(n, t=45):
    return np.random.default_rng(t).integers(0, 64, size=(n, t))


def test_generator_batch_of_two(model, monkeypatch):
    config = GenerationConfig(max_new_tokens=6)
    fused_policy = keyformer()
    fused = Generator(model, fused_policy).generate(prompts(2), config)
    score_after_the_pass(model, monkeypatch)
    reference_policy = keyformer()
    reference = Generator(model, reference_policy).generate(prompts(2), config)
    assert fused.sequences == reference.sequences
    assert np.asarray(fused.log_probs).tobytes() == np.asarray(reference.log_probs).tobytes()
    state = reference_policy.score.rng.bit_generator.state
    assert fused_policy.score.rng.bit_generator.state == state


def test_beam_search(model, monkeypatch):
    config = GenerationConfig(beam_size=3, max_new_tokens=5)
    fused = BeamSearch(model, keyformer()).search(prompts(1)[0], config)
    score_after_the_pass(model, monkeypatch)
    reference = BeamSearch(model, keyformer()).search(prompts(1)[0], config)
    assert [h.tokens for h in fused.hypotheses] == [h.tokens for h in reference.hypotheses]
    scores = [np.float64(h.raw_score).tobytes() for h in fused.hypotheses]
    assert scores == [np.float64(h.raw_score).tobytes() for h in reference.hypotheses]


def _drafter_scores(model):
    """The self-drafter's prompt-phase scores after its request joined."""
    engine = SpeculativeGenerator(model, SELF_DRAFTING)._engine()
    state = engine.submit(prompts(1), GenerationConfig(max_new_tokens=6))
    engine.step()
    drafter, _ = engine._spec[state.request_id]
    scores = drafter.manager.policies[0].score.get(None).copy()
    engine.run()
    return scores, state


def test_self_drafting_speculative_generator(model, monkeypatch):
    fused_scores, fused = _drafter_scores(model)
    score_after_the_pass(model, monkeypatch)
    reference_scores, reference = _drafter_scores(model)
    assert fused_scores.tobytes() == reference_scores.tobytes()
    assert fused.tokens == reference.tokens
    assert np.float64(fused.total_logprob).tobytes() == np.float64(reference.total_logprob).tobytes()
    config = GenerationConfig(max_new_tokens=6)
    result = SpeculativeGenerator(model, SELF_DRAFTING).generate(prompts(1), config)
    assert result.sequences[0] == reference.tokens


def _serve(model, block_once: bool, monkeypatch, **engine_kwargs):
    """Two Keyformer requests through one engine; with ``block_once`` the
    second request's join runs its whole prompt-phase eviction and then
    hits ``PoolExhausted``, so the engine preempts the first and retries."""
    blocked = []
    if block_once:
        evict_prompt = BatchedCacheManager._evict_prompt

        def exhaust_once(manager, row):
            evict_prompt(manager, row)
            if row == 1 and not blocked:
                blocked.append(row)
                raise PoolExhausted("synthetic exhaustion after the prompt eviction")

        monkeypatch.setattr(BatchedCacheManager, "_evict_prompt", exhaust_once)
    engine = ContinuousBatchingEngine(model, max_batch_size=2, **engine_kwargs)
    states = [
        engine.submit(ids[None], GenerationConfig(max_new_tokens=6)) for ids in prompts(2)
    ]
    engine.run()
    monkeypatch.undo()
    assert bool(blocked) == block_once
    return [(s.tokens, np.float64(s.total_logprob).tobytes()) for s in states], engine


def test_engine_join_retried_after_pool_exhausted(model, monkeypatch):
    unblocked, _ = _serve(model, False, monkeypatch, policy_factory=keyformer)
    retried, engine = _serve(model, True, monkeypatch, policy_factory=keyformer)
    assert engine.n_preemptions >= 1
    assert retried == unblocked


def test_speculative_engine_join_retried_after_pool_exhausted(model, monkeypatch):
    unblocked, _ = _serve(model, False, monkeypatch, speculation=SELF_DRAFTING)
    retried, engine = _serve(model, True, monkeypatch, speculation=SELF_DRAFTING)
    assert engine.n_preemptions >= 1
    assert retried == unblocked
