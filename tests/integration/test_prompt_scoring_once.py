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
from repro.speculative import SpeculationConfig
from tests.conftest import tiny_config
from tests.reference.prompt_scoring import score_after_the_pass


def keyformer():
    return KeyformerPolicy(KeyformerConfig(kv_fraction=0.5, recent_ratio=0.25, seed=3))


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
    speculation = SpeculationConfig(k=3)
    unblocked, _ = _serve(model, False, monkeypatch, speculation=speculation)
    retried, engine = _serve(model, True, monkeypatch, speculation=speculation)
    assert engine.n_preemptions >= 1
    assert retried == unblocked
