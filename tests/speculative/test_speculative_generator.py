"""SpeculativeGenerator equivalence, edge cases and paged-store accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CachePolicyConfig
from repro.core.policies import FullAttentionPolicy, StreamingLLMPolicy
from repro.generation.generator import Generator
from repro.generation.sampler import GreedySampler
from repro.models.config import GenerationConfig
from repro.models.transformer import DecoderLM
from repro.serving import ContinuousBatchingEngine
from repro.speculative import SpeculationConfig, SpeculativeGenerator
from tests.conftest import tiny_config

PROMPT_LEN = 32
MAX_NEW = 16


def _prompt(vocab=64, seed=7, length=PROMPT_LEN):
    return np.random.default_rng(seed).integers(0, vocab, size=length).astype(np.int64)


def _vanilla(model, prompt, config):
    return Generator(model, FullAttentionPolicy()).generate(
        prompt, config, sampler=GreedySampler()
    )


class TestEquivalence:
    def test_matches_vanilla_across_positional_families(self, tiny_model):
        prompt = _prompt()
        config = GenerationConfig(max_new_tokens=MAX_NEW)
        reference = _vanilla(tiny_model, prompt, config)
        result = SpeculativeGenerator(tiny_model, SpeculationConfig(k=4)).generate(
            prompt, config
        )
        assert result.sequences == reference.sequences
        assert result.log_probs == reference.log_probs

    def test_custom_policy_drafter(self, tiny_rope_model):
        prompt = _prompt()
        config = GenerationConfig(max_new_tokens=MAX_NEW)
        reference = _vanilla(tiny_rope_model, prompt, config)
        spec = SpeculationConfig(
            k=3,
            drafter="policy",
            drafter_policy_factory=lambda: StreamingLLMPolicy(
                CachePolicyConfig(kv_budget=12)
            ),
        )
        result = SpeculativeGenerator(tiny_rope_model, spec).generate(prompt, config)
        assert result.sequences == reference.sequences
        assert result.log_probs == reference.log_probs

    def test_smaller_drafter_model(self, tiny_rope_model):
        """A separate (smaller) drafter model drafts; output is still the target's."""
        drafter_model = DecoderLM(tiny_config("rope", n_layers=1, d_ff=32), seed=3)
        prompt = _prompt()
        config = GenerationConfig(max_new_tokens=MAX_NEW)
        reference = _vanilla(tiny_rope_model, prompt, config)
        spec = SpeculationConfig(k=3, drafter_model=drafter_model)
        result = SpeculativeGenerator(tiny_rope_model, spec).generate(prompt, config)
        assert result.sequences == reference.sequences
        assert result.log_probs == reference.log_probs

    def test_drafter_model_vocab_mismatch_rejected(self, tiny_rope_model):
        other = DecoderLM(tiny_config("rope", vocab_size=32), seed=0)
        with pytest.raises(ValueError):
            SpeculativeGenerator(tiny_rope_model, SpeculationConfig(drafter_model=other))

    def test_batch_prompts_rejected(self, tiny_rope_model):
        with pytest.raises(ValueError):
            SpeculativeGenerator(tiny_rope_model).generate(
                np.zeros((2, 8), dtype=np.int64)
            )


class TestEdgeCases:
    def test_single_token_budget(self, tiny_rope_model):
        prompt = _prompt()
        config = GenerationConfig(max_new_tokens=1)
        reference = _vanilla(tiny_rope_model, prompt, config)
        result = SpeculativeGenerator(tiny_rope_model, SpeculationConfig(k=4)).generate(
            prompt, config
        )
        assert result.sequences == reference.sequences
        assert result.log_probs == reference.log_probs
        assert len(result.sequences[0]) == 1

    def test_eos_at_first_token(self, tiny_rope_model):
        prompt = _prompt()
        first = _vanilla(
            tiny_rope_model, prompt, GenerationConfig(max_new_tokens=1)
        ).sequences[0][0]
        config = GenerationConfig(max_new_tokens=MAX_NEW, eos_token_id=first)
        result = SpeculativeGenerator(tiny_rope_model, SpeculationConfig(k=4)).generate(
            prompt, config
        )
        assert result.sequences[0] == [first]
        assert result.speculation["rounds"] == 0

    def test_eos_inside_draft_block(self, tiny_rope_model):
        """EOS produced mid-verify must cut the commit exactly like vanilla."""
        prompt = _prompt()
        config_free = GenerationConfig(max_new_tokens=MAX_NEW)
        free_tokens = _vanilla(tiny_rope_model, prompt, config_free).sequences[0]
        eos = free_tokens[5]
        config = GenerationConfig(max_new_tokens=MAX_NEW, eos_token_id=eos)
        reference = _vanilla(tiny_rope_model, prompt, config)
        result = SpeculativeGenerator(tiny_rope_model, SpeculationConfig(k=6)).generate(
            prompt, config
        )
        assert result.sequences == reference.sequences
        assert result.log_probs == reference.log_probs
        assert result.sequences[0][-1] == eos

    def test_k_larger_than_budget(self, tiny_rope_model):
        prompt = _prompt()
        config = GenerationConfig(max_new_tokens=3)
        reference = _vanilla(tiny_rope_model, prompt, config)
        result = SpeculativeGenerator(tiny_rope_model, SpeculationConfig(k=12)).generate(
            prompt, config
        )
        assert result.sequences == reference.sequences


def _spec_engine(model, spec: SpeculationConfig):
    """The facade's engine with the test prompt joined: the first step runs
    the prompt pass, seeds the drafter and runs the first verify round."""
    engine = SpeculativeGenerator(model, spec)._engine()
    state = engine.submit(
        _prompt(), GenerationConfig(max_new_tokens=MAX_NEW), sampler=GreedySampler()
    )
    engine.step()
    assert not state.finished
    return engine, state


class TestSharedStoreAccounting:
    def test_drafter_pages_live_in_the_target_rows_store(self, tiny_rope_model):
        engine, state = _spec_engine(tiny_rope_model, SpeculationConfig(k=4))
        drafter, _ = engine._spec[state.request_id]
        store = engine._manager.store
        for layer, cache in enumerate(drafter.manager.caches):
            assert cache.pool is store.pools[layer]
        assert all(drafter.live_tables(store))

    def test_retirement_leaves_only_registry_pinned_pages(self, tiny_rope_model):
        engine, state = _spec_engine(tiny_rope_model, SpeculationConfig(k=4))
        engine.run()
        assert state.finished and not engine._spec
        # The drafter released everything and the row retired: the only page
        # references left are the registry's prefix pins.
        registry = engine._manager.registry
        for pool in engine._manager.store.pools:
            assert pool.used_pages == len(registry)
        assert engine.check_invariants(strict=True) == []

    def test_telemetry_counts_are_consistent(self, tiny_rope_model):
        engine, state = _spec_engine(tiny_rope_model, SpeculationConfig(k=4))
        engine.run()
        result = state.result()
        spec = result.speculation
        assert spec == engine.speculation_stats.summary()
        # The first token comes from the prompt logits; rounds commit the rest.
        assert spec["committed"] == len(result.sequences[0]) - 1
        assert spec["accepted"] <= spec["drafted"]
        assert 0.0 <= spec["acceptance_rate"] <= 1.0
        # Every verify round commits at least one token.
        assert spec["committed"] >= spec["rounds"]


DRAFTERS = {
    "ngram": lambda: SpeculationConfig(k=3, drafter="ngram"),
    "window": lambda: SpeculationConfig(k=3, drafter="window"),
    "policy": lambda: SpeculationConfig(
        k=3,
        drafter="policy",
        drafter_policy_factory=lambda: StreamingLLMPolicy(CachePolicyConfig(kv_budget=12)),
    ),
    "drafter_model": lambda: SpeculationConfig(
        k=3, drafter_model=DecoderLM(tiny_config("rope", n_layers=1, d_ff=32), seed=3)
    ),
}


@pytest.mark.parametrize("kind", sorted(DRAFTERS))
def test_result_policy_names_the_speculative_run(tiny_rope_model, kind):
    """``policy`` says the run was speculative for every drafter kind (a
    drafter's own ``"policy"`` key must not overwrite it), and the facade
    reports what the engine reports for the same request."""
    spec = DRAFTERS[kind]()
    config = GenerationConfig(max_new_tokens=MAX_NEW)
    result = SpeculativeGenerator(tiny_rope_model, spec).generate(_prompt(), config)
    assert sorted(result.policy) == ["drafter", "k", "policy", "target"]
    assert result.policy["policy"] == "speculative"
    assert result.policy["target"]["policy"] == "full"
    assert result.policy["k"] == 3
    assert result.policy["drafter"]["drafter"] == ("ngram" if kind == "ngram" else "policy")
    engine = ContinuousBatchingEngine(tiny_rope_model, speculation=spec)
    state = engine.submit(_prompt(), config, sampler=GreedySampler())
    engine.run()
    assert state.result().policy == result.policy
