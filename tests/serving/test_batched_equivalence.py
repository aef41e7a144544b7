"""Batch-equals-sequential golden equivalence for the serving engine.

The serving engine's core invariant: at float64, decoding a ragged batch of
requests through the continuous-batching engine produces **byte-identical**
token sequences (and bit-identical log-probabilities and cache statistics) to
running each request alone through ``Generator.generate``.  These tests pin
that invariant for every eviction-policy family the paper evaluates (full,
window, H2O, Keyformer) across positional-encoding variants, with mixed
prompt lengths in one batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CachePolicyConfig, KeyformerConfig
from repro.core.keyformer import KeyformerPolicy
from repro.core.policies import (
    FullAttentionPolicy,
    H2OPolicy,
    WindowAttentionPolicy,
)
from repro.generation.generator import Generator
from repro.generation.sampler import GreedySampler
from repro.models.config import GenerationConfig, ModelConfig
from repro.models.transformer import DecoderLM
from repro.serving.engine import BatchedGenerator

VOCAB = 96
PROMPT_LENGTHS = (48, 31, 40, 23)
MAX_NEW_TOKENS = 20

POLICY_FACTORIES = {
    "full": FullAttentionPolicy,
    "window": lambda: WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.5)),
    "h2o": lambda: H2OPolicy(CachePolicyConfig(kv_fraction=0.5, recent_ratio=0.5)),
    "keyformer": lambda: KeyformerPolicy(KeyformerConfig(kv_fraction=0.5)),
}


def make_model(positional: str = "rope", **overrides) -> DecoderLM:
    config = dict(
        vocab_size=VOCAB,
        d_model=32,
        n_layers=2,
        n_heads=4,
        d_ff=64,
        max_seq_len=256,
        positional=positional,
    )
    config.update(overrides)
    return DecoderLM(ModelConfig(**config), seed=0)


def make_prompts() -> list[np.ndarray]:
    rng = np.random.default_rng(7)
    return [rng.integers(0, VOCAB, size=n).astype(np.int64) for n in PROMPT_LENGTHS]


def sequential_results(model, factory, prompts, config, sampler=None):
    return [
        Generator(model, factory()).generate(
            prompt, config, sampler=sampler() if sampler else GreedySampler()
        )
        for prompt in prompts
    ]


def assert_identical(sequential, batched):
    for seq, bat in zip(sequential, batched):
        assert bat.sequences[0] == seq.sequences[0]
        # Bit-identical accumulation, not approximate equality.
        assert bat.log_probs[0] == seq.log_probs[0]
        assert bat.n_steps == seq.n_steps
        assert bat.prompt_lengths == seq.prompt_lengths
        assert bat.cache_stats.lengths_per_step == seq.cache_stats.lengths_per_step
        assert bat.cache_stats.total_appended == seq.cache_stats.total_appended
        assert bat.cache_stats.total_evicted == seq.cache_stats.total_evicted


class TestBatchEqualsSequential:
    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    @pytest.mark.parametrize("positional", ["rope", "alibi", "learned"])
    def test_mixed_length_batch_bit_identical(self, policy_name, positional):
        """Batch of 4 mixed-length requests == 4 dedicated runs, per policy."""
        model = make_model(positional)
        factory = POLICY_FACTORIES[policy_name]
        prompts = make_prompts()
        config = GenerationConfig(max_new_tokens=MAX_NEW_TOKENS)
        sequential = sequential_results(model, factory, prompts, config)
        batched = BatchedGenerator(
            model, policy_factory=factory, max_batch_size=len(prompts)
        ).generate_batch(prompts, config, sampler=GreedySampler())
        assert_identical(sequential, batched)

    def test_keyformer_renumbered_positions(self):
        """Keyformer (New Pos) exercises the renumbered-position batch path."""
        model = make_model("rope")
        factory = lambda: KeyformerPolicy(  # noqa: E731
            KeyformerConfig(kv_fraction=0.5, positional_mode="new")
        )
        prompts = make_prompts()
        config = GenerationConfig(max_new_tokens=MAX_NEW_TOKENS)
        sequential = sequential_results(model, factory, prompts, config)
        batched = BatchedGenerator(
            model, policy_factory=factory, max_batch_size=4
        ).generate_batch(prompts, config, sampler=GreedySampler())
        assert_identical(sequential, batched)

    def test_fixed_budget_window_batch(self):
        """Absolute budgets converge all rows to one length (suffix-eviction
        steady state) — the O(1) start-offset path must stay bit-exact."""
        model = make_model("rope")
        factory = lambda: WindowAttentionPolicy(  # noqa: E731
            CachePolicyConfig(kv_budget=16)
        )
        prompts = make_prompts()
        config = GenerationConfig(max_new_tokens=MAX_NEW_TOKENS)
        sequential = sequential_results(model, factory, prompts, config)
        batched = BatchedGenerator(
            model, policy_factory=factory, max_batch_size=4
        ).generate_batch(prompts, config, sampler=GreedySampler())
        assert_identical(sequential, batched)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("positional", ["rope", "alibi", "learned"])
    @pytest.mark.parametrize("policy", sorted(POLICY_FACTORIES))
    def test_single_request_matches_generator_result(self, policy, positional, dtype):
        """The Generator-compatible wrapper is a drop-in for one sequence —
        at float32 too, where a lone row reads the same slabs either way."""
        model = make_model(positional, compute_dtype=dtype)
        factory = POLICY_FACTORIES[policy]
        config = GenerationConfig(max_new_tokens=MAX_NEW_TOKENS)
        for prompt in make_prompts()[:2]:
            seq = Generator(model, factory()).generate(prompt, config, sampler=GreedySampler())
            bat = BatchedGenerator(model, policy_factory=factory).generate(
                prompt, config, sampler=GreedySampler()
            )
            assert bat.sequences == seq.sequences
            assert [np.float64(lp).tobytes() for lp in bat.log_probs] == [
                np.float64(lp).tobytes() for lp in seq.log_probs
            ]
            assert bat.n_steps == seq.n_steps
            got, want = bat.cache_stats, seq.cache_stats
            assert got.lengths_per_step == want.lengths_per_step
            assert (got.total_appended, got.total_evicted) == (
                want.total_appended,
                want.total_evicted,
            )

    def test_2d_prompt_batch_one_request_per_row(self):
        model = make_model("rope")
        rng = np.random.default_rng(11)
        prompts_2d = rng.integers(0, VOCAB, size=(3, 24)).astype(np.int64)
        config = GenerationConfig(max_new_tokens=8)
        result = BatchedGenerator(
            model, policy_factory=FullAttentionPolicy, max_batch_size=3
        ).generate(prompts_2d, config, sampler=GreedySampler())
        sequential = sequential_results(
            model, FullAttentionPolicy, list(prompts_2d), config
        )
        assert result.sequences == [r.sequences[0] for r in sequential]
        assert result.log_probs == [r.log_probs[0] for r in sequential]


class TestFloat32ThroughputMode:
    """float32 runs fully batched (masked padded attention); held to the
    documented inference tolerance rather than bit parity."""

    def test_first_decode_logits_close(self):
        model = make_model("rope", compute_dtype="float32")
        prompts = make_prompts()
        config = GenerationConfig(max_new_tokens=4)
        sequential = sequential_results(model, FullAttentionPolicy, prompts, config)
        batched = BatchedGenerator(
            model, policy_factory=FullAttentionPolicy, max_batch_size=4
        ).generate_batch(prompts, config, sampler=GreedySampler())
        for seq, bat in zip(sequential, batched):
            np.testing.assert_allclose(
                bat.log_probs[0], seq.log_probs[0], rtol=1e-2, atol=1e-2
            )
