"""Tests for the Generator: prompt phase, decode loop, scoring, perplexity."""

import numpy as np
import pytest

from repro.core.registry import make_policy
from repro.generation.generator import Generator
from repro.models.config import GenerationConfig
from repro.models.tensor_ops import log_softmax
from repro.models.transformer import DecoderLM
from tests.conftest import tiny_config


class TestFullCacheEquivalence:
    """With the full-attention policy, incremental decoding must match running
    the model once over the whole (prompt + generated) sequence."""

    @pytest.mark.parametrize("positional", ["rope", "alibi", "learned"])
    def test_incremental_matches_full_forward(self, positional, rng):
        model = DecoderLM(tiny_config(positional), seed=3)
        prompt = rng.integers(0, 64, size=10)
        generator = Generator(model, make_policy("full"))
        result = generator.generate(prompt, GenerationConfig(max_new_tokens=6))
        generated = result.sequences[0]

        # Greedy re-decoding with full forward passes must give the same tokens.
        sequence = list(prompt)
        for expected in generated:
            logits = model(np.asarray(sequence)[None, :])
            token = int(np.argmax(logits[0, -1]))
            assert token == expected
            sequence.append(token)

    def test_log_probs_match_full_forward(self, rng):
        model = DecoderLM(tiny_config("rope"), seed=4)
        prompt = rng.integers(0, 64, size=8)
        generator = Generator(model, make_policy("full"))
        result = generator.generate(prompt, GenerationConfig(max_new_tokens=4))
        generated = result.sequences[0]

        sequence = list(prompt)
        expected_logprob = 0.0
        for token in generated:
            logits = model(np.asarray(sequence)[None, :])
            expected_logprob += float(log_softmax(logits[0, -1])[token])
            sequence.append(token)
        np.testing.assert_allclose(result.log_probs[0], expected_logprob, atol=1e-8)


class TestGenerationBehaviour:
    def test_generates_requested_tokens(self, tiny_rope_model, rng):
        generator = Generator(tiny_rope_model, make_policy("keyformer", kv_fraction=0.5))
        prompt = rng.integers(0, 64, size=20)
        result = generator.generate(prompt, GenerationConfig(max_new_tokens=7))
        assert len(result.sequences[0]) == 7
        assert result.n_steps == 6  # final token is not fed back

    def test_single_token_budget(self, tiny_rope_model, rng):
        """max_new_tokens=1 emits exactly the argmax of the prompt logits,
        with its log-probability and zero decode steps."""
        prompt = rng.integers(0, 64, size=12)
        generator = Generator(tiny_rope_model, make_policy("full"))
        result = generator.generate(prompt, GenerationConfig(max_new_tokens=1))
        logits = tiny_rope_model(np.asarray(prompt)[None, :])[0, -1]
        assert result.sequences[0] == [int(np.argmax(logits))]
        assert result.n_steps == 0
        expected = float(log_softmax(logits[None], axis=-1)[0, int(np.argmax(logits))])
        np.testing.assert_allclose(result.log_probs[0], expected, rtol=0, atol=0)

    def test_eos_as_first_token(self, tiny_rope_model, rng):
        """An immediate EOS is recorded (with its log-probability) and stops
        generation before any decode step."""
        prompt = rng.integers(0, 64, size=12)
        logits = tiny_rope_model(np.asarray(prompt)[None, :])[0, -1]
        eos = int(np.argmax(logits))
        generator = Generator(tiny_rope_model, make_policy("full"))
        result = generator.generate(
            prompt, GenerationConfig(max_new_tokens=10, eos_token_id=eos)
        )
        assert result.sequences[0] == [eos]
        assert result.n_steps == 0

    def test_eos_stops_early(self, tiny_rope_model, rng):
        generator = Generator(tiny_rope_model, make_policy("full"))
        prompt = rng.integers(0, 64, size=12)
        probe = generator.generate(prompt, GenerationConfig(max_new_tokens=3))
        eos = probe.sequences[0][1]  # force EOS to be the second generated token
        result = generator.generate(
            prompt, GenerationConfig(max_new_tokens=10, eos_token_id=eos)
        )
        assert len(result.sequences[0]) <= 2
        assert result.sequences[0][-1] == eos

    def test_batch_generation(self, tiny_rope_model, rng):
        generator = Generator(tiny_rope_model, make_policy("h2o", kv_fraction=0.5))
        prompts = rng.integers(0, 64, size=(3, 15))
        result = generator.generate(prompts, GenerationConfig(max_new_tokens=5))
        assert len(result.sequences) == 3
        assert all(len(seq) == 5 for seq in result.sequences)
        # Batched generation must match per-example generation.
        solo = Generator(tiny_rope_model, make_policy("h2o", kv_fraction=0.5))
        single = solo.generate(prompts[1], GenerationConfig(max_new_tokens=5))
        assert result.sequences[1] == single.sequences[0]

    def test_cache_stays_at_budget(self, tiny_rope_model, rng):
        generator = Generator(tiny_rope_model, make_policy("keyformer", kv_fraction=0.5))
        prompt = rng.integers(0, 64, size=30)
        result = generator.generate(prompt, GenerationConfig(max_new_tokens=8))
        assert result.cache_stats.peak_cache_length() <= 15 + 1

    def test_policy_description_attached(self, tiny_rope_model, rng):
        generator = Generator(tiny_rope_model, make_policy("window", kv_fraction=0.3))
        result = generator.generate(
            rng.integers(0, 64, size=10), GenerationConfig(max_new_tokens=3)
        )
        assert result.policy["policy"] == "window"

    def test_rejects_empty_prompt(self, tiny_rope_model):
        generator = Generator(tiny_rope_model)
        with pytest.raises(ValueError):
            generator.generate(np.zeros((1, 0), dtype=np.int64))

    def test_prompt_tensors_are_handed_over_not_kept(self, tiny_rope_model, rng):
        """A finished request leaves no (B, H, T, T) prompt tensor pinned in the
        shared model: the next prompt pass must not allocate beside the last."""
        generator = Generator(tiny_rope_model, make_policy("keyformer", kv_fraction=0.5))
        generator.generate(rng.integers(0, 64, size=20), GenerationConfig(max_new_tokens=3))
        for block in tiny_rope_model.blocks:
            attn = block.attn
            assert attn.last_kv is attn.last_attention is attn.last_scores is attn._cache is None
        with pytest.raises(RuntimeError, match="did not store attention"):
            tiny_rope_model.take_prompt_tensors()
        tiny_rope_model.forward(np.arange(6)[None, :], store_attention=True)
        kv, attention, scores = tiny_rope_model.take_prompt_tensors()
        assert len(kv) == len(attention) == len(scores) == len(tiny_rope_model.blocks)
        assert attention[0].shape == scores[0].shape == (1, attention[0].shape[1], 6, 6)

    def test_positional_mode_changes_reduced_cache_output(self, rng):
        model = DecoderLM(tiny_config("rope"), seed=5)
        prompt = rng.integers(0, 64, size=24)
        config = GenerationConfig(max_new_tokens=6)
        original = Generator(
            model, make_policy("keyformer", kv_fraction=0.4, positional_mode="original", seed=0)
        ).generate(prompt, config)
        renumbered = Generator(
            model, make_policy("keyformer", kv_fraction=0.4, positional_mode="new", seed=0)
        ).generate(prompt, config)
        # The two positional treatments are genuinely different computations;
        # they may coincidentally agree on tokens but the cache positions differ.
        assert (
            original.cache_stats.peak_cache_length()
            == renumbered.cache_stats.peak_cache_length()
        )


class TestScoring:
    def test_score_continuation_matches_forward(self, rng):
        model = DecoderLM(tiny_config("alibi"), seed=6)
        prompt = rng.integers(0, 64, size=9)
        continuation = rng.integers(0, 64, size=4)
        generator = Generator(model, make_policy("full"))
        score = generator.score_continuation(prompt, continuation)

        sequence = list(prompt)
        expected = 0.0
        for token in continuation:
            logits = model(np.asarray(sequence)[None, :])
            expected += float(log_softmax(logits[0, -1])[token])
            sequence.append(int(token))
        np.testing.assert_allclose(score, expected, atol=1e-8)

    def test_score_continuation_requires_tokens(self, tiny_rope_model):
        generator = Generator(tiny_rope_model)
        with pytest.raises(ValueError):
            generator.score_continuation([1, 2, 3], [])

    def test_reduced_cache_changes_scores(self, rng):
        model = DecoderLM(tiny_config("rope"), seed=7)
        prompt = rng.integers(0, 64, size=40)
        continuation = rng.integers(0, 64, size=5)
        full = Generator(model, make_policy("full")).score_continuation(prompt, continuation)
        reduced = Generator(model, make_policy("window", kv_fraction=0.2)).score_continuation(
            prompt, continuation
        )
        assert full != pytest.approx(reduced)

    def test_perplexity_positive_and_finite(self, tiny_rope_model, rng):
        generator = Generator(tiny_rope_model, make_policy("full"))
        ppl = generator.perplexity(rng.integers(0, 64, size=12))
        assert np.isfinite(ppl) and ppl > 0

    def test_perplexity_requires_two_tokens(self, tiny_rope_model):
        generator = Generator(tiny_rope_model)
        with pytest.raises(ValueError):
            generator.perplexity([5])
