"""Tests for beam search with per-beam KV caches."""

import numpy as np
import pytest

from repro.core.registry import make_policy
from repro.generation.beam import BeamSearch
from repro.generation.generator import Generator
from repro.models.config import GenerationConfig, ModelConfig
from repro.models.transformer import DecoderLM
from tests.conftest import tiny_config


class TestBeamSearch:
    def test_returns_hypotheses_sorted_by_score(self, tiny_rope_model, rng):
        beam = BeamSearch(tiny_rope_model, make_policy("full"))
        prompt = rng.integers(0, 64, size=10)
        result = beam.search(prompt, GenerationConfig(max_new_tokens=5, beam_size=3))
        scores = [h.normalized_score for h in result.hypotheses]
        assert scores == sorted(scores, reverse=True)
        assert result.best.tokens == result.hypotheses[0].tokens
        assert len(result.best.tokens) <= 5

    def test_beam_at_least_as_good_as_greedy(self, rng):
        """Beam search's best raw log-probability must be >= greedy's."""
        model = DecoderLM(tiny_config("alibi"), seed=11)
        prompt = rng.integers(0, 64, size=12)
        greedy = Generator(model, make_policy("full")).generate(
            prompt, GenerationConfig(max_new_tokens=4)
        )
        beam = BeamSearch(model, make_policy("full")).search(
            prompt, GenerationConfig(max_new_tokens=4, beam_size=4, length_penalty=1.0)
        )
        full_length = [h for h in beam.hypotheses if len(h.tokens) == 4]
        assert full_length, "expected at least one full-length hypothesis"
        assert max(h.raw_score for h in full_length) >= greedy.log_probs[0] - 1e-8

    def test_beam_size_one_matches_greedy_tokens(self, rng):
        model = DecoderLM(tiny_config("rope"), seed=12)
        prompt = rng.integers(0, 64, size=10)
        greedy = Generator(model, make_policy("full")).generate(
            prompt, GenerationConfig(max_new_tokens=5)
        )
        beam = BeamSearch(model, make_policy("full")).search(
            prompt, GenerationConfig(max_new_tokens=5, beam_size=1)
        )
        assert beam.best.tokens == greedy.sequences[0]

    def test_works_with_reduced_cache(self, tiny_rope_model, rng):
        beam = BeamSearch(tiny_rope_model, make_policy("keyformer", kv_fraction=0.5))
        prompt = rng.integers(0, 64, size=20)
        result = beam.search(prompt, GenerationConfig(max_new_tokens=6, beam_size=4))
        assert len(result.best.tokens) <= 6
        assert result.policy["policy"] == "keyformer"

    def test_eos_terminates_hypotheses(self, tiny_rope_model, rng):
        prompt = rng.integers(0, 64, size=10)
        probe = BeamSearch(tiny_rope_model, make_policy("full")).search(
            prompt, GenerationConfig(max_new_tokens=4, beam_size=2)
        )
        eos = probe.best.tokens[1] if len(probe.best.tokens) > 1 else probe.best.tokens[0]
        result = BeamSearch(tiny_rope_model, make_policy("full")).search(
            prompt, GenerationConfig(max_new_tokens=8, beam_size=2, eos_token_id=eos)
        )
        assert any(h.tokens and h.tokens[-1] == eos for h in result.hypotheses)

    def test_empty_prompt_rejected(self, tiny_rope_model):
        beam = BeamSearch(tiny_rope_model)
        with pytest.raises(ValueError):
            beam.search(np.array([], dtype=np.int64))

    def test_length_penalty_changes_ranking_monotonically(self, tiny_rope_model, rng):
        prompt = rng.integers(0, 64, size=10)
        result = BeamSearch(tiny_rope_model, make_policy("full")).search(
            prompt, GenerationConfig(max_new_tokens=5, beam_size=3, length_penalty=2.0)
        )
        for hypothesis in result.hypotheses:
            expected = hypothesis.raw_score / max(len(hypothesis.tokens), 1) ** 2.0
            np.testing.assert_allclose(hypothesis.normalized_score, expected, atol=1e-12)

    def test_single_token_budget_returns_top_first_tokens(self, tiny_rope_model, rng):
        """max_new_tokens=1: hypotheses are the beam_size best first tokens,
        scored by their prompt-logits log-probabilities (no decode step)."""
        prompt = rng.integers(0, 64, size=10)
        result = BeamSearch(tiny_rope_model, make_policy("full")).search(
            prompt, GenerationConfig(max_new_tokens=1, beam_size=3)
        )
        assert result.n_steps == 0
        assert all(len(h.tokens) == 1 for h in result.hypotheses)
        logits = tiny_rope_model(np.asarray(prompt)[None, :])[0, -1]
        expected_best = int(np.argmax(logits))
        assert result.best.tokens == [expected_best]

    def test_eos_as_best_first_token_finishes_immediately(self, tiny_rope_model, rng):
        """EOS at the very first position must yield a finished one-token
        hypothesis instead of decoding past it (the speculative drafter's
        EOS-at-first-draft case leans on the same convention)."""
        prompt = rng.integers(0, 64, size=10)
        logits = tiny_rope_model(np.asarray(prompt)[None, :])[0, -1]
        eos = int(np.argmax(logits))
        result = BeamSearch(tiny_rope_model, make_policy("full")).search(
            prompt, GenerationConfig(max_new_tokens=6, beam_size=2, eos_token_id=eos)
        )
        assert [eos] in [h.tokens for h in result.hypotheses]
        assert all(
            h.tokens.count(eos) == 0 or h.tokens[-1] == eos for h in result.hypotheses
        )


class TestBeamsAreSoloRuns:
    """At float64 each hypothesis' raw score is its tokens scored alone, bit
    for bit.  The beams are the rows of one batch: duplicated by page-table
    clones, read through the padded workspace, decoded by one BLAS gemv per
    row — so a row must be its sequence decoded alone.  Every beam runs its
    own policy instance (a parent's copied to each child), so a Keyformer
    beam's noise draws are its sequence's alone."""

    @pytest.mark.parametrize("policy", ["full", "window", "h2o", "keyformer"])
    @pytest.mark.parametrize("positional", ["rope", "alibi", "learned"])
    def test_beam_scores_equal_solo_scores(self, positional, policy):
        config = ModelConfig(
            positional=positional, vocab_size=256, d_model=128, n_heads=8, d_ff=512,
            n_layers=2, max_seq_len=128,
        )
        model = DecoderLM(config, seed=0)
        prompt = np.random.default_rng(7).integers(0, config.vocab_size, size=40)
        result = BeamSearch(model, make_policy(policy, kv_fraction=0.5)).search(
            prompt, GenerationConfig(max_new_tokens=10, beam_size=4)
        )
        assert len(result.hypotheses) >= 4
        for hyp in result.hypotheses:
            solo = Generator(model, make_policy(policy, kv_fraction=0.5))
            score = solo.score_continuation(prompt, hyp.tokens)
            assert np.float64(hyp.raw_score).tobytes() == np.float64(score).tobytes()
