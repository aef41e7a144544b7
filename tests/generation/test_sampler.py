"""Tests for next-token samplers."""

import numpy as np
import pytest

from repro.generation.sampler import GreedySampler, TopKSampler, make_sampler, sample_rows


class TestGreedy:
    def test_argmax(self):
        logits = np.array([[0.1, 5.0, 0.2], [3.0, 0.0, -1.0]])
        np.testing.assert_array_equal(GreedySampler()(logits), [1, 0])

    def test_accepts_1d(self):
        assert GreedySampler()(np.array([0.0, 2.0, 1.0])).tolist() == [1]


class TestTopK:
    def test_only_topk_tokens_sampled(self):
        logits = np.array([[10.0, 9.5, -50.0, -50.0, -50.0]])
        sampler = TopKSampler(top_k=2, seed=0)
        draws = {int(sampler(logits)[0]) for _ in range(50)}
        assert draws.issubset({0, 1})
        assert len(draws) == 2  # both plausible tokens appear

    def test_deterministic_with_seed(self):
        logits = np.random.default_rng(0).normal(size=(1, 20))
        a = TopKSampler(top_k=5, seed=42)
        b = TopKSampler(top_k=5, seed=42)
        assert [int(a(logits)[0]) for _ in range(10)] == [int(b(logits)[0]) for _ in range(10)]

    def test_low_temperature_approaches_greedy(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        sampler = TopKSampler(top_k=0, temperature=0.01, seed=1)
        assert all(int(sampler(logits)[0]) == 2 for _ in range(20))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TopKSampler(top_k=-1)
        with pytest.raises(ValueError):
            TopKSampler(temperature=0.0)


class TestFactory:
    def test_defaults_to_greedy(self):
        assert isinstance(make_sampler(), GreedySampler)

    def test_randomness_requested(self):
        assert isinstance(make_sampler(top_k=5), TopKSampler)
        assert isinstance(make_sampler(temperature=0.7), TopKSampler)

    def test_temperature_zero_is_greedy(self):
        """Temperature 0 is the conventional spelling of argmax decoding —
        the speculative engine's greedy-only check relies on it mapping to
        GreedySampler instead of raising."""
        assert isinstance(make_sampler(temperature=0.0), GreedySampler)
        assert isinstance(make_sampler(temperature=0.0, top_k=7), GreedySampler)

    def test_direct_topk_still_rejects_zero_temperature(self):
        # Only the factory interprets 0 as greedy; the sampler itself would
        # divide by it.
        with pytest.raises(ValueError):
            TopKSampler(temperature=0.0)


class TestTopKOne:
    def test_top_k_one_is_deterministic_argmax(self):
        logits = np.random.default_rng(2).normal(size=(1, 32))
        sampler = TopKSampler(top_k=1, seed=0)
        expected = int(np.argmax(logits))
        assert all(int(sampler(logits)[0]) == expected for _ in range(20))

    def test_top_k_one_batched_rows(self):
        logits = np.random.default_rng(3).normal(size=(4, 16))
        sampler = TopKSampler(top_k=1, seed=0)
        np.testing.assert_array_equal(sampler(logits), np.argmax(logits, axis=-1))


class TestSampleRows:
    def test_all_greedy_rows_are_one_argmax(self):
        logits = np.random.default_rng(4).normal(size=(3, 16))
        tokens = sample_rows([GreedySampler()] * 3, logits)
        np.testing.assert_array_equal(tokens, np.argmax(logits, axis=-1))
        assert tokens.dtype == np.int64

    def test_each_row_draws_from_its_own_sampler(self):
        """A stochastic row consumes only its own RNG stream, so a mixed batch
        samples what each request would have sampled alone."""
        logits = np.random.default_rng(5).normal(size=(3, 16))
        batch = [TopKSampler(top_k=4, seed=1), GreedySampler(), TopKSampler(top_k=8, seed=2)]
        alone = [TopKSampler(top_k=4, seed=1), GreedySampler(), TopKSampler(top_k=8, seed=2)]
        for _ in range(5):
            want = [int(s(logits[row : row + 1])[0]) for row, s in enumerate(alone)]
            assert sample_rows(batch, logits).tolist() == want

    def test_row_count_must_match_samplers(self):
        with pytest.raises(ValueError, match="2 logit rows for 3 samplers"):
            sample_rows([GreedySampler()] * 3, np.zeros((2, 8)))
