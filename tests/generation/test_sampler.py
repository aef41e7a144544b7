"""Tests for next-token samplers."""

import numpy as np
import pytest

from repro.generation.sampler import GreedySampler, Sampler, sample_rows


class _ArgminSampler(Sampler):
    """A non-greedy sampler that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, logits):
        self.calls += 1
        return np.argmin(np.atleast_2d(logits), axis=-1).astype(np.int64)


class TestGreedy:
    def test_argmax(self):
        logits = np.array([[0.1, 5.0, 0.2], [3.0, 0.0, -1.0]])
        np.testing.assert_array_equal(GreedySampler()(logits), [1, 0])

    def test_accepts_1d(self):
        assert GreedySampler()(np.array([0.0, 2.0, 1.0])).tolist() == [1]


class TestSampleRows:
    def test_all_greedy_rows_are_one_argmax(self):
        logits = np.random.default_rng(4).normal(size=(3, 16))
        tokens = sample_rows([GreedySampler()] * 3, logits)
        np.testing.assert_array_equal(tokens, np.argmax(logits, axis=-1))
        assert tokens.dtype == np.int64

    def test_each_row_draws_from_its_own_sampler(self):
        """A caller-supplied sampler sees only its own row, so a mixed batch
        samples what each request would have sampled alone."""
        logits = np.random.default_rng(5).normal(size=(3, 16))
        first, last = _ArgminSampler(), _ArgminSampler()
        tokens = sample_rows([first, GreedySampler(), last], logits)
        want = [np.argmin(logits[0]), np.argmax(logits[1]), np.argmin(logits[2])]
        assert tokens.tolist() == [int(t) for t in want]
        assert first.calls == last.calls == 1

    def test_row_count_must_match_samplers(self):
        with pytest.raises(ValueError, match="2 logit rows for 3 samplers"):
            sample_rows([GreedySampler()] * 3, np.zeros((2, 8)))
