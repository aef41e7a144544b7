"""Tests for multiple-choice accuracy and attention statistics."""

import numpy as np
import pytest

from repro.metrics.accuracy import multiple_choice_accuracy, pick_option
from repro.metrics.attention_stats import (
    attention_score_cdf,
    attention_sparsity,
    cumulative_attention_mass,
    head_sparsity_by_threshold,
)
from repro.models.tensor_ops import softmax


class TestAccuracy:
    def test_pick_option(self):
        assert pick_option([-5.0, -1.0, -3.0]) == 1

    def test_pick_option_length_normalized(self):
        # Option 0 has better total but option 1 is better per token.
        assert pick_option([-2.0, -3.0], normalize_by_length=[1, 6]) == 1

    def test_pick_option_validation(self):
        with pytest.raises(ValueError):
            pick_option([])
        with pytest.raises(ValueError):
            pick_option([-1.0, -2.0], normalize_by_length=[1])

    def test_accuracy(self):
        assert multiple_choice_accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 75.0

    def test_accuracy_validation(self):
        with pytest.raises(ValueError):
            multiple_choice_accuracy([], [])
        with pytest.raises(ValueError):
            multiple_choice_accuracy([1], [1, 2])


def make_attention(rng, t=16, peaked=False):
    logits = rng.normal(size=(1, 2, t, t))
    if peaked:
        logits[..., 0] += 8.0  # all mass to the first token
    mask = np.triu(np.ones((t, t), dtype=bool), k=1)
    logits = np.where(mask[None, None], -np.inf, logits)
    return softmax(logits, axis=-1)


class TestAttentionStats:
    def test_sparsity_in_bounds(self, rng):
        attn = make_attention(rng)
        value = attention_sparsity(attn, threshold=0.01)
        assert 0.0 <= value <= 100.0

    def test_sparsity_monotone_in_threshold(self, rng):
        attn = make_attention(rng)
        low = attention_sparsity(attn, threshold=0.001)
        high = attention_sparsity(attn, threshold=0.05)
        assert high >= low

    def test_peaked_attention_is_sparser(self, rng):
        uniform = make_attention(rng, peaked=False)
        peaked = make_attention(rng, peaked=True)
        assert attention_sparsity(peaked, 0.05) > attention_sparsity(uniform, 0.05)

    def test_validates_shape(self):
        with pytest.raises(ValueError):
            attention_sparsity(np.zeros((3, 4, 4)))

    def test_cumulative_mass_monotone_and_bounded(self, rng):
        attn = make_attention(rng)
        mass = cumulative_attention_mass(attn, [0.1, 0.3, 0.5, 0.9])
        assert all(0.0 <= m <= 1.0 + 1e-9 for m in mass)
        assert all(b >= a - 1e-9 for a, b in zip(mass, mass[1:]))
        assert mass[-1] > 0.85

    def test_peaked_attention_concentrates_mass(self, rng):
        peaked = make_attention(rng, peaked=True)
        uniform = make_attention(rng, peaked=False)
        assert (
            cumulative_attention_mass(peaked, [0.2])[0]
            > cumulative_attention_mass(uniform, [0.2])[0]
        )

    def test_cdf_output_aligned(self, rng):
        fractions, mass = attention_score_cdf(make_attention(rng), n_points=9)
        assert len(fractions) == len(mass) == 9
        assert fractions[0] == pytest.approx(0.1)

    def test_threshold_sweep_structure(self, rng):
        layers = [make_attention(rng), make_attention(rng)]
        sweep = head_sparsity_by_threshold(layers, [0.0, 0.01])
        assert set(sweep) == {0.0, 0.01}
        assert len(sweep[0.0]) == 2
