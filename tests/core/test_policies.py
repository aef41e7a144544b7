"""Tests for the baseline eviction policies and the mixed top-k selection helper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CachePolicyConfig
from repro.core.policies import (
    FullAttentionPolicy,
    H2OPolicy,
    KeyAttentionPolicy,
    StreamingLLMPolicy,
    WindowAttentionPolicy,
    mixed_topk_selection,
)
from repro.core.registry import POLICIES, make_policy
from repro.models.tensor_ops import softmax
from tests.reference.prompt_scoring import score_prompt


def prompt_tensors(rng, batch=1, heads=2, t=20):
    logits = rng.normal(size=(batch, heads, t, t))
    mask = np.triu(np.ones((t, t), dtype=bool), k=1)
    logits = np.where(mask[None, None], -np.inf, logits)
    return logits, softmax(logits, axis=-1)


def initial(policy, probs, logits, layer_idx=0):
    """Score the prompt tensors into ``policy`` as the prompt pass would, then
    take its prompt-phase selection."""
    score_prompt(policy, layer_idx, logits, probs)
    return policy.initial_selection(layer_idx)


def setup_policy(policy, prompt_len=20, heads=2, max_new=10):
    policy.setup(
        n_layers=2, n_heads=heads, batch_size=1, prompt_len=prompt_len, max_new_tokens=max_new
    )
    return policy


class TestMixedTopkSelection:
    def test_keeps_recent_window(self, rng):
        scores = rng.normal(size=(1, 2, 12))
        selection = mixed_topk_selection(scores, budget=6, recent_window=3)
        assert selection.shape == (1, 2, 6)
        for head in range(2):
            assert {9, 10, 11}.issubset(set(selection[0, head].tolist()))

    def test_key_tokens_are_top_scoring(self):
        scores = np.array([[[5.0, 1.0, 9.0, 0.5, 0.1, 0.2, 0.3, 0.4]]])
        selection = mixed_topk_selection(scores, budget=4, recent_window=2)
        # Recent window = {6, 7}; top-2 of the first 6 entries are {2, 0}.
        assert set(selection[0, 0].tolist()) == {0, 2, 6, 7}

    def test_no_eviction_when_budget_covers_all(self, rng):
        scores = rng.normal(size=(1, 1, 5))
        selection = mixed_topk_selection(scores, budget=8, recent_window=2)
        np.testing.assert_array_equal(selection[0, 0], np.arange(5))

    def test_pure_window_when_no_key_budget(self, rng):
        scores = rng.normal(size=(1, 1, 10))
        selection = mixed_topk_selection(scores, budget=4, recent_window=4)
        np.testing.assert_array_equal(selection[0, 0], np.arange(6, 10))

    @given(
        st.integers(2, 40),  # length
        st.integers(1, 40),  # budget
        st.integers(0, 40),  # recent window
        st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_valid_selection(self, length, budget, recent, seed):
        budget = min(budget, length)
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(1, 3, length))
        selection = mixed_topk_selection(scores, budget, recent)
        assert selection.shape == (1, 3, min(budget, length))
        for head in range(3):
            row = selection[0, head]
            assert np.all(np.diff(row) > 0)  # sorted, unique
            assert row.min() >= 0 and row.max() < length
            effective_recent = min(recent, budget)
            if budget < length and effective_recent > 0:
                expected_recent = set(range(length - effective_recent, length))
                assert expected_recent.issubset(set(row.tolist()))


class TestFullAttention:
    def test_never_evicts(self, rng):
        policy = setup_policy(FullAttentionPolicy())
        logits, probs = prompt_tensors(rng)
        assert initial(policy, probs, logits) is None
        step_logits = rng.normal(size=(1, 2, 30))
        assert policy.step_selection(0, step_logits, step_logits, None, 1) is None

    def test_budget_is_whole_sequence(self):
        policy = setup_policy(FullAttentionPolicy(), prompt_len=50, max_new=20)
        assert policy.budget == 70


class TestWindowAttention:
    def test_keeps_most_recent(self, rng):
        policy = setup_policy(WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.5)))
        logits, probs = prompt_tensors(rng)
        selection = initial(policy, probs, logits)
        np.testing.assert_array_equal(selection[0, 0], np.arange(10, 20))

    def test_step_drops_oldest(self, rng):
        policy = setup_policy(WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.5)))
        step_logits = rng.normal(size=(1, 2, 11))
        selection = policy.step_selection(0, step_logits, step_logits, None, 1)
        np.testing.assert_array_equal(selection[0, 0], np.arange(1, 11))

    def test_no_eviction_below_budget(self, rng):
        policy = setup_policy(WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.5)))
        step_logits = rng.normal(size=(1, 2, 5))
        assert policy.step_selection(0, step_logits, step_logits, None, 1) is None


class TestH2O:
    def test_keeps_heavy_hitters(self, rng):
        policy = setup_policy(H2OPolicy(CachePolicyConfig(kv_fraction=0.5, recent_ratio=0.5)))
        logits, probs = prompt_tensors(rng)
        # Make token 2 a heavy hitter for every head.
        probs = probs.copy()
        probs[..., 2] += 5.0
        selection = initial(policy, probs, logits)
        assert np.all((selection == 2).any(axis=-1))

    def test_score_state_tracks_cache_after_eviction(self, rng):
        policy = setup_policy(H2OPolicy(CachePolicyConfig(kv_fraction=0.5)))
        logits, probs = prompt_tensors(rng)
        selection = initial(policy, probs, logits)
        assert policy.score.get(0).shape[-1] == selection.shape[-1]
        # Next step: cache grew by one token.
        step_probs = np.abs(rng.normal(size=(1, 2, selection.shape[-1] + 1)))
        new_selection = policy.step_selection(0, step_probs, step_probs, None, 1)
        assert new_selection.shape[-1] == policy.budget

    def test_default_recent_ratio_is_half(self):
        assert H2OPolicy().config.recent_ratio == 0.5


class TestKeyAttention:
    def test_ignores_recency(self, rng):
        policy = setup_policy(KeyAttentionPolicy(CachePolicyConfig(kv_fraction=0.25)))
        logits, probs = prompt_tensors(rng)
        probs = probs.copy()
        probs[..., :5] += 10.0  # early tokens dominate
        selection = initial(policy, probs, logits)
        # All selected tokens are the early heavy ones, not the recent window.
        assert np.all(selection[0, 0] < 5)


class TestStreamingLLM:
    def test_keeps_sinks_and_recent(self, rng):
        policy = setup_policy(
            StreamingLLMPolicy(CachePolicyConfig(kv_fraction=0.5), n_sinks=4)
        )
        logits, probs = prompt_tensors(rng)
        selection = initial(policy, probs, logits)
        row = selection[0, 0]
        assert set(range(4)).issubset(set(row.tolist()))
        assert set(range(14, 20)).issubset(set(row.tolist()))
        assert row.size == policy.budget

    def test_invalid_sinks(self):
        with pytest.raises(ValueError):
            StreamingLLMPolicy(n_sinks=-1)


class TestRegistry:
    @pytest.mark.parametrize("name", POLICIES)
    def test_make_all_policies(self, name):
        policy = make_policy(name, kv_fraction=0.5)
        assert policy.name == name

    def test_policy_specific_kwargs(self):
        assert make_policy("streaming-llm", n_sinks=2).n_sinks == 2
        assert make_policy("key-only", damping=0.5).damping == 0.5
        assert make_policy("keyformer", tau_end=4.0).config.tau_end == 4.0

    @pytest.mark.parametrize("name", ["topk-magic", "dilated-window", "random"])
    def test_unknown_policy(self, name):
        with pytest.raises(KeyError):
            make_policy(name)

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError):
            make_policy("window", n_sinks=2)

    def test_describe_contains_budget(self):
        policy = make_policy("h2o", kv_fraction=0.4)
        policy.setup(2, 2, 1, 100, 10)
        info = policy.describe()
        assert info["policy"] == "h2o"
        assert info["budget"] == 40
