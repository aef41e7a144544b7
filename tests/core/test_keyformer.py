"""Tests for the Keyformer eviction policy (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.config import KeyformerConfig
from repro.core.keyformer import KeyformerPolicy
from repro.core.temperature import ConstantTauSchedule, LinearTauSchedule
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


def make_policy(**kwargs):
    policy = KeyformerPolicy(KeyformerConfig(**kwargs))
    policy.setup(n_layers=2, n_heads=2, batch_size=1, prompt_len=20, max_new_tokens=10)
    return policy


class TestBudget:
    def test_budget_and_recent_window(self):
        policy = make_policy(kv_fraction=0.5, recent_ratio=0.3)
        assert policy.budget == 10
        assert policy.recent_window == 3

    def test_initial_selection_respects_budget(self, rng):
        policy = make_policy(kv_fraction=0.5, recent_ratio=0.3)
        logits, probs = prompt_tensors(rng)
        selection = initial(policy, probs, logits, 0)
        assert selection.shape == (1, 2, 10)

    def test_no_eviction_when_prompt_fits(self, rng):
        policy = make_policy(kv_fraction=1.0)
        logits, probs = prompt_tensors(rng)
        assert initial(policy, probs, logits, 0) is None


class TestAlgorithmOne:
    def test_recent_window_always_kept(self, rng):
        policy = make_policy(kv_fraction=0.5, recent_ratio=0.4)
        logits, probs = prompt_tensors(rng)
        selection = initial(policy, probs, logits, 0)
        w = policy.recent_window
        for head in range(2):
            assert set(range(20 - w, 20)).issubset(set(selection[0, head].tolist()))

    def test_key_tokens_follow_score(self, rng):
        """A token that dominates attention must survive eviction."""
        policy = make_policy(kv_fraction=0.4, recent_ratio=0.25, noise="none")
        logits, probs = prompt_tensors(rng)
        logits = logits.copy()
        logits[..., 2] += 15.0  # token 2 gets huge logits in every row
        probs = softmax(logits, axis=-1)
        selection = initial(policy, probs, logits, 0)
        assert np.all((selection == 2).any(axis=-1))

    def test_step_keeps_cache_at_budget(self, rng):
        policy = make_policy(kv_fraction=0.5)
        logits, probs = prompt_tensors(rng)
        initial(policy, probs, logits, 0)
        cache_len = policy.budget + 1  # one token appended
        step_logits = rng.normal(size=(1, 2, cache_len))
        step_probs = softmax(step_logits, axis=-1)
        positions = np.broadcast_to(np.arange(cache_len), (1, 2, cache_len))
        selection = policy.step_selection(0, step_logits, step_probs, positions, 1)
        assert selection.shape[-1] == policy.budget

    def test_score_state_stays_aligned_after_eviction(self, rng):
        policy = make_policy(kv_fraction=0.5)
        logits, probs = prompt_tensors(rng)
        initial(policy, probs, logits, 0)
        assert policy.score.get(0).shape[-1] == policy.budget
        cache_len = policy.budget + 1
        step_logits = rng.normal(size=(1, 2, cache_len))
        positions = np.broadcast_to(np.arange(cache_len), (1, 2, cache_len))
        policy.step_selection(0, step_logits, softmax(step_logits, -1), positions, 1)
        assert policy.score.get(0).shape[-1] == policy.budget

    def test_setup_installs_dynamic_schedule(self):
        policy = make_policy(tau_init=1.0, tau_end=2.0)
        assert isinstance(policy.score.tau_schedule, LinearTauSchedule)
        assert policy.score.tau_schedule(0) == pytest.approx(1.0)
        assert policy.score.tau_schedule(10) == pytest.approx(2.0)

    def test_static_tau_overrides_schedule(self):
        policy = make_policy(static_tau=5.0)
        assert isinstance(policy.score.tau_schedule, ConstantTauSchedule)
        assert policy.score.tau_schedule(7) == 5.0

    def test_setup_resets_score_state(self, rng):
        policy = make_policy(kv_fraction=0.5)
        logits, probs = prompt_tensors(rng)
        initial(policy, probs, logits, 0)
        policy.setup(2, 2, 1, 20, 10)
        assert not policy.score.has(0)


class TestSharedScore:
    def test_selection_deferred_to_last_layer(self, rng):
        policy = make_policy(kv_fraction=0.5, shared_score=True)
        assert policy.shared_selection is True
        logits, probs = prompt_tensors(rng)
        assert initial(policy, probs, logits, 0) is None
        selection = initial(policy, probs, logits, 1)
        assert selection is not None
        assert selection.shape[-1] == policy.budget

    def test_per_layer_mode_selects_immediately(self, rng):
        policy = make_policy(kv_fraction=0.5, shared_score=False)
        logits, probs = prompt_tensors(rng)
        assert initial(policy, probs, logits, 0) is not None


class TestDescribe:
    def test_describe_reports_keyformer_settings(self):
        policy = make_policy(kv_fraction=0.6, noise="gaussian", positional_mode="new")
        info = policy.describe()
        assert info["policy"] == "keyformer"
        assert info["noise"] == "gaussian"
        assert info["positional_mode"] == "new"
        assert info["budget"] == 12
