"""Tests for the cache manager that connects layers, caches and policies."""

import numpy as np
import pytest

from repro.core.config import CachePolicyConfig, KeyformerConfig
from repro.core.keyformer import KeyformerPolicy
from repro.core.policies import FullAttentionPolicy, H2OPolicy, WindowAttentionPolicy
from repro.kvcache.manager import CacheManager
from repro.models.tensor_ops import softmax

N_LAYERS, N_HEADS, D_HEAD, T = 2, 2, 4, 12


def prompt_inputs(rng, t=T, batch=1):
    prompt_kv, prompt_attn, prompt_logits = [], [], []
    for _ in range(N_LAYERS):
        keys = rng.normal(size=(batch, N_HEADS, t, D_HEAD))
        values = rng.normal(size=(batch, N_HEADS, t, D_HEAD))
        logits = rng.normal(size=(batch, N_HEADS, t, t))
        mask = np.triu(np.ones((t, t), dtype=bool), k=1)
        logits = np.where(mask[None, None], -np.inf, logits)
        prompt_kv.append((keys, values))
        prompt_logits.append(logits)
        prompt_attn.append(softmax(logits, axis=-1))
    return prompt_kv, prompt_attn, prompt_logits


def make_manager(policy, positional_mode=None):
    return CacheManager(policy, N_LAYERS, N_HEADS, D_HEAD, positional_mode=positional_mode)


class TestInitialization:
    def test_full_policy_keeps_whole_prompt(self, rng):
        manager = make_manager(FullAttentionPolicy())
        manager.initialize_from_prompt(*prompt_inputs(rng), max_new_tokens=4)
        assert manager.cache_lengths() == [T, T]
        assert manager.prompt_len == T
        assert manager.current_position == T

    def test_reduction_policy_trims_prompt(self, rng):
        policy = WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.5))
        manager = make_manager(policy)
        manager.initialize_from_prompt(*prompt_inputs(rng), max_new_tokens=4)
        assert manager.cache_lengths() == [6, 6]

    def test_layer_count_mismatch(self, rng):
        manager = make_manager(FullAttentionPolicy())
        kv, attn, logits = prompt_inputs(rng)
        with pytest.raises(ValueError):
            manager.initialize_from_prompt(kv[:1], attn[:1], logits[:1], 4)

    def test_invalid_positional_mode(self):
        with pytest.raises(ValueError):
            CacheManager(FullAttentionPolicy(), 1, 1, 1, positional_mode="relative")


class TestDecodeFlow:
    def _step(self, manager, rng, layer_idx):
        view = manager.layer_view(layer_idx)
        k = rng.normal(size=(1, N_HEADS, D_HEAD))
        v = rng.normal(size=(1, N_HEADS, D_HEAD))
        view.append(k, v)
        keys, values, key_pos, query_pos, lengths, keys_rotated = view.attention_view()
        assert lengths is None  # a solo cache pads no row
        assert query_pos.ndim == 0  # one query position shared by every row
        assert keys_rotated is False  # no rope_dims configured in these tests
        # attention_view returns live views into the slab; snapshot them before
        # observe() may evict (the decode path consumes them before observing).
        keys, key_pos = keys.copy(), key_pos.copy()
        logits = rng.normal(size=(1, N_HEADS, keys.shape[2]))
        view.observe(logits, softmax(logits, axis=-1))
        return keys, key_pos, query_pos

    def test_window_policy_keeps_budget_during_decode(self, rng):
        policy = WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.5))
        manager = make_manager(policy)
        manager.initialize_from_prompt(*prompt_inputs(rng), max_new_tokens=6)
        for _ in range(4):
            for layer in range(N_LAYERS):
                self._step(manager, rng, layer)
            manager.advance()
        assert manager.cache_lengths() == [6, 6]
        assert manager.generation_step == 4
        assert manager.stats.n_steps == 4

    def test_original_positions_reported(self, rng):
        policy = WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.5))
        manager = make_manager(policy, positional_mode="original")
        manager.initialize_from_prompt(*prompt_inputs(rng), max_new_tokens=4)
        _, key_pos, query_pos = self._step(manager, rng, 0)
        # Window kept original positions 6..11, new token appended at 12.
        np.testing.assert_array_equal(key_pos[0, 0], [6, 7, 8, 9, 10, 11, 12])
        assert int(query_pos) == T

    def test_new_positions_are_contiguous(self, rng):
        policy = WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.5))
        manager = make_manager(policy, positional_mode="new")
        manager.initialize_from_prompt(*prompt_inputs(rng), max_new_tokens=4)
        _, key_pos, query_pos = self._step(manager, rng, 0)
        np.testing.assert_array_equal(key_pos[0, 0], np.arange(7))
        assert int(query_pos) == 6

    def test_stats_accounting(self, rng):
        policy = H2OPolicy(CachePolicyConfig(kv_fraction=0.5))
        manager = make_manager(policy)
        manager.initialize_from_prompt(*prompt_inputs(rng), max_new_tokens=3)
        for _ in range(3):
            for layer in range(N_LAYERS):
                self._step(manager, rng, layer)
            manager.advance()
        stats = manager.stats
        assert stats.total_appended == T * N_LAYERS + 3 * N_LAYERS
        assert stats.total_evicted > 0
        assert stats.kv_entries_read() == sum(sum(step) for step in stats.lengths_per_step)
        assert stats.peak_cache_length() == 7
        summary = stats.summary()
        assert summary["n_steps"] == 3

    def test_shared_selection_applies_to_all_layers(self, rng):
        policy = KeyformerPolicy(KeyformerConfig(kv_fraction=0.5, shared_score=True))
        manager = make_manager(policy)
        manager.initialize_from_prompt(*prompt_inputs(rng), max_new_tokens=4)
        assert manager.cache_lengths() == [6, 6]
        positions = [c.retained_original_positions() for c in manager.caches]
        np.testing.assert_array_equal(positions[0], positions[1])

    def test_layer_view_bounds(self, rng):
        manager = make_manager(FullAttentionPolicy())
        with pytest.raises(IndexError):
            manager.layer_view(5)

    def test_reorder_propagates_to_caches_and_policy(self, rng):
        policy = H2OPolicy(CachePolicyConfig(kv_fraction=0.5))
        manager = make_manager(policy)
        manager.initialize_from_prompt(*prompt_inputs(rng, batch=2), max_new_tokens=4)
        before = manager.caches[0].keys.copy()
        manager.reorder(np.array([1, 0]))
        np.testing.assert_allclose(manager.caches[0].keys[0], before[1])
        assert policy.score.get(0).shape[0] == 2

    def test_total_kv_bytes_decreases_after_reduction(self, rng):
        full = make_manager(FullAttentionPolicy())
        full.initialize_from_prompt(*prompt_inputs(rng), max_new_tokens=4)
        reduced = make_manager(WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.25)))
        reduced.initialize_from_prompt(*prompt_inputs(rng), max_new_tokens=4)
        assert reduced.total_kv_bytes() < full.total_kv_bytes()

    def test_initialize_empty(self):
        manager = make_manager(FullAttentionPolicy())
        manager.initialize_empty(batch_size=2, max_new_tokens=4)
        assert manager.cache_lengths() == [0, 0]
