"""Tests for the cache manager that connects layers, caches and policies."""

import numpy as np
import pytest

from repro.core.config import CachePolicyConfig, KeyformerConfig
from repro.core.keyformer import KeyformerPolicy
from repro.core.policies import FullAttentionPolicy, H2OPolicy, WindowAttentionPolicy
from repro.core.score import EvictOne
from repro.kvcache.manager import CacheManager
from repro.models.positional import RopeTable
from repro.models.tensor_ops import softmax
from tests.reference.prompt_scoring import seed_manager

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
        seed_manager(manager, *prompt_inputs(rng), max_new_tokens=4)
        assert manager.cache_lengths(0) == [T, T]
        assert manager.prompt_len == [T]
        assert manager.current_position == [T]

    def test_reduction_policy_trims_prompt(self, rng):
        policy = WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.5))
        manager = make_manager(policy)
        seed_manager(manager, *prompt_inputs(rng), max_new_tokens=4)
        assert manager.cache_lengths(0) == [6, 6]

    def test_layer_count_mismatch(self, rng):
        manager = make_manager(FullAttentionPolicy())
        kv, attn, logits = prompt_inputs(rng)
        with pytest.raises(ValueError):
            manager.initialize_from_prompt(kv[:1], 4)

    def test_invalid_positional_mode(self):
        with pytest.raises(ValueError):
            CacheManager(FullAttentionPolicy(), 1, 1, 1, positional_mode="relative")


class TestDecodeFlow:
    def _step(self, manager, rng, layer_idx):
        view = manager.layer_views()[layer_idx]
        k = rng.normal(size=(1, N_HEADS, D_HEAD))
        v = rng.normal(size=(1, N_HEADS, D_HEAD))
        view.append(k, v)
        keys, values, key_pos, query_pos, lengths, keys_rotated = view.attention_view()
        # One query position and one live length per row; no row is padded.
        assert query_pos.shape == (1,)
        assert lengths.tolist() == [keys.shape[2]]
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
        seed_manager(manager, *prompt_inputs(rng), max_new_tokens=6)
        for _ in range(4):
            for layer in range(N_LAYERS):
                self._step(manager, rng, layer)
            manager.advance()
        assert manager.cache_lengths(0) == [6, 6]
        assert manager.generation_step == [4]
        assert manager.stats[0].n_steps == 4

    def test_original_positions_reported(self, rng):
        policy = WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.5))
        manager = make_manager(policy, positional_mode="original")
        seed_manager(manager, *prompt_inputs(rng), max_new_tokens=4)
        _, key_pos, query_pos = self._step(manager, rng, 0)
        # Window kept original positions 6..11, new token appended at 12.
        np.testing.assert_array_equal(key_pos[0, 0], [6, 7, 8, 9, 10, 11, 12])
        assert query_pos.tolist() == [T]

    def test_new_positions_are_contiguous(self, rng):
        policy = WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.5))
        manager = make_manager(policy, positional_mode="new")
        seed_manager(manager, *prompt_inputs(rng), max_new_tokens=4)
        _, key_pos, query_pos = self._step(manager, rng, 0)
        np.testing.assert_array_equal(key_pos[0, 0], np.arange(7))
        assert query_pos.tolist() == [6]

    def test_stats_accounting(self, rng):
        policy = H2OPolicy(CachePolicyConfig(kv_fraction=0.5))
        manager = make_manager(policy)
        seed_manager(manager, *prompt_inputs(rng), max_new_tokens=3)
        for _ in range(3):
            for layer in range(N_LAYERS):
                self._step(manager, rng, layer)
            manager.advance()
        stats = manager.stats[0]
        assert stats.total_appended == T * N_LAYERS + 3 * N_LAYERS
        assert stats.total_evicted > 0
        assert stats.kv_entries_read() == sum(sum(step) for step in stats.lengths_per_step)
        assert stats.peak_cache_length() == 7
        assert stats.n_steps == 3

    def test_shared_selection_applies_to_all_layers(self, rng):
        policy = KeyformerPolicy(KeyformerConfig(kv_fraction=0.5, shared_score=True))
        manager = make_manager(policy)
        seed_manager(manager, *prompt_inputs(rng), max_new_tokens=4)
        assert manager.cache_lengths(0) == [6, 6]
        positions = [c.positions for c in manager.caches]
        np.testing.assert_array_equal(positions[0], positions[1])

    def test_layer_views_cover_every_layer(self, rng):
        manager = make_manager(FullAttentionPolicy())
        views = manager.layer_views()
        assert [view.layer_idx for view in views] == list(range(N_LAYERS))
        assert all(view.manager is manager for view in views)

    def test_every_row_runs_its_own_policy(self, rng):
        policy = H2OPolicy(CachePolicyConfig(kv_fraction=0.5))
        manager = make_manager(policy)
        seed_manager(manager, *prompt_inputs(rng, batch=3), max_new_tokens=4)
        assert manager.policies[0] is policy
        assert len({id(p) for p in manager.policies}) == 3
        for p in manager.policies:
            assert p.batch_size == 1 and p.score.get(0).shape[0] == 1

    def test_reorder_propagates_to_caches_and_policy(self, rng):
        policy = H2OPolicy(CachePolicyConfig(kv_fraction=0.5))
        manager = make_manager(policy)
        seed_manager(manager, *prompt_inputs(rng, batch=2), max_new_tokens=4)
        before = manager.caches[0].keys.copy()
        policies = list(manager.policies)
        manager.reorder(np.array([1, 0]))
        np.testing.assert_allclose(manager.caches[0].keys[0], before[1])
        assert manager.policies == policies[::-1]
        # A parent chosen twice: the second child runs a deep copy.
        scores = policies[1].score.get(0).copy()
        manager.reorder(np.array([0, 0]))
        first, second = manager.policies
        assert first is policies[1] and second is not first
        np.testing.assert_array_equal(second.score.get(0), scores)

    def test_total_kv_bytes_decreases_after_reduction(self, rng):
        full = make_manager(FullAttentionPolicy())
        seed_manager(full, *prompt_inputs(rng), max_new_tokens=4)
        reduced = make_manager(WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.25)))
        seed_manager(reduced, *prompt_inputs(rng), max_new_tokens=4)
        assert reduced.total_kv_bytes() < full.total_kv_bytes()

    def test_initialize_empty(self):
        manager = make_manager(FullAttentionPolicy())
        manager.initialize_empty(batch_size=2, max_new_tokens=4)
        assert manager.cache_lengths(0) == [0, 0]
        cache = manager.caches[0]
        assert len(cache.tables) == 2
        assert (cache.n_heads, cache.d_head) == (N_HEADS, D_HEAD)


def every_head(indices):
    """One row's ``(H, K)`` selection keeping ``indices`` in every head."""
    return np.broadcast_to(np.asarray(indices), (N_HEADS, len(indices)))


def seeded(t=6, batch=1, max_new_tokens=4, policy=None, **kwargs):
    """A one-layer manager seeded from a random ``(batch, H, t, d)`` prompt."""
    rng = np.random.default_rng(0)
    keys = rng.normal(size=(batch, N_HEADS, t, D_HEAD))
    values = rng.normal(size=(batch, N_HEADS, t, D_HEAD))
    attn = [np.zeros((batch, N_HEADS, t, t))]
    manager = CacheManager(policy or FullAttentionPolicy(), 1, N_HEADS, D_HEAD, **kwargs)
    seed_manager(manager, [(keys, values)], attn, attn, max_new_tokens)
    return manager, keys, values


class TestSoloRows:
    """The rows' storage behaviour through the manager: seeding, appends,
    evictions, beam reorder and the positional views."""

    def test_seeding_keeps_prompt_and_positions(self):
        manager, keys, _ = seeded()
        cache = manager.caches[0]
        np.testing.assert_array_equal(cache.keys, keys)
        np.testing.assert_array_equal(cache.positions[0, 0], np.arange(6))

    def test_seeding_reserves_the_whole_generation(self):
        manager, _, _ = seeded(t=4, max_new_tokens=27, page_size=8)
        assert manager.caches[0].capacity == 32  # 4 + 27 + 1 tokens, whole pages
        assert manager.cache_lengths(0) == [4]

    def test_append_is_in_place_and_records_position(self):
        manager, _, _ = seeded(t=4, max_new_tokens=4, page_size=8)
        cache = manager.caches[0]
        slab = cache.keys.base
        k = np.random.default_rng(1).normal(size=(1, N_HEADS, D_HEAD))
        for _ in range(4):
            manager.append(0, k, k)
            manager.advance()
        assert cache.keys.base is slab  # no reallocation happened
        np.testing.assert_array_equal(cache.positions[0, 0], np.arange(8))
        np.testing.assert_array_equal(cache.keys[:, :, -1], k)

    def test_append_past_the_reserve_grows(self):
        manager, keys, _ = seeded(t=4, max_new_tokens=1, page_size=4)
        for _ in range(6):
            manager.append(0, np.ones((1, N_HEADS, D_HEAD)), np.ones((1, N_HEADS, D_HEAD)))
            manager.advance()
        cache = manager.caches[0]
        assert manager.cache_lengths(0) == [10] and cache.capacity >= 10
        np.testing.assert_array_equal(cache.keys[:, :, :4], keys)
        np.testing.assert_array_equal(cache.positions[0, 0], np.arange(10))

    def test_append_shape_check(self):
        manager, _, _ = seeded()
        wrong = np.zeros((1, N_HEADS, D_HEAD + 1))
        with pytest.raises(ValueError):
            manager.append(0, wrong, wrong)

    def test_float32_storage(self):
        manager, _, _ = seeded(dtype="float32")
        assert manager.caches[0].keys.dtype == np.float32
        manager.append(0, np.ones((1, N_HEADS, D_HEAD)), np.ones((1, N_HEADS, D_HEAD)))
        assert manager.caches[0].keys.dtype == np.float32

    def test_selection_compacts_in_place_and_counts(self):
        manager, keys, _ = seeded(t=6, page_size=16)
        cache = manager.caches[0]
        slab = cache.keys.base
        manager._apply_row_selection(0, 0, every_head([0, 2, 5]))
        assert cache.keys.base is slab
        np.testing.assert_array_equal(cache.keys[0], keys[0][:, [0, 2, 5]])
        np.testing.assert_array_equal(cache.positions[0, 0], [0, 2, 5])
        assert manager.stats[0].total_evicted == 3
        manager._apply_row_selection(0, 0, every_head(np.arange(3)))  # identity: nothing moves
        assert manager.stats[0].total_evicted == 3

    def test_selection_heads_must_match(self):
        manager, _, _ = seeded(batch=2)
        with pytest.raises(ValueError):
            manager._apply_row_selection(0, 1, np.zeros((N_HEADS + 1, 2), dtype=np.int64))

    def test_reorder_duplicates_rows(self):
        manager, keys, _ = seeded(batch=3, rope_dims=D_HEAD)
        manager.reorder(np.array([2, 2, 0]))
        cache = manager.caches[0]
        # The one key slab holds the prompt keys rotated at their positions.
        rotated = RopeTable(D_HEAD).rotate(keys, np.broadcast_to(np.arange(6), keys.shape[:3]))
        np.testing.assert_array_equal(cache.keys[0], rotated[2])
        np.testing.assert_array_equal(cache.keys[1], rotated[2])
        np.testing.assert_array_equal(cache.keys[2], rotated[0])
        # Duplicated rows share pages until a divergent write.
        assert cache.tables[0].pages == cache.tables[1].pages
        np.testing.assert_array_equal(manager.attention_view(0)[0], cache.keys)

    def test_reorder_out_of_range(self):
        manager, _, _ = seeded(batch=2)
        with pytest.raises(IndexError):
            manager.reorder(np.array([0, 5]))

    def test_original_mode_view(self):
        manager, prompt, _ = seeded(positional_mode="original", rope_dims=D_HEAD)
        manager._apply_row_selection(0, 0, every_head([1, 4, 5]))
        keys, _, key_pos, query_pos, _, rotated = manager.attention_view(0)
        assert rotated and query_pos.tolist() == [6]
        np.testing.assert_array_equal(key_pos[0, 0], [1, 4, 5])
        raw = prompt[:, :, [1, 4, 5]]
        np.testing.assert_array_equal(keys, RopeTable(D_HEAD).rotate(raw, key_pos))

    def test_renumbered_mode_view(self):
        manager, prompt, _ = seeded(positional_mode="new", rope_dims=D_HEAD)
        assert manager.rope_dims == 0  # rotations follow renumbered positions
        manager._apply_row_selection(0, 0, every_head([1, 4, 5]))
        keys, _, key_pos, query_pos, _, rotated = manager.attention_view(0)
        assert not rotated and query_pos.tolist() == [2]
        # The pool stores raw keys: the kernel rotates them per step.
        np.testing.assert_array_equal(keys, prompt[:, :, [1, 4, 5]])
        np.testing.assert_array_equal(key_pos[0, 0], [0, 1, 2])
        with pytest.raises(ValueError):
            key_pos[0, 0, 0] = 99  # a read-only broadcast view

    def test_total_kv_bytes_is_the_storage_cost(self):
        manager, _, _ = seeded(t=10, batch=2)
        # float64 keys + values: 2 tensors * 2 rows * 2 heads * 10 tokens * 4 dims.
        assert manager.total_kv_bytes() == 2 * 2 * N_HEADS * 10 * D_HEAD * 8


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_solo_read_is_zero_copy(dtype):
    """A lone row's attention view is the pool slabs themselves — after the
    prompt eviction and after every evict-one step."""
    policy = KeyformerPolicy(KeyformerConfig(kv_budget=6, recent_ratio=0.5))
    manager = CacheManager(
        policy, N_LAYERS, N_HEADS, D_HEAD, positional_mode="original", dtype=dtype,
        rope_dims=D_HEAD,
    )
    seed_manager(manager, *prompt_inputs(np.random.default_rng(0)), max_new_tokens=8)
    assert manager.cache_lengths(0) == [6] * N_LAYERS
    seen = []
    apply_selection = manager._apply_row_selection
    manager._apply_row_selection = lambda layer, row, sel: seen.append(sel) or apply_selection(
        layer, row, sel
    )
    rng = np.random.default_rng(1)
    for step in range(3):
        for layer in range(N_LAYERS):
            pool = manager.caches[layer].pool
            kv = rng.normal(size=(1, N_HEADS, D_HEAD)).astype(dtype)
            manager.append(layer, kv, kv)
            keys, values, key_pos, _, _, rotated = manager.attention_view(layer)
            assert rotated
            for view, slab in ((keys, pool._k), (values, pool._v), (key_pos, pool._pos)):
                assert np.shares_memory(view, slab)
            logits = rng.normal(size=(1, N_HEADS, keys.shape[2])).astype(dtype)
            manager.observe(layer, logits, softmax(logits, axis=-1))
        manager.advance()
        assert manager.cache_lengths(0) == [6] * N_LAYERS
    assert len(seen) == 3 * N_LAYERS and all(isinstance(sel, EvictOne) for sel in seen)
