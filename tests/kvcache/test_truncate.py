"""Rollback primitives: pool truncate and table forking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CachePolicyConfig
from repro.core.policies import FullAttentionPolicy, H2OPolicy
from repro.kvcache.batch import BatchedLayerKVCache
from repro.kvcache.manager import CacheManager
from repro.kvcache.paged import BlockPool, PageTable
from tests.reference.prompt_scoring import seed_manager


def _pool(**kwargs):
    defaults = dict(n_heads=2, d_head=4, page_size=4, n_pages=16, rope_dims=0)
    defaults.update(kwargs)
    return BlockPool(**defaults)


def _seed(pool, n_tokens, value=1.0):
    table = PageTable()
    keys = np.full((pool.n_heads, n_tokens, pool.d_head), value)
    positions = np.broadcast_to(np.arange(n_tokens), (pool.n_heads, n_tokens))
    pool.extend(table, keys, keys.copy(), positions)
    return table


class TestPoolTruncate:
    def test_truncate_frees_trailing_pages(self):
        pool = _pool()
        table = _seed(pool, 10)  # 3 pages (4+4+2)
        free_before = pool.free_pages
        pool.truncate(table, 5)
        assert table.length == 5
        assert len(table.pages) == 2
        assert pool.free_pages == free_before + 1

    def test_truncate_within_page_keeps_it(self):
        pool = _pool()
        table = _seed(pool, 8)
        pool.truncate(table, 1)
        assert table.length == 7
        assert len(table.pages) == 2

    def test_truncate_to_zero_releases_table(self):
        pool = _pool()
        table = _seed(pool, 6)
        pool.truncate(table, 6)
        assert table.length == 0 and table.pages == [] and table.offset == 0
        assert pool.used_pages == 0

    def test_truncate_respects_offset(self):
        pool = _pool()
        table = _seed(pool, 12)
        # Suffix-evict 5 tokens: offset bumps to 1 after freeing one page.
        keep = np.broadcast_to(np.arange(5, 12), (pool.n_heads, 7))
        pool.gather(table, keep)
        assert table.offset == 1
        pool.truncate(table, 4)
        assert table.length == 3
        assert len(table.pages) == 1

    def test_truncate_shared_page_only_drops_refcount(self):
        pool = _pool()
        table = _seed(pool, 8)
        clone = table.clone()
        pool.retain(clone.pages)
        pool.truncate(table, 8)
        # The clone still owns the pages; nothing came free.
        assert pool.used_pages == 2
        assert (pool.refcounts[clone.pages] == 1).all()

    def test_truncate_overshoot_raises(self):
        pool = _pool()
        table = _seed(pool, 4)
        with pytest.raises(ValueError):
            pool.truncate(table, 5)

    def test_append_after_truncate_overwrites(self):
        pool = _pool(rope_dims=4)
        table = _seed(pool, 6, value=1.0)
        pool.truncate(table, 2)
        k = np.full((2, 4), 9.0)
        pool.append(table, k, k.copy(), position=4)
        keys = pool.keys_view(table)
        assert table.length == 5
        # A RoPE pool stores the key rotated at its position, by the same call.
        np.testing.assert_array_equal(keys[:, -1], pool.rope_table.rotate_uniform(k, 4))
        np.testing.assert_array_equal(pool.values_view(table)[:, -1], k)
        np.testing.assert_array_equal(pool.positions_view(table)[:, -1], [4, 4])


class TestForkRestore:
    def _manager(self, n_tokens=10):
        keys = np.arange(2 * n_tokens * 4, dtype=np.float64).reshape(1, 2, n_tokens, 4)
        attn = [np.zeros((1, 2, n_tokens, n_tokens))]
        manager = CacheManager(FullAttentionPolicy(), 1, 2, 4, page_size=4)
        seed_manager(manager, [(keys, keys.copy())], attn, attn, max_new_tokens=4)
        return manager

    def test_fork_restore_roundtrip(self):
        manager = self._manager()
        cache = manager.caches[0]
        snapshot = manager.snapshot_row(0)
        before = cache.keys.copy()
        manager.append(0, np.full((1, 2, 4), 5.0), np.full((1, 2, 4), 5.0))
        cache.gather_row(0, np.broadcast_to(np.arange(4, 11), (2, 7)))
        manager.advance()
        manager.restore_row(0, snapshot)
        np.testing.assert_array_equal(cache.keys, before)
        assert manager.cache_lengths(0) == [10]
        assert (manager.current_position, manager.generation_step) == ([10], [0])
        assert manager.stats[0].total_appended == 10

    def test_fork_protects_pages_from_in_place_eviction(self):
        manager = self._manager()
        cache = manager.caches[0]
        snapshot = manager.snapshot_row(0)
        before = cache.keys.copy()
        # A scattered eviction would normally compact in place; the forked
        # tables share the pages, so copy-on-write must route it elsewhere.
        cache.gather_row(0, np.broadcast_to([0, 2, 4, 6, 8], (2, 5)))
        manager.restore_row(0, snapshot)
        np.testing.assert_array_equal(cache.keys, before)

    def test_restore_rewinds_policy_state(self):
        t = 10
        keys = np.random.default_rng(0).normal(size=(1, 2, t, 4))
        logits = np.broadcast_to(np.where(np.tri(t, dtype=bool), 0.0, -np.inf), (1, 2, t, t))
        attn = [np.broadcast_to(np.tri(t) / np.arange(1, t + 1)[:, None], (1, 2, t, t))]
        policy = H2OPolicy(CachePolicyConfig(kv_budget=6))
        manager = CacheManager(policy, 1, 2, 4, page_size=4)
        seed_manager(manager, [(keys, keys.copy())], attn, [logits], max_new_tokens=4)
        scores = policy.score.get(0).copy()
        snapshot = manager.snapshot_row(0)
        manager.append(0, np.ones((1, 2, 4)), np.ones((1, 2, 4)))
        step = np.zeros((1, 2, 7))
        manager.observe(0, step, step + 1 / 7)
        manager.advance()
        assert not np.array_equal(manager.policies[0].score.get(0), scores)
        manager.restore_row(0, snapshot)
        np.testing.assert_array_equal(manager.policies[0].score.get(0), scores)

    def test_discard_returns_pages(self):
        manager = self._manager()
        pool = manager.caches[0].pool
        used = pool.used_pages
        manager.discard_row_snapshot(manager.snapshot_row(0))
        assert pool.used_pages == used


class TestForkRow:
    def test_forked_row_shares_pages_until_divergence(self):
        pool = _pool()
        source = _seed(pool, 8)
        cache = BatchedLayerKVCache(1, 2, 4, pool=pool)
        cache.tables[0] = source
        cache.tables[0] = fork = cache.fork_row(0)
        assert fork.pages == source.pages
        assert (pool.refcounts[source.pages] == 2).all()
        np.testing.assert_array_equal(cache.keys[0], pool.keys_view(source))
        # Divergent write: the forked row appends, copy-on-write splits.
        pool.append(fork, np.zeros((2, 4)), np.zeros((2, 4)), position=8)
        source_view = pool.keys_view(source).copy()
        cache.gather_row(0, np.broadcast_to(np.arange(4), (2, 4)))
        np.testing.assert_array_equal(pool.keys_view(source), source_view)
