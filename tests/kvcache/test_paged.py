"""Unit tests for the paged block-pool store (`repro.kvcache.paged`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kvcache.batch import BatchedLayerKVCache
from repro.kvcache.paged import (
    BlockPool,
    KVStoreConfig,
    PagedKVStore,
    PageTable,
    PoolExhausted,
    PrefixRegistry,
    pages_needed,
)
from repro.models.config import ModelConfig

H, D, PS = 2, 4, 8


def make_pool(n_pages=8, **kwargs):
    return BlockPool(H, D, page_size=PS, n_pages=n_pages, **kwargs)


def seeded(pool, t, rng=None, start_pos=0):
    rng = rng or np.random.default_rng(0)
    table = PageTable()
    keys = rng.normal(size=(H, t, D))
    values = rng.normal(size=(H, t, D))
    positions = np.broadcast_to(np.arange(start_pos, start_pos + t), (H, t)).copy()
    pool.extend(table, keys, values, positions)
    return table, keys, values, positions


class TestBlockPoolAllocation:
    def test_alloc_prefers_lowest_contiguous_run(self):
        pool = make_pool()
        pages = pool.alloc(3)
        assert pages == [0, 1, 2]
        assert pool.free_pages == 5
        pool.release([1])
        assert pool.alloc(1) == [1]

    def test_refcounts_and_release(self):
        pool = make_pool()
        (page,) = pool.alloc(1)
        pool.retain([page])
        assert pool.refcounts[page] == 2
        pool.release([page])
        assert pool.free_pages == 7  # still held once
        pool.release([page])
        assert pool.free_pages == 8

    def test_over_release_raises(self):
        pool = make_pool()
        (page,) = pool.alloc(1)
        pool.release([page])
        with pytest.raises(RuntimeError, match="released more"):
            pool.release([page])

    def test_growable_pool_grows(self):
        pool = make_pool(n_pages=2)
        pages = pool.alloc(5)
        assert len(pages) == 5
        assert pool.n_pages >= 5

    def test_growable_pool_grows_by_a_quarter(self):
        pool = make_pool(n_pages=8)
        pool.alloc(9)
        assert pool.n_pages == 10
        pool.alloc(6)
        assert pool.n_pages == 15  # 12 would not fit: growth reaches the need

    @pytest.mark.parametrize("n_pages", [1, 2, 3])
    def test_small_growable_pool_reaches_what_an_alloc_needs(self, n_pages):
        """A quarter of fewer than 4 pages is none; growth still covers
        the allocation."""
        pool = make_pool(n_pages=n_pages)
        pool.alloc(n_pages + 1)
        assert pool.n_pages == n_pages + 1 and pool.free_pages == 0

    def test_fixed_pool_raises_pool_exhausted(self):
        pool = make_pool(n_pages=2, growable=False)
        pool.alloc(2)
        with pytest.raises(PoolExhausted):
            pool.alloc(1)

    def test_fixed_pool_consults_reclaimer(self):
        pool = make_pool(n_pages=2, growable=False)
        held = pool.alloc(2)

        def reclaimer(n):
            pool.release([held.pop()])
            return 1

        pool.reclaimer = reclaimer
        assert len(pool.alloc(1)) == 1


class TestExtendAppendGather:
    def test_extend_then_views_roundtrip(self):
        pool = make_pool()
        table, keys, values, positions = seeded(pool, 2 * PS + 3)
        np.testing.assert_array_equal(pool.keys_view(table), keys)
        np.testing.assert_array_equal(pool.values_view(table), values)
        np.testing.assert_array_equal(pool.positions_view(table), positions)
        # Contiguous ascending pages → zero-copy view of the slab.
        assert pool.keys_view(table).base is pool._k

    def test_append_crosses_page_boundary(self):
        pool = make_pool()
        table, keys, _, _ = seeded(pool, PS)
        assert len(table.pages) == 1
        k = np.full((H, D), 7.0)
        pool.append(table, k, k, position=PS)
        assert len(table.pages) == 2
        np.testing.assert_array_equal(pool.keys_view(table)[:, -1], k)

    def test_gather_suffix_is_offset_bump_and_frees_pages(self):
        pool = make_pool()
        table, keys, _, _ = seeded(pool, 3 * PS)
        free_before = pool.free_pages
        suffix = np.broadcast_to(np.arange(PS + 2, 3 * PS), (H, 2 * PS - 2))
        dropped = pool.gather(table, suffix)
        assert dropped == PS + 2
        assert pool.free_pages == free_before + 1  # one whole page skipped
        assert table.offset == 2
        np.testing.assert_array_equal(pool.keys_view(table), keys[:, PS + 2 :])

    def test_gather_scattered_compacts(self):
        rng = np.random.default_rng(3)
        pool = make_pool()
        table, keys, values, positions = seeded(pool, 20, rng)
        idx = np.sort(
            np.stack([rng.choice(20, size=9, replace=False) for _ in range(H)]), axis=-1
        )
        dropped = pool.gather(table, idx)
        assert dropped == 11
        for h in range(H):
            np.testing.assert_array_equal(pool.keys_view(table)[h], keys[h, idx[h]])
            np.testing.assert_array_equal(
                pool.positions_view(table)[h], positions[h, idx[h]]
            )

    def test_gather_to_empty_releases_everything(self):
        pool = make_pool()
        table, _, _, _ = seeded(pool, PS + 1)
        pool.gather(table, np.zeros((H, 0), dtype=np.int64))
        assert table.length == 0 and table.pages == []
        assert pool.free_pages == pool.n_pages

    def test_rotated_pages_match_reference(self):
        from repro.models.positional import rope_rotate

        pool = make_pool(rope_dims=D)
        rng = np.random.default_rng(4)
        table, keys, _, positions = seeded(pool, 11, rng)
        # A RoPE pool's one key slab holds the keys rotated at their positions.
        np.testing.assert_array_equal(
            pool.keys_view(table), rope_rotate(keys, positions, D)
        )
        k = rng.normal(size=(H, D))
        pool.append(table, k, k, position=11)
        np.testing.assert_array_equal(
            pool.keys_view(table)[:, -1],
            rope_rotate(k, np.full((H,), 11), D),
        )
        np.testing.assert_array_equal(pool.values_view(table)[:, -1], k)


class TestCopyOnWrite:
    def test_shared_page_append_cows(self):
        pool = make_pool()
        table, keys, _, _ = seeded(pool, 5)
        clone = table.clone()
        pool.retain(clone.pages)
        k = np.full((H, D), 3.0)
        pool.append(table, k, k, position=5)
        # The clone still sees the original 5 tokens, untouched.
        assert clone.length == 5
        np.testing.assert_array_equal(pool.keys_view(clone), keys)
        np.testing.assert_array_equal(pool.keys_view(table)[:, -1], k)
        assert table.pages != clone.pages

    def test_shared_page_gather_cows(self):
        rng = np.random.default_rng(5)
        pool = make_pool()
        table, keys, _, _ = seeded(pool, 10, rng)
        clone = table.clone()
        pool.retain(clone.pages)
        idx = np.broadcast_to(np.array([0, 2, 4, 6]), (H, 4))
        pool.gather(table, idx)
        np.testing.assert_array_equal(pool.keys_view(clone), keys)
        np.testing.assert_array_equal(pool.keys_view(table), keys[:, [0, 2, 4, 6]])

    def test_exclusive_gather_keeps_pages_in_place(self):
        pool = make_pool()
        table, _, _, _ = seeded(pool, 10)
        pages_before = list(table.pages)
        pool.gather(table, np.broadcast_to(np.array([0, 3, 5]), (H, 3)))
        assert table.pages == pages_before[:1]

    def test_shared_gather_surviving_pool_growth(self):
        """A copy-on-write gather whose allocation grows the pool must write
        the compacted data into the *new* slabs, not the orphaned old ones."""
        rng = np.random.default_rng(12)
        pool = make_pool(n_pages=3)  # exactly enough for the seed
        table, keys, _, _ = seeded(pool, 3 * PS, rng)
        clone = table.clone()
        pool.retain(clone.pages)  # shared → gather must allocate fresh pages
        old_k = pool._k
        idx = np.sort(
            np.stack([rng.choice(3 * PS, size=PS, replace=False) for _ in range(H)]),
            axis=-1,
        )
        pool.gather(table, idx)
        assert pool._k is not old_k  # the allocation grew the pool
        for h in range(H):
            np.testing.assert_array_equal(pool.keys_view(table)[h], keys[h, idx[h]])
        np.testing.assert_array_equal(pool.keys_view(clone), keys)


class TestPrefixRegistry:
    def _store(self, n_pages=16, growable=True):
        return PagedKVStore(
            2, H, D, page_size=PS, n_pages=n_pages, growable=growable
        )

    def _seed_store(self, store, tokens, rng):
        tables = []
        for pool in store.pools:
            table = PageTable()
            keys = rng.normal(size=(H, len(tokens), D))
            pos = np.broadcast_to(np.arange(len(tokens)), (H, len(tokens))).copy()
            pool.extend(table, keys, keys.copy(), pos)
            tables.append(table)
        return tables

    def test_register_then_match_page_aligned(self):
        rng = np.random.default_rng(6)
        store = self._store()
        registry = PrefixRegistry(store)
        tokens = rng.integers(0, 50, size=2 * PS + 5)
        tables = self._seed_store(store, tokens, rng)
        assert registry.register(tokens, tables) == 2  # two full pages
        match = registry.match(tokens)
        assert match.length == 2 * PS
        assert match.pages_per_layer[0] == tables[0].pages[:2]
        # A prompt sharing only the first page matches one chunk.
        other = np.concatenate([tokens[:PS], rng.integers(50, 99, size=PS)])
        match = registry.match(other)
        assert match.length == PS

    def test_match_respects_max_tokens_cap(self):
        rng = np.random.default_rng(7)
        store = self._store()
        registry = PrefixRegistry(store)
        tokens = rng.integers(0, 50, size=3 * PS)
        tables = self._seed_store(store, tokens, rng)
        registry.register(tokens, tables)
        match = registry.match(tokens, max_tokens=3 * PS - 2)
        assert match.length == 2 * PS  # page-aligned below the cap

    def test_no_match_without_full_page(self):
        rng = np.random.default_rng(8)
        store = self._store()
        registry = PrefixRegistry(store)
        tokens = rng.integers(0, 50, size=PS - 1)
        tables = self._seed_store(store, tokens, rng)
        assert registry.register(tokens, tables) == 0
        assert registry.match(tokens) is None

    def test_registered_pages_pinned_and_reclaimed_lru(self):
        rng = np.random.default_rng(9)
        store = self._store()
        registry = PrefixRegistry(store)
        tokens = rng.integers(0, 50, size=2 * PS)
        tables = self._seed_store(store, tokens, rng)
        registry.register(tokens, tables)
        for table, pool in zip(tables, store.pools):
            pool.release_table(table)  # the sequence retires…
        assert store.pools[0].free_pages < store.pools[0].n_pages  # …pages stay pinned
        assert registry.reclaimable_pages() == 2
        dropped = registry.reclaim(2)
        assert dropped == 2
        assert store.pools[0].free_pages == store.pools[0].n_pages

    def test_reclaim_drops_leaves_before_parents(self):
        rng = np.random.default_rng(10)
        store = self._store()
        registry = PrefixRegistry(store)
        tokens = rng.integers(0, 50, size=3 * PS)
        tables = self._seed_store(store, tokens, rng)
        registry.register(tokens, tables)
        for table, pool in zip(tables, store.pools):
            pool.release_table(table)
        registry.reclaim(1)
        # The newest (leaf) chunk went first; the chain stays matchable.
        match = registry.match(tokens)
        assert match.length == 2 * PS

    def test_reclaim_never_wastes_pinned_chunks(self):
        """Chunks mapped by live rows free no memory when dropped, so reclaim
        must leave them registered."""
        rng = np.random.default_rng(11)
        store = self._store()
        registry = PrefixRegistry(store)
        tokens = rng.integers(0, 50, size=2 * PS)
        tables = self._seed_store(store, tokens, rng)  # tables stay live
        registry.register(tokens, tables)
        assert registry.reclaimable_pages() == 0
        assert registry.reclaim(4) == 0
        assert len(registry) == 2


class TestRememberedContiguity:
    """``PageTable`` remembers whether its pages are one ascending run and
    forgets on mutation; every path that changes a page list must leave
    ``pool.is_contiguous`` equal to a rescan of the page ids."""

    OPS = (
        "extend",
        "append",
        "fork",
        "suffix_pop",
        "truncate",
        "gather",
        "release_fork",
        "fork_row",
    )

    @settings(max_examples=150, deadline=None)
    @given(
        page_size=st.sampled_from([1, 2, 4]),
        steps=st.lists(
            st.tuples(st.sampled_from(OPS), st.integers(0, 7), st.integers(1, 9)),
            min_size=1,
            max_size=40,
        ),
    )
    # Copy-on-write remaps the shared last page and breaks the run.
    @example(page_size=2, steps=[("extend", 0, 3), ("fork", 0, 1), ("append", 0, 1)])
    # Dropping the tail (or the head) of a fragmented list restores a run.
    @example(
        page_size=2,
        steps=[("extend", 0, 2), ("extend", 1, 2), ("append", 0, 2), ("truncate", 0, 2)],
    )
    @example(
        page_size=2,
        steps=[("extend", 0, 2), ("extend", 1, 2), ("append", 0, 4), ("suffix_pop", 0, 2)],
    )
    # Compacting a shared table moves it onto freshly allocated pages.
    @example(page_size=2, steps=[("extend", 0, 5), ("fork", 0, 1), ("gather", 0, 1)])
    def test_flag_tracks_every_mutation(self, page_size, steps):
        rng = np.random.default_rng(0)
        pool = BlockPool(H, D, page_size=page_size, n_pages=2)
        tables = [PageTable(), PageTable()]

        def tokens(n):
            return rng.normal(size=(H, n, D)), rng.normal(size=(H, n, D))

        def check():
            for table in tables:
                assert pool.is_contiguous(table) == table.scan_contiguous()
            assert pool.check_invariants(owners=tables) == []

        for op, which, n in steps:
            table = tables[which % len(tables)]
            if op == "extend":
                k, v = tokens(n)
                pool.extend(table, k, v, np.broadcast_to(np.arange(n), (H, n)))
            elif op == "append":
                # Alternating single appends across page boundaries is what
                # interleaves two tables' page ids.
                for _ in range(n):
                    k, v = tokens(1)
                    pool.append(table, k[:, 0], v[:, 0], table.length)
            elif op == "fork":  # the next write into the shared page COWs
                fork = table.clone()
                pool.retain(fork.pages)
                tables.append(fork)
            elif op == "release_fork" and len(tables) > 2:
                pool.release_table(tables.pop())
            elif op == "suffix_pop" and table.length:
                drop = min(n, table.length)
                keep = np.broadcast_to(np.arange(drop, table.length), (H, table.length - drop))
                pool.gather(table, keep)
            elif op == "truncate" and table.length:
                pool.truncate(table, min(n, table.length))
            elif op == "gather" and table.length > 1:
                keep = np.delete(np.arange(table.length), n % table.length)
                pool.gather(table, np.broadcast_to(keep, (H, keep.size)))
            elif op == "fork_row" and table.length:
                cache = BatchedLayerKVCache(1, H, D, pool=pool)
                cache.tables[0] = table
                tables.append(cache.fork_row(0))
            check()

    def test_solo_run_never_rescans_in_steady_state(self):
        """The point of remembering: a solo sequence appending page after
        page, evicting one token per step, keeps a known answer throughout."""
        pool = make_pool(n_pages=4)
        table, *_ = seeded(pool, PS)
        k = np.zeros((H, D))
        for step in range(3 * PS):
            pool.append(table, k, k, PS + step)
            keep = np.delete(np.arange(table.length), 1)
            pool.gather(table, np.broadcast_to(keep, (H, keep.size)))
            assert table._contiguous is True


@pytest.mark.parametrize(
    "n_tokens, pages", [(0, 0), (1, 1), (PS, 1), (PS + 1, 2), (2 * PS + 1, 3)]
)
def test_pages_needed_is_ceil_division(n_tokens, pages):
    assert pages_needed(n_tokens, PS) == pages
    assert make_pool().pages_for(n_tokens) == pages


class TestStoreByteAccounting:
    @pytest.mark.parametrize("compute_dtype", ["float32", "float64"])
    @pytest.mark.parametrize("kv_dtype", [None, "int8"])
    def test_built_store_holds_page_bytes_per_page(self, kv_dtype, compute_dtype):
        """``KVStoreConfig.page_bytes`` is what a built store keeps resident
        per page: every slab of every layer pool, RoPE keys included."""
        mc = ModelConfig(
            vocab_size=64, d_model=32, n_layers=2, n_heads=4, d_ff=64,
            positional="rope", compute_dtype=compute_dtype,
        )
        config = KVStoreConfig(kv_dtype=kv_dtype, page_size=PS)
        store = PagedKVStore(
            mc.n_layers, mc.n_heads, mc.d_head, dtype=mc.np_dtype, rope_dims=mc.rope_dims,
            n_pages=5, growable=False, config=config,
        )
        assert store.nbytes() == 5 * config.page_bytes(mc)

    def test_page_totals_span_layers_and_admission_reads_the_tightest(self):
        store = PagedKVStore(2, H, D, n_pages=5, growable=False, page_size=PS)
        assert (store.total_pages, store.free_pages, store.used_pages) == (10, 10, 0)
        assert store.pages_for_tokens(2 * PS + 1) == 3
        store.pool(0).alloc(2)
        assert (store.free_pages, store.used_pages) == (8, 2)
        assert store.min_free_pages() == 3
