"""Unit tests for the int8 quantized block pool (`repro.kvcache.quant`).

Covers the storage contract of `docs/quantization.md`: per-page round-trip
error bounds, exactness of degenerate ranges and positions, range widening on
append, re-quantization on eviction, copy-on-write isolation of shared
(prefix) pages, truncate/snapshot/restore rollback, and the byte accounting that
feeds admission and telemetry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policies import FullAttentionPolicy
from repro.generation.generator import Generator
from repro.kvcache.manager import CacheManager
from repro.kvcache.paged import BlockPool, PagedKVStore, PageTable, resolve_pool_class
from repro.kvcache.quant import QMAX, QuantizedBlockPool
from repro.models.transformer import DecoderLM
from tests.conftest import tiny_config
from tests.reference.prompt_scoring import seed_manager

H, D, PS = 2, 4, 8


def int8_manager(**kwargs):
    """A one-layer solo manager whose store keeps int8 pages."""
    return CacheManager(
        FullAttentionPolicy(), 1, H, D, positional_mode="original", page_size=PS,
        kv_dtype="int8", **kwargs,
    )


def make_pool(n_pages=8, **kwargs):
    kwargs.setdefault("dtype", np.float64)
    return QuantizedBlockPool(H, D, page_size=PS, n_pages=n_pages, **kwargs)


def seeded(pool, t, rng=None, start_pos=0):
    rng = rng or np.random.default_rng(0)
    table = PageTable()
    keys = rng.normal(size=(H, t, D))
    values = rng.normal(size=(H, t, D))
    positions = np.broadcast_to(np.arange(start_pos, start_pos + t), (H, t)).copy()
    pool.extend(table, keys, values, positions)
    return table, keys, values, positions


def per_element_bound(pool, table, name="k"):
    """Max dequantization error per element: half a step of its page's scale."""
    bound = np.empty((H, table.length, 1))
    for logical, page, _within, chunk in pool._page_chunks(table):
        bound[:, logical : logical + chunk] = (
            pool._qscale[name][page][:, None, None] * 0.5
        )
    # float32 parameter rounding adds a few ULPs on top of the half-step.
    return bound * 1.001 + 1e-7


class TestRoundTrip:
    def test_extend_roundtrip_within_half_step(self):
        pool = make_pool()
        table, keys, values, _ = seeded(pool, 3 * PS - 2)
        assert np.all(np.abs(pool.keys_view(table) - keys) <= per_element_bound(pool, table, "k"))
        assert np.all(
            np.abs(pool.values_view(table) - values) <= per_element_bound(pool, table, "v")
        )

    def test_positions_are_exact(self):
        pool = make_pool()
        table, _, _, positions = seeded(pool, 2 * PS + 3, start_pos=17)
        assert np.array_equal(pool.positions_view(table), positions)

    def test_constant_page_roundtrips_exactly(self):
        pool = make_pool()
        table = PageTable()
        # 0.75 is exactly representable in the float32 `zero` tensor, so a
        # degenerate (zero-width) range round-trips bit-exactly through it.
        keys = np.full((H, PS, D), 0.75)
        positions = np.broadcast_to(np.arange(PS), (H, PS)).copy()
        pool.extend(table, keys, keys.copy(), positions)
        assert np.array_equal(pool.keys_view(table), keys)

    def test_rotated_keys_within_half_step(self):
        # A RoPE pool's "k" stream quantizes the keys rotated at write time.
        pool = make_pool(rope_dims=D)
        table, keys, _, positions = seeded(pool, PS + 3)
        expected = pool.rope_table.rotate(keys, positions)
        assert np.all(
            np.abs(pool.keys_view(table) - expected)
            <= per_element_bound(pool, table, "k")
        )

    def test_codes_are_int8_in_range(self):
        pool = make_pool()
        table, _, _, _ = seeded(pool, PS)
        assert pool._k.dtype == np.int8
        live = pool._k[:, : table.length]
        assert live.min() >= -QMAX and live.max() <= QMAX

    def test_append_widening_keeps_resident_tokens_bounded(self):
        pool = make_pool()
        table = PageTable()
        rng = np.random.default_rng(1)
        small = 0.01 * rng.normal(size=(H, 3, D))
        positions = np.broadcast_to(np.arange(3), (H, 3)).copy()
        pool.extend(table, small, small.copy(), positions)
        # An outlier in the same page widens the range and re-encodes the
        # resident tokens; they must stay within the *new* half-step bound.
        outlier = np.full((H, D), 5.0)
        pool.append(table, outlier, outlier, 3)
        keys = pool.keys_view(table)
        bound = per_element_bound(pool, table, "k")
        assert np.all(np.abs(keys[:, :3] - small) <= 2 * bound[:, :3])
        assert np.all(np.abs(keys[:, 3] - outlier) <= bound[:, 3])

    def test_solo_and_batched_append_produce_identical_codes(self):
        a, b = make_pool(), make_pool()
        ta, keys, values, positions = seeded(a, PS)
        tb = PageTable()
        b.extend(tb, keys, values, positions)
        rng = np.random.default_rng(2)
        for i in range(5):
            k = rng.normal(size=(H, D))
            v = rng.normal(size=(H, D))
            a.append(ta, k, v, PS + i)
            b.append_rows([tb], k[None], v[None], np.asarray([PS + i]))
        assert np.array_equal(a.keys_view(ta), b.keys_view(tb))
        assert np.array_equal(a.values_view(ta), b.values_view(tb))


class TestEviction:
    def test_suffix_eviction_is_pure_bookkeeping(self):
        pool = make_pool()
        table, _, _, _ = seeded(pool, 3 * PS)
        before = pool.keys_view(table)
        indices = np.broadcast_to(np.arange(PS, 3 * PS), (H, 2 * PS))
        pool.gather(table, indices)
        assert table.offset == 0 and table.length == 2 * PS
        assert np.array_equal(pool.keys_view(table), before[:, PS:])

    def test_scatter_eviction_requantizes_within_bound(self):
        pool = make_pool()
        table, _, _, _ = seeded(pool, 3 * PS)
        before_k = pool.keys_view(table)
        before_v = pool.values_view(table)
        rng = np.random.default_rng(3)
        indices = np.stack(
            [np.sort(rng.choice(3 * PS, size=10, replace=False)) for _ in range(H)]
        )
        pool.gather(table, indices)
        rows = np.arange(H)[:, None]
        bound = per_element_bound(pool, table, "k")
        assert np.all(np.abs(pool.keys_view(table) - before_k[rows, indices]) <= bound)
        bound_v = per_element_bound(pool, table, "v")
        assert np.all(np.abs(pool.values_view(table) - before_v[rows, indices]) <= bound_v)

    def test_eviction_resets_destination_page_ranges(self):
        pool = make_pool()
        table = PageTable()
        rng = np.random.default_rng(4)
        data = 0.01 * rng.normal(size=(H, 2 * PS, D))
        data[:, -1] = 50.0  # one huge token widens the last page only
        positions = np.broadcast_to(np.arange(2 * PS), (H, 2 * PS)).copy()
        pool.extend(table, data, data.copy(), positions)
        keep = np.broadcast_to(np.arange(PS), (H, PS))  # drop the outlier
        pool.gather(table, keep)
        # Fresh destination ranges: the surviving small tokens re-quantize
        # with a tight scale, not the outlier-widened one.
        page = table.pages[0]
        assert np.all(pool._qscale["k"][page] < 0.01)


class TestSharedPages:
    def test_cloned_table_reads_identically_until_divergence(self):
        pool = make_pool()
        table, _, _, _ = seeded(pool, PS + 2)
        clone = table.clone()
        pool.retain(clone.pages)
        assert np.array_equal(pool.keys_view(table), pool.keys_view(clone))

    def test_copy_on_write_preserves_shared_page_params(self):
        pool = make_pool()
        table, _, _, _ = seeded(pool, PS + 2)
        clone = table.clone()
        pool.retain(clone.pages)
        before = pool.keys_view(clone)
        # Appending through the original COWs the shared boundary page and
        # must copy its quantization parameters along with the codes.
        outlier = np.full((H, D), 9.0)
        for i in range(PS):
            pool.append(table, outlier, outlier, PS + 2 + i)
        # The clone's reads must be bit-identical to before the divergence —
        # the outlier widened only the original's private COW copy.
        assert np.array_equal(pool.keys_view(clone), before)

    def test_page_tokens_view_dequantizes_full_pages(self):
        pool = make_pool(rope_dims=D)
        table, keys, values, _ = seeded(pool, 2 * PS)
        k, v = pool.page_tokens_view(table.pages[:2])
        assert k.shape == (H, 2 * PS, D)
        assert np.all(np.abs(v - values) <= per_element_bound(pool, table, "v"))


class TestTruncateForkRestore:
    def test_truncate_leaves_survivors_bit_identical(self):
        pool = make_pool()
        table, _, _, _ = seeded(pool, 2 * PS + 3)
        before = pool.keys_view(table)
        pool.truncate(table, PS + 1)
        assert np.array_equal(pool.keys_view(table), before[:, : PS + 2])

    def test_fork_restore_rolls_back_quantized_cache(self):
        rng = np.random.default_rng(5)
        manager = int8_manager(rope_dims=D)
        t = PS + 2
        attn = [np.zeros((1, H, t, t))]
        prompt = (rng.normal(size=(1, H, t, D)), rng.normal(size=(1, H, t, D)))
        seed_manager(manager, [prompt], attn, attn, max_new_tokens=PS)
        cache = manager.caches[0]
        assert isinstance(cache.pool, QuantizedBlockPool)
        snapshot_keys = cache.keys.copy()  # rotated: the one key stream
        forked = manager.snapshot_row(0)
        for _ in range(PS):
            kv = rng.normal(size=(1, H, D))
            manager.append(0, kv, kv.copy())
            manager.advance()
        manager.restore_row(0, forked)
        assert np.array_equal(cache.keys, snapshot_keys)


class TestAccountingAndPlumbing:
    def test_int8_pool_is_smaller_than_full_precision(self):
        q = make_pool()
        fp = BlockPool(H, D, page_size=PS, n_pages=8, dtype=np.float64)
        assert q.kv_token_nbytes() < fp.kv_token_nbytes() / 4
        assert q.nbytes() < fp.nbytes()
        assert q.page_nbytes() < fp.page_nbytes()

    def test_store_usage_reports_bytes(self):
        store = PagedKVStore(2, H, D, page_size=PS, n_pages=4, kv_dtype="int8")
        usage = store.usage()
        assert usage["bytes_total"] == store.nbytes()
        assert usage["bytes_used"] == 0
        table = PageTable()
        store.pool(0).extend(
            table,
            np.zeros((H, PS, D)),
            np.zeros((H, PS, D)),
            np.zeros((H, PS), dtype=np.int64),
        )
        assert store.usage()["bytes_used"] > 0

    def test_resolve_pool_class(self):
        assert resolve_pool_class(None) is BlockPool
        assert resolve_pool_class("native") is BlockPool
        assert resolve_pool_class("int8") is QuantizedBlockPool
        with pytest.raises(ValueError, match="kv_dtype"):
            resolve_pool_class("fp4")

    def test_manager_kv_dtype_knob_builds_quantized_pools(self):
        rng = np.random.default_rng(6)
        manager = int8_manager()
        attn = [np.zeros((1, H, PS, PS))]
        prompt = (rng.normal(size=(1, H, PS, D)), rng.normal(size=(1, H, PS, D)))
        seed_manager(manager, [prompt], attn, attn, max_new_tokens=2)
        assert isinstance(manager.caches[0].pool, QuantizedBlockPool)
        assert manager.total_kv_bytes() < 2 * H * PS * D * 8  # below float64 cost
        assert manager.caches[0].keys.dtype == np.float64  # reads stay in compute dtype

    def test_generator_kv_dtype_knob_reaches_its_manager(self):
        model = DecoderLM(tiny_config("rope"), seed=0)
        prompt = np.arange(PS)[None]
        for kv_dtype, cls in ((None, BlockPool), ("int8", QuantizedBlockPool)):
            _, manager = Generator(model, kv_dtype=kv_dtype)._prompt_forward(prompt, 2)
            assert all(type(pool) is cls for pool in manager.store.pools)

    def test_page_nbytes_for_matches_pool_classes(self):
        fp = PagedKVStore.page_nbytes_for(None, H, D, PS, np.float64)
        q = PagedKVStore.page_nbytes_for("int8", H, D, PS, np.float64)
        assert fp == BlockPool.estimate_page_nbytes(H, D, PS, np.float64)
        assert q == QuantizedBlockPool.estimate_page_nbytes(H, D, PS, np.float64)
        assert q < fp
        # What a built pool holds per page, RoPE or not: one key slab.
        for cls, page in ((BlockPool, fp), (QuantizedBlockPool, q)):
            for rope_dims in (0, D):
                pool = cls(H, D, page_size=PS, n_pages=4, rope_dims=rope_dims)
                assert pool.nbytes() == 4 * page == 4 * pool.page_nbytes()

    def test_grown_pool_keeps_parameter_arrays_aligned(self):
        pool = make_pool(n_pages=2)
        table, keys, _, _ = seeded(pool, 6 * PS)  # forces repeated growth
        assert pool._qscale["k"].shape[0] == pool.n_pages
        assert np.all(
            np.abs(pool.keys_view(table) - keys) <= per_element_bound(pool, table, "k")
        )
