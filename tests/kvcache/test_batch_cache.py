"""Unit tests for the batched paged KV cache (`repro.kvcache.batch`)."""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CachePolicyConfig
from repro.core.policies import FullAttentionPolicy, H2OPolicy
from repro.core.score import EvictOne
from repro.kvcache.batch import BatchedCacheManager, BatchedLayerKVCache
from repro.kvcache.offload import TieredBlockPool, TieredQuantizedBlockPool
from repro.kvcache.paged import BlockPool, PageTable, PoolExhausted
from repro.kvcache.quant import QuantizedBlockPool
from repro.models.positional import RopeTable
from repro.models.tensor_ops import softmax
from tests.reference.prompt_scoring import set_up

HEADS, D_HEAD = 4, 8


def _prompt(rng, t):
    keys = rng.normal(size=(1, HEADS, t, D_HEAD))
    values = rng.normal(size=(1, HEADS, t, D_HEAD))
    positions = np.broadcast_to(np.arange(t), (1, HEADS, t))
    return keys, values, positions


class DenseRows:
    """The independent reference: each row is plain ``(H, L, ...)`` arrays.

    Appends concatenate and evictions are ``take_along_axis`` on raw keys;
    a RoPE pool's stored keys are checked against ``RopeTable.rotate`` of
    them at their original positions — no pages, tables or pool are involved.
    """

    def __init__(self, rope_dims: int = 0):
        self.rows: list[list[np.ndarray]] = []
        self.rope = RopeTable(rope_dims) if rope_dims else None

    def join(self, keys, values, positions) -> None:
        """Add a row from ``(1, H, T, ...)`` prompt tensors."""
        self.rows.append([np.array(keys[0]), np.array(values[0]), np.array(positions[0])])

    def append(self, row: int, k, v, position: int) -> None:
        """Append one ``(H, d)`` token at ``position``."""
        keys, values, positions = self.rows[row]
        self.rows[row] = [
            np.concatenate([keys, k[:, None]], axis=1),
            np.concatenate([values, v[:, None]], axis=1),
            np.concatenate([positions, np.full((HEADS, 1), position)], axis=1),
        ]

    def gather(self, row: int, indices) -> None:
        """Keep the ``(H, K)`` (or ``(1, H, K)``) selected entries."""
        idx = np.asarray(indices).reshape(HEADS, -1)
        keys, values, positions = self.rows[row]
        self.rows[row] = [
            np.take_along_axis(keys, idx[..., None], axis=1),
            np.take_along_axis(values, idx[..., None], axis=1),
            np.take_along_axis(positions, idx, axis=1),
        ]

    def check(self, cache: BatchedLayerKVCache, row: int, ref_row: int | None = None) -> None:
        """Row ``row`` of ``cache`` holds exactly reference row ``ref_row``."""
        keys, values, positions = self.rows[row if ref_row is None else ref_row]
        if self.rope is not None:
            keys = self.rope.rotate(keys, positions)
        length = keys.shape[1]
        assert cache.tables[row].length == length
        got = cache.padded_batch(row + 1)[:3]
        for have, want in zip(got, (keys, values, positions)):
            np.testing.assert_array_equal(have[row, :, :length], want)


class TestBatchedLayerKVCache:
    def test_join_append_matches_dense_reference(self):
        rng = np.random.default_rng(0)
        batched = BatchedLayerKVCache(max_batch=3, n_heads=HEADS, d_head=D_HEAD)
        ref = DenseRows()
        for row, t in enumerate((6, 4, 9)):
            prompt = _prompt(rng, t)
            batched.join_row(row, *prompt)
            ref.join(*prompt)
        for step in range(3):
            k = rng.normal(size=(3, HEADS, D_HEAD))
            v = rng.normal(size=(3, HEADS, D_HEAD))
            positions = np.asarray([6 + step, 4 + step, 9 + step])
            batched.append_rows(3, k, v, positions)
            for row in range(3):
                ref.append(row, k[row], v[row], int(positions[row]))
        for row in range(3):
            ref.check(batched, row)

    def test_suffix_gather_is_pointer_bump(self):
        rng = np.random.default_rng(1)
        batched = BatchedLayerKVCache(max_batch=1, n_heads=HEADS, d_head=D_HEAD)
        ref = DenseRows()
        prompt = _prompt(rng, 10)
        batched.join_row(0, *prompt)
        ref.join(*prompt)
        pages_before = list(batched.tables[0].pages)
        suffix = np.broadcast_to(np.arange(3, 10), (1, HEADS, 7))
        evicted = batched.gather_row(0, suffix)
        ref.gather(0, suffix)
        assert evicted == 3
        # Pointer bump, no compaction: the same physical pages, offset moved.
        assert batched.tables[0].offset == 3
        assert batched.tables[0].pages == pages_before
        ref.check(batched, 0)

    def test_suffix_gather_frees_fully_skipped_pages(self):
        rng = np.random.default_rng(11)
        ps = 16
        batched = BatchedLayerKVCache(max_batch=1, n_heads=HEADS, d_head=D_HEAD)
        ref = DenseRows()
        prompt = _prompt(rng, 3 * ps)
        batched.join_row(0, *prompt)
        ref.join(*prompt)
        free_before = batched.pool.free_pages
        # Drop the oldest 2*ps tokens: two whole leading pages return to the pool.
        suffix = np.broadcast_to(np.arange(2 * ps, 3 * ps), (1, HEADS, ps))
        batched.gather_row(0, suffix)
        ref.gather(0, suffix)
        assert batched.pool.free_pages == free_before + 2
        assert batched.tables[0].offset == 0
        ref.check(batched, 0)

    def test_scattered_per_head_gather_matches_reference(self):
        rng = np.random.default_rng(2)
        batched = BatchedLayerKVCache(max_batch=1, n_heads=HEADS, d_head=D_HEAD)
        ref = DenseRows()
        prompt = _prompt(rng, 12)
        batched.join_row(0, *prompt)
        ref.join(*prompt)
        # Every head keeps its own token set.
        selection = np.sort(
            np.stack([rng.choice(12, size=6, replace=False) for _ in range(HEADS)])[None],
            axis=-1,
        )
        assert batched.gather_row(0, selection) == 6
        ref.gather(0, selection)
        ref.check(batched, 0)

    def test_identity_gather_moves_nothing(self):
        rng = np.random.default_rng(12)
        batched = BatchedLayerKVCache(max_batch=1, n_heads=HEADS, d_head=D_HEAD)
        ref = DenseRows()
        prompt = _prompt(rng, 6)
        batched.join_row(0, *prompt)
        ref.join(*prompt)
        assert batched.gather_row(0, np.broadcast_to(np.arange(6), (HEADS, 6))) == 0
        ref.check(batched, 0)

    def test_gather_after_suffix_shift_uses_relative_indices(self):
        rng = np.random.default_rng(3)
        batched = BatchedLayerKVCache(max_batch=1, n_heads=HEADS, d_head=D_HEAD)
        ref = DenseRows()
        prompt = _prompt(rng, 10)
        batched.join_row(0, *prompt)
        ref.join(*prompt)
        suffix = np.broadcast_to(np.arange(2, 10), (1, HEADS, 8))
        batched.gather_row(0, suffix)
        ref.gather(0, suffix)
        scattered = np.sort(
            np.stack([rng.choice(8, size=4, replace=False) for _ in range(HEADS)])[None],
            axis=-1,
        )
        batched.gather_row(0, scattered)
        ref.gather(0, scattered)
        ref.check(batched, 0)

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_property_gather_preserves_order_and_content(self, length, keep, seed):
        keep = min(keep, length)
        rng = np.random.default_rng(seed)
        batched = BatchedLayerKVCache(max_batch=1, n_heads=HEADS, d_head=D_HEAD, page_size=4)
        ref = DenseRows()
        prompt = _prompt(rng, length)
        batched.join_row(0, *prompt)
        ref.join(*prompt)
        chosen = np.sort(rng.choice(length, size=keep, replace=False))
        batched.gather_row(0, np.broadcast_to(chosen, (HEADS, keep)))
        ref.gather(0, np.broadcast_to(chosen, (HEADS, keep)))
        ref.check(batched, 0)
        assert np.all(np.diff(batched.positions_row(0)[0, 0]) > 0)

    def test_all_rows_reads(self):
        rng = np.random.default_rng(13)
        batched = BatchedLayerKVCache(max_batch=1, n_heads=HEADS, d_head=D_HEAD)
        prompt = _prompt(rng, 6)
        batched.join_row(0, *prompt)
        # One row on one page run: views of the pool slabs themselves.
        assert np.shares_memory(batched.keys, batched.pool._k)
        assert np.shares_memory(batched.positions, batched.pool._pos)
        pair = BatchedLayerKVCache(max_batch=2, n_heads=HEADS, d_head=D_HEAD)
        prompts = [_prompt(rng, 6) for _ in range(2)]
        for row, prompt in enumerate(prompts):
            pair.join_row(row, *prompt)
        np.testing.assert_array_equal(pair.keys, np.concatenate([p[0] for p in prompts]))
        np.testing.assert_array_equal(pair.positions, np.concatenate([p[2] for p in prompts]))

    def test_gather_rejects_out_of_range(self):
        rng = np.random.default_rng(4)
        batched = BatchedLayerKVCache(max_batch=1, n_heads=HEADS, d_head=D_HEAD)
        keys, values, positions = _prompt(rng, 5)
        batched.join_row(0, keys, values, positions)
        with pytest.raises(IndexError):
            batched.gather_row(0, np.full((1, HEADS, 2), 7))

    def test_free_row_moves_last_row_and_releases_pages(self):
        rng = np.random.default_rng(5)
        batched = BatchedLayerKVCache(max_batch=3, n_heads=HEADS, d_head=D_HEAD)
        ref = DenseRows()
        for row, t in enumerate((5, 7, 6)):
            prompt = _prompt(rng, t)
            batched.join_row(row, *prompt)
            ref.join(*prompt)
        free_before = batched.pool.free_pages
        batched.free_row(0, 2)  # retire row 0; row 2 moves into it
        ref.check(batched, 0, ref_row=2)
        ref.check(batched, 1)
        assert batched.tables[2].length == 0
        assert batched.pool.free_pages > free_before  # row 0's pages returned
    def test_padded_batch_pads_to_longest_row(self):
        rng = np.random.default_rng(6)
        batched = BatchedLayerKVCache(max_batch=2, n_heads=HEADS, d_head=D_HEAD)
        contents = []
        for row in range(2):
            keys, values, positions = _prompt(rng, 8)
            batched.join_row(row, keys, values, positions)
            contents.append((keys, values))
        # Row 0 suffix-evicts; row 1 stays put → ragged lengths.
        batched.gather_row(0, np.broadcast_to(np.arange(3, 8), (1, HEADS, 5)))
        keys_view, values_view, pos_view, lengths, max_len = batched.padded_batch(2)
        assert max_len == 8
        np.testing.assert_array_equal(lengths, [5, 8])
        np.testing.assert_array_equal(keys_view[0, :, :5], contents[0][0][0, :, 3:])
        np.testing.assert_array_equal(keys_view[1], contents[1][0][0])
        np.testing.assert_array_equal(pos_view[1, 0], np.arange(8))

    def test_single_row_padded_batch_is_zero_copy(self):
        rng = np.random.default_rng(9)
        batched = BatchedLayerKVCache(max_batch=2, n_heads=HEADS, d_head=D_HEAD)
        keys, values, positions = _prompt(rng, 8)
        batched.join_row(0, keys, values, positions)
        keys_view, _, _, _, _ = batched.padded_batch(1)
        # The contiguous fast path returns a view of the pool slab itself.
        assert keys_view.base is batched.pool._k

    def test_rotated_slab_matches_dense_rotation(self):
        rng = np.random.default_rng(7)
        batched = BatchedLayerKVCache(
            max_batch=2, n_heads=HEADS, d_head=D_HEAD, rope_dims=D_HEAD
        )
        ref = DenseRows(rope_dims=D_HEAD)
        for row, t in enumerate((6, 4)):
            prompt = _prompt(rng, t)
            batched.join_row(row, *prompt)
            ref.join(*prompt)
        k = rng.normal(size=(2, HEADS, D_HEAD))
        batched.append_rows(2, k, k.copy(), np.asarray([6, 4]))
        for row in range(2):
            ref.append(row, k[row], k[row], (6, 4)[row])
        for row in range(2):
            ref.check(batched, row)  # the key slab holds the rotated keys
        # The stored rotated keys are compacted with the per-head indices.
        selection = np.stack([np.arange(0, 7, 2)[:4], np.arange(3, 7)] * (HEADS // 2))
        batched.gather_row(0, selection)
        ref.gather(0, selection)
        ref.check(batched, 0)

    def test_capacity_grows_preserving_contents(self):
        rng = np.random.default_rng(8)
        batched = BatchedLayerKVCache(
            max_batch=1, n_heads=HEADS, d_head=D_HEAD, capacity=16
        )
        ref = DenseRows()
        prompt = _prompt(rng, 10)
        batched.join_row(0, *prompt)
        ref.join(*prompt)
        for step in range(20):  # forces at least one page allocation
            k = rng.normal(size=(1, HEADS, D_HEAD))
            batched.append_rows(1, k, k.copy(), np.asarray([10 + step]))
            ref.append(0, k[0], k[0], 10 + step)
        assert batched.capacity >= 30
        ref.check(batched, 0)

    def test_join_row_shared_maps_prefix_pages(self):
        rng = np.random.default_rng(10)
        ps = 16
        batched = BatchedLayerKVCache(max_batch=2, n_heads=HEADS, d_head=D_HEAD)
        keys, values, positions = _prompt(rng, 2 * ps + 5)
        batched.join_row(0, keys, values, positions)
        shared_pages = batched.tables[0].pages[:2]
        suffix = _prompt(rng, 7)
        suffix_pos = np.broadcast_to(
            np.arange(2 * ps, 2 * ps + 7), (1, HEADS, 7)
        )
        batched.join_row_shared(1, shared_pages, 2 * ps, suffix[0], suffix[1], suffix_pos)
        # The mapped pages are physically shared between both rows.
        assert batched.tables[1].pages[:2] == shared_pages
        assert all(batched.pool.refcounts[p] == 2 for p in shared_pages)
        k1 = batched.padded_batch(2)[0][1:]
        np.testing.assert_array_equal(k1[:, :, : 2 * ps], keys[:, :, : 2 * ps])
        np.testing.assert_array_equal(k1[:, :, 2 * ps :], suffix[0])
        # Evicting on row 1 copy-on-writes: row 0's view of the prefix survives.
        batched.gather_row(
            1,
            np.sort(
                np.stack(
                    [rng.choice(2 * ps + 7, size=9, replace=False) for _ in range(HEADS)]
                )[None],
                axis=-1,
            ),
        )
        k0 = batched.padded_batch(2)[0][:1, :, : 2 * ps + 5]
        np.testing.assert_array_equal(k0, keys)


class TestJoinUnwind:
    def test_join_unwinds_fully_when_prompt_eviction_exhausts_pool(self):
        """The prompt-phase eviction copy-on-writes away from registered pages
        and can exhaust a fixed pool *after* the row was admitted; the join
        must unwind the whole admission, not leave a phantom row behind."""
        rng = np.random.default_rng(13)
        ps = 8
        manager = BatchedCacheManager(
            n_layers=1,
            n_heads=HEADS,
            d_head=D_HEAD,
            max_batch=2,
            page_size=ps,
            max_pool_tokens=3 * ps,  # exactly the prompt — nothing for COW
        )
        t = 3 * ps
        keys = rng.normal(size=(1, HEADS, t, D_HEAD))
        logits = rng.normal(size=(1, HEADS, t, t))
        logits = np.where(np.triu(np.ones((t, t), dtype=bool), k=1)[None, None], -np.inf, logits)
        policy = H2OPolicy(CachePolicyConfig(kv_fraction=0.5, recent_ratio=0.5))
        tokens = rng.integers(0, 50, size=t)
        with pytest.raises(PoolExhausted):
            manager.join(
                [(keys, keys.copy())],
                set_up(policy, manager, t, 4, [softmax(logits, axis=-1)], [logits]),
                prompt_token_ids=tokens,  # registers → pages become shared
            )
        assert manager.n_active == 0
        assert manager.policies == [] and manager.stats == []
        # The row's refs are gone; only the registry still pins the pages,
        # and those are reclaimable on demand.
        assert manager.registry.reclaimable_pages() == 3
        manager.registry.reclaim(3)
        assert manager.store.pools[0].free_pages == manager.store.pools[0].n_pages


# ---------------------------------------------------------------------------
# incremental padded read: a step copies only what each row appended since
# its last read, and re-reads rows whose table was rewritten
# ---------------------------------------------------------------------------

PS = 4


def _pool(cls, **kwargs):
    return cls(HEADS, D_HEAD, page_size=PS, n_pages=8, rope_dims=D_HEAD, **kwargs)


DIFF_POOLS = {
    "fp64": lambda: _pool(BlockPool),
    "int8": lambda: _pool(QuantizedBlockPool),
    "tiered": lambda: _pool(TieredBlockPool, tier0_pages=6),
    "tiered-int8": lambda: _pool(TieredQuantizedBlockPool, tier0_pages=6),
}


def _pool_state(pool) -> dict:
    """Every array of ``pool`` (key, value and position slabs, refcounts,
    frame maps, quantization ranges), its spill arena's records and its
    frame recency order, as bytes."""
    state = {}
    for name, value in vars(pool).items():
        arrays = value if isinstance(value, dict) else {"": value}
        for key, arr in arrays.items():
            if isinstance(arr, np.ndarray):
                state[f"{name}[{key}]"] = arr.tobytes()
    arena = getattr(pool, "arena", None)
    if arena is not None:
        state["arena"] = {page: arena.load(page) for page in sorted(arena.keys())}
    recency = getattr(pool, "_recency", None)
    if recency is not None:
        state["recency"] = list(recency)
    return state


def _seeded_pools(kind, n_tables, rng):
    """Two identical ``kind`` pools, each with ``n_tables`` 3-token tables."""
    prompt = rng.normal(size=(2, HEADS, 3, D_HEAD))
    positions = np.broadcast_to(np.arange(3), (HEADS, 3))
    pools = [DIFF_POOLS[kind](), DIFF_POOLS[kind]()]
    tables = [[PageTable() for _ in range(n_tables)] for _ in pools]
    for pool, rows in zip(pools, tables):
        for table in rows:
            pool.extend(table, prompt[0], prompt[1], positions)
    return pools, tables


def _assert_same(pools, tables):
    assert _pool_state(pools[0]) == _pool_state(pools[1])
    for a, b in zip(*tables):
        for slot in PageTable.__slots__:
            assert getattr(a, slot) == getattr(b, slot), slot


class TestOneRowAppend:
    """A solo row decodes through a one-row ``append_rows``: it must write
    what the solo ``append`` and the multi-row scatter write, across page
    boundaries, and through spills on the tiered pools."""

    @pytest.mark.parametrize("kind", sorted(DIFF_POOLS))
    def test_one_row_append_rows_is_append(self, kind):
        rng = np.random.default_rng(7)
        pools, tables = _seeded_pools(kind, 1, rng)
        for position in range(3, 30):
            k, v = rng.normal(size=(2, HEADS, D_HEAD))
            pools[0].append_rows(tables[0], k[None], v[None], np.array([position]))
            pools[1].append(tables[1][0], k, v, position)
            _assert_same(pools, tables)
        if "tiered" in kind:
            assert pools[0].tier_usage()["spills"] > 0

    @pytest.mark.parametrize("kind", sorted(DIFF_POOLS))
    def test_one_row_append_rows_is_the_multi_row_scatter(self, kind):
        rng = np.random.default_rng(8)
        pools, tables = _seeded_pools(kind, 2, rng)
        for position in range(3, 16):
            k, v = rng.normal(size=(2, 2, HEADS, D_HEAD))
            rows = np.array([position, position])
            pools[0].append_rows(tables[0], k, v, rows)
            for i, table in enumerate(tables[1]):
                pools[1].append_rows([table], k[i : i + 1], v[i : i + 1], rows[i : i + 1])
            _assert_same(pools, tables)
        if "tiered" in kind:
            assert pools[0].tier_usage()["spills"] > 0


def _fresh_read(pool, table):
    """A start-0 ``fill_row`` of ``table`` into new buffers: the reference."""
    out = (
        np.zeros((HEADS, table.length, D_HEAD)),
        np.zeros((HEADS, table.length, D_HEAD)),
        np.zeros((HEADS, table.length), dtype=np.int64),
    )
    type(pool).fill_row(pool, table, *out)
    return out


def _check_padded_read(cache, n_active):
    """Read the batch; each row's live region must be byte-equal to a fresh read."""
    got = cache.padded_batch(n_active)
    for row in range(n_active):
        table = cache.tables[row]
        for padded, want in zip(got[:3], _fresh_read(cache.pool, table)):
            assert padded[row, :, : table.length].tobytes() == want.tobytes(), f"row {row}"


class _Session:
    """A seeded random walk over the batched cache's row operations, with a
    padded read checked against fresh reads after every step."""

    OPS = {
        "join", "join_shared", "rejoin", "append", "append_many", "evict_one",
        "suffix", "scatter", "truncate", "free",
    }

    def __init__(self, pool, seed):
        self.rng = np.random.default_rng(seed)
        self.cache = BatchedLayerKVCache(max_batch=4, n_heads=HEADS, d_head=D_HEAD, pool=pool)
        self.n_active = 0
        self.done: set[str] = set()
        self.starts: list[int] = []  # the ``start`` of every padded-batch row read
        self.ws_sizes: set[int] = set()
        self.widths: list[int] = []  # n_active of every read
        # What each evict-one did: "multi-run shift" (the pool moved a
        # fragmented table's tails in place), "edited" / "not edited" (the
        # workspace row moved with it, or its record went stale), and the
        # next batched read of that row, "incremental" (start == length,
        # nothing to copy) or "whole" (start 0).
        self.events: set[str] = set()
        self._evicted: int | None = None
        fill_row, shift_out = pool.fill_row, pool._shift_out
        self.shifts = 0

        def spy(table, out_k, out_v, out_pos, start=0):
            self.starts.append(start)
            fill_row(table, out_k, out_v, out_pos, start)

        def shift_spy(table, drop):
            self.shifts += 1
            shift_out(table, drop)

        pool.fill_row = spy
        pool._shift_out = shift_spy

    def _lengths(self):
        return [self.cache.tables[r].length for r in range(self.n_active)]

    def _row(self, min_len):
        rows = [r for r, n in enumerate(self._lengths()) if n >= min_len]
        return rows[self.rng.integers(len(rows))]

    def step(self):
        lengths, cache = self._lengths(), self.cache
        ops = []
        if self.n_active < cache.max_batch:
            ops += ["join", "join"]
            if any(t.offset == 0 and t.length >= PS for t in cache.tables[: self.n_active]):
                ops.append("join_shared")
        if self.n_active:
            ops += ["append"] * 4 + ["append_many", "rejoin", "free"]
        if any(n >= 1 for n in lengths):
            ops.append("truncate")
        if any(n >= 2 for n in lengths):
            ops += ["evict_one", "suffix", "scatter"]
        op = ops[self.rng.integers(len(ops))]
        self._evicted = None
        getattr(self, "_" + op)()
        self.done.add(op)
        if self.n_active:
            _check_padded_read(cache, self.n_active)
            row = self._evicted
            if row is not None and self.n_active > 1:
                start = self.starts[row - self.n_active]
                if start == cache.tables[row].length:
                    self.events.add("incremental")
                elif start == 0:
                    self.events.add("whole")
            self.widths.append(self.n_active)
            if cache._ws is not None:
                self.ws_sizes.add(cache._ws[0].shape[2])

    def _join(self):
        self.cache.join_row(self.n_active, *_prompt(self.rng, int(self.rng.integers(1, 6 * PS))))
        self.n_active += 1

    def _join_shared(self):
        tables = [t for t in self.cache.tables[: self.n_active] if t.offset == 0 and t.length >= PS]
        table = tables[self.rng.integers(len(tables))]
        m = int(self.rng.integers(1, table.length // PS + 1))
        s = int(self.rng.integers(1, 2 * PS))
        keys, values, _ = _prompt(self.rng, s)
        positions = np.broadcast_to(np.arange(m * PS, m * PS + s), (1, HEADS, s))
        self.cache.join_row_shared(self.n_active, table.pages[:m], m * PS, keys, values, positions)
        self.n_active += 1

    def _rejoin(self):
        # Slot reuse: the same PageTable released and re-extended, mostly to
        # its old length.
        row = int(self.rng.integers(self.n_active))
        self.cache.join_row(row, *_prompt(self.rng, self.cache.tables[row].length or 1))

    def _append(self, count=1):
        n = self.n_active
        for _ in range(count):
            k = self.rng.normal(size=(n, HEADS, D_HEAD))
            v = self.rng.normal(size=(n, HEADS, D_HEAD))
            self.cache.append_rows(n, k, v, self.rng.integers(0, 200, size=n))

    def _append_many(self):
        self._append(int(self.rng.integers(2, 2 * PS)))

    def _evict_one(self):
        row = self._row(2)
        table = self.cache.tables[row]
        n, shifts = table.length, self.shifts
        multi_run = len(self.cache.pool.token_runs(table)) > 1
        self.cache.gather_row(row, EvictOne(self.rng.integers(0, n, size=HEADS), n))
        if multi_run and self.shifts > shifts:
            self.events.add("multi-run shift")
        held = self.cache._synced[row]
        self.events.add("edited" if held and held[1] == table.epoch else "not edited")
        self._evicted = row

    def _suffix(self):
        row = self._row(2)
        n = self.cache.tables[row].length
        k = int(self.rng.integers(1, n))
        self.cache.gather_row(row, np.broadcast_to(np.arange(n - k, n), (HEADS, k)))

    def _scatter(self):
        row = self._row(2)
        n = self.cache.tables[row].length
        k = int(self.rng.integers(1, n))
        picks = [self.rng.choice(n, size=k, replace=False) for _ in range(HEADS)]
        self.cache.gather_row(row, np.sort(np.stack(picks), axis=-1))

    def _truncate(self):
        row = self._row(1)
        n = self.cache.tables[row].length
        drop = int(self.rng.integers(1, min(n, 2 * PS) + 1))
        self.cache.pool.truncate(self.cache.tables[row], drop)

    def _free(self):
        self.cache.free_row(int(self.rng.integers(self.n_active)), self.n_active - 1)
        self.n_active -= 1


class TestIncrementalPaddedRead:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", sorted(DIFF_POOLS))
    def test_random_operations_read_like_a_fresh_read(self, kind, seed):
        session = _Session(DIFF_POOLS[kind](), seed)
        for _ in range(200):
            session.step()
        assert session.done == _Session.OPS
        # Both read kinds ran: incremental (start > 0) and whole (start 0).
        assert 0 in session.starts and max(session.starts) > 0
        # The workspace grew more than once, and a lone-row read (which
        # clears every record) was followed by a batched read.
        assert len(session.ws_sizes) >= 2
        solo = session.widths.index(1)
        assert max(session.widths[solo:]) > 1
        # An evict-one on a synced row moves the workspace with the pool,
        # and the next read copies nothing; int8 pools re-quantize
        # survivors, so their rows are read whole again.  Only the
        # single-tier full-precision pool shifts; the tiered pools' streamed
        # gather owns their evict-one.
        if "int8" in kind:
            assert "edited" not in session.events
            assert "incremental" not in session.events and "whole" in session.events
        else:
            assert {"edited", "incremental"} <= session.events
        assert ("multi-run shift" in session.events) == (kind == "fp64")

    def _two_rows(self, pool, t=10, seed=0):
        rng = np.random.default_rng(seed)
        cache = BatchedLayerKVCache(max_batch=3, n_heads=HEADS, d_head=D_HEAD, pool=pool)
        for row in range(2):
            cache.join_row(row, *_prompt(rng, t))
        _check_padded_read(cache, 2)
        return cache, rng

    def test_trap_length_cannot_detect_staleness(self):
        """A Keyformer step appends one token and evicts one: the length is
        unchanged while every slot after the evicted one has moved.  In the
        engine's order (append, read, evict) the record is carried forward,
        not dropped: the evict-one moves the workspace row with the pool.  An
        evict-one on a row the workspace does not wholly hold drops it."""
        cache, rng = self._two_rows(_pool(BlockPool))
        kv = rng.normal(size=(2, HEADS, D_HEAD))
        cache.append_rows(2, kv, kv.copy(), np.asarray([10, 10]))
        _check_padded_read(cache, 2)
        cache.gather_row(0, EvictOne(np.asarray([2, 0, 10, 5]), 11))
        assert cache.tables[0].length == 10 and cache._held(0) == 10
        _check_padded_read(cache, 2)
        cache.append_rows(2, kv, kv.copy(), np.asarray([11, 11]))
        cache.gather_row(1, EvictOne(np.full(HEADS, 2), 12))
        assert cache.tables[1].length == 11 and cache._held(1) == 0
        _check_padded_read(cache, 2)

    def test_trap_int8_append_reencodes_its_page(self):
        """An append that widens a page's range re-encodes the page's earlier
        tokens, so the re-read starts at the page's first slot."""
        cache, rng = self._two_rows(_pool(QuantizedBlockPool), t=PS + 1)
        before = _fresh_read(cache.pool, cache.tables[0])[1][:, PS].copy()
        wide = np.full((2, HEADS, D_HEAD), 50.0)
        cache.append_rows(2, wide, wide.copy(), np.asarray([PS + 1, PS + 1]))
        after = _fresh_read(cache.pool, cache.tables[0])[1][:, PS]
        assert not np.array_equal(before, after)  # token PS was re-encoded
        _check_padded_read(cache, 2)

    def test_trap_free_row_moves_a_table_between_slots(self):
        """Slot 0 takes the last row's table at the same epoch and length."""
        rng = np.random.default_rng(3)
        cache = BatchedLayerKVCache(
            max_batch=3, n_heads=HEADS, d_head=D_HEAD, pool=_pool(BlockPool)
        )
        for row in range(3):
            cache.join_row(row, *_prompt(rng, 8))
        _check_padded_read(cache, 3)
        moved = cache.tables[2]
        epoch = cache.tables[0].epoch
        cache.free_row(0, 2)
        assert cache.tables[0] is moved and moved.epoch == epoch
        _check_padded_read(cache, 2)

    def test_trap_join_row_reuses_the_same_table(self):
        """join_row releases and re-extends the *same* PageTable object."""
        cache, rng = self._two_rows(_pool(BlockPool))
        table = cache.tables[0]
        cache.join_row(0, *_prompt(rng, 10))
        assert cache.tables[0] is table and table.length == 10
        _check_padded_read(cache, 2)

    @pytest.mark.parametrize("cls", [TieredBlockPool, TieredQuantizedBlockPool])
    def test_trap_tiered_read_moves_no_more_than_a_full_read(self, cls):
        """Incremental reads pass only the pages they copy through
        ``_page_base`` (the recency touch and restore trigger).  What they
        read, and the workspace audit, are those of full reads, and their
        spills and restores never exceed a full read's."""
        incremental = _Session(_pool(cls, tier0_pages=6), seed=5)
        full = _Session(_pool(cls, tier0_pages=6), seed=5)
        a, b = incremental.cache.pool, full.cache.pool
        for _ in range(150):
            full.cache._synced = [None] * full.cache.max_batch  # every read whole
            incremental.step()
            full.step()
            assert incremental.cache.check_workspace() == []
            for name in ("n_spills", "n_restores", "spill_bytes", "restore_bytes"):
                assert getattr(a, name) <= getattr(b, name), name
        assert a.n_spills > 0 and a.n_restores > 0
        assert a.n_restores < b.n_restores
        assert max(incremental.starts) > 0 and max(full.starts) == 0


class TestWorkspaceSize:
    def test_workspace_is_sized_to_the_live_rows_when_it_grows(self):
        """As rows join, grow, retire and join again, a read that outgrows
        the workspace sizes it to the active rows and the longest row
        rounded up to a page; a retirement leaves it as it is; a lone row
        reads zero-copy and drops it.  A resize copies what the kept slots
        held: the next read of a kept row starts where its last one ended."""
        rng = np.random.default_rng(11)
        cache = BatchedLayerKVCache(
            max_batch=4, n_heads=HEADS, d_head=D_HEAD, pool=_pool(BlockPool)
        )
        starts = []
        fill_row = cache.pool.fill_row

        def spy(table, out_k, out_v, out_pos, start=0):
            starts.append(start)
            fill_row(table, out_k, out_v, out_pos, start)

        cache.pool.fill_row = spy

        def read(n_active, shape):
            """Read the batch; returns where each row's read started."""
            starts.clear()
            _check_padded_read(cache, n_active)
            read_from = list(starts)
            assert cache.check_workspace() == []
            if shape is None:
                assert cache._ws is None
            else:
                assert [ws.shape[:3:2] for ws in cache._ws] == [shape] * 3
            return read_from

        def append(n_active, count=1):
            for _ in range(count):
                k = rng.normal(size=(n_active, HEADS, D_HEAD))
                cache.append_rows(n_active, k, k.copy(), np.zeros(n_active, np.int64))

        cache.join_row(0, *_prompt(rng, 5))
        cache.join_row(1, *_prompt(rng, 7))
        assert read(2, (2, 8)) == [0, 0]
        append(2)  # row 1 fills its page: the width stays
        assert read(2, (2, 8)) == [5, 7]
        append(2)  # row 1 crosses a page: wider, and nothing is re-read
        assert read(2, (2, 12)) == [6, 8]
        cache.join_row(2, *_prompt(rng, 13))
        assert read(3, (3, 16)) == [7, 9, 0]
        cache.free_row(2, 2)  # the longest row retires: no reallocation
        assert read(2, (3, 16)) == [7, 9]
        append(2, 8)  # lengths 15 and 17: sized again, to two rows
        assert read(2, (2, 20)) == [7, 9]
        assert cache._synced[2:] == [None, None]
        cache.free_row(0, 1)
        assert read(1, None) == []  # zero-copy
        for row in (1, 2, 3):
            cache.join_row(row, *_prompt(rng, 3 * row))
        append(4, 3)
        assert [t.length for t in cache.tables] == [20, 6, 9, 12]
        assert read(4, (4, 20)) == [0, 0, 0, 0]


class TestWorkspaceAudit:
    def _manager(self):
        manager = BatchedCacheManager(1, HEADS, D_HEAD, max_batch=2, page_size=PS)
        rng = np.random.default_rng(7)
        for t in (6, 9):
            keys, values, _ = _prompt(rng, t)
            manager.join([(keys, values)], set_up(FullAttentionPolicy(), manager, t, 4))
        manager.attention_view_batch(0)
        return manager

    def test_clean_workspace_passes(self):
        assert self._manager().check_invariants() == []

    def test_corrupted_workspace_is_a_violation(self):
        manager = self._manager()
        manager.caches[0]._ws[1][1, 0, 3, 0] += 1.0
        violations = manager.check_invariants()
        assert violations == ["layer 0: row slot 1: padded workspace differs from the pool"]

    def test_row_changed_since_its_read_is_not_audited(self):
        # An evicting row is read whole on the next step; its workspace is
        # stale until then, and that is not a violation.
        manager = self._manager()
        manager.caches[0].gather_row(1, np.broadcast_to(np.arange(2, 9), (HEADS, 7)))
        assert manager.check_invariants() == []
