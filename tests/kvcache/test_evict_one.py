"""Evict-one tail shift == forced compaction, on every observable.

``BlockPool.gather`` moves each head's tail down one slot when a selection
drops exactly one entry per head from an exclusively owned, contiguous,
full-precision table starting at slot 0; everything else compacts.  Here a
twin pool replays the same history and is *forced* through
``BlockPool._compact`` (the reference); keys, values, positions, rotated
keys, the page table, the free list, the refcounts and the audit must come
out identical — and the path actually taken is pinned per scenario, so the
equivalence is never vacuous.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.score import BaseScore, EvictOne
from repro.kvcache.paged import BlockPool, PageTable
from repro.kvcache.quant import QuantizedBlockPool

D_HEAD = 4
SCENARIOS = ("plain", "offset", "shared", "fragmented")


def evict_one(length: int, drops: list[int], typed: bool = False):
    """Per-head selection keeping ``0..length-1`` minus ``drops[h]``: the
    index array, or (``typed``) the ``EvictOne`` standing for it."""
    if typed:
        return EvictOne(np.asarray(drops), length)
    base = np.arange(length - 1)
    return np.stack([base + (base >= d) for d in drops])


class Twin:
    """One pool plus the tables living in it, rebuilt identically twice."""

    def __init__(self, scenario, heads, page_size, length, dtype, rope, pool_cls=BlockPool):
        rng = np.random.default_rng(length * 31 + heads)
        self.pool = pool_cls(
            heads,
            D_HEAD,
            page_size=page_size,
            n_pages=4,
            dtype=dtype,
            rope_dims=D_HEAD if rope else 0,
        )
        self.compactions = 0
        compact = self.pool._compact

        def counted(table, indices):
            self.compactions += 1
            compact(table, indices)

        self.pool._compact = counted
        self.table = PageTable()
        self.others: list[PageTable] = []
        # A bump of `skip` tokens leaves offset > 0 unless it frees whole pages.
        skip = max(page_size // 2, 1) if scenario == "offset" else 0
        total = length + skip

        def tokens(n):
            k = rng.standard_normal((heads, n, D_HEAD)).astype(dtype)
            v = rng.standard_normal((heads, n, D_HEAD)).astype(dtype)
            return k, v

        if scenario == "fragmented":
            # Two tables growing in turn interleave their page ids.
            other = PageTable()
            self.others.append(other)
            for pos in range(total):
                for t in (self.table, other):
                    k, v = tokens(1)
                    self.pool.append(t, k[:, 0], v[:, 0], pos)
        else:
            k, v = tokens(total)
            positions = np.broadcast_to(np.arange(total), (heads, total))
            self.pool.extend(self.table, k, v, positions, reserve_tokens=total + 3)
        if skip:
            suffix = np.broadcast_to(np.arange(skip, total), (heads, length))
            self.pool.gather(self.table, suffix)
        if scenario == "shared":
            fork = self.table.clone()
            self.pool.retain(fork.pages)
            self.others.append(fork)
        self.compactions = 0

    def owners(self):
        return [self.table, *self.others]

    def observe(self):
        pool, table = self.pool, self.table
        return {
            "keys": pool.keys_view(table).copy(),
            "values": pool.values_view(table).copy(),
            "positions": pool.positions_view(table).copy(),
            "rotated": pool.rotated_view(table).copy() if pool.rope_dims else None,
            "table": (table.offset, table.length, list(table.pages)),
            "contiguous": pool.is_contiguous(table),
            "free": sorted(pool._free),
            "free_pages": pool.free_pages,
            "refcounts": pool.refcounts.tolist(),
            "audit": pool.check_invariants(owners=self.owners()),
        }


def assert_same(got: dict, want: dict) -> None:
    assert got["audit"] == [] and want["audit"] == []
    for name in ("table", "contiguous", "free", "free_pages", "refcounts"):
        assert got[name] == want[name], name
    for name in ("keys", "values", "positions", "rotated"):
        if want[name] is None:
            assert got[name] is None
        else:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)


@st.composite
def cases(draw):
    heads = draw(st.integers(1, 4))
    page_size = draw(st.sampled_from([1, 2, 4, 8, 16]))
    # Lengths around page boundaries: length - 1 a multiple of the page size
    # is the case where the shift must hand the tail page back.
    length = draw(
        st.one_of(
            st.integers(2, 40),
            st.integers(1, 4).map(lambda m: m * page_size + 1),
        )
    )
    edge = st.sampled_from([0, length - 1, max(length - 2, 0), length // 2])
    drops = draw(st.lists(st.one_of(edge, st.integers(0, length - 1)), min_size=heads, max_size=heads))
    return heads, page_size, length, drops


@settings(max_examples=120, deadline=None)
@given(
    case=cases(),
    scenario=st.sampled_from(SCENARIOS),
    dtype=st.sampled_from([np.float32, np.float64]),
    rope=st.booleans(),
    typed=st.booleans(),
)
def test_shift_equals_forced_compaction(case, scenario, dtype, rope, typed):
    heads, page_size, length, drops = case
    # Every head dropping slot 0 is a pure suffix: the pointer bump keeps
    # other pages than compaction does (tests/kvcache/test_paged.py pins it).
    assume(any(drops))
    indices = evict_one(length, drops)
    fast = Twin(scenario, heads, page_size, length, dtype, rope)
    reference = Twin(scenario, heads, page_size, length, dtype, rope)

    table = fast.table
    shiftable = (
        table.offset == 0
        and table.scan_contiguous()
        and bool((fast.pool.refcounts[table.pages] == 1).all())
    )

    evicted = fast.pool.gather(table, evict_one(length, drops, typed))
    reference.pool._compact(reference.table, indices)

    assert evicted == 1
    assert_same(fast.observe(), reference.observe())
    assert fast.compactions == (0 if shiftable else 1)

    # The table stays usable: the next token lands where compaction puts it.
    k = np.full((heads, D_HEAD), 7, dtype=dtype)
    for twin in (fast, reference):
        twin.pool.append(twin.table, k, -k, length)
    assert_same(fast.observe(), reference.observe())


@settings(max_examples=40, deadline=None)
@given(case=cases(), extra=st.integers(1, 3))
def test_multi_token_eviction_compacts(case, extra):
    heads, page_size, length, drops = case
    length += extra
    keep = np.stack(
        [np.delete(np.arange(length), [(d + i) % length for i in range(extra + 1)]) for d in drops]
    )
    assume(not (keep == np.arange(extra + 1, length)).all())  # pure suffix: a bump
    fast = Twin("plain", heads, page_size, length, np.float64, True)
    reference = Twin("plain", heads, page_size, length, np.float64, True)
    fast.pool.gather(fast.table, keep)
    reference.pool._compact(reference.table, keep)
    assert_same(fast.observe(), reference.observe())
    assert fast.compactions == 1


@pytest.mark.parametrize("typed", [False, True])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_each_scenario_takes_its_path(scenario, typed):
    """Only the plain table shifts; an offset, a shared page or a fragmented
    page list each send the same selection through compaction — named by an
    ``EvictOne`` or spelled out as indices alike."""
    twin = Twin(scenario, 2, 4, 10, np.float32, True)
    twin.pool.gather(twin.table, evict_one(10, [3, 8], typed))
    assert twin.compactions == (0 if scenario == "plain" else 1)
    assert twin.pool.check_invariants(owners=twin.owners()) == []


@pytest.mark.parametrize("typed", [False, True])
def test_quantized_pool_always_compacts(typed):
    """int8 survivors are re-quantized against fresh page ranges."""
    pair = [Twin("plain", 2, 4, 9, np.float64, False, pool_cls=QuantizedBlockPool) for _ in "ab"]
    twin, reference = pair
    twin.pool.gather(twin.table, evict_one(9, [3, 5], typed))
    reference.pool._compact(reference.table, evict_one(9, [3, 5]))
    assert twin.compactions == 1
    assert twin.table.length == 8 and len(twin.table.pages) == 2
    assert_same(twin.observe(), reference.observe())


class TestEvictOne:
    def test_stands_for_its_index_array(self):
        drop = np.array([[3, 0], [8, 9]])
        typed = EvictOne(drop, 10)
        want = np.stack([evict_one(10, row) for row in drop.tolist()])
        assert typed.shape == want.shape == (2, 2, 9)
        np.testing.assert_array_equal(np.asarray(typed), want)
        np.testing.assert_array_equal(np.asarray(typed[1]), want[1])
        assert np.asarray(typed, dtype=np.int32).dtype == np.int32

    @pytest.mark.parametrize("drops", [[3, 10], [-1, 2]])
    def test_out_of_range_drop_raises(self, drops):
        twin = Twin("plain", 2, 4, 10, np.float64, True)
        before = twin.observe()
        with pytest.raises(IndexError, match="out of range"):
            twin.pool.gather(twin.table, evict_one(10, drops, typed=True))
        assert_same(twin.observe(), before)

    @pytest.mark.parametrize("drops, length", [([3], 10), ([3, 4, 5], 10), ([3, 4], 9)])
    def test_wrong_geometry_raises(self, drops, length):
        twin = Twin("plain", 2, 4, 10, np.float64, True)
        with pytest.raises(ValueError, match="one drop per head"):
            twin.pool.gather(twin.table, evict_one(length, drops, typed=True))

    def test_every_head_dropping_slot_zero_is_the_suffix_bump(self):
        pair = [Twin("plain", 2, 4, 10, np.float64, True) for _ in "ab"]
        typed, spelled = pair
        assert typed.pool.gather(typed.table, evict_one(10, [0, 0], typed=True)) == 1
        spelled.pool.gather(spelled.table, evict_one(10, [0, 0]))
        assert typed.table.offset == 1 and typed.compactions == 0
        assert_same(typed.observe(), spelled.observe())


@pytest.mark.parametrize("drops", [[0, 9], [9, 9], [4, 0]])
def test_drop_next_to_the_recent_window(drops):
    """Dropping the entry just before (or at) the newest token is a shift of
    one (or zero) slots; the survivors keep their chronological order."""
    twin = Twin("plain", 2, 4, 10, np.float64, True)
    before = twin.pool.positions_view(twin.table).copy()
    twin.pool.gather(twin.table, evict_one(10, drops))
    after = twin.pool.positions_view(twin.table)
    for head, drop in enumerate(drops):
        np.testing.assert_array_equal(after[head], np.delete(before[head], drop))
    assert twin.compactions == 0


@settings(max_examples=60, deadline=None)
@given(
    layers=st.integers(1, 3),
    batch=st.integers(1, 2),
    heads=st.integers(1, 3),
    length=st.integers(2, 30),
    dtype=st.sampled_from([np.float32, np.float64]),
    stacked=st.booleans(),
    data=st.data(),
)
def test_score_gather_keeps_take_along_axis_semantics(
    layers, batch, heads, length, dtype, stacked, data
):
    """``BaseScore.gather`` — one layer or all of them stacked, an arbitrary
    ascending selection (a flat row-gather) or a typed evict-one (a tail
    shift per row) — leaves what ``take_along_axis`` would."""
    rng = np.random.default_rng(length)
    values = rng.random((layers, batch, heads, length)).astype(dtype)
    typed = data.draw(st.booleans())
    k = length - 1 if typed else data.draw(st.integers(1, length))
    keep = np.stack(
        [
            np.sort(rng.choice(length, size=k, replace=False))
            for _ in range(layers * batch * heads)
        ]
    ).reshape(layers, batch, heads, k)
    selection = keep
    if typed:
        present = np.zeros((layers, batch, heads, length), dtype=bool)
        np.put_along_axis(present, keep, True, axis=-1)
        selection = EvictOne(np.argmin(present, axis=-1), length)
    score = BaseScore()
    for layer in range(layers):
        score.set(layer, values[layer])
    if stacked:
        score.gather(None, selection)
    else:
        for layer in range(layers):
            score.gather(layer, selection[layer])
    np.testing.assert_array_equal(score.get(None), np.take_along_axis(values, keep, axis=-1))
    for layer in range(layers):
        np.testing.assert_array_equal(score.get(layer), score.get(None)[layer])
