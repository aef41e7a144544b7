"""Properties of the tier-1 record arena and the tiered pools' transfer path.

A spilled page is its slab bytes in one fixed-size record
(``repro.kvcache.offload._RecordArena``, behind both ``spill_backend``
values).  These tests pin what that design promises: any bit pattern survives
spill → restore ``tobytes()``-exactly on every slab; slots are reused
lowest-first, hold only their own page's bytes and survive growth; a steady
live set never grows the map; a ``spill_io`` fault on either side of a
transfer leaves the arena untouched; nothing a ``load`` returns pins the map
against the next growing ``store``; a restore never writes the int8 pool's
quantization parameters; and over random touch / restore / release / pin
sequences ``_choose_victim``'s recency order picks the page the per-frame
``(rank, last touch, page)`` loop it replaced (kept here as the reference,
with a test-side touch clock) would pick.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvcache.offload import (
    SPILL_BACKENDS,
    TieredBlockPool,
    TieredQuantizedBlockPool,
    resolve_spill_arena,
)
from repro.kvcache.paged import PageTable, PoolExhausted
from repro.kvcache.quant import QuantizedBlockPool

HEADS, D_HEAD, PAGE = 2, 4, 4

#: Bit patterns a codec or a float round-trip would be tempted to normalise:
#: ±0.0, denormals, ±inf, quiet/signalling NaNs with payloads, all-ones.
SPECIAL_BITS = {
    64: (0, 1 << 63, 1, (1 << 52) - 1, 0x7FF0 << 48, 0xFFF0 << 48,
         0x7FF8_0000_0000_BEEF, 0x7FF0_0000_0000_0001, 0xFFFF_FFFF_FFFF_FFFF),
    32: (0, 1 << 31, 1, (1 << 23) - 1, 0x7F80_0000, 0xFF80_0000,
         0x7FC0_BEEF, 0x7F80_0001, 0xFFFF_FFFF),
    8: (0, 0x7F, 0x80, 0x81, 0xFF),  # int8 0, 127, -128, -127, -1
}  # fmt: skip


def make_pool(kv="float64", backend="compressed", rope=False, **kwargs):
    cls = TieredQuantizedBlockPool if kv == "int8" else TieredBlockPool
    kwargs.setdefault("n_pages", 8)
    kwargs.setdefault("tier0_pages", 3)
    return cls(
        HEADS,
        D_HEAD,
        page_size=PAGE,
        dtype=np.float64 if kv == "int8" else kv,
        rope_dims=D_HEAD if rope else 0,
        spill_backend=backend,
        **kwargs,
    )


def seeded_table(pool, n_tokens, rng):
    table = PageTable()
    keys = rng.standard_normal((HEADS, n_tokens, D_HEAD))
    positions = np.broadcast_to(np.arange(n_tokens), (HEADS, n_tokens))
    pool.extend(table, keys, -keys, positions)
    return table


def arena_state(arena):
    """Everything a transfer may change: slot map, free heap, high-water
    mark, capacity and every byte of the map."""
    return (
        dict(arena._slots),
        list(arena._free),
        arena._high,
        arena._capacity,
        None if arena._map is None else arena._map[:],
    )


@st.composite
def page_images(draw):
    """A pool geometry plus one page's worth of raw bits per slab, filled to
    ``fill`` of ``PAGE`` slots (the tail stays zero, as in a live page)."""
    kv = draw(st.sampled_from(("float64", "float32", "int8")))
    backend = draw(st.sampled_from(SPILL_BACKENDS))
    rope = draw(st.booleans())
    fill = draw(st.integers(1, PAGE))
    pool = make_pool(kv, backend, rope)
    images = []
    for slab in pool._slabs():
        bits = 8 * slab.dtype.itemsize
        element = st.one_of(
            st.sampled_from(SPECIAL_BITS[bits]), st.integers(0, 2**bits - 1)
        )
        shape = (HEADS, fill) + slab.shape[2:]
        count = int(np.prod(shape))
        raw = draw(st.lists(element, min_size=count, max_size=count))
        image = np.zeros((HEADS, PAGE) + slab.shape[2:], dtype=slab.dtype)
        image[:, :fill] = (
            np.array(raw, dtype=f"u{slab.dtype.itemsize}").view(slab.dtype).reshape(shape)
        )
        images.append(image)
    return pool, images


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(page_images())
    def test_any_bit_pattern_survives_spill_and_restore(self, case):
        pool, images = case
        pages = pool.alloc(pool.n_frames + 1)
        target = pages[0]
        base = pool._page_base(target)
        for slab, image in zip(pool._slabs(), images):
            slab[:, base : base + PAGE] = image
        want = [image.tobytes() for image in images]
        for page in pages[1:]:  # one more page than frames: the target spills
            pool._page_base(page)
        assert pool.tier_page_state(target) == "spilled"
        for slab in pool._slabs():  # clobber every frame it could come back to
            slab.view(np.uint8)[...] = 0xA5
        base = pool._page_base(target)
        got = [slab[:, base : base + PAGE].tobytes() for slab in pool._slabs()]
        assert got == want
        assert pool.check_invariants() == []
        pool.arena.close()


@pytest.mark.parametrize("backend", SPILL_BACKENDS)
class TestRecordArena:
    def test_rejects_wrong_record_size(self, backend):
        arena = resolve_spill_arena(backend, record_nbytes=8)
        before = arena_state(arena)
        for payload in (b"short", b"far too long"):
            with pytest.raises(ValueError, match="arena records are 8"):
                arena.store(0, payload)
        assert arena_state(arena) == before
        with pytest.raises(ValueError, match="record_nbytes must be positive"):
            resolve_spill_arena(backend, record_nbytes=0)

    def test_freed_slots_are_reused_lowest_first_with_their_own_bytes(self, backend):
        arena = resolve_spill_arena(backend, record_nbytes=8)
        for page in range(5):
            arena.store(page, bytes([page]) * 8)
        arena.drop(3)
        arena.drop(1)
        arena.store(70, b"\x70" * 8)
        arena.store(71, b"\x71" * 8)
        arena.store(72, b"\x72" * 8)
        assert [arena._slots[p] for p in (70, 71, 72)] == [1, 3, 5]
        want = {0: 0, 2: 2, 4: 4, 70: 0x70, 71: 0x71, 72: 0x72}
        assert {p: arena.load(p) for p in arena.keys()} == {
            p: bytes([b]) * 8 for p, b in want.items()
        }
        assert arena.check_invariants() == []
        arena.close()

    def test_growth_preserves_live_records(self, backend):
        arena = resolve_spill_arena(backend, record_nbytes=24)
        capacities = set()
        for page in range(40):  # 8 -> 16 -> 32 -> 64 records
            arena.store(page, page.to_bytes(2, "little") * 12)
            capacities.add(arena._capacity)
            assert arena.check_invariants() == []
        assert capacities == {8, 16, 32, 64}
        for page in range(40):
            assert arena.load(page) == page.to_bytes(2, "little") * 12
        arena.close()

    def test_load_then_growing_store(self, backend):
        # mmap.resize refuses while any view of the map is exported, so what
        # load hands out must be a copy — even while the caller still holds it.
        arena = resolve_spill_arena(backend, record_nbytes=16)
        for page in range(8):
            arena.store(page, bytes([page]) * 16)
        held = [arena.load(page) for page in range(8)]
        arena.store(8, b"\x08" * 16)  # exactly at capacity: this store grows
        assert arena._capacity == 16
        assert held == [bytes([page]) * 16 for page in range(8)]
        assert arena.load(8) == b"\x08" * 16
        arena.close()

    def test_failed_copy_leaks_no_slot(self, backend):
        arena = resolve_spill_arena(backend, record_nbytes=8)
        arena.store(0, b"\x00" * 8)

        class NotABuffer:
            def __len__(self):
                return 8

        with pytest.raises(TypeError):
            arena.store(1, NotABuffer())
        assert 1 not in arena and arena.owned_slots() == 1
        assert arena.check_invariants() == []
        arena.close()

    def test_steady_live_set_never_grows_the_map(self, backend):
        pool = make_pool(backend=backend, tier0_pages=3, n_pages=16)
        table = seeded_table(pool, 9 * PAGE, np.random.default_rng(0))
        capacity, high = pool.arena._capacity, pool.arena._high
        assert high <= 9
        before = pool.n_spills
        for i in range(1000):  # round-robin over 9 pages in 3 frames: all miss
            pool._page_base(table.pages[i % 9])
        assert pool.n_spills - before == 1000
        assert (pool.arena._capacity, pool.arena._high) == (capacity, high)
        assert pool.check_invariants(owners=[table]) == []

    @pytest.mark.parametrize("side", ("store", "load"))
    def test_spill_io_fault_leaves_the_arena_untouched(self, backend, side):
        pool = make_pool(backend=backend)
        rng = np.random.default_rng(1)
        table = seeded_table(pool, 5 * PAGE, rng)
        spare = seeded_table(pool, PAGE, rng)
        spilled = next(p for p in table.pages if p in pool.arena)
        if side == "load":
            pool._page_base(spare.pages[0])
            pool.release_table(spare)  # a free frame: the next miss only restores
            spare = None
        before = arena_state(pool.arena)
        frames = (pool._page_frame.copy(), sorted(pool._free_frames))
        calls = []

        def boom():
            calls.append(side)
            raise RuntimeError("injected spill fault")

        pool.spill_hook = boom
        with pytest.raises(RuntimeError, match="injected spill fault"):
            pool._page_base(spilled)
        assert calls == [side]  # once, and before anything moved
        assert arena_state(pool.arena) == before
        assert np.array_equal(pool._page_frame, frames[0])
        assert sorted(pool._free_frames) == frames[1]
        pool.spill_hook = None
        owners = [table] + ([spare] if spare is not None else [])
        assert pool.check_invariants(owners=owners) == []


class TestQuantizedParamsStayLive:
    def test_restore_never_writes_the_parameters(self):
        pool = make_pool("int8")
        table = seeded_table(pool, 6 * PAGE, np.random.default_rng(2))
        page = next(p for p in table.pages if p in pool.arena)
        stores = (pool._qscale, pool._qzero, pool._qlo, pool._qhi)
        for i, store in enumerate(stores):  # values no record could hold
            for name in pool._qnames:
                store[name][page] = 1000.0 + i
        pool._page_base(page)
        assert pool.tier_page_state(page) == "resident"
        for i, store in enumerate(stores):
            for name in pool._qnames:
                assert (store[name][page] == 1000.0 + i).all()

    @pytest.mark.parametrize("backend", SPILL_BACKENDS)
    def test_reset_while_spilled_matches_the_single_tier_pool(self, backend):
        # Compaction resets the ranges of the pages it is about to rewrite;
        # here those pages sit in the arena at that moment.  They must come
        # back with the reset (narrow) ranges, as the single-tier pool's do.
        rng = np.random.default_rng(3)
        n = 6 * PAGE
        keys = rng.standard_normal((HEADS, n, D_HEAD)) * np.linspace(8, 0.1, n)[None, :, None]
        positions = np.broadcast_to(np.arange(n), (HEADS, n))
        keep = np.stack([np.arange(1, n, 2), np.arange(0, n, 2)])
        pools = [
            make_pool("int8", backend, rope=True),
            QuantizedBlockPool(HEADS, D_HEAD, page_size=PAGE, n_pages=8, rope_dims=D_HEAD),
        ]
        views = []
        for pool in pools:
            table = PageTable()
            pool.extend(table, keys, -keys, positions)
            if pool is pools[0]:
                kept = table.pages[: pool.pages_for(keep.shape[1])]
                assert any(p in pool.arena for p in kept)
            assert pool.gather(table, keep) == n - keep.shape[1]
            views.append(
                [v(table).tobytes() for v in (pool.keys_view, pool.values_view)]
            )
            assert pool.check_invariants(owners=[table]) == []
        assert views[0] == views[1]
        tiered, single = pools
        for attr in ("_qscale", "_qzero", "_qlo", "_qhi"):
            for name in single._qnames:
                assert np.array_equal(getattr(tiered, attr)[name], getattr(single, attr)[name])


def stamp_touches(pool) -> dict[int, int]:
    """Stamp every page the pool touches with a test-side clock, as the
    per-page ``last touch`` array ``_choose_victim`` used to read did: each
    ``_page_base`` call (the pool's one touch point) ticks the clock once,
    after the page has its frame."""
    stamps: dict[int, int] = {}
    clock = itertools.count(1)
    touch = pool._page_base

    def stamped(page):
        slot = touch(page)
        stamps[int(page)] = next(clock)
        return slot

    pool._page_base = stamped
    return stamps


def reference_victim(pool, stamps) -> int:
    """The per-frame loop ``_choose_victim`` replaced: minimal ``(rank, last
    touch, page)`` over unpinned resident pages."""
    best_key = None
    for frame in range(pool.n_frames):
        page = int(pool._frame_page[frame])
        if page < 0 or pool._pins.get(page):
            continue
        rank = pool.spill_ranker(page) if pool.spill_ranker is not None else 0
        key = (rank, stamps[page], page)
        if best_key is None or key < best_key:
            best_key = key
    if best_key is None:
        raise PoolExhausted("tier-0 frames exhausted")
    return best_key[2]


_TIER_OPS = st.lists(
    st.tuples(
        st.sampled_from(["touch", "touch", "restore", "release", "alloc", "pin", "unpin"]),
        st.integers(0, 11),
    ),
    min_size=20,
    max_size=80,
)


class TestChooseVictim:
    @settings(max_examples=200, deadline=None)
    @given(
        n_frames=st.integers(2, 5),
        ops=_TIER_OPS,
        ranks=st.one_of(st.none(), st.lists(st.integers(0, 2), min_size=12, max_size=12)),
    )
    def test_recency_order_matches_the_last_touch_stamps(self, n_frames, ops, ranks):
        # Small rank values on purpose: ties on rank are the interesting
        # case, and recency must break them as the stamps did.
        pool = make_pool(tier0_pages=n_frames, n_pages=12)
        stamps = stamp_touches(pool)
        if ranks is not None:
            pool.spill_ranker = ranks.__getitem__
        live = pool.alloc(8)  # more pages than frames: touches spill
        pinned: list[int] = []
        for op, pick in ops:
            try:
                want = reference_victim(pool, stamps)
            except PoolExhausted:
                with pytest.raises(PoolExhausted, match="tier-0 frames exhausted"):
                    pool._choose_victim()
            else:
                assert pool._choose_victim() == want
            if op == "alloc":
                if pool.free_pages:
                    live += pool.alloc(1)
                continue
            if op == "unpin":
                if pinned:
                    pool._unpin([pinned.pop(pick % len(pinned))])
                continue
            if not live:
                continue
            page = live[pick % len(live)]
            if op == "touch":
                try:
                    pool._page_base(page)  # restores, spilling a victim
                except PoolExhausted:
                    pass  # every frame pinned: nothing moved
            elif op == "restore":
                pool.restore_pages(live[pick % len(live) :])
            elif op == "release" and page not in pinned:
                live.remove(page)
                pool.release([page])
            elif op == "pin":
                pool._pin([page])
                pinned.append(page)
        pool._unpin(pinned)
        pool.release(live)
        assert pool.check_invariants() == []
        assert not pool._recency  # a freed page leaves the order
