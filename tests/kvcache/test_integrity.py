"""Unit tests for the pool-integrity auditor and the registry's pin report.

``BlockPool.check_invariants`` is the ground truth the serving engine's
:meth:`~repro.serving.engine.ContinuousBatchingEngine.check_invariants`
builds on; these tests pin what it catches (and what a clean pool looks
like) at the pool level, including the quantized pool's parameter checks.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from repro.kvcache.offload import TieredBlockPool, TieredQuantizedBlockPool
from repro.kvcache.paged import BlockPool, PageTable, PagedKVStore, PrefixRegistry
from repro.kvcache.quant import QuantizedBlockPool

HEADS, D_HEAD, PAGE = 2, 4, 4


def make_pool(cls=BlockPool, **kwargs):
    kwargs.setdefault("page_size", PAGE)
    kwargs.setdefault("n_pages", 8)
    return cls(HEADS, D_HEAD, **kwargs)


def seeded_table(pool, n_tokens, rng):
    table = PageTable()
    keys = rng.standard_normal((HEADS, n_tokens, D_HEAD))
    values = rng.standard_normal((HEADS, n_tokens, D_HEAD))
    positions = np.broadcast_to(np.arange(n_tokens), (HEADS, n_tokens))
    pool.extend(table, keys, values, positions)
    return table


class TestBlockPoolAudit:
    def test_fresh_pool_is_clean(self):
        pool = make_pool()
        assert pool.check_invariants() == []
        assert pool.check_invariants(owners=[]) == []

    def test_owner_accounting_matches(self):
        pool = make_pool()
        rng = np.random.default_rng(0)
        a = seeded_table(pool, 6, rng)
        b = seeded_table(pool, 3, rng)
        assert pool.check_invariants(owners=[a, b]) == []
        # A forked (shared) table is one more reference per page.
        fork = a.clone()
        pool.retain(fork.pages)
        assert pool.check_invariants(owners=[a, b, fork]) == []
        pool.release_table(fork)
        assert pool.check_invariants(owners=[a, b]) == []

    def test_detects_stale_contiguity_flag(self):
        """A page list mutated in place (not through ``PageTable``'s own
        methods) leaves the remembered contiguity wrong; reads would then
        take the zero-copy slab view over the wrong slots."""
        pool = make_pool()
        table = seeded_table(pool, 3 * PAGE, np.random.default_rng(7))
        assert pool.is_contiguous(table)
        table.pages[0], table.pages[1] = table.pages[1], table.pages[0]
        violations = pool.check_invariants(owners=[table])
        assert len(violations) == 1 and "contiguous" in violations[0]
        table.pages = list(table.pages)  # assignment forgets the stale answer
        assert not pool.is_contiguous(table)
        assert pool.check_invariants(owners=[table]) == []

    def test_detects_leaked_reference(self):
        pool = make_pool()
        rng = np.random.default_rng(1)
        table = seeded_table(pool, 5, rng)
        pool.refcounts[table.pages[0]] += 1  # simulate a lost release
        violations = pool.check_invariants(owners=[table])
        assert violations and "refcount" in violations[0]

    def test_detects_missing_owner(self):
        pool = make_pool()
        rng = np.random.default_rng(2)
        table = seeded_table(pool, 5, rng)
        # Claiming there are no owners at all: every mapped page is a leak.
        violations = pool.check_invariants(owners=[])
        assert len(violations) == len(table.pages)

    def test_detects_free_list_corruption(self):
        pool = make_pool()
        rng = np.random.default_rng(3)
        table = seeded_table(pool, 5, rng)
        heapq.heappush(pool._free, table.pages[0])  # free a still-mapped page
        violations = pool.check_invariants()
        assert any("free" in v for v in violations)

    def test_detects_shared_counter_drift(self):
        pool = make_pool()
        rng = np.random.default_rng(4)
        seeded_table(pool, 5, rng)
        pool._n_shared += 1
        violations = pool.check_invariants()
        assert any("shared-page counter" in v for v in violations)

    def test_detects_table_span_overflow(self):
        pool = make_pool()
        rng = np.random.default_rng(5)
        table = seeded_table(pool, 5, rng)
        table.length = table.allocated(pool.page_size) + 1
        violations = pool.check_invariants(owners=[table])
        assert any("spans" in v for v in violations)

    def test_pinned_pages_counted(self):
        pool = make_pool()
        rng = np.random.default_rng(6)
        table = seeded_table(pool, 5, rng)
        pool.retain(table.pages)  # a registry-style pin
        assert pool.check_invariants(owners=[table], pinned=table.pages) == []
        violations = pool.check_invariants(owners=[table])
        assert violations
        pool.release(table.pages)


class TestQuantizedPoolAudit:
    def test_clean_after_writes(self):
        pool = make_pool(QuantizedBlockPool, dtype=np.float64)
        rng = np.random.default_rng(7)
        table = seeded_table(pool, 7, rng)
        assert pool.check_invariants(owners=[table]) == []

    def test_detects_corrupted_scale(self):
        pool = make_pool(QuantizedBlockPool, dtype=np.float64)
        rng = np.random.default_rng(8)
        table = seeded_table(pool, 7, rng)
        pool._qscale["k"][table.pages[0]] *= 2.0  # params no longer match ranges
        violations = pool.check_invariants(owners=[table])
        assert violations and any("scale" in v or "param" in v for v in violations)

    def test_detects_nonfinite_range(self):
        pool = make_pool(QuantizedBlockPool, dtype=np.float64)
        rng = np.random.default_rng(9)
        table = seeded_table(pool, 7, rng)
        pool._qlo["v"][table.pages[0], 0] = np.nan
        violations = pool.check_invariants(owners=[table])
        assert violations

    def test_detects_shape_drift(self):
        pool = make_pool(QuantizedBlockPool, dtype=np.float64)
        pool._qzero["k"] = pool._qzero["k"][:-1]  # lost a page's params
        violations = pool.check_invariants()
        assert violations and any("shape" in v for v in violations)


class TestTieredPoolAudit:
    """Tier-state invariants of the offload pools (see ``repro.kvcache.offload``):
    page resident XOR spilled, mutually-inverse page↔frame maps, a free-frame
    list that is exactly the unmapped frames, no spill-index leaks and no
    leaked pins — plus the arena's own slot law (owned + free slots partition
    ``0..high-water``)."""

    def _tiered(self, cls=TieredBlockPool, **kwargs):
        kwargs.setdefault("tier0_pages", 3)
        kwargs.setdefault("spill_backend", "compressed")
        return make_pool(cls, **kwargs)

    def _spilled_page(self, pool, table):
        pages = [p for p in table.pages if p in pool.arena]
        assert pages, "expected the tight frame budget to have spilled a page"
        return pages[0]

    def test_clean_under_spill_pressure(self):
        rng = np.random.default_rng(20)
        for cls in (TieredBlockPool, TieredQuantizedBlockPool):
            pool = self._tiered(cls, dtype=np.float64)
            tables = [seeded_table(pool, 3 * PAGE, rng) for _ in range(2)]
            assert len(pool.arena) > 0  # 6 pages over 3 frames: cold pages spilled
            assert pool.check_invariants(owners=tables) == []

    def test_detects_page_resident_and_spilled(self):
        pool = self._tiered()
        rng = np.random.default_rng(21)
        table = seeded_table(pool, 5 * PAGE, rng)
        resident = next(p for p in table.pages if pool._page_frame[p] >= 0)
        spilled = self._spilled_page(pool, table)
        pool.arena.store(resident, pool.arena.load(spilled))  # stray double-home
        violations = pool.check_invariants(owners=[table])
        assert any("both resident and spilled" in v for v in violations)

    def test_detects_frame_map_divergence(self):
        pool = self._tiered()
        rng = np.random.default_rng(22)
        table = seeded_table(pool, 2 * PAGE, rng)
        frame = int(pool._page_frame[table.pages[0]])
        pool._frame_page[frame] = -1  # forward map no longer inverts
        violations = pool.check_invariants(owners=[table])
        assert any("owned by" in v or "free-frame" in v for v in violations)

    def test_detects_free_frame_list_corruption(self):
        pool = self._tiered()
        rng = np.random.default_rng(23)
        table = seeded_table(pool, 2 * PAGE, rng)
        heapq.heappush(pool._free_frames, int(pool._page_frame[table.pages[0]]))
        violations = pool.check_invariants(owners=[table])
        assert any("free-frame list" in v for v in violations)

    def test_detects_spill_index_leak(self):
        pool = self._tiered()
        rng = np.random.default_rng(24)
        table = seeded_table(pool, 5 * PAGE, rng)
        page = self._spilled_page(pool, table)
        payload = pool.arena.load(page)
        pool.release_table(table)  # drops every record…
        pool.arena.store(page, payload)  # …but one sneaks back in
        violations = pool.check_invariants()
        assert any("spill-index leak" in v for v in violations)

    def test_detects_leaked_pin(self):
        pool = self._tiered()
        rng = np.random.default_rng(25)
        table = seeded_table(pool, PAGE, rng)
        pool._pin([table.pages[0]])
        violations = pool.check_invariants(owners=[table])
        assert any("pin(s) leaked" in v for v in violations)
        pool._unpin([table.pages[0]])
        assert pool.check_invariants(owners=[table]) == []

    @pytest.mark.parametrize("backend", ("compressed", "mmap"))
    def test_detects_leaked_or_doubly_owned_arena_slot(self, backend):
        pool = self._tiered(spill_backend=backend)
        rng = np.random.default_rng(26)
        table = seeded_table(pool, 5 * PAGE, rng)
        a, b = [p for p in table.pages if p in pool.arena][:2]
        pool.arena._high += 1  # a slot handed out but owned by no page
        violations = pool.check_invariants(owners=[table])
        assert any("do not partition" in v for v in violations)
        pool.arena._high -= 1
        assert pool.check_invariants(owners=[table]) == []
        slot_b = pool.arena._slots[b]
        pool.arena._slots[b] = pool.arena._slots[a]  # two pages, one record
        violations = pool.check_invariants(owners=[table])
        assert any("do not partition" in v for v in violations)
        pool.arena._slots[b] = slot_b
        assert pool.check_invariants(owners=[table]) == []

    def test_release_drops_arena_records(self):
        pool = self._tiered()
        rng = np.random.default_rng(27)
        table = seeded_table(pool, 5 * PAGE, rng)
        assert len(pool.arena) > 0
        pool.release_table(table)
        assert len(pool.arena) == 0  # refcount-0 pages leave the spill index
        assert pool.check_invariants() == []


class TestStoreAndRegistryAudit:
    def _store(self, n_layers=2):
        return PagedKVStore(
            n_layers, HEADS, D_HEAD, page_size=PAGE, n_pages=16, growable=False
        )

    def test_store_aggregates_layer_labels(self):
        store = self._store()
        rng = np.random.default_rng(10)
        tables = [seeded_table(store.pools[i], 5, rng) for i in range(2)]
        assert store.check_invariants([[t] for t in tables]) == []
        store.pools[1].refcounts[tables[1].pages[0]] += 1
        violations = store.check_invariants([[t] for t in tables])
        assert violations and "layer 1" in violations[0]
        store.pools[1].refcounts[tables[1].pages[0]] -= 1

    def test_registry_pinned_pages_reports_chunks(self):
        store = self._store()
        registry = PrefixRegistry(store)
        rng = np.random.default_rng(11)
        tables = [seeded_table(pool, 2 * PAGE, rng) for pool in store.pools]
        token_ids = rng.integers(0, 50, size=2 * PAGE).astype(np.int64)
        registry.register(token_ids, tables)
        pinned = registry.pinned_pages()
        assert len(pinned) == 2
        for layer, pages in enumerate(pinned):
            assert pages  # page-aligned chunks were pinned
            assert set(pages) <= set(tables[layer].pages)
        # The audit balances: tables + pins account for every refcount.
        assert store.check_invariants([[t] for t in tables], pinned) == []
        registry.clear()
        assert registry.pinned_pages() == [[], []]
        assert store.check_invariants([[t] for t in tables]) == []
