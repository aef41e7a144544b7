"""Unit tests for the tiered KV-offload machinery (``repro.kvcache.offload``).

The equivalence wall (``test_offload_equivalence.py``) proves whole-engine
bit-exactness; these tests pin the mechanics underneath it — the two arena
backends, frame assignment and victim selection, spill/restore byte
round-trips, pinning, bulk prefetch restore, logical growth, telemetry, and
the knob plumbing through :class:`~repro.kvcache.paged.PagedKVStore`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import KeyformerConfig
from repro.core.keyformer import KeyformerPolicy
from repro.core.policies import FullAttentionPolicy
from repro.kvcache.batch import BatchedCacheManager

from repro.kvcache.offload import (
    SPILL_BACKENDS,
    CompressedSpillArena,
    MmapSpillArena,
    TieredBlockPool,
    TieredQuantizedBlockPool,
    resolve_spill_arena,
    resolve_tiered_pool_class,
)
from repro.kvcache.paged import (
    BlockPool,
    KVStoreConfig,
    PagedKVStore,
    PageTable,
    PoolExhausted,
)
from repro.kvcache.quant import QuantizedBlockPool

HEADS, D_HEAD, PAGE = 2, 4, 4


def make_pool(cls=TieredBlockPool, **kwargs):
    kwargs.setdefault("page_size", PAGE)
    kwargs.setdefault("n_pages", 8)
    kwargs.setdefault("tier0_pages", 3)
    return cls(HEADS, D_HEAD, **kwargs)


def seeded_table(pool, n_tokens, rng):
    table = PageTable()
    keys = rng.standard_normal((HEADS, n_tokens, D_HEAD))
    values = rng.standard_normal((HEADS, n_tokens, D_HEAD))
    positions = np.broadcast_to(np.arange(n_tokens), (HEADS, n_tokens))
    pool.extend(table, keys, values, positions)
    return table, keys, values


class TestArenas:
    @pytest.mark.parametrize("backend", SPILL_BACKENDS)
    def test_store_load_roundtrip_is_byte_exact(self, backend):
        arena = resolve_spill_arena(backend, record_nbytes=64)
        payloads = {p: bytes([p % 256]) * 64 for p in (0, 3, 17)}
        for page, payload in payloads.items():
            arena.store(page, payload)
        assert len(arena) == 3
        assert sorted(arena.keys()) == [0, 3, 17]
        for page, payload in payloads.items():
            assert page in arena
            assert arena.load(page) == payload
        arena.drop(3)
        assert 3 not in arena and len(arena) == 2
        arena.drop(3)  # idempotent
        arena.close()

    @pytest.mark.parametrize("backend", SPILL_BACKENDS)
    def test_overwrite_replaces_record(self, backend):
        arena = resolve_spill_arena(backend, record_nbytes=16)
        arena.store(5, b"a" * 16)
        arena.store(5, b"b" * 16)
        assert arena.load(5) == b"b" * 16
        assert len(arena) == 1
        arena.close()

    def test_mmap_grows_by_doubling_and_reuses_slots(self):
        arena = MmapSpillArena(record_nbytes=8)
        for page in range(20):  # crosses the 8-record floor and one doubling
            arena.store(page, page.to_bytes(1, "little") * 8)
        assert arena._capacity >= 20
        for page in range(20):
            assert arena.load(page) == page.to_bytes(1, "little") * 8
        arena.drop(0)
        arena.store(99, b"z" * 8)  # freed slot is reused lowest-first
        assert arena._slots[99] == 0
        assert arena.nbytes() == 20 * 8
        arena.close()

    def test_mmap_rejects_wrong_record_size(self):
        arena = MmapSpillArena(record_nbytes=8)
        with pytest.raises(ValueError, match="arena records are 8"):
            arena.store(0, b"too short")
        arena.close()
        with pytest.raises(ValueError):
            MmapSpillArena(record_nbytes=0)

    @pytest.mark.parametrize("backend", SPILL_BACKENDS)
    def test_nbytes_is_live_records_times_record_size(self, backend):
        arena = resolve_spill_arena(backend, record_nbytes=4096)
        assert arena.nbytes() == 0
        for page in range(5):
            arena.store(page, b"\x00" * 4096)  # zeros: nothing shrinks them
        arena.store(2, b"\x01" * 4096)  # an overwrite is not a new record
        arena.drop(4)
        assert arena.nbytes() == 4 * 4096 == len(arena) * arena.record_nbytes
        assert arena.owned_slots() == 4
        arena.close()
        assert len(arena) == 0 and arena.nbytes() == 0 and arena.owned_slots() == 0

    def test_resolve_rejects_unknown_backend(self):
        assert isinstance(resolve_spill_arena(None, 8), CompressedSpillArena)
        with pytest.raises(ValueError, match="unknown spill_backend"):
            resolve_spill_arena("tape", 8)


class TestTieredPoolMechanics:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="tier0_pages must be >= 2"):
            make_pool(tier0_pages=1)
        with pytest.raises(ValueError, match="unknown spill_backend"):
            make_pool(spill_backend="tape")

    def test_slabs_sized_to_frames_not_pages(self):
        pool = make_pool()
        assert pool.n_pages == 8
        assert pool.n_frames == 3
        assert pool._k.shape[1] == 3 * PAGE  # physical slots = frames
        assert pool.is_contiguous(PageTable()) is False

    @pytest.mark.parametrize("backend", SPILL_BACKENDS)
    def test_spill_restore_roundtrip_reproduces_bytes(self, backend):
        pool = make_pool(spill_backend=backend)
        rng = np.random.default_rng(0)
        table, keys, values = seeded_table(pool, 6 * PAGE, rng)  # > frames
        assert len(pool.arena) == 6 - pool.n_frames
        got_k = pool.token_view(table, pool._k)
        got_v = pool.token_view(table, pool._v)
        assert got_k.tobytes() == keys.tobytes()
        assert got_v.tobytes() == values.tobytes()
        assert pool.check_invariants(owners=[table]) == []

    def test_victim_selection_is_lru_by_default(self):
        pool = make_pool()
        rng = np.random.default_rng(1)
        table, _, _ = seeded_table(pool, 3 * PAGE, rng)
        a, b, c = table.pages
        pool._page_base(a)  # touch: a is now the hottest
        pool._page_base(b)
        pool._page_base(c)
        pool._page_base(a)
        assert pool._choose_victim() == b  # coldest of the residents

    def test_spill_ranker_outranks_recency(self):
        pool = make_pool()
        rng = np.random.default_rng(2)
        table, _, _ = seeded_table(pool, 3 * PAGE, rng)
        a, b, c = table.pages
        pool._page_base(a)  # LRU would evict b next…
        pool.spill_ranker = lambda page: 0 if page == c else 1
        assert pool._choose_victim() == c  # …but the ranker marks c coldest

    def test_all_frames_pinned_raises_pool_exhausted(self):
        pool = make_pool()
        rng = np.random.default_rng(3)
        table, _, _ = seeded_table(pool, 3 * PAGE, rng)
        pool._pin(table.pages)
        with pytest.raises(PoolExhausted, match="tier-0 frames exhausted"):
            pool._choose_victim()
        pool._unpin(table.pages)
        assert pool._pins == {}

    def test_ensure_resident_rejects_oversized_sets(self):
        pool = make_pool()
        rng = np.random.default_rng(4)
        table, _, _ = seeded_table(pool, 5 * PAGE, rng)
        with pytest.raises(PoolExhausted, match="simultaneously resident"):
            pool._ensure_resident(table.pages)

    def test_restore_pages_bulk_prefetch(self):
        pool = make_pool()
        rng = np.random.default_rng(5)
        table, _, _ = seeded_table(pool, 6 * PAGE, rng)
        spilled = [p for p in table.pages if p in pool.arena]
        assert len(spilled) == 3
        restored = pool.restore_pages(table.pages)
        assert restored == pool.n_frames  # as many as tier-0 holds
        assert all(pool.tier_page_state(p) == "resident" for p in spilled)
        assert pool._pins == {}  # prefetch pins are transient
        # Already-resident, out-of-range and unknown pages are no-ops.
        assert pool.restore_pages(spilled + [-1, 10_000]) == 0
        assert pool.check_invariants(owners=[table]) == []

    def test_release_frees_frames_and_arena_records(self):
        pool = make_pool()
        rng = np.random.default_rng(6)
        table, _, _ = seeded_table(pool, 6 * PAGE, rng)
        pool.release_table(table)
        assert len(pool.arena) == 0
        assert sorted(pool._free_frames) == list(range(pool.n_frames))
        assert pool.check_invariants() == []

    def test_logical_growth_keeps_frames_fixed(self):
        pool = make_pool(n_pages=4, growable=True)
        rng = np.random.default_rng(7)
        table, keys, _ = seeded_table(pool, 10 * PAGE, rng)  # forces _grow
        assert pool.n_pages >= 10
        assert pool.n_frames == 3  # growth buys spillable capacity only
        assert pool.token_view(table, pool._k).tobytes() == keys.tobytes()
        assert pool.check_invariants(owners=[table]) == []

    def test_tier_usage_telemetry_counts_traffic(self):
        pool = make_pool()
        rng = np.random.default_rng(8)
        table, _, _ = seeded_table(pool, 6 * PAGE, rng)
        usage = pool.tier_usage()
        assert usage["tier0_frames"] == 3
        assert usage["resident_pages"] == 3
        assert usage["spilled_pages"] == 3
        assert usage["spills"] >= 3 and usage["spill_bytes"] > 0
        payload_nbytes = pool._payload_nbytes()
        assert usage["spill_bytes"] == usage["spills"] * payload_nbytes
        pool.token_view(table, pool._k)  # forces restores
        after = pool.tier_usage()
        assert after["restores"] > 0
        assert after["restore_bytes"] == after["restores"] * payload_nbytes
        states = {pool.tier_page_state(p) for p in range(pool.n_pages)}
        assert states <= {"resident", "spilled", "free"}

    def test_spill_hook_fault_leaves_state_unchanged(self):
        pool = make_pool()
        rng = np.random.default_rng(9)
        table, _, _ = seeded_table(pool, 3 * PAGE, rng)
        before = {
            "frames": pool._page_frame.copy(),
            "arena": sorted(pool.arena.keys()),
            "spills": pool.n_spills,
        }

        def boom():
            raise RuntimeError("injected spill fault")

        pool.spill_hook = boom
        bad = PageTable()
        keys = rng.standard_normal((HEADS, PAGE, D_HEAD))
        positions = np.broadcast_to(np.arange(PAGE), (HEADS, PAGE))
        with pytest.raises(RuntimeError, match="injected spill fault"):
            pool.extend(bad, keys, keys, positions)  # needs a frame -> spills
        # The transfer fault fired before any mutation: residency maps, the
        # arena and the spill counters are exactly as they were.
        assert np.array_equal(pool._page_frame, before["frames"])
        assert sorted(pool.arena.keys()) == before["arena"]
        assert pool.n_spills == before["spills"]
        pool.spill_hook = None
        pool.release_table(bad)  # the caller unwinds its own failed alloc
        assert pool.check_invariants(owners=[table]) == []


class TestTieredQuantizedPool:
    def test_param_rows_travel_with_the_payload(self):
        # (Historical name: the rows stay in RAM, indexed by logical page;
        # only the codes travel.)
        pool = make_pool(TieredQuantizedBlockPool, dtype=np.float64)
        rng = np.random.default_rng(10)
        table, keys, values = seeded_table(pool, 6 * PAGE, rng)
        spilled = [p for p in table.pages if p in pool.arena]
        assert spilled
        # Round-trip through the arena: dequantized reads equal a fresh
        # single-tier quantized pool writing the same history.
        ref = QuantizedBlockPool(HEADS, D_HEAD, page_size=PAGE, n_pages=8)
        ref_table = PageTable()
        positions = np.broadcast_to(np.arange(6 * PAGE), (HEADS, 6 * PAGE))
        ref.extend(ref_table, keys, values, positions)
        got = pool.token_view(table, pool._k)
        want = ref.token_view(ref_table, ref._k)
        assert got.tobytes() == want.tobytes()
        assert pool.check_invariants(owners=[table]) == []

    def test_reset_mirrors_into_spilled_records(self):
        pool = make_pool(TieredQuantizedBlockPool, dtype=np.float64)
        rng = np.random.default_rng(11)
        table, _, _ = seeded_table(pool, 6 * PAGE, rng)
        page = next(p for p in table.pages if p in pool.arena)
        pool._reset_page_params([page])
        # Records hold codes only, so the reset has nothing to mirror: the
        # live params are the single copy and the page restores under them.
        assert np.isinf(pool._qlo["k"][page]).all()
        pool._page_base(page)
        assert np.isinf(pool._qlo["k"][page]).all()
        assert pool.check_invariants(owners=[table]) == []


class TestKnobPlumbing:
    def test_resolve_tiered_pool_class(self):
        assert resolve_tiered_pool_class(BlockPool) is TieredBlockPool
        assert resolve_tiered_pool_class(QuantizedBlockPool) is TieredQuantizedBlockPool
        with pytest.raises(ValueError, match="no tiered variant"):
            resolve_tiered_pool_class(int)

    def test_store_builds_tiered_pools(self):
        store = PagedKVStore(
            2, HEADS, D_HEAD, page_size=PAGE, n_pages=8, growable=False,
            tier0_pages=3, spill_backend="mmap",
        )
        assert store.tier0_frames() == 3
        for pool in store.pools:
            assert isinstance(pool, TieredBlockPool)
            assert pool.spill_backend == "mmap"
        usage = store.usage()
        assert usage["tier"]["tier0_frames"] == 3
        assert usage["tier"]["resident_pages"] == 0

    def test_store_without_offload_has_no_tier(self):
        store = PagedKVStore(2, HEADS, D_HEAD, page_size=PAGE, n_pages=8)
        assert store.tier0_frames() is None
        assert "tier" not in store.usage()

    def test_store_rejects_backend_without_budget(self):
        with pytest.raises(ValueError, match="spill_backend requires"):
            PagedKVStore(
                2, HEADS, D_HEAD, page_size=PAGE, n_pages=8, spill_backend="mmap"
            )

    @pytest.mark.parametrize(
        "knobs, message",
        [
            (dict(spill_backend="mmap"), "spill_backend requires tier0_budget"),
            (dict(tier0_budget=0), "tier0_budget must be positive"),
            (dict(tier0_budget=4096, spill_backend="tape"), "unknown spill_backend 'tape'"),
            (dict(admission_policy="fifo"), "unknown admission_policy 'fifo'"),
            (dict(kv_dtype="fp4"), "unknown kv_dtype 'fp4'"),
            (dict(max_pool_tokens=64, max_pool_bytes=4096), "either max_pool_tokens or"),
        ],
    )
    def test_store_and_manager_reject_what_the_config_rejects(self, knobs, message):
        """Validation lives in ``KVStoreConfig.__post_init__`` alone, so the
        low-level front-ends reject exactly what the engine does."""
        for build in (
            lambda: KVStoreConfig(**knobs),
            lambda: PagedKVStore(2, HEADS, D_HEAD, **knobs),
            lambda: BatchedCacheManager(2, HEADS, D_HEAD, max_batch=2, **knobs),
        ):
            with pytest.raises(ValueError, match=message):
                build()

    def test_store_and_manager_take_config_or_keywords(self):
        config = KVStoreConfig(page_size=PAGE, tier0_budget=4096, spill_backend="mmap")
        # The engine's path: budgets already resolved, knobs in the config.
        manager = BatchedCacheManager(
            2, HEADS, D_HEAD, max_batch=2, n_pages=8, tier0_pages=3, config=config
        )
        assert manager.store.config == config
        assert manager.store.page_size == PAGE and not manager.store.growable
        for pool in manager.store.pools:
            assert isinstance(pool, TieredBlockPool) and pool.n_frames == 3
            assert pool.spill_backend == "mmap"
        # Keywords override a config through the same construction path.
        store = PagedKVStore(2, HEADS, D_HEAD, n_pages=8, config=config, kv_dtype="int8")
        assert store.config == dataclasses.replace(config, kv_dtype="int8")
        assert isinstance(store.pools[0], QuantizedBlockPool)
        # A bare manager resolves its own token budget (whole pages, fixed).
        manager = BatchedCacheManager(
            1, HEADS, D_HEAD, max_batch=1, page_size=PAGE, max_pool_tokens=3 * PAGE + 1
        )
        assert manager.store.pools[0].n_pages == 4 and not manager.store.growable
        for build in (PagedKVStore, lambda *a, **k: BatchedCacheManager(*a, max_batch=1, **k)):
            with pytest.raises(TypeError, match="pagesize"):
                build(2, HEADS, D_HEAD, pagesize=PAGE)

    def test_spill_ranker_installed_only_when_the_registry_ranks(self):
        """Under the default ``"lru"`` admission every page ranks 0, so the
        pools keep their own LRU order and pay no per-frame callback."""
        tiered = dict(max_batch=2, n_pages=8, tier0_pages=3, page_size=PAGE, tier0_budget=4096)
        manager = BatchedCacheManager(2, HEADS, D_HEAD, **tiered)
        assert [pool.spill_ranker for pool in manager.store.pools] == [None, None]
        manager = BatchedCacheManager(2, HEADS, D_HEAD, admission_policy="wtinylfu", **tiered)
        assert all(pool.spill_ranker is not None for pool in manager.store.pools)

    @pytest.mark.parametrize("admission", ["lru", "wtinylfu"])
    def test_protected_prefix_page_outlives_a_newer_unregistered_page(self, admission):
        """Two frames: a registered prefix page, then a more recently touched
        unregistered page.  A third page needs a frame: pure LRU spills the
        prefix page, the W-TinyLFU ranking spills the unregistered one."""
        rng = np.random.default_rng(0)
        manager = BatchedCacheManager(
            1, HEADS, D_HEAD, max_batch=1, n_pages=8, tier0_pages=2, page_size=PAGE,
            tier0_budget=4096, admission_policy=admission,
        )
        pool, registry = manager.store.pools[0], manager.registry
        prefix, _, _ = seeded_table(pool, PAGE, rng)
        tokens = np.arange(PAGE)
        for _ in range(3):  # window -> probation -> protected
            registry.register(tokens, [prefix])
        newer, _, _ = seeded_table(pool, PAGE, rng)
        (hot,), (cold,) = prefix.pages, newer.pages
        assert registry.page_heat(0, hot) == (3 if admission == "wtinylfu" else 0)
        assert registry.page_heat(0, cold) == 0
        seeded_table(pool, PAGE, rng)  # needs one of the two frames
        spilled, kept = (cold, hot) if admission == "wtinylfu" else (hot, cold)
        assert pool.tier_page_state(spilled) == "spilled"
        assert pool.tier_page_state(kept) == "resident"


class TestObserveBatchUnderOffload:
    """FINDING 4 of ``benchmarks/e2e/README.md``: a policy that keeps the base
    no-op ``step_selection`` reads none of its arguments, so observing its row
    must not stream the row's pages through tier-0 to build them."""

    def _manager(self, policy):
        rng = np.random.default_rng(5)
        manager = BatchedCacheManager(
            1, HEADS, D_HEAD, max_batch=1, page_size=PAGE, tier0_pages=2
        )
        t = 6 * PAGE  # three times the resident frames
        keys = rng.standard_normal((1, HEADS, t, D_HEAD))
        attn = np.full((1, HEADS, t, t), 1.0 / t)
        manager.join([(keys, keys.copy())], [attn], [np.log(attn)], 4, policy)
        return manager, t

    def test_noop_policy_row_reads_no_pages(self):
        manager, t = self._manager(FullAttentionPolicy())
        before = manager.pool_usage()["tier"]
        assert before["spills"] > 0  # the row really is mostly spilled
        step = np.zeros((1, HEADS, t))
        manager.observe_batch(0, step, step)
        assert manager.pool_usage()["tier"] == before

    def test_policy_that_declares_positions_still_gets_them(self):
        """Fixed-per-sequence noise is indexed by original position — the one
        reader of ``key_positions`` — and sees them stacked per layer."""
        policy = KeyformerPolicy(
            KeyformerConfig(kv_budget=5 * PAGE, recent_ratio=1.0, noise_resample="fixed")
        )
        assert policy.needs_key_positions
        manager, _ = self._manager(policy)
        t = manager.caches[0].tables[0].length  # the prompt phase kept 5 pages
        seen = []
        select = policy.step_selection
        policy.step_selection = lambda layer, logits, probs, positions, step: (
            seen.append(positions.copy()) or select(layer, logits, probs, positions, step)
        )
        step = np.zeros((1, HEADS, t))
        manager.observe_batch(0, step, step)
        assert seen[0].shape == (1, 1, HEADS, t)  # (layers, B, H, L)
        np.testing.assert_array_equal(seen[0][0, 0, 0], np.arange(PAGE, 6 * PAGE))

    def test_per_step_noise_row_reads_no_positions(self):
        """Per-step noise never looks at positions: observing such a row must
        not materialize them — no ``positions_view`` read, no restore."""
        policy = KeyformerPolicy(KeyformerConfig(kv_budget=5 * PAGE))
        assert not policy.needs_key_positions
        manager, _ = self._manager(policy)
        t = manager.caches[0].tables[0].length
        pool = manager.store.pools[0]
        reads = []
        positions_view = pool.positions_view
        pool.positions_view = lambda table: reads.append(table) or positions_view(table)
        before = manager.pool_usage()["tier"]
        assert before["spills"] > 0
        step = np.zeros((1, HEADS, t))
        manager.observe_batch(0, step, step)
        assert reads == []
        assert manager.pool_usage()["tier"] == before
        assert policy.score.get(0).shape == (1, HEADS, t)  # the step was scored
