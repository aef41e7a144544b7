"""Property tests for `repro.kvcache.admission` (sketch, W-TinyLFU SLRU, LRU).

Covers the count-min sketch's never-under-count and conservative-update
guarantees, exact aging semantics, the SLRU segment invariants under random
access streams, the ``"lru"`` policy's recency order against the per-chunk
``last_used`` stamps it replaced (kept here as the reference), and the
registry-level parent-chain reclaim guard the admission path must never
violate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvcache.admission import (
    ADMISSION_POLICIES,
    FrequencySketch,
    LRUAdmissionPolicy,
    WTinyLFUAdmissionPolicy,
    resolve_admission_policy,
)
from repro.kvcache.paged import (
    PagedKVStore,
    PageTable,
    PoolIntegrityError,
    PrefixRegistry,
    chunk_digest,
)

H, D, PS = 2, 4, 8

_KEYS = st.integers(min_value=0, max_value=63)
_STREAMS = st.lists(_KEYS, min_size=1, max_size=200)


class TestFrequencySketch:
    @settings(max_examples=40, deadline=None)
    @given(stream=_STREAMS)
    def test_never_under_counts(self, stream):
        """Without aging, estimate(k) >= true count of k, for every k."""
        sketch = FrequencySketch(width=64, depth=4, sample_size=None)
        for key in stream:
            sketch.record(key)
        for key in set(stream):
            assert sketch.estimate(key) >= stream.count(key)

    @settings(max_examples=40, deadline=None)
    @given(stream=_STREAMS)
    def test_conservative_pointwise_below_plain(self, stream):
        """Conservative update never exceeds the plain update, anywhere."""
        cons = FrequencySketch(width=64, depth=4, sample_size=None, conservative=True)
        plain = FrequencySketch(width=64, depth=4, sample_size=None, conservative=False)
        for key in stream:
            cons.record(key)
            plain.record(key)
        assert np.all(cons._tables <= plain._tables)
        # Conservative update still never under-counts.
        for key in set(stream):
            assert cons.estimate(key) >= stream.count(key)

    @settings(max_examples=30, deadline=None)
    @given(stream=st.lists(_KEYS, min_size=1, max_size=120), sample=st.integers(5, 25))
    def test_aging_halves_once_per_threshold_crossing(self, stream, sample):
        """Every `sample` increments trigger exactly one halving pass."""
        sketch = FrequencySketch(width=64, depth=4, sample_size=sample)
        for i, key in enumerate(stream, start=1):
            agings_before = sketch.n_agings
            sketch.record(key)
            if i % sample == 0:
                assert sketch.n_agings == agings_before + 1
                assert sketch.ops_since_aging == 0
            else:
                assert sketch.n_agings == agings_before
                assert sketch.ops_since_aging == i % sample
        assert sketch.n_agings == len(stream) // sample
        assert sketch.n_increments == len(stream)
        # Re-derive the exact final table from scratch to pin the halving
        # arithmetic.
        replay = FrequencySketch(width=64, depth=4, sample_size=None)
        shadow = np.zeros_like(replay._tables)
        for i, key in enumerate(stream, start=1):
            idxs = replay._indexes(key)
            floor = min(int(shadow[row, idx]) for row, idx in enumerate(idxs))
            if floor < 255:
                for row, idx in enumerate(idxs):
                    if shadow[row, idx] == floor:
                        shadow[row, idx] = floor + 1
            if i % sample == 0:
                shadow >>= 1
        assert np.array_equal(sketch._tables, shadow)

    def test_aging_halves_hot_counter_exactly(self):
        sketch = FrequencySketch(width=64, depth=4, sample_size=10)
        for _ in range(9):
            sketch.record(7)
        assert sketch.estimate(7) == 9
        sketch.record(7)  # 10th increment crosses the threshold
        assert sketch.n_agings == 1
        assert sketch.estimate(7) == 5  # 10 >> 1
        assert sketch.ops_since_aging == 0

    def test_counter_saturation_cap(self):
        sketch = FrequencySketch(width=64, depth=2, sample_size=None)
        for _ in range(300):
            sketch.record(1)
        assert sketch.estimate(1) == 255

    def test_width_rounds_up_to_power_of_two(self):
        assert FrequencySketch(width=1).width == 64
        assert FrequencySketch(width=100).width == 128

    def test_bytes_and_int_keys_are_process_stable(self):
        sketch = FrequencySketch(width=64, sample_size=None)
        key = bytes(range(16))
        sketch.record(key)
        assert sketch.estimate(key) >= 1
        assert FrequencySketch(width=64)._indexes(key) == sketch._indexes(key)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            FrequencySketch(depth=0)
        with pytest.raises(ValueError):
            FrequencySketch(sample_size=0)


def _apply_ops(policy, ops):
    """Drive a policy through an op stream, maintaining the tracked shadow set.

    Ops are (kind, key) pairs: 0=insert, 1=access, 2=drop, 3=choose_victim
    over the full tracked set.  Returns the shadow tracked set.
    """
    tracked: set = set()
    for kind, key in ops:
        if kind == 0:
            policy.on_insert(key)
            tracked.add(key)
        elif kind == 1 and tracked:
            key = sorted(tracked)[key % len(tracked)]
            policy.on_access(key)
        elif kind == 2 and tracked:
            key = sorted(tracked)[key % len(tracked)]
            policy.on_drop(key)
            tracked.discard(key)
        elif kind == 3 and tracked:
            victim = policy.choose_victim(sorted(tracked))
            policy.on_drop(victim)
            tracked.discard(victim)
    return tracked


class TestSLRUInvariants:
    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 30)), min_size=1, max_size=120
        ),
        capacity=st.integers(4, 24),
    )
    def test_segments_stay_invariant_under_random_streams(self, ops, capacity):
        """Disjoint segments, capacity bounds, tracked-set consistency."""
        policy = WTinyLFUAdmissionPolicy(capacity=capacity)
        tracked = _apply_ops(policy, ops)
        assert policy.audit(tracked) == []
        segs = policy.segments()
        all_keys = segs["window"] + segs["probation"] + segs["protected"]
        assert len(all_keys) == len(set(all_keys))  # no key in two segments
        assert set(all_keys) == tracked
        assert len(segs["window"]) <= policy.window_cap
        assert len(segs["protected"]) <= policy.protected_cap
        assert len(policy) == len(tracked)

    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 30)), min_size=1, max_size=80
        )
    )
    def test_choose_victim_always_returns_eligible(self, ops):
        policy = WTinyLFUAdmissionPolicy(capacity=8)
        tracked = _apply_ops(policy, ops)
        if tracked:
            eligible = sorted(tracked)
            victim = policy.choose_victim(eligible)
            assert victim in eligible

    def test_window_spills_lru_to_probation(self):
        policy = WTinyLFUAdmissionPolicy(capacity=10)  # window_cap 2
        for key in (1, 2, 3):
            policy.on_insert(key)
        assert policy.segment_of(1) == "probation"  # oldest spilled
        assert policy.segments()["window"] == [2, 3]

    def test_access_promotes_window_probation_protected(self):
        policy = WTinyLFUAdmissionPolicy(capacity=10)
        policy.on_insert(1)
        assert policy.segment_of(1) == "window"
        policy.on_access(1)
        assert policy.segment_of(1) == "probation"
        policy.on_access(1)
        assert policy.segment_of(1) == "protected"
        policy.on_access(1)  # protected hit only refreshes recency
        assert policy.segment_of(1) == "protected"

    def test_protected_overflow_demotes_lru_to_probation_mru(self):
        policy = WTinyLFUAdmissionPolicy(capacity=4)  # window 1, protected 2
        for key in (1, 2, 3):
            policy.on_insert(key)
            policy.on_access(key)  # window -> probation
            policy.on_access(key)  # probation -> protected
        # Protected cap is 2: promoting 3 demoted the protected LRU (1) back
        # to probation's MRU end.
        assert policy.segments()["protected"] == [2, 3]
        assert policy.segment_of(1) == "probation"

    def test_competitive_admission_prefers_frequent_candidate(self):
        policy = WTinyLFUAdmissionPolicy(
            capacity=8, sketch=FrequencySketch(width=64, sample_size=None)
        )
        cold, hot = b"cold-chunk-key\x00\x01", b"hot-chunk-key\x00\x02"
        policy.on_insert(cold)
        policy.on_access(cold)  # cold sits in probation, frequency 2
        policy.on_insert(hot)
        for _ in range(4):
            policy.sketch.record(hot)  # hot is sketched far above cold
        victim = policy.choose_victim([cold, hot])
        assert victim == cold  # hot admitted at cold's expense
        assert policy.segment_of(hot) == "probation"
        assert policy.n_admitted == 1

    def test_infrequent_candidate_is_rejected(self):
        policy = WTinyLFUAdmissionPolicy(
            capacity=8, sketch=FrequencySketch(width=64, sample_size=None)
        )
        resident, scan = b"resident-key\x00\x03", b"scan-key\x00\x04"
        policy.on_insert(resident)
        policy.on_access(resident)
        policy.on_insert(scan)
        victim = policy.choose_victim([resident, scan])
        assert victim == scan  # ties never dislodge the incumbent
        assert policy.n_rejected == 1

    def test_choose_victim_empty_raises(self):
        with pytest.raises(ValueError):
            WTinyLFUAdmissionPolicy(capacity=4).choose_victim([])

    def test_audit_flags_stale_and_missing_keys(self):
        policy = WTinyLFUAdmissionPolicy(capacity=8)
        policy.on_insert(1)
        assert any("no segment" in v for v in policy.audit({1, 2}))
        assert any("stale" in v for v in policy.audit(set()))

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            WTinyLFUAdmissionPolicy(capacity=0)
        with pytest.raises(ValueError):
            WTinyLFUAdmissionPolicy(window_fraction=1.5)
        with pytest.raises(ValueError):
            WTinyLFUAdmissionPolicy(protected_fraction=0.0)


class TestResolveAdmissionPolicy:
    def test_lru_and_none_resolve_to_the_lru_policy(self):
        assert isinstance(resolve_admission_policy(None, 16), LRUAdmissionPolicy)
        assert isinstance(resolve_admission_policy("lru", 16), LRUAdmissionPolicy)

    def test_wtinylfu_resolves_sized_policy(self):
        policy = resolve_admission_policy("wtinylfu", 16)
        assert isinstance(policy, WTinyLFUAdmissionPolicy)
        assert policy.capacity == 16

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="admission_policy"):
            resolve_admission_policy("fifo", 16)
        assert ADMISSION_POLICIES == ("lru", "wtinylfu")


class TestLRUAdmissionPolicy:
    def test_victim_is_the_least_recently_touched_eligible_key(self):
        policy = LRUAdmissionPolicy()
        for key in (1, 2, 3):
            policy.on_insert(key)
        policy.on_access(1)
        assert policy.choose_victim([1, 2, 3]) == 2
        assert policy.choose_victim([3, 1]) == 3
        policy.on_drop(3)
        assert policy.choose_victim([3, 1]) == 1
        assert policy.segment_of(1) == "lru" and policy.segment_of(3) is None
        assert policy.telemetry() == {} and not policy.segment_heat

    def test_choose_victim_empty_raises(self):
        with pytest.raises(ValueError):
            LRUAdmissionPolicy().choose_victim([])

    def test_audit_flags_stale_and_missing_keys(self):
        policy = LRUAdmissionPolicy()
        policy.on_insert(1)
        assert policy.audit({1}) == []
        assert any("no segment" in v for v in policy.audit({1, 2}))
        assert any("stale" in v for v in policy.audit(set()))


def _chunk_keys(tokens, page_size):
    """The registry's chained chunk keys of ``tokens``, root first."""
    keys, parent = [], None
    for i in range(len(tokens) // page_size):
        parent = chunk_digest(tokens[i * page_size : (i + 1) * page_size], parent)
        keys.append(parent)
    return keys


#: A prompt is 1-4 pages, each page one repeated token from {0, 1, 2}, so
#: random prompts share prefixes and chains branch.
_PROMPTS = st.lists(st.integers(0, 2), min_size=1, max_size=4)
_REGISTRY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("register"), _PROMPTS, st.booleans()),
        st.tuples(st.just("match"), _PROMPTS),
        st.tuples(st.just("reclaim"), st.integers(1, 3)),
        st.tuples(st.just("release")),
    ),
    min_size=10,
    max_size=40,
)


class TestRegistryLRUOrder:
    """The ``"lru"`` reclaim order against the rule it replaced: each
    ``register`` / ``match`` call ticked a registry clock once and stamped
    every chunk it touched ``last_used``; the victim was
    ``min(eligible, key=last_used)``."""

    @settings(max_examples=100, deadline=None)
    @given(ops=_REGISTRY_OPS)
    def test_victims_match_the_last_used_stamps(self, ops):
        page = 2
        store = PagedKVStore(1, H, D, page_size=page, n_pages=8, growable=True)
        registry = PrefixRegistry(store)
        pool = store.pools[0]
        last_used: dict = {}
        held: list = []  # tables a live row still maps (unfreeable chunks)
        clock = 0
        policy = registry._admission
        choose = policy.choose_victim

        def checked(eligible):
            victim = choose(eligible)
            assert victim == min(eligible, key=last_used.__getitem__)
            return victim

        policy.choose_victim = checked
        for op, *args in ops:
            if op == "register":
                pieces, hold = args
                tokens = np.repeat(np.asarray(pieces), page)
                table = PageTable()
                keys = np.zeros((H, len(tokens), D))
                pool.extend(table, keys, keys, np.zeros((H, len(tokens)), dtype=np.int64))
                registry.register(tokens, [table])
                clock += 1
                last_used.update(dict.fromkeys(_chunk_keys(tokens, page), clock))
                if hold:
                    held.append(table)
                else:
                    pool.release_table(table)
            elif op == "match":
                tokens = np.repeat(np.asarray(args[0]), page)
                clock += 1
                for key in _chunk_keys(tokens, page):
                    if key not in registry._chunks:
                        break
                    last_used[key] = clock
                registry.match(tokens)
            elif op == "reclaim":
                registry.reclaim(args[0])
            elif held:
                pool.release_table(held.pop(0))
            assert registry.audit() == []


class TestRegistryChainSafety:
    """Reclaim ordering vs. parent chains — explicit guard, not luck."""

    def _registry(self, admission_policy):
        store = PagedKVStore(
            2, H, D, page_size=PS, n_pages=16, growable=True,
            admission_policy=admission_policy,
        )
        return store, PrefixRegistry(store)

    def _seed(self, store, tokens, rng):
        tables = []
        for pool in store.pools:
            table = PageTable()
            keys = rng.normal(size=(H, len(tokens), D))
            pos = np.broadcast_to(np.arange(len(tokens)), (H, len(tokens))).copy()
            pool.extend(table, keys, keys.copy(), pos)
            tables.append(table)
        return tables

    @pytest.mark.parametrize("policy", ADMISSION_POLICIES)
    def test_drop_refuses_parent_with_live_children(self, policy):
        rng = np.random.default_rng(3)
        store, registry = self._registry(policy)
        tokens = rng.integers(0, 50, size=3 * PS)
        registry.register(tokens, self._seed(store, tokens, rng))
        chunks = list(registry._chunks.values())
        parent = next(c for c in chunks if c.children)
        with pytest.raises(PoolIntegrityError, match="live descendant"):
            registry._drop(parent)
        assert registry.audit() == []

    @pytest.mark.parametrize("policy", ADMISSION_POLICIES)
    def test_audit_detects_broken_parent_chain(self, policy):
        rng = np.random.default_rng(4)
        store, registry = self._registry(policy)
        tokens = rng.integers(0, 50, size=2 * PS)
        registry.register(tokens, self._seed(store, tokens, rng))
        assert registry.audit() == []
        # Corrupt the chain the way the latent bug class would: the parent
        # vanishes while the child stays registered.
        parent_key = next(
            c.key for c in registry._chunks.values() if c.children
        )
        del registry._chunks[parent_key]
        violations = registry.audit()
        assert any("parent" in v and "reclaimed" in v for v in violations)

    @pytest.mark.parametrize("policy", ADMISSION_POLICIES)
    def test_reclaim_drops_leaves_before_parents(self, policy):
        rng = np.random.default_rng(5)
        store, registry = self._registry(policy)
        tokens = rng.integers(0, 50, size=4 * PS)
        tables = self._seed(store, tokens, rng)
        registry.register(tokens, tables)
        for table, pool in zip(tables, store.pools):
            pool.release_table(table)
        while len(registry):
            depths = {c.key: c for c in registry._chunks.values()}
            registry.reclaim(1)
            # Whatever was dropped, every survivor's chain must be intact.
            assert registry.audit() == []
            assert len(registry) < len(depths)
        assert store.pools[0].free_pages == store.pools[0].n_pages

    @pytest.mark.parametrize("policy", ADMISSION_POLICIES)
    def test_clear_drops_a_chain_deeper_than_the_recursion_limit(self, policy):
        # One chunk per token: a 1500-level chain, past Python's default
        # recursion limit of 1000.
        store = PagedKVStore(
            1, H, D, page_size=1, n_pages=16, growable=True,
            admission_policy=policy,
        )
        registry = PrefixRegistry(store)
        tokens = np.arange(1500)
        tables = self._seed(store, tokens, np.random.default_rng(6))
        assert registry.register(tokens, tables) == 1500
        store.pools[0].release_table(tables[0])
        registry.clear()
        assert len(registry) == 0 and registry.audit() == []
        assert store.pools[0].free_pages == store.pools[0].n_pages
