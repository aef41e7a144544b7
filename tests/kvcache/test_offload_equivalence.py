"""Property test: tiered KV offload is bit-identical to single-tier serving.

The offload determinism contract (see ``docs/kvcache.md``) says spill →
restore is **byte-exact**: which pages happen to be resident, which backend
holds the cold tail and how often the victim selector churned must never
show up in the output.  Hypothesis drives random request subsets, submission
orders, engine widths, pool sizes (small enough to preempt) and tier-0 frame
budgets (small enough to spill constantly) across every eviction policy and
both KV precisions, and every request must reproduce its dedicated
single-request reference exactly — tokens and log-probabilities, bit for
bit — while the strict pool-integrity audit stays clean after **every**
engine step and the tier-1 arena drains to zero records at retire.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CachePolicyConfig, KeyformerConfig
from repro.core.keyformer import KeyformerPolicy
from repro.core.policies import (
    FullAttentionPolicy,
    H2OPolicy,
    WindowAttentionPolicy,
)
from repro.generation.generator import Generator
from repro.generation.sampler import GreedySampler
from repro.kvcache.paged import KVStoreConfig
from repro.models.config import GenerationConfig, ModelConfig
from repro.models.transformer import DecoderLM
from repro.serving.engine import ContinuousBatchingEngine

VOCAB = 96
MAX_NEW_TOKENS = 8
PROMPT_LENGTHS = (41, 18, 29, 37)
PAGE_SIZE = 16

_MODEL = DecoderLM(
    ModelConfig(
        vocab_size=VOCAB,
        d_model=32,
        n_layers=2,
        n_heads=4,
        d_ff=64,
        max_seq_len=256,
        positional="rope",
    ),
    seed=0,
)

_RNG = np.random.default_rng(47)
_PROMPTS = [
    _RNG.integers(0, VOCAB, size=n).astype(np.int64) for n in PROMPT_LENGTHS
]
_CONFIG = GenerationConfig(max_new_tokens=MAX_NEW_TOKENS)

_POLICIES = {
    "full": FullAttentionPolicy,
    "window": lambda: WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.5)),
    "h2o": lambda: H2OPolicy(CachePolicyConfig(kv_fraction=0.5, recent_ratio=0.5)),
    "keyformer": lambda: KeyformerPolicy(KeyformerConfig(kv_fraction=0.5)),
}

#: Dedicated single-request reference outputs per (policy, kv_dtype) — the
#: existing equivalence walls pin batched serving to these without offload,
#: so matching them bit-exactly *is* matching the no-offload engine.
_EXPECTED = {
    (name, kv_dtype): [
        Generator(_MODEL, factory(), kv_dtype=kv_dtype).generate(
            p, _CONFIG, sampler=GreedySampler()
        )
        for p in _PROMPTS
    ]
    for name, factory in _POLICIES.items()
    for kv_dtype in (None, "int8")
}


def _tier0_budget(kv_dtype: str | None, frames: int) -> int:
    """Bytes funding exactly ``frames`` tier-0 frames per layer pool."""
    config = KVStoreConfig(page_size=PAGE_SIZE, kv_dtype=kv_dtype)
    return int(frames * config.tier0_frame_bytes(_MODEL.config))


def _assert_drained(engine: ContinuousBatchingEngine) -> None:
    """Zero-leak wall: pages free, pins gone, tier-1 arenas empty."""
    manager = engine._manager
    assert manager is not None
    manager.registry.clear()
    for layer, pool in enumerate(manager.store.pools):
        assert not pool.check_invariants(), f"layer {layer} audit dirty at drain"
        assert int((pool.refcounts != 0).sum()) == 0, f"layer {layer} leaked pages"
        assert pool.free_pages == pool.n_pages
        assert len(pool.arena) == 0, (
            f"layer {layer}: {len(pool.arena)} spilled page(s) leaked in the "
            "tier-1 arena after retire"
        )


@pytest.mark.parametrize("kv_dtype", [None, "int8"], ids=["fp64", "int8"])
@pytest.mark.parametrize("policy_name", sorted(_POLICIES))
@settings(max_examples=4, deadline=None)
@given(
    order=st.permutations(list(range(len(_PROMPTS)))),
    max_batch_size=st.integers(min_value=1, max_value=4),
    pool_pages=st.one_of(st.none(), st.integers(min_value=10, max_value=14)),
    frames=st.integers(min_value=2, max_value=5),
    backend=st.sampled_from(["compressed", "mmap"]),
    data=st.data(),
)
def test_offloaded_schedules_reproduce_reference_outputs(
    policy_name, kv_dtype, order, max_batch_size, pool_pages, frames, backend, data
):
    subset = order[: data.draw(st.integers(min_value=1, max_value=len(order)))]
    engine = ContinuousBatchingEngine(
        _MODEL,
        policy_factory=_POLICIES[policy_name],
        max_batch_size=max_batch_size,
        page_size=PAGE_SIZE,
        max_pool_tokens=None if pool_pages is None else pool_pages * PAGE_SIZE,
        kv_dtype=kv_dtype,
        enable_prefix_sharing=False,
        tier0_budget=_tier0_budget(kv_dtype, frames),
        spill_backend=backend,
    )
    states = [
        engine.submit(_PROMPTS[i], _CONFIG, sampler=GreedySampler()) for i in subset
    ]
    while engine.has_work:
        engine.step()
        engine.check_invariants()  # strict: raises on any violation
    for state, request_index in zip(states, subset):
        expected = _EXPECTED[(policy_name, kv_dtype)][request_index]
        assert state.tokens == expected.sequences[0]
        assert state.result().log_probs == expected.log_probs
        assert state.cache_stats.total_evicted == expected.cache_stats.total_evicted
    _assert_drained(engine)


def test_tight_budget_actually_spills():
    """The property above is vacuous unless cold pages really leave tier 0 —
    pin that a two-frame budget produces spill *and* restore traffic."""
    engine = ContinuousBatchingEngine(
        _MODEL,
        max_batch_size=2,
        page_size=PAGE_SIZE,
        max_pool_tokens=None,
        enable_prefix_sharing=False,
        tier0_budget=_tier0_budget(None, 2),
        spill_backend="compressed",
    )
    states = [engine.submit(p, _CONFIG, sampler=GreedySampler()) for p in _PROMPTS]
    engine.run()
    tier = engine.pool_usage()["tier"]
    assert tier["tier0_frames"] == 2
    assert tier["spills"] > 0 and tier["restores"] > 0
    assert tier["spill_bytes"] > 0 and tier["restore_bytes"] > 0
    for state, expected in zip(states, _EXPECTED[("full", None)]):
        assert state.tokens == expected.sequences[0]
        assert state.result().log_probs == expected.log_probs
    _assert_drained(engine)


@pytest.mark.parametrize("kv_dtype", [None, "int8"], ids=["fp64", "int8"])
def test_offload_prefix_sharing_is_bit_identical_to_no_offload(kv_dtype):
    """Shared-prefix serving (COW forks, registry pins) with offload on must
    match the same engine with offload off bit-for-bit — page sharing is
    logical, so which copies are resident cannot matter."""
    rng = np.random.default_rng(53)
    shared = rng.integers(0, VOCAB, size=32)
    prompts = [
        np.concatenate([shared, rng.integers(0, VOCAB, size=9 + i)]).astype(np.int64)
        for i in range(3)
    ]
    outputs = {}
    for offload in (False, True):
        engine = ContinuousBatchingEngine(
            _MODEL,
            policy_factory=_POLICIES["window"],
            max_batch_size=3,
            page_size=PAGE_SIZE,
            kv_dtype=kv_dtype,
            enable_prefix_sharing=True,
            tier0_budget=_tier0_budget(kv_dtype, 4) if offload else None,
            spill_backend="mmap" if offload else None,
        )
        states = [engine.submit(p, _CONFIG, sampler=GreedySampler()) for p in prompts]
        engine.run()
        outputs[offload] = [(s.tokens, s.result().log_probs) for s in states]
        if offload:
            assert engine.prefill_savings > 1.0  # pages were actually shared
            _assert_drained(engine)
    assert outputs[True] == outputs[False]


@pytest.mark.parametrize("kv_dtype", [None, "int8"], ids=["fp64", "int8"])
def test_offload_speculative_is_bit_identical_to_no_offload(kv_dtype):
    """Draft/verify/rollback on tiered pools: offload on vs off, bit for bit
    (speculation's own int8 tolerance contract is orthogonal — both sides of
    this comparison speculate identically)."""
    from repro.speculative import SpeculationConfig

    outputs = {}
    for offload in (False, True):
        engine = ContinuousBatchingEngine(
            _MODEL,
            max_batch_size=2,
            page_size=PAGE_SIZE,
            kv_dtype=kv_dtype,
            enable_prefix_sharing=False,
            speculation=SpeculationConfig(k=3),
            tier0_budget=_tier0_budget(kv_dtype, 4) if offload else None,
            spill_backend="compressed" if offload else None,
        )
        states = [engine.submit(p, _CONFIG) for p in _PROMPTS]
        engine.run()
        outputs[offload] = [(s.tokens, s.result().log_probs) for s in states]
        if offload:
            _assert_drained(engine)
    assert outputs[True] == outputs[False]
