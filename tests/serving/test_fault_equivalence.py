"""Property test: injected faults never corrupt survivors or leak pages.

The quarantine contract (``docs/robustness.md``): a fault in one request's
lifecycle may change *that request's* fate — retried transparently, or
retired with ``FinishReason.ERROR`` — but every request that completes
normally must reproduce the fault-free run bit for bit, and the paged store
must end every run with zero leaked pages and clean refcounts.

Hypothesis drives seeded fault schedules across the full configuration
matrix: eviction policy (full / window / h2o / keyformer), KV precision
(float64 / int8) and speculation (off / n-gram), with faults
enabled at all five injection points.  Each example runs the same workload
twice — fault-free reference, then faulted — and checks equivalence plus a
strict pool-integrity audit.
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
from repro.generation.sampler import GreedySampler
from repro.models.config import GenerationConfig, ModelConfig
from repro.models.transformer import DecoderLM
from repro.serving.engine import ContinuousBatchingEngine
from repro.serving.faults import FaultInjector
from repro.serving.request import FinishReason
from repro.speculative.config import SpeculationConfig

VOCAB = 96
MAX_NEW_TOKENS = 8
PROMPT_LENGTHS = (41, 18, 29, 37)

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
_RNG = np.random.default_rng(43)
_PROMPTS = [_RNG.integers(0, VOCAB, size=n).astype(np.int64) for n in PROMPT_LENGTHS]
_CONFIG = GenerationConfig(max_new_tokens=MAX_NEW_TOKENS)

_POLICIES = {
    "full": FullAttentionPolicy,
    "window": lambda: WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.5)),
    "h2o": lambda: H2OPolicy(CachePolicyConfig(kv_fraction=0.5, recent_ratio=0.5)),
    "keyformer": lambda: KeyformerPolicy(KeyformerConfig(kv_fraction=0.5)),
}

#: (policy, kv_dtype, speculation) corners of the configuration matrix.
#: Speculation requires the full-attention target, so spec rows pair with
#: "full" only.
_MATRIX = [
    ("full", None, None),
    ("window", None, None),
    ("h2o", None, None),
    ("keyformer", None, None),
    ("full", "int8", None),
    ("window", "int8", None),
    ("full", None, "ngram"),
    ("full", None, "ngram-k8"),
    ("full", "int8", "ngram"),
]

#: Speculation corners by name: the default-sized draft block, and a long
#: one whose verify passes append up to nine tokens at once, so a round
#: faulted mid-pass has more partial appends to unwind.
_SPECS = {"ngram": SpeculationConfig(k=3), "ngram-k8": SpeculationConfig(k=8)}


def _run_workload(policy_name, kv_dtype, spec, faults, max_batch_size):
    speculation = None if spec is None else _SPECS[spec]
    engine = ContinuousBatchingEngine(
        _MODEL,
        policy_factory=_POLICIES[policy_name],
        max_batch_size=max_batch_size,
        kv_dtype=kv_dtype,
        enable_prefix_sharing=False,
        speculation=speculation,
        faults=faults,
        max_retries=3,
        retry_backoff_steps=1,
    )
    states = [engine.submit(p, _CONFIG, sampler=GreedySampler()) for p in _PROMPTS]
    engine.run()
    return engine, states


def _assert_store_clean(engine):
    """Strict audit + zero leaked pages once the prefix registry lets go."""
    assert engine.check_invariants() == []
    if engine._manager is None:
        return
    engine._manager.registry.clear()
    for pool in engine._manager.store.pools:
        assert int((pool.refcounts != 0).sum()) == 0
        assert pool.free_pages == pool.n_pages


@pytest.mark.parametrize("policy_name,kv_dtype,spec", _MATRIX)
@settings(max_examples=4, deadline=None)
@given(
    fault_seed=st.integers(min_value=0, max_value=2**16),
    rate=st.sampled_from([0.002, 0.01, 0.05]),
    max_batch_size=st.integers(min_value=2, max_value=4),
)
def test_faulted_runs_match_fault_free_reference(
    policy_name, kv_dtype, spec, fault_seed, rate, max_batch_size
):
    _, reference = _run_workload(policy_name, kv_dtype, spec, None, max_batch_size)
    faults = FaultInjector(rate=rate, seed=fault_seed)
    engine, states = _run_workload(policy_name, kv_dtype, spec, faults, max_batch_size)

    for state, ref in zip(states, reference):
        assert state.finished
        if state.finish_reason is FinishReason.ERROR:
            # Quarantined after exhausting its retries: the error context
            # must be preserved, and the rest of the batch unaffected.
            assert state.error is not None
            assert state.error_traceback
            continue
        # Non-faulted and retried-to-success requests alike are bit-exact:
        # a retry restarts from scratch with fresh policy/sampler state.
        assert state.finish_reason is ref.finish_reason
        assert state.tokens == ref.tokens
        assert state.result().log_probs == ref.result().log_probs
    _assert_store_clean(engine)

    # Telemetry is consistent with what actually happened.
    telemetry = engine.fault_telemetry()
    assert telemetry["faults_fired"] == len(faults.fired)
    assert telemetry["faults"] >= telemetry["retries"]


@pytest.mark.parametrize("policy_name,kv_dtype,spec", _MATRIX)
def test_replayed_schedule_reproduces_the_run(policy_name, kv_dtype, spec):
    """A recorded fault schedule replays to the identical outcome."""
    faults = FaultInjector(rate=0.02, seed=9)
    engine, states = _run_workload(policy_name, kv_dtype, spec, faults, 3)
    replay = faults.replay()
    engine2, states2 = _run_workload(policy_name, kv_dtype, spec, replay, 3)
    assert replay.fired == faults.fired
    for a, b in zip(states, states2):
        assert a.finish_reason is b.finish_reason
        assert a.tokens == b.tokens
        assert a.retries == b.retries
    _assert_store_clean(engine)
    _assert_store_clean(engine2)


@pytest.mark.parametrize("point", ["page_alloc", "prefill", "decode", "verify", "draft"])
@pytest.mark.parametrize("kv_dtype", [None, "int8"])
def test_every_injection_point_quarantines_cleanly(point, kv_dtype):
    """One guaranteed fault at each injection point, speculative + quantized.

    The spec path reaches ``verify``/``draft`` (and the vanilla batched
    decode reaches ``decode``, which speculation replaces with rounds); with
    a retry budget the faulted request must still finish bit-identically to
    the fault-free run.
    """
    spec = None if point == "decode" else "ngram"
    occurrence = 3 if point == "page_alloc" else 1
    _, reference = _run_workload("full", kv_dtype, spec, None, 3)
    faults = FaultInjector(schedule=[(point, occurrence)])
    engine, states = _run_workload(
        "full", kv_dtype, spec, faults, 3
    )
    assert faults.fired == [(point, occurrence)]
    for state, ref in zip(states, reference):
        assert state.finish_reason is ref.finish_reason
        assert state.tokens == ref.tokens
    _assert_store_clean(engine)


def test_mid_run_audit_stays_clean_under_faults():
    """check_invariants holds after every engine step, not just at the end."""
    faults = FaultInjector(rate=0.05, seed=3)
    engine = ContinuousBatchingEngine(
        _MODEL,
        policy_factory=_POLICIES["window"],
        max_batch_size=3,
        max_pool_tokens=24 * 16,
        faults=faults,
        max_retries=2,
        retry_backoff_steps=1,
    )
    for p in _PROMPTS:
        engine.submit(p, _CONFIG, sampler=GreedySampler())
    while engine.has_work:
        engine.step()
        assert engine.check_invariants() == []
    _assert_store_clean(engine)
