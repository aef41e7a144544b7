"""Property test: int8-paged serving is bit-identical to solo int8 decoding.

The quantized pool's determinism contract (see `docs/quantization.md`) says
quantization is a pure function of the write history — never of physical
page ids, batch composition or preemption timing.  Hypothesis drives random
request subsets, submission orders, engine widths and pool sizes (fixed
pools small enough to preempt) with ``kv_dtype="int8"`` on both sides, and
every request must reproduce its dedicated single-request int8 output
exactly: tokens and log-probabilities, bit for bit.  Prefix sharing is
disabled here because shared-prefix prefill reads *dequantized* prefix pages
— the one documented tolerance-level path of int8 mode — which the
dedicated mechanics test below exercises instead.
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
from repro.models.config import GenerationConfig, ModelConfig
from repro.models.transformer import DecoderLM
from repro.serving.engine import ContinuousBatchingEngine

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

_RNG = np.random.default_rng(29)
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

#: Dedicated single-request int8 reference outputs, computed once per policy.
_EXPECTED = {
    name: [
        Generator(_MODEL, factory(), kv_dtype="int8").generate(
            p, _CONFIG, sampler=GreedySampler()
        )
        for p in _PROMPTS
    ]
    for name, factory in _POLICIES.items()
}


@pytest.mark.parametrize("policy_name", sorted(_POLICIES))
@settings(max_examples=6, deadline=None)
@given(
    order=st.permutations(list(range(len(_PROMPTS)))),
    max_batch_size=st.integers(min_value=1, max_value=4),
    pool_pages=st.one_of(st.none(), st.integers(min_value=8, max_value=14)),
    data=st.data(),
)
def test_int8_schedules_reproduce_solo_int8_outputs(
    policy_name, order, max_batch_size, pool_pages, data
):
    subset = order[: data.draw(st.integers(min_value=1, max_value=len(order)))]
    engine = ContinuousBatchingEngine(
        _MODEL,
        policy_factory=_POLICIES[policy_name],
        max_batch_size=max_batch_size,
        max_pool_tokens=None if pool_pages is None else pool_pages * 16,
        kv_dtype="int8",
        enable_prefix_sharing=False,
    )
    states = [
        engine.submit(_PROMPTS[i], _CONFIG, sampler=GreedySampler()) for i in subset
    ]
    engine.run()
    for state, request_index in zip(states, subset):
        expected = _EXPECTED[policy_name][request_index]
        assert state.tokens == expected.sequences[0]
        assert state.result().log_probs == expected.log_probs
        assert state.cache_stats.total_evicted == expected.cache_stats.total_evicted


def test_int8_prefix_sharing_mechanics():
    """Shared-prefix prefill on quantized pages: mechanics work end to end.

    Outputs are tolerance-level (suffix attention reads dequantized prefix
    KV), so this pins completion, page sharing and near-agreement with the
    unshared int8 run rather than bit-equality.
    """
    rng = np.random.default_rng(31)
    shared = rng.integers(0, VOCAB, size=32)
    prompts = [
        np.concatenate([shared, rng.integers(0, VOCAB, size=9 + i)]).astype(np.int64)
        for i in range(3)
    ]
    factory = _POLICIES["window"]
    results = {}
    for sharing in (False, True):
        engine = ContinuousBatchingEngine(
            _MODEL,
            policy_factory=factory,
            max_batch_size=3,
            kv_dtype="int8",
            enable_prefix_sharing=sharing,
        )
        states = [engine.submit(p, _CONFIG, sampler=GreedySampler()) for p in prompts]
        engine.run()
        results[sharing] = [state.tokens for state in states]
        if sharing:
            assert engine.prefill_savings > 1.0  # pages were actually mapped
    agreement = np.mean(
        [
            np.mean(np.asarray(a) == np.asarray(b))
            for a, b in zip(results[False], results[True])
        ]
    )
    assert agreement >= 0.75


def test_int8_speculative_serving_tracks_solo_int8():
    """Speculation on quantized pages: draft/verify/rollback works end to end.

    Per the documented contract, int8 speculation is *not* bit-identical to
    vanilla int8 decoding: a rejected draft token that widened a page's
    quantization range leaves the widened parameters behind after rollback
    (`truncate` stays pure bookkeeping).  Greedy tokens must still agree on
    this deterministic model, with log-probabilities within the half-step
    tolerance — and the run itself must be deterministic.
    """
    from repro.speculative import SpeculationConfig

    outputs = []
    for _ in range(2):
        engine = ContinuousBatchingEngine(
            _MODEL,
            max_batch_size=2,
            kv_dtype="int8",
            enable_prefix_sharing=False,
            speculation=SpeculationConfig(k=3),
        )
        states = [engine.submit(p, _CONFIG) for p in _PROMPTS]
        engine.run()
        outputs.append([(st.tokens, st.result().log_probs) for st in states])
        for state, expected in zip(states, _EXPECTED["full"]):
            assert state.tokens == expected.sequences[0]
            assert state.result().log_probs == pytest.approx(
                expected.log_probs, abs=1e-3
            )
    assert outputs[0] == outputs[1]  # speculative int8 is still deterministic


def test_int8_byte_budget_admits_more_than_full_precision():
    """One byte budget: the int8 engine funds several times more pool tokens."""
    kwargs = dict(max_pool_bytes=512 * 1024)
    fp = ContinuousBatchingEngine(_MODEL, **kwargs)
    q = ContinuousBatchingEngine(_MODEL, kv_dtype="int8", **kwargs)
    assert q.max_pool_tokens >= 2 * fp.max_pool_tokens
    with pytest.raises(ValueError, match="either"):
        ContinuousBatchingEngine(_MODEL, max_pool_tokens=256, max_pool_bytes=1 << 20)
