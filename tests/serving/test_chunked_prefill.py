"""Chunked-prefill interleaving: bit-exact, leak-free, actually interleaved.

A scheduler with ``prefill_chunk_tokens`` set makes the engine split any
long prompt into per-step chunks through ``forward_suffix`` instead of one
monolithic prefill.  These tests pin the three contracts that make the
feature safe to enable by default in the load harness:

* **Equivalence** — chunked output (tokens, log-probs) is bit-identical to
  the solo ``Generator`` run across all four eviction-policy families and
  all positional encodings, including the 1-token-remainder absorption
  corner.
* **Interleaving** — running decode rows keep producing tokens during a
  neighbour's chunked prefill, and the per-step prefill-token telemetry
  respects the chunk budget.
* **Robustness** — aborting mid-chunk leaks nothing (the accumulator never
  touched the pool), prefix-shared prompts skip chunking (a registry hit
  already pays less than a chunk), and injected prefill faults retry to a
  bit-exact result.
"""

from __future__ import annotations

import numpy as np
import pytest

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
from repro.serving.scheduler import PagedScheduler

VOCAB = 96
CHUNK = 16
_CONFIG = GenerationConfig(max_new_tokens=8)

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

#: Lengths that cover: many chunks, chunk+remainder-absorption (CHUNK+1 over
#: two chunks would leave 1 token), an exact multiple, and a short prompt
#: below the chunking threshold.
PROMPT_LENGTHS = (97, 33, 48, 9)

_RNG = np.random.default_rng(5)
_PROMPTS = [_RNG.integers(0, VOCAB, size=n).astype(np.int64) for n in PROMPT_LENGTHS]

_POLICIES = {
    "full": FullAttentionPolicy,
    "window": lambda: WindowAttentionPolicy(CachePolicyConfig(kv_fraction=0.5)),
    "h2o": lambda: H2OPolicy(CachePolicyConfig(kv_fraction=0.5, recent_ratio=0.5)),
    "keyformer": lambda: KeyformerPolicy(KeyformerConfig(kv_fraction=0.5)),
}

_EXPECTED = {
    name: [
        Generator(_MODEL, factory()).generate(p, _CONFIG, sampler=GreedySampler())
        for p in _PROMPTS
    ]
    for name, factory in _POLICIES.items()
}


def _expected_chunks(prompt_len: int, chunk: int) -> int:
    """Chunk-step count the engine should take for one prompt."""
    if prompt_len <= chunk + 1:
        return 0  # below threshold: not chunked at all
    done, steps = 0, 0
    while done < prompt_len:
        remaining = prompt_len - done
        done += remaining if remaining <= chunk + 1 else chunk
        steps += 1
    return steps


@pytest.mark.parametrize("policy_name", sorted(_POLICIES))
def test_chunked_prefill_bit_exact(policy_name):
    """Chunked engine output matches solo generation across policies."""
    factory = _POLICIES[policy_name]
    engine = ContinuousBatchingEngine(
        _MODEL,
        policy_factory=factory,
        scheduler=PagedScheduler(max_batch_size=4, prefill_chunk_tokens=CHUNK),
    )
    states = [
        engine.submit(p, _CONFIG, sampler=GreedySampler()) for p in _PROMPTS
    ]
    engine.run()
    if _POLICIES[policy_name]().needs_prompt_attention:
        # h2o/keyformer initialize scores from full prompt attention, which
        # the chunked path never materializes: the engine must fall back to
        # monolithic prefill for them (and stay bit-exact, checked below).
        assert engine.n_prefill_chunks == 0
    else:
        # One chunked prefill at a time: the longest prompt chunks while
        # the rest, admitted one per step, prefill whole alongside.
        assert engine.n_prefill_chunks == _expected_chunks(PROMPT_LENGTHS[0], CHUNK)
    for state, expected in zip(states, _EXPECTED[policy_name]):
        result = state.result()
        assert result.sequences[0] == expected.sequences[0]
        assert result.log_probs[0] == expected.log_probs[0]


@pytest.mark.parametrize("prompt_len", PROMPT_LENGTHS)
def test_chunk_count_per_prompt(prompt_len):
    """Solo replays take exactly the predicted chunk steps (incl. the
    1-token-remainder absorption: 33 tokens at budget 16 is two chunks of
    16 + 17, never a trailing 1-token chunk)."""
    prompt = np.random.default_rng(prompt_len).integers(0, VOCAB, size=prompt_len)
    engine = ContinuousBatchingEngine(
        _MODEL, scheduler=PagedScheduler(max_batch_size=2, prefill_chunk_tokens=CHUNK)
    )
    state = engine.submit(prompt, _CONFIG, sampler=GreedySampler())
    engine.run()
    assert engine.n_prefill_chunks == _expected_chunks(prompt_len, CHUNK)
    expected = Generator(_MODEL).generate(prompt, _CONFIG, sampler=GreedySampler())
    assert state.result().sequences[0] == expected.sequences[0]
    assert state.result().log_probs[0] == expected.log_probs[0]


@pytest.mark.parametrize("positional", ["rope", "alibi", "learned"])
def test_chunked_prefill_positional_variants(positional):
    """Chunked prefill is exact for alibi and learned positions too."""
    config = ModelConfig(
        vocab_size=64,
        d_model=32,
        n_layers=2,
        n_heads=4,
        d_ff=64,
        max_seq_len=256,
        positional=positional,
    )
    model = DecoderLM(config, seed=0)
    rng = np.random.default_rng(9)
    prompts = [rng.integers(0, 64, size=n).astype(np.int64) for n in (55, 21)]
    expected = [
        Generator(model).generate(p, _CONFIG, sampler=GreedySampler())
        for p in prompts
    ]
    engine = ContinuousBatchingEngine(
        model, scheduler=PagedScheduler(max_batch_size=2, prefill_chunk_tokens=CHUNK)
    )
    states = [engine.submit(p, _CONFIG, sampler=GreedySampler()) for p in prompts]
    engine.run()
    assert engine.n_prefill_chunks > 0
    for state, exp in zip(states, expected):
        assert state.result().sequences[0] == exp.sequences[0]
        assert state.result().log_probs[0] == exp.log_probs[0]


def test_decode_interleaves_with_chunked_prefill():
    """Running rows generate tokens while a neighbour's prefill is chunked."""
    engine = ContinuousBatchingEngine(
        _MODEL, scheduler=PagedScheduler(max_batch_size=2, prefill_chunk_tokens=CHUNK)
    )
    short = engine.submit(_PROMPTS[3], _CONFIG, sampler=GreedySampler())
    engine.step()  # short prefills and starts decoding
    long = engine.submit(_PROMPTS[0], _CONFIG, sampler=GreedySampler())
    grew = 0
    while not long.tokens and engine.has_work:
        before = len(short.tokens)
        engine.step()
        if engine.last_step_prefill_tokens > 0 and len(short.tokens) > before:
            grew += 1
        assert engine.last_step_prefill_tokens <= CHUNK + 1
    assert grew > 0, "short request never decoded during the chunked prefill"
    engine.run()
    assert short.result().sequences[0] == _EXPECTED["full"][3].sequences[0]
    assert long.result().sequences[0] == _EXPECTED["full"][0].sequences[0]


def test_chunked_prefill_and_queue_each_advance_every_step():
    """A chunked prefill in flight and a queue both move every step: one
    chunk, and one admission (prefilled whole — one prompt chunks at a
    time).  The 97-token prompt runs six chunks and joins in step 6."""
    engine = ContinuousBatchingEngine(
        _MODEL, scheduler=PagedScheduler(max_batch_size=4, prefill_chunk_tokens=CHUNK)
    )
    order = (0, 3, 1, 2)  # the long prompt first, then 9, 33 and 48 tokens
    states = [engine.submit(_PROMPTS[i], _CONFIG, sampler=GreedySampler()) for i in order]
    seen = []
    for _ in range(6):
        engine.step()
        seen.append((engine.n_prefill_chunks, engine.n_running, engine.n_queued))
    assert seen == [(1, 0, 3), (2, 1, 2), (3, 2, 1), (4, 3, 0), (5, 3, 0), (6, 4, 0)]
    assert [s.first_token_step for s in states] == [6, 2, 3, 4]
    engine.run()
    for state, i in zip(states, order):
        assert state.result().sequences[0] == _EXPECTED["full"][i].sequences[0]
        assert state.result().log_probs[0] == _EXPECTED["full"][i].log_probs[0]


def test_abort_mid_chunk_leaks_nothing():
    """Dropping an in-flight chunked prefill releases no pages (it held none)."""
    engine = ContinuousBatchingEngine(
        _MODEL, scheduler=PagedScheduler(max_batch_size=2, prefill_chunk_tokens=CHUNK)
    )
    state = engine.submit(_PROMPTS[0], _CONFIG, sampler=GreedySampler())
    engine.step()  # first chunk in flight, no pages allocated yet
    assert engine.n_prefill_chunks >= 1
    assert engine.abort(state.request_id)
    assert state.finish_reason is not None
    assert not engine.has_work
    engine.check_invariants()
    usage = engine.pool_usage()
    assert usage["pages_used"] == 0


def test_prefix_hit_skips_chunking():
    """A prompt the registry already holds prefills via reuse, not chunks."""
    engine = ContinuousBatchingEngine(
        _MODEL, scheduler=PagedScheduler(max_batch_size=2, prefill_chunk_tokens=CHUNK)
    )
    first = engine.submit(_PROMPTS[0], _CONFIG, sampler=GreedySampler())
    engine.run()
    chunks_after_first = engine.n_prefill_chunks
    assert chunks_after_first == _expected_chunks(PROMPT_LENGTHS[0], CHUNK)
    second = engine.submit(_PROMPTS[0], _CONFIG, sampler=GreedySampler())
    engine.run()
    assert engine.n_prefill_chunks == chunks_after_first, (
        "prefix-shared prompt should not re-chunk"
    )
    assert second.result().sequences[0] == first.result().sequences[0]


def test_chunked_prefill_under_tight_pool():
    """Chunked joins under a small fixed pool preempt and still finish exact."""
    policy = lambda: WindowAttentionPolicy(CachePolicyConfig(kv_budget=48))  # noqa: E731
    expected = [
        Generator(_MODEL, policy()).generate(p, _CONFIG, sampler=GreedySampler())
        for p in _PROMPTS
    ]
    engine = ContinuousBatchingEngine(
        _MODEL,
        policy_factory=policy,
        scheduler=PagedScheduler(max_batch_size=4, prefill_chunk_tokens=CHUNK),
        max_pool_tokens=256,
    )
    states = [engine.submit(p, _CONFIG, sampler=GreedySampler()) for p in _PROMPTS]
    engine.run()
    engine.check_invariants()
    for state, exp in zip(states, expected):
        assert state.result().sequences[0] == exp.sequences[0]
        assert state.result().log_probs[0] == exp.log_probs[0]


def test_chunked_prefill_with_injected_faults():
    """Injected prefill faults retry chunked prompts to a bit-exact result."""
    from repro.serving.faults import FaultInjector

    engine = ContinuousBatchingEngine(
        _MODEL,
        scheduler=PagedScheduler(max_batch_size=2, prefill_chunk_tokens=CHUNK),
        faults=FaultInjector(rate=0.05, seed=3),
        max_retries=8,
        retry_backoff_steps=1,
    )
    states = [engine.submit(p, _CONFIG, sampler=GreedySampler()) for p in _PROMPTS[:2]]
    engine.run()
    engine.check_invariants()
    for state, exp in zip(states, _EXPECTED["full"][:2]):
        assert state.finish_reason is not None
        if state.finish_reason.value in ("eos", "length"):
            assert state.result().sequences[0] == exp.sequences[0]
