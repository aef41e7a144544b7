"""Serving demo: continuous batching over the paged KV-cache store.

Submits a stream of mixed-length requests — half of them sharing a long
common prompt prefix — to the continuous-batching engine with a deliberately
small batch budget, so requests queue, join mid-stream as others retire, and
decode together.  The paged store maps the shared prefix's pages instead of
recomputing them (watch the ``shared`` page count and the prefill savings),
and per-step pool utilization shows pages flowing between sequences, the
prefix registry and the free list.  Finally every output is verified
bit-identical to a dedicated single-request run and the aggregate throughput
of both execution modes is reported.

Run with:
    python examples/serving_demo.py          # or: make serve-demo
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import CachePolicyConfig
from repro.core.policies import FullAttentionPolicy, WindowAttentionPolicy
from repro.generation.generator import Generator
from repro.generation.sampler import GreedySampler
from repro.models.config import GenerationConfig, ModelConfig
from repro.models.transformer import DecoderLM
from repro.serving.engine import ContinuousBatchingEngine
from repro.speculative import SpeculationConfig

VOCAB = 256
KV_BUDGET = 96
MAX_NEW_TOKENS = 48
SHARED_PREFIX_LEN = 192
PROMPT_LENGTHS = (320, 256, 288, 272, 304, 264)


def policy_factory() -> WindowAttentionPolicy:
    return WindowAttentionPolicy(CachePolicyConfig(kv_budget=KV_BUDGET))


def build_prompts() -> list[np.ndarray]:
    """Mixed-length prompts; every odd request shares one long prefix."""
    shared = np.random.default_rng(99).integers(0, VOCAB, size=SHARED_PREFIX_LEN)
    prompts = []
    for i, n in enumerate(PROMPT_LENGTHS):
        body = np.random.default_rng(i).integers(0, VOCAB, size=n).astype(np.int64)
        if i % 2 == 1:
            body[:SHARED_PREFIX_LEN] = shared
        prompts.append(body)
    return prompts


def main() -> None:
    model = DecoderLM(
        ModelConfig(
            vocab_size=VOCAB,
            d_model=64,
            n_layers=4,
            n_heads=8,
            d_ff=256,
            max_seq_len=1024,
            positional="rope",
        ),
        seed=0,
    )
    prompts = build_prompts()
    config = GenerationConfig(max_new_tokens=MAX_NEW_TOKENS)

    print(f"Submitting {len(prompts)} requests (prompts {min(PROMPT_LENGTHS)}-"
          f"{max(PROMPT_LENGTHS)} tokens, {MAX_NEW_TOKENS} new tokens each; "
          f"requests 1/3/5 share a {SHARED_PREFIX_LEN}-token prefix)")
    engine = ContinuousBatchingEngine(
        model,
        policy_factory=policy_factory,
        max_batch_size=3,  # smaller than the request count: forces queueing
        max_pool_tokens=4096,  # fixed paged pool: memory-aware admission
    )
    states = [engine.submit(p, config, sampler=GreedySampler()) for p in prompts]

    start = time.perf_counter()
    steps = 0
    while engine.has_work:
        engine.step()
        steps += 1
        if steps % 16 == 0:
            pool = engine.pool_usage()
            print(
                f"  step {steps:3d}: running={engine.n_running} "
                f"queued={engine.n_queued} | pool: "
                f"{pool['pages_used']}/{pool['pages_total']} pages used, "
                f"{pool['pages_free']} free, {pool['pages_shared']} shared, "
                f"{pool['registry_chunks']} registry chunks"
            )
    batched_s = time.perf_counter() - start
    total_tokens = sum(len(state.tokens) for state in states)
    print(f"Engine finished in {steps} steps / {batched_s:.2f}s "
          f"({total_tokens / batched_s:.0f} tok/s aggregate, incl. prefill)")
    print(f"Prefix sharing: computed {engine.prefill_computed_tokens} of "
          f"{engine.prefill_prompt_tokens} prompt tokens "
          f"({engine.prefill_savings:.2f}x prefill savings); "
          f"{engine.n_preemptions} preemptions")
    pool = engine.pool_usage()
    print(f"Final pool state: {pool['pages_used']}/{pool['pages_total']} pages "
          f"used ({pool['registry_chunks']} prefix chunks retained for reuse)")

    print("\nPer-request results:")
    for state in states:
        print(
            f"  request {state.request_id}: {len(state.tokens)} tokens, "
            f"finished on {state.finish_reason.value}, first 8 = {state.tokens[:8]}"
        )

    print("\nVerifying bit-exactness against dedicated sequential runs...")
    start = time.perf_counter()
    sequential = [
        Generator(model, policy_factory()).generate(p, config, sampler=GreedySampler())
        for p in prompts
    ]
    sequential_s = time.perf_counter() - start
    for state, reference in zip(states, sequential):
        assert state.tokens == reference.sequences[0], "outputs diverged!"
        assert state.result().log_probs == reference.log_probs
    print(f"  all {len(prompts)} outputs bit-identical "
          f"(sequential took {sequential_s:.2f}s -> "
          f"{sequential_s / batched_s:.2f}x the engine's wall clock)")

    quantization_demo(model, prompts, [state.tokens for state in states])
    speculative_demo(model, prompts)


def quantization_demo(model, prompts, reference_tokens) -> None:
    """Show the int8 memory win: same byte budget, several-fold more tokens.

    Builds one engine per ``kv_dtype`` under a fixed ``max_pool_bytes``
    budget and prints what that budget buys (pages, resident tokens, and how
    many window-budget sequences fit concurrently); then re-serves the same
    stream on quantized pages and reports how closely the outputs track the
    full-precision run — the accuracy side of the memory/accuracy trade.
    """
    budget = 2 * 1024 * 1024  # bytes per engine, all layer pools together
    config = GenerationConfig(max_new_tokens=MAX_NEW_TOKENS)
    print(f"\nQuantized KV pages under a fixed {budget // 1024} KiB pool budget:")
    print("  kv_dtype   bytes/page   resident tokens   concurrent @ "
          f"{KV_BUDGET}-token window budget")
    engines = {}
    for kv_dtype in (None, "int8"):
        engine = ContinuousBatchingEngine(
            model,
            policy_factory=policy_factory,
            max_batch_size=3,
            max_pool_bytes=budget,
            kv_dtype=kv_dtype,
        )
        engines[kv_dtype] = engine
        per_seq = KV_BUDGET + engine.config.page_size  # window budget + growth slack
        page_bytes = int(engine.config.page_bytes(model.config) / model.config.n_layers)
        print(f"  {kv_dtype or 'native':9s}  {page_bytes:9d}"
              f"   {engine.max_pool_tokens:15d}"
              f"   {engine.max_pool_tokens // per_seq:3d}")
    ratio = engines["int8"].max_pool_tokens / engines[None].max_pool_tokens
    print(f"  -> int8 pages hold {ratio:.1f}x more tokens (and sequences) in the same bytes")

    engine = engines["int8"]
    states = [engine.submit(p, config, sampler=GreedySampler()) for p in prompts]
    engine.run()
    agree = [
        sum(a == b for a, b in zip(state.tokens, ref)) / max(len(ref), 1)
        for state, ref in zip(states, reference_tokens)
    ]
    pool = engine.pool_usage()
    print(f"  int8 re-run of the same stream: {pool['bytes_used'] // 1024} KiB of pages "
          f"in use at exit, token agreement vs full precision "
          f"{100 * sum(agree) / len(agree):.1f}%")


def speculative_demo(model, prompts) -> None:
    """Re-serve the same stream with draft-then-verify speculation enabled.

    Speculative serving requires the full-attention target policy and greedy
    requests; the n-gram drafter proposes from the committed context at zero
    model cost, so rows advance by up to ``k + 1`` tokens per engine step
    while every output stays bit-identical to the vanilla engine's.
    """
    print("\nRe-serving the same stream with speculative decoding (ngram, k=4)...")
    config = GenerationConfig(max_new_tokens=MAX_NEW_TOKENS)
    engine = ContinuousBatchingEngine(
        model,
        max_batch_size=3,
        speculation=SpeculationConfig(k=4, drafter="ngram"),
    )
    states = [engine.submit(p, config) for p in prompts]
    start = time.perf_counter()
    steps = 0
    while engine.has_work:
        engine.step()
        steps += 1
    elapsed = time.perf_counter() - start
    stats = engine.speculation_stats
    total_tokens = sum(len(state.tokens) for state in states)
    print(
        f"  finished in {steps} engine steps / {elapsed:.2f}s "
        f"({total_tokens / elapsed:.0f} tok/s aggregate): "
        f"{stats.rounds} verify rounds, acceptance "
        f"{stats.acceptance_rate:.0%}, {stats.tokens_per_round:.2f} tokens/round, "
        f"{stats.rolled_back} rolled back"
    )
    # Speculation ran under the full-attention target (the demo's window
    # policy belongs to the drafter side), so compare against a dedicated
    # full-attention run of each request.
    for state, prompt in zip(states, prompts):
        reference = Generator(model, FullAttentionPolicy()).generate(
            prompt, config, sampler=GreedySampler()
        )
        assert state.tokens == reference.sequences[0], "speculative outputs diverged!"
        assert state.result().log_probs == reference.log_probs
    print(f"  all {len(states)} speculative outputs bit-identical to vanilla decode")


if __name__ == "__main__":
    main()
