"""Headless microbenchmark runner tracking the perf trajectory across PRs.

Runs the hot-path components (decode loop, cache gather/append, score
updates, top-k selection) under ``time.perf_counter`` and writes a JSON
report — by default ``BENCH_micro.json`` in the repository root — mapping
component name to median seconds.  Unlike the pytest-benchmark suite this
needs no plugins and produces machine-readable output, so successive PRs can
compare numbers directly:

    PYTHONPATH=src python benchmarks/run_bench.py
    PYTHONPATH=src python benchmarks/run_bench.py --smoke          # CI subset
    PYTHONPATH=src python benchmarks/run_bench.py --compare old.json

``--compare`` embeds the old report as ``baseline`` and records per-component
speedups (old median / new median).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.core.config import CachePolicyConfig, KeyformerConfig
from repro.core.keyformer import KeyformerPolicy
from repro.core.policies import H2OPolicy, WindowAttentionPolicy, mixed_topk_selection
from repro.core.registry import make_policy
from repro.generation.generator import Generator
from repro.generation.sampler import GreedySampler
from repro.kvcache.batch import BatchedLayerKVCache
from repro.models.config import GenerationConfig, ModelConfig
from repro.models.tensor_ops import softmax
from repro.models.transformer import DecoderLM
from repro.serving.engine import ContinuousBatchingEngine, EngineConfig
from repro.speculative import SpeculationConfig, SpeculativeGenerator

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_micro.json"

# Long enough that per-token decode cost dominates scheduler noise on shared
# machines; the prompt phase runs in untimed setup either way.
DECODE_TOKENS = 64

# Serving benchmark geometry: 4 concurrent requests, mixed prompt lengths, a
# fixed KV budget (the serving steady state where every sequence holds its
# budget).  The serving model is wider than the microbenchmark model — closer
# to deployment shape, and wide enough that per-token math (not Python
# dispatch) dominates the sequential baseline.
SERVE_BATCH = 4
SERVE_PROMPT_LEN = 512
SERVE_BUDGET = 128
SERVE_TOKENS = 96

# Shared-prefix serving geometry: every request carries the same long prompt
# prefix (a system prompt / few-shot block) plus a short distinct suffix, and
# decodes a short completion — the workload where paged prefix sharing turns
# O(T²) prefill into O(S·T) for all but the first request.
SHARED_PREFIX_LEN = 512
SHARED_SUFFIX_LEN = 32
SHARED_DECODE_TOKENS = 8

# Admission-retention geometry: one hot 8-page shared prefix served between
# bursts of unique one-shot prompts at a pool budget too small to hold both —
# the scan-thrash workload where LRU leaf-first reclaim evicts the shared
# prefix every burst while W-TinyLFU's frequency sketch keeps it resident.
# Deterministic (pure registry counters), so the retention ratio is pinned
# exactly and gated by check_regression.py.
ADMISSION_HOT_LEN = 130  # 8 full 16-token pages + the 2-token recompute tail
ADMISSION_SCAN_LEN = 32
ADMISSION_SCANS_PER_BURST = 10
ADMISSION_BURSTS = 4
ADMISSION_POOL_TOKENS = 256  # 16 pages/layer: hot chain pins 8

# Quantized-KV geometry: the serving model at 1k context under a fixed
# page-pool byte budget.  The concurrency/bytes components are *deterministic*
# (pure byte accounting — identical on every machine), so they are pinned as
# dimensionless "speedup" ratios and gated exactly by check_regression.py;
# the accuracy components are informational (no min_s/speedup key).
QUANT_CONTEXT = 1024
QUANT_POOL_BUDGET = 32 * 1024 * 1024  # bytes, per engine

# Tiered-offload geometry: OFFLOAD_FRAMES pages per layer serve
# OFFLOAD_BATCH concurrent requests whose combined KV footprint is ~4x that
# — the no-offload engine gets them as its whole pool (max_pool_bytes), the
# offload engine as tier-0 frames (tier0_budget) under a 4x logical pool.
# Deterministic (pure page accounting on a pinned workload), so the capacity
# ratio is gated exactly by check_regression.py; outputs must match bit for
# bit.
OFFLOAD_FRAMES = 8
OFFLOAD_LOGICAL_MULT = 4
OFFLOAD_BATCH = 4
OFFLOAD_PROMPT_LEN = 96
OFFLOAD_DECODE_TOKENS = 16

# Speculative-decoding geometry: 1k context, draft length 8, the n-gram
# (prompt-lookup) drafter — drafting is model-free, so the speedup comes
# purely from the multi-token verify pass amortizing per-step work.
SPEC_CONTEXT = 1024
SPEC_DRAFT_K = 8


def _model(max_seq_len: int, dtype: str | None = None, **overrides) -> DecoderLM:
    if dtype is not None and "compute_dtype" in ModelConfig.__dataclass_fields__:
        # The seed implementation predates configurable compute dtypes; this
        # guard lets the same script benchmark both trees.
        overrides["compute_dtype"] = dtype
    geometry = dict(vocab_size=256, d_model=64, n_layers=4, n_heads=8, d_ff=256, positional="rope")
    config = ModelConfig(max_seq_len=max_seq_len, **{**geometry, **overrides})
    return DecoderLM(config, seed=0)


#: Most warm-up calls :func:`_time` makes before it starts timing regardless.
_WARMUP_CAP = 6


def _time(setup, run, rounds: int) -> dict:
    """Median wall-clock seconds of ``run(*setup())`` over ``rounds`` rounds.

    Untimed warm-up calls run first, until two consecutive ones agree within
    10 % (at most ``_WARMUP_CAP``): a cold process is slow for its first
    three or four calls, not one — page faults, BLAS thread start-up,
    RoPE-table construction, allocator growth, 2-5x the steady state — which
    at 2 smoke rounds lands in the median and flakes the gate.
    """

    def timed() -> float:
        args = setup() if setup is not None else ()
        start = time.perf_counter()
        run(*args)
        return time.perf_counter() - start

    previous = timed()
    for _ in range(_WARMUP_CAP - 1):
        current = timed()
        settled = abs(current - previous) <= 0.1 * max(current, previous)
        previous = current
        if settled:
            break
    times = [timed() for _ in range(rounds)]
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "rounds": rounds,
    }


def _decode_loop(model: DecoderLM, manager, next_logits: np.ndarray, n_tokens: int) -> None:
    """The token-generation phase: ``n_tokens`` incremental decode steps."""
    views = manager.layer_views()
    tokens = np.argmax(next_logits, axis=-1)
    for _ in range(n_tokens):
        logits = model.decode_step(tokens, manager.query_positions(), views)
        manager.advance()
        tokens = np.argmax(logits, axis=-1)


def bench_decode(model: DecoderLM, policy_name: str, prompt_len: int, rounds: int) -> dict:
    """Time only the decode loop; prompt processing happens in untimed setup."""
    prompt = np.random.default_rng(1).integers(0, 256, size=(1, prompt_len))

    def setup():
        if policy_name == "keyformer":
            policy = make_policy("keyformer", kv_fraction=0.5)
        else:
            policy = make_policy(policy_name)
        generator = Generator(model, policy)
        logits, manager = generator._prompt_forward(prompt, DECODE_TOKENS)
        return (model, manager, logits, DECODE_TOKENS)

    return _time(setup, _decode_loop, rounds)


def bench_generation(model: DecoderLM, policy_name: str, prompt_len: int, rounds: int) -> dict:
    """Time a full ``generate`` call (prompt phase + decode loop)."""
    prompt = np.random.default_rng(1).integers(0, 256, size=prompt_len)
    config = GenerationConfig(max_new_tokens=DECODE_TOKENS)

    def setup():
        if policy_name == "keyformer":
            policy = make_policy("keyformer", kv_fraction=0.5)
        else:
            policy = make_policy(policy_name)
        return (Generator(model, policy),)

    return _time(setup, lambda g: g.generate(prompt, config, sampler=GreedySampler()), rounds)


def bench_prompt_forward(
    model: DecoderLM, prompt_len: int, rounds: int, policy_name: str | None = None
) -> dict:
    """Time one inference prompt pass (``forward_suffix``) over a random
    prompt; with ``policy_name`` the pass scores a fresh, set-up policy of
    that name block by block — for ``"keyformer"``, the prompt pass of a
    Keyformer request."""
    ids = np.random.default_rng(0).integers(0, 256, size=(1, prompt_len))
    config = model.config

    def setup() -> tuple:
        if policy_name is None:
            return ((),)
        policy = make_policy(policy_name, kv_fraction=0.5)
        policy.setup(config.n_layers, config.n_heads, 1, prompt_len, DECODE_TOKENS)
        return ([policy],)

    def run(scorers) -> None:
        model.forward_suffix(ids, scorers=scorers)

    return _time(setup, run, rounds)


def solo_rows(keys: np.ndarray) -> BatchedLayerKVCache:
    """A one-layer cache whose rows are seeded as ``CacheManager`` seeds
    them: each row one ascending page run, its length reserved, in a private
    pool."""
    b, h, t, d = keys.shape
    cache = BatchedLayerKVCache(b, h, d, capacity=t)
    positions = np.broadcast_to(np.arange(t), (h, t))
    for row, table in enumerate(cache.tables):
        cache.pool.extend(table, keys[row], keys[row].copy(), positions, reserve_tokens=t)
    return cache


def bench_cache_gather(length: int, rounds: int) -> dict:
    """Time scattered-eviction compaction of four solo rows
    (``BatchedLayerKVCache.gather_row`` per row, as ``CacheManager`` evicts)."""
    rng = np.random.default_rng(2)
    keys = rng.normal(size=(4, 8, length, 64))
    indices = np.sort(rng.choice(length, size=(4, 8, length // 2), replace=True), axis=-1)
    # Eight gathers per round: one eviction is only a few milliseconds, so a
    # longer run keeps one scheduler burst from dominating the gated minimum.
    n_caches = 8

    def setup():
        return ([solo_rows(keys) for _ in range(n_caches)],)

    def run(caches):
        for cache in caches:
            for row in range(len(cache.tables)):
                cache.gather_row(row, indices[row])

    return _time(setup, run, rounds)


def bench_cache_append(length: int, n_appends: int, rounds: int) -> dict:
    """Time repeated single-token KV appends (``BlockPool.append``, the solo
    manager's per-row write) at a given resident length."""
    rng = np.random.default_rng(3)
    keys = rng.normal(size=(1, 8, length, 64))
    k = rng.normal(size=(8, 64))

    def setup():
        return (solo_rows(keys),)

    def run(cache):
        pool, table = cache.pool, cache.tables[0]
        for i in range(n_appends):
            pool.append(table, k, k, length + i)

    return _time(setup, run, rounds)


def bench_score_update(policy_cls, length: int, rounds: int) -> dict:
    """Time one policy score-accumulator update at a given context length."""
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(1, 32, length))
    probs = softmax(logits, axis=-1)
    positions = np.broadcast_to(np.arange(length), (1, 32, length))

    def setup():
        if policy_cls is KeyformerPolicy:
            policy = KeyformerPolicy(KeyformerConfig(kv_fraction=0.5))
        else:
            policy = policy_cls()
        policy.setup(n_layers=1, n_heads=32, batch_size=1, prompt_len=2 * length, max_new_tokens=64)
        return (policy,)

    return _time(setup, lambda p: p.step_selection(0, logits, probs, positions, 1), rounds)


def bench_mixed_topk(length: int, rounds: int) -> dict:
    """Time the mixed recent+top-k selection kernel."""
    scores = np.random.default_rng(5).normal(size=(4, 32, length))
    return _time(None, lambda: mixed_topk_selection(scores, length // 2, length // 8), rounds)


# ----------------------------------------------------------------------
# serving: continuous batching vs sequential, aggregate decode throughput
# ----------------------------------------------------------------------
def _serve_model() -> DecoderLM:
    config = ModelConfig(
        vocab_size=256,
        d_model=128,
        n_layers=4,
        n_heads=8,
        d_ff=512,
        max_seq_len=2 * SERVE_PROMPT_LEN + SERVE_TOKENS + 64,
        positional="rope",
    )
    return DecoderLM(config, seed=0)


def _serve_policy_factory(policy_name: str):
    if policy_name == "window":
        return lambda: WindowAttentionPolicy(CachePolicyConfig(kv_budget=SERVE_BUDGET))
    if policy_name == "keyformer":
        return lambda: KeyformerPolicy(KeyformerConfig(kv_budget=SERVE_BUDGET))
    raise KeyError(f"unknown serving policy {policy_name!r}")


def _serve_prompts() -> list[np.ndarray]:
    return [
        np.random.default_rng(i)
        .integers(0, 256, size=SERVE_PROMPT_LEN + 8 * i)
        .astype(np.int64)
        for i in range(SERVE_BATCH)
    ]


def bench_serving(policy_name: str, rounds: int) -> tuple[dict, dict, dict]:
    """Aggregate decode tokens/sec: 4 requests one-by-one vs one continuous batch.

    Prompt processing runs in untimed setup for both sides (it is identical
    work — the engine prefills each request through the same full forward
    pass); timings cover the token-generation phase that serving throughput
    is about.  Returns ``(sequential, batched, speedup)`` component dicts.
    """
    model = _serve_model()
    prompts = _serve_prompts()
    factory = _serve_policy_factory(policy_name)
    total_tokens = SERVE_BATCH * SERVE_TOKENS

    def sequential_setup():
        runs = []
        for prompt in prompts:
            generator = Generator(model, factory())
            logits, manager = generator._prompt_forward(prompt[None, :], SERVE_TOKENS)
            runs.append((manager, logits))
        return (runs,)

    def sequential_run(runs):
        for manager, logits in runs:
            _decode_loop(model, manager, logits, SERVE_TOKENS)

    def batched_setup():
        engine = ContinuousBatchingEngine(
            model, policy_factory=factory, max_batch_size=SERVE_BATCH
        )
        config = GenerationConfig(max_new_tokens=SERVE_TOKENS)
        for prompt in prompts:
            engine.submit(prompt, config, sampler=GreedySampler())
        for state in engine.scheduler.admit(0, 0):
            engine._prefill(state)
        engine._record_rows(range(engine.n_running))
        return (engine,)

    def batched_run(engine):
        while engine.has_work:
            engine._decode()
            engine._record_rows(range(engine.n_running))

    sequential = _time(sequential_setup, sequential_run, rounds)
    batched = _time(batched_setup, batched_run, rounds)
    for timing in (sequential, batched):
        timing["tokens"] = total_tokens
        timing["tokens_per_s"] = round(total_tokens / timing["min_s"], 1)
    speedup = {
        "speedup": round(sequential["min_s"] / batched["min_s"], 2),
        "rounds": rounds,
    }
    return sequential, batched, speedup


def bench_shared_prefix(rounds: int) -> dict[str, dict]:
    """Prefix-sharing payoff: one engine run with sharing on vs off.

    Both sides run the identical request stream (common ``SHARED_PREFIX_LEN``
    prompt prefix, distinct suffixes, short decode) end to end — prefill *is*
    the timed hot path here.  Reports wall-clock for both modes, their ratio,
    and the deterministic prefill-token savings
    (``prompt_tokens / computed_tokens``, machine-independent), both gated as
    dimensionless ratios by ``check_regression.py``.
    """
    from repro.serving.engine import ContinuousBatchingEngine as Engine

    model = _serve_model()
    factory = _serve_policy_factory("window")
    rng = np.random.default_rng(11)
    prefix = rng.integers(0, 256, size=SHARED_PREFIX_LEN)
    prompts = [
        np.concatenate([prefix, rng.integers(0, 256, size=SHARED_SUFFIX_LEN)]).astype(
            np.int64
        )
        for _ in range(SERVE_BATCH)
    ]
    config = GenerationConfig(max_new_tokens=SHARED_DECODE_TOKENS)

    savings = 1.0

    def setup(sharing: bool):
        def build():
            engine = Engine(
                model,
                policy_factory=factory,
                max_batch_size=SERVE_BATCH,
                enable_prefix_sharing=sharing,
            )
            for prompt in prompts:
                engine.submit(prompt, config, sampler=GreedySampler())
            return (engine,)

        return build

    def run_shared(engine):
        nonlocal savings
        engine.run()
        savings = engine.prefill_savings

    shared = _time(setup(True), run_shared, rounds)
    unshared = _time(setup(False), lambda engine: engine.run(), rounds)
    total_tokens = SERVE_BATCH * SHARED_DECODE_TOKENS
    for timing in (shared, unshared):
        timing["tokens"] = total_tokens
    return {
        f"serve_shared_prefix_on_{SHARED_PREFIX_LEN}": shared,
        f"serve_shared_prefix_off_{SHARED_PREFIX_LEN}": unshared,
        f"serve_shared_prefix_speedup_{SHARED_PREFIX_LEN}": {
            "speedup": round(unshared["min_s"] / shared["min_s"], 2),
            "rounds": rounds,
        },
        f"serve_shared_prefix_savings_{SHARED_PREFIX_LEN}": {
            # Deterministic counter ratio (prompt tokens / computed tokens):
            # identical on every machine, so the CI floor is exact.
            "speedup": round(savings, 2),
            "rounds": rounds,
        },
    }


def bench_admission_retention() -> dict[str, dict]:
    """Prefix retention under scan churn: W-TinyLFU vs LRU reclaim.

    Replays the deterministic churn trace (see the ``ADMISSION_*`` geometry
    constants) once per ``admission_policy`` at an identical pool budget and
    compares the registry's saved-prefill-token counters.  **Deterministic**
    (identical in smoke and full runs, on every machine): the trace is a
    pure function of a pinned seed, and the counters are exact integers —
    so the retention ratio is gated exactly by ``check_regression.py``.
    Wall clock is irrelevant here and never measured.
    """
    model = DecoderLM(
        ModelConfig(
            vocab_size=96,
            d_model=32,
            n_layers=2,
            n_heads=4,
            d_ff=64,
            max_seq_len=256,
            positional="rope",
        ),
        seed=0,
    )
    config = GenerationConfig(max_new_tokens=4)

    def replay(admission_policy: str) -> tuple[int, float]:
        rng = np.random.default_rng(7)
        hot = rng.integers(0, 96, size=ADMISSION_HOT_LEN).astype(np.int64)
        scans = iter(
            rng.integers(0, 96, size=ADMISSION_SCAN_LEN).astype(np.int64)
            for _ in range(ADMISSION_SCANS_PER_BURST * ADMISSION_BURSTS)
        )
        engine = ContinuousBatchingEngine(
            model,
            max_batch_size=2,
            max_pool_tokens=ADMISSION_POOL_TOKENS,
            admission_policy=admission_policy,
        )

        def serve(prompt):
            engine.submit(prompt, config, sampler=GreedySampler())
            engine.run()

        serve(hot)
        serve(hot)  # second pass promotes the hot chunks into protected
        for _ in range(ADMISSION_BURSTS):
            for _ in range(ADMISSION_SCANS_PER_BURST):
                serve(next(scans))
            serve(hot)
        registry = engine._manager.registry
        return registry.telemetry()["hit_tokens"], engine.prefill_savings

    lru_tokens, lru_savings = replay("lru")
    wt_tokens, wt_savings = replay("wtinylfu")
    return {
        "prefix_admission_hit_tokens_lru": {
            "hit_tokens": lru_tokens,
            "prefill_savings": round(lru_savings, 4),
        },
        "prefix_admission_hit_tokens_wtinylfu": {
            "hit_tokens": wt_tokens,
            "prefill_savings": round(wt_savings, 4),
        },
        "prefix_admission_retention": {
            # Saved-prefill-token ratio at equal pool budget — exact integer
            # counters, so the CI floor is exact.
            "speedup": round(wt_tokens / max(1, lru_tokens), 2),
            "rounds": 1,
        },
    }


# ----------------------------------------------------------------------
# quantized KV pages: memory ratios (gated) + accuracy delta (reported)
# ----------------------------------------------------------------------
def bench_quantized_kv() -> dict[str, dict]:
    """Memory win and accuracy cost of ``kv_dtype="int8"`` at 1k context.

    Deterministic, gated components (exact on every machine):

    * ``quant_kv_bytes_ratio_*`` — resident KV bytes/token of the
      full-precision store divided by the int8 store's, both *measured* from
      live pools holding a 1k-token sequence (acceptance floor: >= 1/0.55x).
    * ``quant_concurrency_ratio_*`` — resident tokens (hence concurrent
      sequences of a fixed per-request budget) a ``QUANT_POOL_BUDGET``-byte
      engine pool funds with int8 pages vs full-precision pages
      (acceptance floor: >= 2x).

    Informational components: greedy int8-vs-full-precision decode agreement,
    per-token
    log-probability MSE, final-step logit MSE and ROUGE-1/L of the generated
    sequences (the fig13 metric applied to the quantization delta), under
    both full attention and a Keyformer-evicted cache.
    """
    from repro.kvcache.batch import BatchedCacheManager
    from repro.metrics.rouge import rouge_l, rouge_n
    from repro.models.tensor_ops import log_softmax

    model = _serve_model()
    config = model.config
    prompt = np.random.default_rng(17).integers(
        0, 256, size=(1, QUANT_CONTEXT)
    ).astype(np.int64)

    # Measured bytes/token: seed the same 1k-token sequence into both stores.
    bytes_used = {}
    for kv_dtype in (None, "int8"):
        manager = BatchedCacheManager(
            n_layers=config.n_layers,
            n_heads=config.n_heads,
            d_head=config.d_head,
            max_batch=1,
            dtype=config.np_dtype,
            rope_dims=config.rope_dims,
            kv_dtype=kv_dtype,
        )
        rng = np.random.default_rng(3)
        keys = rng.normal(size=(1, config.n_heads, QUANT_CONTEXT, config.d_head))
        pos = np.broadcast_to(
            np.arange(QUANT_CONTEXT), (1, config.n_heads, QUANT_CONTEXT)
        )
        for cache in manager.caches:
            cache.join_row(0, keys, keys, pos)
        bytes_used[kv_dtype] = manager.pool_usage()["bytes_used"]
    bytes_ratio = bytes_used[None] / bytes_used["int8"]

    # Engine-level capacity under one fixed byte budget: how many tokens
    # (and therefore fixed-budget sequences) the pool can hold resident.
    tokens = {}
    for kv_dtype in (None, "int8"):
        engine = ContinuousBatchingEngine(
            model, max_pool_bytes=QUANT_POOL_BUDGET, kv_dtype=kv_dtype
        )
        tokens[kv_dtype] = engine.max_pool_tokens
    concurrency_ratio = tokens["int8"] / tokens[None]

    # Accuracy delta: greedy full-precision vs int8 generation, same prompt.
    accuracy = {}
    for policy_name in ("full", "keyformer"):
        results = {}
        logits_final = {}
        for kv_dtype in (None, "int8"):
            if policy_name == "keyformer":
                policy = make_policy("keyformer", kv_fraction=0.5)
            else:
                policy = make_policy(policy_name)
            generator = Generator(model, policy, kv_dtype=kv_dtype)
            logits, manager = generator._prompt_forward(prompt, DECODE_TOKENS)
            views = manager.layer_views()
            toks, logprobs = [], []
            step_logits = logits
            for _ in range(DECODE_TOKENS):
                token = int(np.argmax(step_logits[0]))
                toks.append(token)
                logprobs.append(float(log_softmax(step_logits, axis=-1)[0, token]))
                step_logits = model.decode_step(
                    np.asarray([token]), manager.query_positions(), views
                )
                manager.advance()
            results[kv_dtype] = (toks, np.asarray(logprobs))
            logits_final[kv_dtype] = step_logits[0]
        ref_tokens, ref_lp = results[None]
        q_tokens, q_lp = results["int8"]
        ref_text = " ".join(map(str, ref_tokens))
        q_text = " ".join(map(str, q_tokens))
        accuracy[policy_name] = {
            "token_agreement": float(np.mean(np.asarray(ref_tokens) == q_tokens)),
            "logprob_mse": float(np.mean((ref_lp - q_lp) ** 2)),
            "logit_mse": float(
                np.mean((logits_final[None] - logits_final["int8"]) ** 2)
            ),
            "rouge1_f": round(rouge_n(q_text, ref_text, 1).f1, 4),
            "rougeL_f": round(rouge_l(q_text, ref_text).f1, 4),
            "tokens": DECODE_TOKENS,
        }

    return {
        f"quant_kv_bytes_ratio_{QUANT_CONTEXT}": {
            "speedup": round(bytes_ratio, 2),
            "bytes_per_token_native": round(bytes_used[None] / QUANT_CONTEXT, 1),
            "bytes_per_token_int8": round(bytes_used["int8"] / QUANT_CONTEXT, 1),
            "rounds": 1,
        },
        f"quant_concurrency_ratio_{QUANT_CONTEXT}": {
            "speedup": round(concurrency_ratio, 2),
            "pool_budget_bytes": QUANT_POOL_BUDGET,
            "resident_tokens_native": tokens[None],
            "resident_tokens_int8": tokens["int8"],
            "rounds": 1,
        },
        f"quant_accuracy_full_{QUANT_CONTEXT}": accuracy["full"],
        f"quant_accuracy_keyformer_{QUANT_CONTEXT}": accuracy["keyformer"],
    }


# ----------------------------------------------------------------------
# tiered KV offload: resident-capacity amplification at one page count
# ----------------------------------------------------------------------
def bench_offload_capacity() -> dict[str, dict]:
    """Serving capacity a fixed number of resident pages funds with KV offload on.

    Two engines get the **same page count** (see the ``OFFLOAD_*`` geometry
    constants): the baseline as its entire page pool (``max_pool_bytes`` of
    ``page_bytes`` each), the tiered engine as tier-0 residency
    (``tier0_budget`` of ``tier0_frame_bytes`` each, the price a tier-0
    frame pays until ROADMAP 22(e) removes it) under a 4x larger logical
    pool whose cold pages spill to the in-memory arena.  Both serve the
    identical 4-request workload; the gated ``speedup`` is the ratio of
    **peak live mapped pages** — the KV data each engine could keep in
    flight per resident page.
    **Deterministic** (pure page accounting on a pinned greedy workload, no
    wall clock), so check_regression.py gates the pinned ratio exactly; the
    component additionally hard-fails unless both engines' outputs are
    bit-identical (offload must never show up in the tokens) and the tiered
    engine actually produced spill/restore traffic (the ratio would
    otherwise measure nothing).
    """
    model = _model(max_seq_len=512)
    pool_bytes = OFFLOAD_FRAMES * EngineConfig().page_bytes(model.config)
    tier0_budget = OFFLOAD_FRAMES * EngineConfig().tier0_frame_bytes(model.config)
    rng = np.random.default_rng(29)
    prompts = [
        rng.integers(0, 256, size=OFFLOAD_PROMPT_LEN).astype(np.int64)
        for _ in range(OFFLOAD_BATCH)
    ]
    gen_config = GenerationConfig(max_new_tokens=OFFLOAD_DECODE_TOKENS)

    def serve(offload: bool) -> tuple[list, int, dict]:
        if offload:
            engine = ContinuousBatchingEngine(
                model,
                max_batch_size=OFFLOAD_BATCH,
                max_pool_tokens=OFFLOAD_LOGICAL_MULT * OFFLOAD_FRAMES * 16,
                tier0_budget=tier0_budget,
                spill_backend="compressed",
                enable_prefix_sharing=False,
            )
        else:
            engine = ContinuousBatchingEngine(
                model,
                max_batch_size=OFFLOAD_BATCH,
                max_pool_bytes=pool_bytes,
                enable_prefix_sharing=False,
            )
        states = [
            engine.submit(p, gen_config, sampler=GreedySampler()) for p in prompts
        ]
        peak_pages = 0
        while engine.has_work:
            engine.step()
            usage = engine.pool_usage()
            peak_pages = max(peak_pages, usage.get("pages_used", 0))
        outputs = [(s.tokens, s.result().log_probs) for s in states]
        return outputs, peak_pages, engine.pool_usage().get("tier", {})

    base_outputs, base_peak, _ = serve(offload=False)
    tier_outputs, tier_peak, tier = serve(offload=True)
    if tier_outputs != base_outputs:
        raise AssertionError(
            "offload engine outputs diverged from the no-offload baseline"
        )
    if not (tier.get("spills", 0) > 0 and tier.get("restores", 0) > 0):
        raise AssertionError(
            "offload engine produced no spill traffic — capacity ratio is vacuous"
        )
    return {
        "offload_capacity_ratio": {
            # Peak live mapped pages per fixed resident page count, offload
            # over baseline — exact page counters, so the CI floor is exact.
            "speedup": round(tier_peak / max(1, base_peak), 2),
            "tier0_budget_bytes": int(tier0_budget),
            "peak_pages_no_offload": int(base_peak),
            "peak_pages_offload": int(tier_peak),
            "spills": int(tier["spills"]),
            "restores": int(tier["restores"]),
            "outputs_identical": True,
            "rounds": 1,
        }
    }


# ----------------------------------------------------------------------
# speculative decoding: draft-then-verify vs vanilla greedy decode
# ----------------------------------------------------------------------
def bench_spec_decode(rounds: int) -> dict[str, dict]:
    """Decode throughput of speculative vs vanilla greedy decoding at 1k context.

    All components run the inference dtype (float32) and time only the
    token-generation phase.  The baseline is the same full-attention greedy
    decode the ``decode_full_*`` components measure, with the prompt forward
    in untimed setup.  The speculative side drives
    :class:`SpeculativeGenerator`'s engine with the n-gram drafter: untimed
    setup ends with the step that joins the request (prompt pass and the
    first verify round), and ``tokens`` counts only the tokens the timed
    steps commit.  The ngram-vs-baseline ratio of seconds per decoded token
    is pinned as a dimensionless ``speedup`` and gated by
    ``check_regression.py`` like the serving ratios.
    """
    model = _model(max_seq_len=2 * SPEC_CONTEXT + 64, dtype="float32")
    prompt = np.random.default_rng(1).integers(0, 256, size=(1, SPEC_CONTEXT))
    config = GenerationConfig(max_new_tokens=DECODE_TOKENS)

    def baseline_setup():
        generator = Generator(model, make_policy("full"))
        logits, manager = generator._prompt_forward(prompt, DECODE_TOKENS)
        return (model, manager, logits, DECODE_TOKENS)

    baseline = _time(baseline_setup, _decode_loop, rounds)
    baseline["tokens"] = DECODE_TOKENS

    def spec_components(spec: SpeculationConfig) -> dict:
        generator = SpeculativeGenerator(model, spec)
        finished: list[tuple[int, float]] = []

        def setup():
            engine = generator._engine()
            state = engine.submit(prompt[0], config, sampler=GreedySampler())
            engine.step()
            return engine, state

        def run(engine, state):
            joined = len(state.tokens)
            engine.run()
            acceptance = state.result().speculation["acceptance_rate"]
            finished.append((len(state.tokens) - joined, acceptance))

        timing = _time(setup, run, rounds)
        timing["tokens"], timing["acceptance_rate"] = finished[-1]
        return timing

    ngram = spec_components(SpeculationConfig(k=SPEC_DRAFT_K))
    for timing in (baseline, ngram):
        timing["tokens_per_s"] = round(timing["tokens"] / timing["min_s"], 1)
    return {
        f"spec_decode_baseline_{SPEC_CONTEXT}": baseline,
        f"spec_decode_ngram_{SPEC_CONTEXT}": ngram,
        f"spec_decode_speedup_ngram_{SPEC_CONTEXT}": {
            "speedup": round(
                (baseline["min_s"] / baseline["tokens"]) / (ngram["min_s"] / ngram["tokens"]),
                2,
            ),
            "rounds": rounds,
        },
    }


def bench_chaos_recovery(rounds: int) -> dict[str, dict]:
    """Wall-clock overhead of fault recovery (informational, not gated).

    Runs the same 4-request serving workload twice — fault-free, then with a
    pinned seeded ``FaultInjector`` aggressive enough to force retries at
    every injection point class — and records the dimensionless
    ``overhead_ratio`` (faulted / clean median wall-clock) plus the fault and
    retry counts.  The keys deliberately avoid ``min_s``/``speedup`` so
    ``check_regression.py`` treats the component as informational: recovery
    cost tracks fault *placement*, which the pinned seed keeps stable, but a
    gate on it would really be gating the injection schedule.
    """
    from repro.serving.faults import FaultInjector

    model = _model(max_seq_len=512)
    prompt_rng = np.random.default_rng(11)
    prompts = [prompt_rng.integers(0, 256, size=n) for n in (96, 48, 72, 60)]
    config = GenerationConfig(max_new_tokens=24)
    telemetry: dict[str, int] = {"faults": 0, "retries": 0}

    def run_workload(faults):
        engine = ContinuousBatchingEngine(
            model,
            max_batch_size=SERVE_BATCH,
            enable_prefix_sharing=False,
            faults=faults,
            max_retries=3,
            retry_backoff_steps=1,
        )
        for prompt in prompts:
            engine.submit(prompt, config, sampler=GreedySampler())
        engine.run()
        if faults is not None:
            stats = engine.fault_telemetry()
            telemetry["faults"] = stats["faults"]
            telemetry["retries"] = stats["retries"]

    clean = _time(None, lambda: run_workload(None), rounds)
    faulted = _time(None, lambda: run_workload(FaultInjector(rate=0.02, seed=7)), rounds)
    return {
        "chaos_recovery_overhead": {
            "overhead_ratio": round(faulted["median_s"] / clean["median_s"], 3),
            "clean_median_s": clean["median_s"],
            "faulted_median_s": faulted["median_s"],
            "faults_injected": telemetry["faults"],
            "retries": telemetry["retries"],
            "rounds": rounds,
        }
    }


# ----------------------------------------------------------------------
# trace-driven load latency: percentile telemetry + chunked-prefill gate
# ----------------------------------------------------------------------
def bench_load_latency() -> dict[str, dict]:
    """Latency-distribution components from trace replays in virtual time.

    Both components are **deterministic**: the load harness measures TTFT /
    TPOT in virtual step-time (an analytical cost per engine step — see
    ``docs/workloads.md``), so the same pinned trace yields the same
    percentiles on every machine, and identical values in smoke and full
    runs.

    * ``load_ttft_zipf_trace`` — informational p50/p99 TTFT and TPOT plus
      goodput for a Zipf-shared mixed-length trace under the priority
      scheduler with chunked prefill (the harness's default shape).
    * ``load_chunked_ttft_gain_32`` — **gated** ratio: interactive-tier p99
      TTFT of the unchunked scheduler divided by the chunked one (budget 32)
      on a trace mixing a few long batch-tier prompts into a stream of short
      interactive ones, at equal throughput (the ``throughput_ratio`` key
      records how close).  Chunking caps the stall a long prefill inflicts
      on its neighbours, which is exactly what the interactive tail sees.
    """
    from repro.perfmodel.serving import StepCostModel
    from repro.serving.slo import (
        TIER_BATCH,
        TIER_INTERACTIVE,
        PriorityScheduler,
        SLOSpec,
    )
    from repro.serving.workload import (
        Trace,
        TraceEvent,
        WorkloadConfig,
        generate_trace,
        replay_trace,
    )

    config = ModelConfig(
        vocab_size=128,
        d_model=64,
        n_layers=2,
        n_heads=4,
        d_ff=128,
        max_seq_len=512,
        positional="rope",
    )
    model = DecoderLM(config, seed=0)
    cost = StepCostModel()

    def replay(trace, chunk_tokens, max_batch_size=8):
        scheduler = PriorityScheduler(
            max_batch_size=max_batch_size, prefill_chunk_tokens=chunk_tokens
        )
        engine = ContinuousBatchingEngine(model, scheduler=scheduler)
        result = replay_trace(
            engine, trace, cost, slo=SLOSpec.three_tier(ttft=200.0, e2e=1200.0)
        )
        return result.report.to_dict(), result.engine_stats

    # Percentile telemetry: Zipf-shared, mixed prompt/output lengths.
    zipf_trace = generate_trace(
        WorkloadConfig(
            n_requests=32,
            vocab_size=128,
            arrival="bursty",
            mean_interarrival=8.0,
            prompt_len_range=(8, 96),
            output_len_choices=(4, 16, 48),
            output_len_weights=(0.3, 0.5, 0.2),
            tier_weights={TIER_BATCH: 0.3, 1: 0.5, TIER_INTERACTIVE: 0.2},
        ),
        seed=0,
    )
    zipf_report, zipf_stats = replay(zipf_trace, chunk_tokens=32, max_batch_size=4)

    # Chunked-prefill gate geometry: every 7th request is a long batch-tier
    # prompt; the rest are short interactive ones whose TTFT tail measures
    # the prefill stall.  Prompts are unique (no shared prefix) so prefix
    # sharing cannot shortcut the long prefills under test.
    rng = np.random.default_rng(0)
    events = []
    t = 0.0
    for i in range(28):
        t += float(rng.exponential(4.0))
        if i % 7 == 0:
            prompt = tuple(int(x) for x in rng.integers(0, 128, size=300))
            events.append(TraceEvent(t, prompt, 16, priority=TIER_BATCH))
        else:
            prompt = tuple(int(x) for x in rng.integers(0, 128, size=12))
            events.append(TraceEvent(t, prompt, 8, priority=TIER_INTERACTIVE))
    gate_trace = Trace(events=tuple(events), seed=0)

    unchunked, _ = replay(gate_trace, chunk_tokens=None)
    chunked, chunk_stats = replay(gate_trace, chunk_tokens=32)
    tier = str(TIER_INTERACTIVE)
    p99_unchunked = unchunked["per_tier"][tier]["ttft"]["p99"]
    p99_chunked = chunked["per_tier"][tier]["ttft"]["p99"]
    throughput_ratio = (
        chunked["throughput"]["tokens_per_time"]
        / unchunked["throughput"]["tokens_per_time"]
    )

    return {
        "load_ttft_zipf_trace": {
            "ttft_p50": zipf_report["ttft"]["p50"],
            "ttft_p99": zipf_report["ttft"]["p99"],
            "tpot_p50": zipf_report["tpot"]["p50"],
            "tpot_p99": zipf_report["tpot"]["p99"],
            "goodput": zipf_report["goodput"],
            "n_requests": zipf_report["n_requests"],
            "n_prefill_chunks": zipf_stats["n_prefill_chunks"],
            "rounds": 1,
        },
        "load_chunked_ttft_gain_32": {
            "speedup": round(p99_unchunked / p99_chunked, 2),
            "ttft_p99_unchunked": p99_unchunked,
            "ttft_p99_chunked": p99_chunked,
            "throughput_ratio": round(throughput_ratio, 3),
            "n_prefill_chunks": chunk_stats["n_prefill_chunks"],
            "rounds": 1,
        },
    }


# ----------------------------------------------------------------------
# sharded serving: aggregate throughput scaling across engine replicas
# ----------------------------------------------------------------------
def bench_shard_scaling() -> dict[str, dict]:
    """Aggregate decode throughput of 4 sharded replicas vs a single engine.

    **Deterministic** (identical in smoke and full runs): both sides replay
    the same pinned shared-prefix Zipf trace in virtual step-time, where a
    sharded super-step costs the *slowest* replica's step — the virtual
    clock models replicas running on parallel hardware, which is the only
    machine-independent way to gate scaling (wall clock on a single-core CI
    box would serialize the workers and gate nothing).  The inline backend
    runs the exact worker-server code in-process; the multiprocessing
    transport produces bit-identical reports (``make load-smoke`` and the
    sharded test suite pin that), so this measures routing + scheduling,
    not pickling.

    ``shard_scaling_throughput_4x`` is **gated** on ``speedup``: completed
    tokens per virtual-time unit for a 4-replica
    :class:`~repro.serving.sharded.ShardedEngine` behind the
    prefix-affinity router (``spill_load=6``, so a hot prefix overflows its
    owner once the owner's backlog exceeds one and a half batches), over
    the single engine on the same trace.  The saturated bound is ~4x (four
    batches of decode rows per super-step); arrival gaps and prefill dilute
    it — the acceptance floor is 2x.

    The ``*_affinity_only`` keys record the same 4-replica run with
    spilling disabled: the Zipf head concentrates on one replica, which
    preserves the full single-engine prefix savings (``prefill_savings_*``)
    but caps the speedup — the affinity/balance tradeoff ``spill_load``
    exists to tune.
    """
    from repro.perfmodel.serving import StepCostModel
    from repro.serving.scheduler import PagedScheduler
    from repro.serving.sharded import PrefixAffinityRouter, ReplicaSpec, ShardedEngine
    from repro.serving.workload import WorkloadConfig, generate_trace, replay_trace

    config = ModelConfig(
        vocab_size=128,
        d_model=64,
        n_layers=2,
        n_heads=4,
        d_ff=128,
        max_seq_len=512,
        positional="rope",
    )
    # Arrivals fast enough to keep 4 replicas' batches fed; a hot Zipf
    # prefix pool so routing quality shows up in prefill_savings.
    trace = generate_trace(
        WorkloadConfig(
            n_requests=48,
            vocab_size=128,
            mean_interarrival=0.5,
            n_prefixes=4,
            prefix_share_prob=0.8,
            prefix_len_pages=2,
            suffix_len_range=(4, 16),
            prompt_len_range=(8, 48),
            output_len_choices=(16,),
            output_len_weights=(1.0,),
        ),
        seed=7,
    )
    cost = StepCostModel()

    def single() -> tuple[float, float]:
        engine = ContinuousBatchingEngine(
            DecoderLM(config, seed=0), scheduler=PagedScheduler(max_batch_size=4)
        )
        result = replay_trace(engine, trace, cost)
        tput = result.report.to_dict()["throughput"]["tokens_per_time"]
        return tput, engine.prefill_savings

    def sharded(n: int, spill_load: int | None) -> tuple[float, float, dict]:
        spec = ReplicaSpec(model_config=config, model_seed=0, max_batch_size=4)
        router = PrefixAffinityRouter(n, spill_load=spill_load)
        engine = ShardedEngine(spec, n, router=router, backend="inline")
        try:
            result = replay_trace(engine, trace, cost)
            tput = result.report.to_dict()["throughput"]["tokens_per_time"]
            return tput, engine.prefill_savings, engine.router.telemetry()
        finally:
            engine.shutdown()

    tput_1, savings_1 = single()
    tput_2, _, _ = sharded(2, spill_load=6)
    tput_4, savings_4, router = sharded(4, spill_load=6)
    tput_aff, savings_aff, _ = sharded(4, spill_load=None)

    return {
        "shard_scaling_throughput_4x": {
            "speedup": round(tput_4 / tput_1, 2),
            "speedup_2x": round(tput_2 / tput_1, 2),
            "speedup_affinity_only": round(tput_aff / tput_1, 2),
            "tokens_per_vtime_single": round(tput_1, 4),
            "tokens_per_vtime_sharded2": round(tput_2, 4),
            "tokens_per_vtime_sharded4": round(tput_4, 4),
            "prefill_savings_single": round(savings_1, 3),
            "prefill_savings_sharded4": round(savings_4, 3),
            "prefill_savings_affinity_only": round(savings_aff, 3),
            "n_spilled": router["n_spilled"],
            "rounds": 1,
        }
    }


def run_suite(smoke: bool = False) -> dict:
    """Run every component and return ``name -> timing`` results.

    The headline ``decode_*`` components run at the inference compute dtype
    (float32 when the tree supports it — the documented deployment default);
    the ``_f64`` variants isolate the structural slab/rotation win at the
    bit-exact training/test dtype.
    """
    rounds = 2 if smoke else 3
    decode_rounds = 3 if smoke else 5
    fast_rounds = 3 if smoke else 7
    model_small = _model(max_seq_len=1024)

    components: dict[str, dict] = {}
    components["prompt_forward_256"] = bench_prompt_forward(model_small, 256, rounds)
    # The Keyformer prompt pass at the serve_keyformer_long geometry (float64,
    # d_model=128, a 768-token prompt, a Keyformer policy scored block by
    # block): guards the row-blocked causal-half attention kernel and the
    # fused prompt scoring.
    model_prompt = _model(max_seq_len=1024, d_model=128, d_ff=512)
    components["prompt_forward_768_f64"] = bench_prompt_forward(
        model_prompt, 768, rounds, policy_name="keyformer"
    )
    components["generation_keyformer_128"] = bench_generation(model_small, "keyformer", 128, rounds)
    components["generation_full_128"] = bench_generation(model_small, "full", 128, rounds)
    # The inference-dtype decode components run at both contexts in BOTH
    # modes so the CI regression gate can compare the smoke run against the
    # pinned full report by name — including the Keyformer-vs-full ratio at
    # 1k context; only the full run adds the float64 pair at 1024.
    for ctx in (256, 1024):
        model_ctx_inf = _model(max_seq_len=2 * ctx + 64, dtype="float32")
        components[f"decode_keyformer_{ctx}"] = bench_decode(
            model_ctx_inf, "keyformer", ctx, decode_rounds
        )
        components[f"decode_full_{ctx}"] = bench_decode(
            model_ctx_inf, "full", ctx, decode_rounds
        )
        if ctx == 256 or not smoke:
            model_ctx_f64 = _model(max_seq_len=2 * ctx + 64)
            components[f"decode_keyformer_{ctx}_f64"] = bench_decode(
                model_ctx_f64, "keyformer", ctx, decode_rounds
            )
            components[f"decode_full_{ctx}_f64"] = bench_decode(
                model_ctx_f64, "full", ctx, decode_rounds
            )
    # ROADMAP item 1's ratio: decode wall-clock of full attention over
    # Keyformer@0.5 at 1k context (paper Fig. 9 says > 1; the open target is
    # >= 1.0).  Dimensionless, so check_regression.py gates it directly.
    components["keyformer_vs_full_decode_1024"] = {
        "speedup": round(
            components["decode_full_1024"]["min_s"]
            / components["decode_keyformer_1024"]["min_s"],
            2,
        ),
        "rounds": decode_rounds,
    }
    components["cache_gather_1024"] = bench_cache_gather(1024, fast_rounds)
    # 256 appends per round: the per-append cost is ~microseconds, so a
    # longer run keeps one scheduler burst from dominating the minimum (the
    # regression gate compares min_s across machines).
    components["cache_append_1024"] = bench_cache_append(1024, 256, fast_rounds)
    # Serving benchmark: same geometry in smoke and full runs so the CI
    # regression gate can compare against the pinned report by name.  The
    # serving ratios are gated directly (no machine normalization), so they
    # get extra rounds — the min of too few rounds is noisy on shared boxes.
    serve_rounds = 4 if smoke else 6
    for serve_policy in ("window", "keyformer"):
        sequential, batched, speedup = bench_serving(serve_policy, serve_rounds)
        components[f"serve_seq{SERVE_BATCH}_{serve_policy}_{SERVE_PROMPT_LEN}"] = sequential
        components[f"serve_batch{SERVE_BATCH}_{serve_policy}_{SERVE_PROMPT_LEN}"] = batched
        components[f"serve_speedup_{serve_policy}_{SERVE_PROMPT_LEN}"] = speedup
    components.update(bench_shared_prefix(serve_rounds))
    # Admission retention is deterministic counter accounting on a pinned
    # churn trace — identical in smoke and full runs, gated exactly.
    components.update(bench_admission_retention())
    # Quantized-KV components are deterministic byte accounting plus a fixed
    # greedy accuracy probe — identical in smoke and full runs, so the CI
    # gate compares the pinned memory ratios exactly.
    components.update(bench_quantized_kv())
    # Tiered-offload capacity: deterministic page accounting at one page
    # count, identical in smoke and full runs; the ratio is gated exactly
    # and the component itself asserts bit-identical outputs.
    components.update(bench_offload_capacity())
    # Speculative decoding runs the same 1k geometry in smoke and full modes
    # so the CI gate can compare the pinned speedup ratio by name.
    components.update(bench_spec_decode(3 if smoke else 5))
    # Fault-recovery overhead: pinned-seed fault campaign vs its fault-free
    # twin; informational only (no min_s/speedup keys), see the docstring.
    components.update(bench_chaos_recovery(rounds))
    # Trace-driven load latency: deterministic virtual-time percentiles, the
    # same in smoke and full runs; the chunked-prefill TTFT gain is gated.
    components.update(bench_load_latency())
    # Sharded serving: deterministic virtual-time replica-scaling ratio on a
    # shared-prefix Zipf trace; the 4-replica aggregate throughput is gated.
    components.update(bench_shard_scaling())
    if not smoke:
        components["keyformer_score_update_1025"] = bench_score_update(
            KeyformerPolicy, 1025, fast_rounds
        )
        components["h2o_score_update_1025"] = bench_score_update(H2OPolicy, 1025, fast_rounds)
        components["mixed_topk_2048"] = bench_mixed_topk(2048, fast_rounds)
    return components


def main() -> None:
    """CLI entry point: run the suite (or --smoke subset) and write the report."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--smoke", action="store_true", help="fast CI subset")
    parser.add_argument(
        "--compare", type=Path, default=None, help="older report to embed as baseline"
    )
    args = parser.parse_args()

    components = run_suite(smoke=args.smoke)

    report = {
        "meta": {
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "smoke": args.smoke,
            "decode_tokens": DECODE_TOKENS,
        },
        "components": components,
    }

    if args.compare is not None and args.compare.exists():
        baseline = json.loads(args.compare.read_text())
        base_components = baseline.get("components", baseline)
        report["baseline"] = base_components
        # Speedups compare best-observed (min) times: on shared single-core
        # machines the minimum is robust to scheduler interference, while the
        # median of either run can be inflated by an unlucky burst.
        report["speedup_vs_baseline"] = {
            name: round(base_components[name]["min_s"] / timing["min_s"], 2)
            for name, timing in components.items()
            if name in base_components
            and "min_s" in base_components[name]
            and timing.get("min_s", 0) > 0
        }

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\n[written to {args.output}]")


if __name__ == "__main__":
    main()
