"""Workloads of the end-to-end benchmark: inputs, closed-loop drivers, checks.

Every workload is a closed loop over public entry points only —
``Generator.generate`` for the solo workloads, ``ContinuousBatchingEngine``
``submit`` / ``step`` / ``has_work`` / ``pool_usage`` and its public counters
for the serving ones.  A client submits its next request in the same loop
iteration in which its previous one is observed finished, so the step
schedule is a pure function of the inputs and the wall clock only measures
it.  One *round* is one pass over a workload's requests with a fresh engine;
a run repeats identical rounds until its time budget is spent, which is
what lets every round act as a determinism oracle for the others.

What ``--seed`` draws is token ids.  Lengths, the prefix-sharing pattern,
tiers and output lengths are pinned per workload (``STRUCTURE_SEED``), so
every seed runs the same schedule and the exact counters — and
``peak_kv_bytes`` — do not depend on it.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from collections import deque
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from repro import DecoderLM, GenerationConfig, Generator, ModelConfig, make_policy
from repro.generation.sampler import GreedySampler
from repro.serving import (
    ContinuousBatchingEngine,
    FinishReason,
    PriorityScheduler,
    RequestStatus,
    WorkloadConfig,
    generate_trace,
)

from e2e_trace import EXACT_COUNTERS, Tracer, layer_metrics, quantile

#: Shared model geometry; ``max_seq_len`` and dtype are per workload.
GEOMETRY = dict(vocab_size=256, d_model=128, n_layers=4, n_heads=8, d_ff=512, positional="rope")
#: name -> unit of every end-to-end metric, in reporting order.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "tokens_per_s": "tok/s",
    "ttft_p50_s": "s",
    "tpot_p50_s": "s",
    "peak_kv_bytes": "bytes",
    "peak_rss_mb": "MiB",
}
#: Seed of everything about a workload's inputs that is *not* a token id.
STRUCTURE_SEED = 0
#: One request in this many is regenerated solo and compared (serving).
VERIFY_STRIDE = 8
#: Chunked prefill at this geometry leaves float64 log-probs 1-2 ulp away
#: from solo generation (tokens stay identical), so the README's bit-exact
#: contract is checked on tokens and, for log-probs, to this tolerance.
LOGPROB_REL_TOL = 1e-12


@dataclass(frozen=True)
class RequestSpec:
    """One request as the program receives it: token ids, never the seed."""

    prompt: np.ndarray
    max_new_tokens: int
    priority: int = 0


@dataclass(frozen=True)
class Workload:
    """A named closed-loop traffic mix; ``full`` / ``smoke`` shape one round."""

    name: str
    serve: bool
    compute_dtype: str
    keyformer: bool
    full: dict
    smoke: dict
    n_clients: int = 1
    max_batch_size: int = 1
    #: ``PriorityScheduler`` with this chunked-prefill budget instead of the
    #: engine's default scheduler.
    priority_chunk_tokens: int | None = None

    def policy(self):
        """A fresh eviction policy instance for one request."""
        return make_policy("keyformer", kv_fraction=0.5) if self.keyformer else make_policy("full")


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
_LONG = dict(n_requests=1, prompt_len=(1024, 1024), new_tokens=1024)
_LONG_SMOKE = dict(n_requests=2, prompt_len=(96, 96), new_tokens=24)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="solo_full_long",
            serve=False,
            compute_dtype="float32",
            keyformer=False,
            full=_LONG,
            smoke=_LONG_SMOKE,
        ),
        Workload(
            name="solo_keyformer_long",
            serve=False,
            compute_dtype="float32",
            keyformer=True,
            full=_LONG,
            smoke=_LONG_SMOKE,
        ),
        Workload(
            name="serve_shared_mix",
            serve=True,
            compute_dtype="float64",
            keyformer=False,
            full=dict(
                n_requests=36,
                prefix_len_pages=16,
                suffix_len_range=(16, 96),
                prompt_len_range=(32, 384),
                output_len_choices=(16, 64, 128),
            ),
            smoke=dict(
                n_requests=16,
                prefix_len_pages=4,
                suffix_len_range=(4, 12),
                prompt_len_range=(8, 96),
                output_len_choices=(2, 4, 8),
            ),
            n_clients=12,
            max_batch_size=8,
            priority_chunk_tokens=64,
        ),
        Workload(
            name="serve_keyformer_long",
            serve=True,
            compute_dtype="float64",
            keyformer=True,
            full=dict(n_requests=4, prompt_len=(512, 768), new_tokens=128),
            smoke=dict(n_requests=4, prompt_len=(48, 72), new_tokens=6),
            n_clients=4,
            max_batch_size=4,
        ),
        Workload(
            name="serve_offload_tight",
            serve=True,
            compute_dtype="float64",
            keyformer=False,
            # 77 of 132 peak live pages per layer resident; 78 would never
            # restore and 74 takes 12 s a round (see README).
            full=dict(n_requests=8, prompt_len=(192, 320), new_tokens=12, tier0_budget=15_500_000),
            smoke=dict(n_requests=4, prompt_len=(40, 72), new_tokens=4, tier0_budget=2_400_000),
            n_clients=4,
            max_batch_size=4,
        ),
    )
}


def _shared_mix_requests(rng, shape: dict) -> list[RequestSpec]:
    """The pinned Zipf shared-prefix trace with its token ids redrawn."""
    config = WorkloadConfig(
        n_prefixes=8,
        zipf_alpha=1.1,
        prefix_share_prob=0.7,
        output_len_weights=(0.3, 0.5, 0.2),
        tier_weights={0: 0.3, 1: 0.5, 2: 0.2},
        **shape,
    )
    trace = generate_trace(config, seed=STRUCTURE_SEED)
    prefixes = rng.integers(0, config.vocab_size, size=(config.n_prefixes, config.prefix_len))
    requests = []
    for event in trace.events:
        prompt = rng.integers(0, config.vocab_size, size=len(event.prompt_ids))
        if event.prefix_id is not None:
            prompt[: config.prefix_len] = prefixes[event.prefix_id]
        requests.append(RequestSpec(prompt, event.max_new_tokens, event.priority))
    return requests


def build_requests(shape: dict, seed: int) -> list[RequestSpec]:
    """The requests of one round of ``shape``, token ids drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if "prefix_len_pages" in shape:
        return _shared_mix_requests(rng, shape)
    lengths = np.linspace(*shape["prompt_len"], shape["n_requests"]).astype(int)
    return [
        RequestSpec(rng.integers(0, GEOMETRY["vocab_size"], size=n), shape["new_tokens"])
        for n in lengths
    ]


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
@dataclass
class Bench:
    """Everything a round needs, built once per process during set-up."""

    workload: Workload
    smoke: bool
    model: DecoderLM
    requests: list[RequestSpec]
    tier0_budget: int | None
    #: The untimed warm-up round (see :func:`warm_up`).
    warm: "RoundResult | None" = None

    def engine(self) -> ContinuousBatchingEngine:
        """A fresh engine configured for the workload."""
        workload = self.workload
        scheduler = None
        if workload.priority_chunk_tokens:
            scheduler = PriorityScheduler(
                max_batch_size=workload.max_batch_size,
                prefill_chunk_tokens=workload.priority_chunk_tokens,
            )
        return ContinuousBatchingEngine(
            self.model,
            policy_factory=workload.policy,
            scheduler=scheduler,
            max_batch_size=workload.max_batch_size,
            tier0_budget=self.tier0_budget,
        )


def set_up(workload: Workload, seed: int, smoke: bool) -> Bench:
    """Model build, input generation, engine construction and one short
    warm-up request — with the imports, everything ``setup_s`` covers."""
    shape = dict(workload.smoke if smoke else workload.full)
    tier0_budget = shape.pop("tier0_budget", None)
    requests = build_requests(shape, seed)
    longest = max(len(r.prompt) + r.max_new_tokens for r in requests)
    config = ModelConfig(
        **GEOMETRY,
        max_seq_len=2 ** math.ceil(math.log2(longest)),
        compute_dtype=workload.compute_dtype,
    )
    bench = Bench(workload, smoke, DecoderLM(config, seed=0), requests, tier0_budget)
    first = requests[0]
    run_round(bench, requests=[RequestSpec(first.prompt[:48], 4, first.priority)])
    return bench


def warm_up(bench: Bench) -> None:
    """One whole untimed round before the timed phase; kept as the reference
    every later round must repeat.

    On this microVM the first pass over a workload's working set costs
    1.3-1.8x a later one (first-touch page faults on hundreds of MiB of
    activations), which a short warm-up request does not cover.  Its wall is
    reported as ``cold_round_s`` so that work a later change moves into lazy
    first-use initialisation stays visible.
    """
    bench.warm = run_round(bench)


# ----------------------------------------------------------------------
# closed-loop rounds
# ----------------------------------------------------------------------
@dataclass
class RoundResult:
    """What one round measured; ``outputs[i]`` is ``(tokens, log_prob)``."""

    wall_s: float
    ttft: list[float]
    gaps: list[float]
    peak_kv_bytes: int
    outputs: list[tuple[list[int], float]]
    failed: list[str]
    counters: dict
    steps: list[tuple[int, int, float]] = field(default_factory=list)
    queue_wait: list[float] = field(default_factory=list)


def _check_output(index, spec, tokens, log_prob, reason) -> str | None:
    if reason is not FinishReason.LENGTH:
        return f"request {index}: finished {reason}, not LENGTH"
    if len(tokens) != spec.max_new_tokens:
        return f"request {index}: {len(tokens)} tokens, wanted {spec.max_new_tokens}"
    if not math.isfinite(log_prob):
        return f"request {index}: log-prob {log_prob}"
    return None


class StampingSampler(GreedySampler):
    """Greedy sampler that stamps the wall clock on every token it emits."""

    def __init__(self) -> None:
        self.stamps: list[float] = []

    def __call__(self, logits):
        tokens = super().__call__(logits)
        self.stamps.append(time.perf_counter())
        return tokens


def _solo_round(bench: Bench, requests, tracer: Tracer | None) -> RoundResult:
    clock = time.perf_counter
    ttft, gaps, outputs, failed = [], [], [], []
    peak = evicted = bytes_read = 0
    begin = clock()
    for index, spec in enumerate(requests):
        if tracer is not None:
            tracer.ctx = index
        generator = Generator(bench.model, bench.workload.policy())
        sampler = StampingSampler()
        submitted = clock()
        result = generator.generate(
            spec.prompt, GenerationConfig(max_new_tokens=spec.max_new_tokens), sampler=sampler
        )
        stamps = sampler.stamps
        ttft.append(stamps[0] - submitted)
        gaps.extend(b - a for a, b in zip(stamps, stamps[1:]))
        tokens, log_prob = result.sequences[0], result.log_probs[0]
        outputs.append((tokens, log_prob))
        # No EOS token is configured, so a solo generation can only end on length.
        problem = _check_output(index, spec, tokens, log_prob, FinishReason.LENGTH)
        if problem:
            failed.append(problem)
        stats = result.cache_stats
        peak = max(peak, stats.peak_kv_bytes_actual())
        evicted += stats.total_evicted
        bytes_read += stats.kv_bytes_read_actual()
    wall = clock() - begin
    counters = _counters(
        prefill_tokens=sum(len(r.prompt) for r in requests),
        evicted=evicted,
        output_tokens=sum(len(t) for t, _ in outputs),
        kv_bytes_read=bytes_read,
    )
    return RoundResult(wall, ttft, gaps, peak, outputs, failed, counters)


@dataclass
class _InFlight:
    index: int
    state: object
    submitted: float
    stamps: list[float] = field(default_factory=list)
    running_at: float | None = None
    preemptions: int = 0


def _serve_round(bench: Bench, requests, tracer: Tracer | None) -> RoundResult:
    clock = time.perf_counter
    engine = bench.engine()
    n_clients = bench.workload.n_clients
    backlog = [deque(range(k, len(requests), n_clients)) for k in range(n_clients)]
    live: dict[int, _InFlight] = {}
    done: dict[int, _InFlight] = {}
    steps: list[tuple[int, int, float]] = []
    peak_bytes = peak_pages = discarded = 0

    def submit(client: int) -> None:
        index = backlog[client].popleft()
        spec = requests[index]
        submitted = clock()
        state = engine.submit(
            spec.prompt,
            GenerationConfig(max_new_tokens=spec.max_new_tokens),
            priority=spec.priority,
        )
        live[client] = _InFlight(index, state, submitted)

    begin = clock()
    if tracer is not None:
        tracer.ctx = 0
    for client in range(n_clients):
        if backlog[client]:
            submit(client)
    while engine.has_work:
        if tracer is not None:
            tracer.ctx = engine.step_count + 1
        started = clock()
        engine.step()
        now = clock()
        steps.append((engine.last_step_prefill_tokens, engine.last_step_decode_rows, now - started))
        usage = engine.pool_usage()
        peak_bytes = max(peak_bytes, usage.get("bytes_used", 0))
        peak_pages = max(peak_pages, usage.get("pages_used", 0))
        for client, flight in list(live.items()):
            state = flight.state
            if state.preemptions != flight.preemptions:
                # Preempted: its tokens were dropped and it restarts from the
                # queue, so TTFT and the token gaps are stamped again.
                flight.preemptions = state.preemptions
                discarded += len(flight.stamps)
                flight.stamps.clear()
                flight.running_at = None
            if flight.running_at is None and state.status is not RequestStatus.QUEUED:
                flight.running_at = now
            flight.stamps.extend([now] * (len(state.tokens) - len(flight.stamps)))
            if state.finished:
                done[flight.index] = live.pop(client)
                if backlog[client]:
                    submit(client)
    wall = clock() - begin

    ttft, gaps, outputs, failed, queue_wait = [], [], [], [], []
    evicted = bytes_read = 0
    for index, spec in enumerate(requests):
        flight = done[index]
        state = flight.state
        outputs.append((list(state.tokens), float(state.total_logprob)))
        problem = _check_output(index, spec, *outputs[-1], state.finish_reason)
        if problem:
            failed.append(problem)
            continue
        ttft.append(flight.stamps[0] - flight.submitted)
        gaps.extend(b - a for a, b in zip(flight.stamps, flight.stamps[1:]))
        queue_wait.append(flight.running_at - flight.submitted)
        evicted += state.cache_stats.total_evicted
        bytes_read += state.cache_stats.kv_bytes_read_actual()
    tier = engine.pool_usage().get("tier", {})
    counters = _counters(
        prefill_tokens=engine.prefill_computed_tokens,
        evicted=evicted,
        output_tokens=sum(len(t) for t, _ in outputs),
        kv_bytes_read=bytes_read,
        steps=engine.step_count,
        preemptions=engine.n_preemptions,
        prefill_chunks=engine.n_prefill_chunks,
        tier=tier,
        peak_pages_used=peak_pages,
        prefix_hit_share=1.0 - engine.prefill_computed_tokens / engine.prefill_prompt_tokens,
        discarded_token_share=discarded / engine.n_tokens_recorded,
    )
    return RoundResult(wall, ttft, gaps, peak_bytes, outputs, failed, counters, steps, queue_wait)


def _counters(
    prefill_tokens,
    evicted,
    output_tokens,
    kv_bytes_read,
    steps=0,
    preemptions=0,
    prefill_chunks=0,
    tier=None,
    peak_pages_used=0,
    prefix_hit_share=0.0,
    discarded_token_share=0.0,
) -> dict:
    """The exact counters of one round, named like the metrics they feed."""
    tier = tier or {}
    return {
        "serving.steps": steps,
        "serving.preemptions": preemptions,
        "serving.prefill_chunks": prefill_chunks,
        "models.prefill_tokens": prefill_tokens,
        "kvcache.spills": tier.get("spills", 0),
        "kvcache.restores": tier.get("restores", 0),
        "kvcache.evicted_tokens": evicted,
        "output_tokens": output_tokens,
        "spill_bytes": tier.get("spill_bytes", 0),
        "restore_bytes": tier.get("restore_bytes", 0),
        "kv_bytes_read": kv_bytes_read,
        "peak_pages_used": peak_pages_used,
        "prefix_hit_share": prefix_hit_share,
        "discarded_token_share": discarded_token_share,
    }


def run_round(bench: Bench, tracer: Tracer | None = None, requests=None) -> RoundResult:
    """One closed-loop pass over ``requests`` (default: the workload's)."""
    requests = bench.requests if requests is None else requests
    # The previous round's engine is cyclic garbage holding its page pools;
    # collect it (untimed) so every round starts from the same heap and
    # ``peak_rss_mb`` does not grow with the number of rounds a run fits.
    gc.collect()
    drive = _serve_round if bench.workload.serve else _solo_round
    if tracer is None:
        return drive(bench, requests, None)
    tracer.install()
    try:
        return drive(bench, requests, tracer)
    finally:
        tracer.uninstall()


# ----------------------------------------------------------------------
# measurement, oracle, verification
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    """All rounds of one run plus what was derived from them."""

    untraced: list[RoundResult]
    traced: list[RoundResult]
    layer: list[dict]
    last_tracer: Tracer | None
    problems: list[str]
    peak_rss_mb: float


def measure(bench: Bench, seconds: float, trace: bool) -> Measurement:
    """Repeat identical rounds for about ``seconds`` and check that every
    round — the warm-up included — repeated exactly.

    An untraced run repeats untraced rounds; a traced run repeats a traced
    round followed by an untraced one, the pair giving the tracing overhead.
    Another round (or pair) starts only if at least half of it is expected
    to fit in what is left of the budget, so a run overshoots and
    undershoots ``seconds`` equally often; there is always at least one.
    """
    clock = time.perf_counter
    untraced, traced, layer, problems = [], [], [], []
    tracer = None
    begin = clock()
    while True:
        started = clock()
        if trace:
            tracer = Tracer()
            traced.append(run_round(bench, tracer=tracer))
            problems.extend(tracer.check_nesting())
        untraced.append(run_round(bench))
        if trace:
            layer.append(layer_metrics(tracer, traced[-1], untraced[-1].wall_s))
        now = clock()
        if seconds - (now - begin) < (now - started) / 2:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = bench.warm
    for label, rounds in (("untraced", untraced), ("traced", traced)):
        for i, rnd in enumerate(rounds):
            for key in EXACT_COUNTERS:
                if rnd.counters[key] != reference.counters[key]:
                    problems.append(
                        f"{label} round {i}: {key} = {rnd.counters[key]}, "
                        f"the warm-up round had {reference.counters[key]}"
                    )
            if rnd.outputs != reference.outputs:
                problems.append(f"{label} round {i}: outputs differ from the warm-up round")
    for i, metrics in enumerate(layer):
        # The tracer counts work at the call boundary; the program's own
        # counters must agree wherever both can see the same thing.
        for key in ("models.prefill_tokens", "serving.steps"):
            if metrics[key] != reference.counters[key]:
                problems.append(
                    f"traced round {i}: tracer counted {key} = {metrics[key]}, "
                    f"the program {reference.counters[key]}"
                )
    return Measurement(untraced, traced, layer, tracer, problems, peak_rss_mb)


def verify(bench: Bench) -> tuple[int, int, list[str]]:
    """Untimed check of the serving outputs against solo generation.

    A pinned 1-in-``VERIFY_STRIDE`` sample of the requests (every request at
    smoke size) must equal solo ``Generator.generate`` under the same
    policy: tokens exactly, log-prob within ``LOGPROB_REL_TOL``.  Returns
    (requests checked, log-probs not bit-identical, mismatches).

    The solo workloads need no such pass: their requests are generated again
    by every round, and :func:`measure` requires every round's outputs to be
    bit-identical to the warm-up round's.
    """
    if not bench.workload.serve:
        return 0, 0, []
    inexact, mismatches = 0, []
    sample = range(0, len(bench.requests), 1 if bench.smoke else VERIFY_STRIDE)
    for index in sample:
        spec = bench.requests[index]
        result = Generator(bench.model, bench.workload.policy()).generate(
            spec.prompt, GenerationConfig(max_new_tokens=spec.max_new_tokens)
        )
        tokens, log_prob = bench.warm.outputs[index]
        solo = result.log_probs[0]
        if result.sequences[0] != tokens:
            mismatches.append(f"request {index}: tokens differ from solo Generator.generate")
        elif abs(solo - log_prob) > LOGPROB_REL_TOL * abs(solo):
            mismatches.append(f"request {index}: log-prob {log_prob}, solo {solo}")
        inexact += solo != log_prob
    return len(sample), inexact, mismatches


def end_to_end_metrics(measurement: Measurement, setup_s: float) -> dict[str, float]:
    """End-to-end metrics of the untraced rounds, latencies pooled over them.

    Returns the :data:`END_TO_END` values followed by every tail percentile
    that has at least ten samples beyond it.
    """
    rounds = measurement.untraced
    ttft = [s for r in rounds for s in r.ttft]
    gaps = [s for r in rounds for s in r.gaps]
    tokens = sum(r.counters["output_tokens"] for r in rounds)
    values = {
        "setup_s": setup_s,
        "tokens_per_s": tokens / sum(r.wall_s for r in rounds),
        "ttft_p50_s": median(ttft),
        "tpot_p50_s": median(gaps),
        "peak_kv_bytes": max(r.peak_kv_bytes for r in rounds),
        "peak_rss_mb": measurement.peak_rss_mb,
    }
    for name, samples, q in (
        ("ttft_p90_s", ttft, 0.9),
        ("tpot_p90_s", gaps, 0.9),
        ("tpot_p99_s", gaps, 0.99),
    ):
        if len(samples) * (1 - q) >= 10:
            values[name] = quantile(samples, q)
    return values
