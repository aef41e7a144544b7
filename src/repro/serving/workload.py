"""Seeded workload traces and virtual-step-time replay for the engine.

The serving papers this repo reproduces argue from *workload-level* numbers
— p99 TTFT under bursty arrivals, goodput under skewed prefix sharing — not
from microbenchmarks of a single forward pass.  This module provides the
two halves of that evaluation loop:

:func:`generate_trace`
    A seeded trace generator producing replayable :class:`TraceEvent`
    lists.  Arrivals are Poisson (exponential gaps) or bursty (a two-state
    Markov-modulated Poisson process that alternates calm and burst
    regimes).  Prompts mix Zipf-distributed **shared prefixes** — page
    aligned so the :class:`~repro.kvcache.paged.PrefixRegistry` can dedup
    them — with unique prompts, and output lengths are drawn from a small
    mixture.  Every draw comes from one ``numpy`` Generator, so a seed
    pins the whole trace; :class:`Trace` round-trips through JSON exactly.

:func:`replay_trace`
    Drives a :class:`~repro.serving.engine.ContinuousBatchingEngine` from a
    trace in **virtual step-time**: after each engine step the clock
    advances by a :class:`~repro.perfmodel.serving.StepCostModel` cost of
    what the step actually did (prefill tokens + decode rows), and requests
    whose arrival time has passed are submitted before the next step.  The
    engine's per-request step stamps (``first_token_step`` /
    ``finished_step``) are mapped through the step→time table into
    :class:`~repro.serving.slo.LatencyRecord` TTFT/TPOT/E2E values and
    aggregated into a deterministic :class:`~repro.serving.slo.LatencyReport`.

Virtual time keeps the harness machine-independent and bit-reproducible:
two replays of the same trace produce byte-identical reports (pinned by
``make load-smoke``), which is what makes latency regressions gateable in
CI.  See ``docs/workloads.md`` for the trace format and metric definitions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Protocol

import numpy as np

from repro.kvcache.paged import DEFAULT_PAGE_SIZE
from repro.models.config import GenerationConfig
from repro.serving.slo import LatencyRecord, LatencyReport, SLOSpec

if TYPE_CHECKING:
    from repro.perfmodel.serving import StepCostModel
    from repro.serving.engine import ContinuousBatchingEngine

__all__ = [
    "TraceEvent",
    "Trace",
    "WorkloadConfig",
    "generate_trace",
    "ReplayableEngine",
    "ReplayResult",
    "replay_trace",
]


class ReplayableEngine(Protocol):
    """The engine front-end protocol :func:`replay_trace` drives.

    Satisfied by :class:`~repro.serving.engine.ContinuousBatchingEngine`
    and by :class:`~repro.serving.sharded.ShardedEngine`; any front-end
    implementing these members (plus the ``n_preemptions`` /
    ``n_prefill_chunks`` / ``prefill_prompt_tokens`` /
    ``prefill_computed_tokens`` counters the stats snapshot reads) can be
    replayed.
    """

    step_count: int

    def submit(self, prompt_ids, config=None, *, priority: int = 0) -> Any:
        """Queue one request; returns a state handle with step stamps."""
        ...

    def step(self) -> list:
        """Advance by one step; returns the requests finished during it."""
        ...

    def step_virtual_cost(self, cost_model) -> float:
        """Virtual-time cost of the most recent :meth:`step`."""
        ...

    @property
    def has_work(self) -> bool:
        """True while any request is queued or running."""
        ...


# ----------------------------------------------------------------------
# trace format
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceEvent:
    """One request arrival in a workload trace.

    ``prefix_id`` records which shared prefix (if any) the prompt starts
    with — telemetry for analyzing prefix-cache hit rates, not replay
    input; the tokens themselves are already in ``prompt_ids``.
    """

    arrival_time: float
    prompt_ids: tuple[int, ...]
    max_new_tokens: int
    priority: int = 0
    prefix_id: int | None = None

    def to_dict(self) -> dict:
        """JSON-ready form of the event."""
        return {
            "arrival_time": self.arrival_time,
            "prompt_ids": list(self.prompt_ids),
            "max_new_tokens": self.max_new_tokens,
            "priority": self.priority,
            "prefix_id": self.prefix_id,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "TraceEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            arrival_time=float(d["arrival_time"]),
            prompt_ids=tuple(int(t) for t in d["prompt_ids"]),
            max_new_tokens=int(d["max_new_tokens"]),
            priority=int(d.get("priority", 0)),
            prefix_id=(None if d.get("prefix_id") is None else int(d["prefix_id"])),
        )


@dataclass(frozen=True)
class Trace:
    """A replayable sequence of arrivals plus the config/seed that made it.

    Events are kept sorted by ``arrival_time``; JSON round-trips exactly
    (Python serializes floats by shortest-exact ``repr``), so a trace file
    replays bit-identically to the in-memory trace that wrote it.
    """

    events: tuple[TraceEvent, ...]
    seed: int = 0
    config: "WorkloadConfig | None" = None

    def __len__(self) -> int:
        return len(self.events)

    def to_dict(self) -> dict:
        """JSON-ready form: config, seed and the full event list."""
        return {
            "seed": self.seed,
            "config": None if self.config is None else self.config.to_dict(),
            "events": [e.to_dict() for e in self.events],
        }

    def to_json(self, indent: int | None = None) -> str:
        """Deterministic JSON text (sorted keys)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, d: Mapping) -> "Trace":
        """Inverse of :meth:`to_dict`."""
        cfg = d.get("config")
        return cls(
            events=tuple(TraceEvent.from_dict(e) for e in d["events"]),
            seed=int(d.get("seed", 0)),
            config=None if cfg is None else WorkloadConfig.from_dict(cfg),
        )

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        """Parse a trace serialized by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# trace generation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the seeded trace generator (see :func:`generate_trace`).

    Arrival process
        ``arrival`` is ``"poisson"`` (exponential inter-arrival gaps with
        mean ``mean_interarrival``) or ``"bursty"`` — a two-state
        Markov-modulated process that draws each gap from the current
        state's rate (burst state is ``burst_factor`` times faster) and
        switches state with probability ``burst_switch_prob`` per arrival.

    Prompt mix
        With probability ``prefix_share_prob`` a prompt starts with one of
        ``n_prefixes`` shared prefixes chosen by a bounded Zipf law
        (rank ``k`` has weight ``k**-zipf_alpha``), followed by a unique
        suffix of ``suffix_len_range`` tokens; otherwise the whole prompt
        is unique with length in ``prompt_len_range``.  Shared prefixes are
        ``prefix_len_pages`` pages long — page aligned so the prefix
        registry's chunked hashing can dedup them across requests.

    Output mix and tiers
        ``max_new_tokens`` is drawn from ``output_len_choices`` with
        ``output_len_weights``; the SLO tier from ``tier_weights``
        (mapping priority value → weight, default all standard).
    """

    n_requests: int = 64
    vocab_size: int = 256
    arrival: str = "poisson"
    mean_interarrival: float = 1.0
    burst_factor: float = 4.0
    burst_switch_prob: float = 0.2
    n_prefixes: int = 8
    zipf_alpha: float = 1.1
    prefix_share_prob: float = 0.7
    prefix_len_pages: int = 2
    page_size: int = DEFAULT_PAGE_SIZE
    suffix_len_range: tuple[int, int] = (4, 24)
    prompt_len_range: tuple[int, int] = (8, 64)
    output_len_choices: tuple[int, ...] = (4, 16, 48)
    output_len_weights: tuple[float, ...] = (0.3, 0.5, 0.2)
    tier_weights: Mapping[int, float] = field(default_factory=lambda: {1: 1.0})

    def __post_init__(self):
        if self.arrival not in ("poisson", "bursty"):
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        if self.n_requests <= 0:
            raise ValueError("n_requests must be positive")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if not 0.0 <= self.burst_switch_prob <= 1.0:
            raise ValueError("burst_switch_prob must be in [0, 1]")
        if self.n_prefixes <= 0:
            raise ValueError("n_prefixes must be positive")
        if not 0.0 <= self.prefix_share_prob <= 1.0:
            raise ValueError("prefix_share_prob must be in [0, 1]")
        if self.prefix_len_pages <= 0 or self.page_size <= 0:
            raise ValueError("prefix_len_pages and page_size must be positive")
        if len(self.output_len_choices) != len(self.output_len_weights):
            raise ValueError("output_len_choices and output_len_weights differ in length")
        for lo, hi in (self.suffix_len_range, self.prompt_len_range):
            if lo < 1 or hi < lo:
                raise ValueError("length ranges must satisfy 1 <= lo <= hi")
        if not self.tier_weights:
            raise ValueError("tier_weights must not be empty")

    @property
    def prefix_len(self) -> int:
        """Shared-prefix length in tokens (page aligned by construction)."""
        return self.prefix_len_pages * self.page_size

    def to_dict(self) -> dict:
        """JSON-ready form (tier keys become strings; tuples become lists)."""
        d = asdict(self)
        d["tier_weights"] = {str(k): v for k, v in self.tier_weights.items()}
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "WorkloadConfig":
        """Inverse of :meth:`to_dict`."""
        kwargs = dict(d)
        kwargs["tier_weights"] = {
            int(k): float(v) for k, v in d.get("tier_weights", {"1": 1.0}).items()
        }
        for key in ("suffix_len_range", "prompt_len_range", "output_len_choices",
                    "output_len_weights"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


def _zipf_weights(n: int, alpha: float) -> np.ndarray:
    """Normalized bounded-Zipf weights over ranks ``1..n``."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** -float(alpha)
    return w / w.sum()


def generate_trace(config: WorkloadConfig | None = None, seed: int = 0) -> Trace:
    """Generate a seeded, replayable workload trace.

    All randomness comes from one ``np.random.default_rng(seed)`` consumed
    in a fixed order (prefix pool, then per-event draws), so the same
    ``(config, seed)`` pair always yields an identical trace — the
    foundation of every determinism guarantee downstream.
    """
    config = config or WorkloadConfig()
    rng = np.random.default_rng(seed)

    # Shared prefix pool: page-aligned token blocks the registry can dedup.
    prefixes = [
        rng.integers(0, config.vocab_size, size=config.prefix_len)
        for _ in range(config.n_prefixes)
    ]
    zipf = _zipf_weights(config.n_prefixes, config.zipf_alpha)

    tiers = sorted(config.tier_weights)
    tier_p = np.asarray([config.tier_weights[t] for t in tiers], dtype=np.float64)
    tier_p = tier_p / tier_p.sum()
    out_p = np.asarray(config.output_len_weights, dtype=np.float64)
    out_p = out_p / out_p.sum()

    # Arrival clock: Poisson gaps, or a two-state Markov-modulated process
    # whose burst state draws gaps `burst_factor` times shorter.
    t = 0.0
    bursting = False
    events: list[TraceEvent] = []
    for _ in range(config.n_requests):
        mean_gap = config.mean_interarrival
        if config.arrival == "bursty":
            if rng.random() < config.burst_switch_prob:
                bursting = not bursting
            if bursting:
                mean_gap = config.mean_interarrival / config.burst_factor
        t += float(rng.exponential(mean_gap))

        if rng.random() < config.prefix_share_prob:
            prefix_id = int(rng.choice(config.n_prefixes, p=zipf))
            lo, hi = config.suffix_len_range
            suffix = rng.integers(0, config.vocab_size, size=int(rng.integers(lo, hi + 1)))
            prompt = np.concatenate([prefixes[prefix_id], suffix])
        else:
            prefix_id = None
            lo, hi = config.prompt_len_range
            prompt = rng.integers(0, config.vocab_size, size=int(rng.integers(lo, hi + 1)))

        events.append(
            TraceEvent(
                arrival_time=t,
                prompt_ids=tuple(int(x) for x in prompt),
                max_new_tokens=int(rng.choice(config.output_len_choices, p=out_p)),
                priority=int(tiers[int(rng.choice(len(tiers), p=tier_p))]),
                prefix_id=prefix_id,
            )
        )
    return Trace(events=tuple(events), seed=seed, config=config)


# ----------------------------------------------------------------------
# virtual-step-time replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayResult:
    """Everything one trace replay produced.

    ``report`` is the aggregate :class:`~repro.serving.slo.LatencyReport`;
    ``records`` the per-request latency triplets behind it; ``engine_stats``
    a snapshot of the engine counters that explain the latencies
    (preemptions, prefill chunks, prefix-sharing savings, steps).
    """

    report: LatencyReport
    records: tuple[LatencyRecord, ...]
    engine_stats: dict
    makespan: float


def replay_trace(
    engine: "ContinuousBatchingEngine | ReplayableEngine",
    trace: Trace,
    cost_model: "StepCostModel",
    slo: SLOSpec | None = None,
    temperature: float = 0.0,
    seed: int = 0,
) -> ReplayResult:
    """Drive an engine front-end through ``trace`` in virtual step-time.

    The virtual clock starts at 0 and advances only when the engine steps:
    by ``engine.step_virtual_cost(cost_model)`` of what the step actually
    computed.  Arrivals whose time has passed are submitted before each
    step (in trace order); when the engine is idle the clock jumps to the
    next arrival.  Per-request timestamps come from the engine's
    ``first_token_step``/``finished_step`` stamps through the step→time
    table, so the replay is exactly as deterministic as the engine itself
    — same trace, same report, byte for byte.

    ``engine`` is pluggable: anything implementing the small replay
    protocol works — ``submit(prompt_ids, config, priority=...)`` returning
    a state with step stamps, ``step()``, ``has_work``, ``step_count``,
    ``step_virtual_cost`` and the prefill/preemption counters.  Both
    :class:`~repro.serving.engine.ContinuousBatchingEngine` and the
    multi-replica :class:`~repro.serving.sharded.ShardedEngine` do (for the
    sharded front-end a step's cost is the *max* over its replicas' costs —
    replicas run in parallel, so the wall clock follows the slowest one).

    ``temperature``/``seed`` set the per-request sampling config (greedy by
    default, which makes replay output independent of the sampling seed).
    """
    events = sorted(trace.events, key=lambda e: (e.arrival_time,))
    # step index -> virtual time at which that step *completed*.  Step 0 is
    # "before any step" so submissions shed at admission still resolve.
    step_time: dict[int, float] = {engine.step_count: 0.0}
    vtime = 0.0
    submit_times: dict[int, float] = {}
    states = []
    i = 0
    while i < len(events) or engine.has_work:
        if not engine.has_work and i < len(events) and events[i].arrival_time > vtime:
            vtime = float(events[i].arrival_time)  # idle: jump to next arrival
            step_time[engine.step_count] = vtime
        while i < len(events) and events[i].arrival_time <= vtime:
            ev = events[i]
            cfg = GenerationConfig(
                max_new_tokens=ev.max_new_tokens,
                temperature=temperature,
                seed=seed,
            )
            state = engine.submit(list(ev.prompt_ids), cfg, priority=ev.priority)
            submit_times[state.request_id] = float(ev.arrival_time)
            states.append(state)
            i += 1
        if engine.has_work:
            engine.step()
            vtime += engine.step_virtual_cost(cost_model)
            step_time[engine.step_count] = vtime

    records = tuple(
        LatencyRecord.from_state(
            state,
            submit_time=submit_times[state.request_id],
            first_token_time=(
                None
                if state.first_token_step is None
                else step_time[state.first_token_step]
            ),
            finish_time=(
                None if state.finished_step is None else step_time[state.finished_step]
            ),
        )
        for state in states
    )
    report = LatencyReport.from_records(records, makespan=vtime, slo=slo)
    stats = {
        "steps": engine.step_count,
        "n_preemptions": engine.n_preemptions,
        "n_prefill_chunks": engine.n_prefill_chunks,
        "prefill_prompt_tokens": engine.prefill_prompt_tokens,
        "prefill_computed_tokens": engine.prefill_computed_tokens,
    }
    return ReplayResult(
        report=report, records=records, engine_stats=stats, makespan=vtime
    )
