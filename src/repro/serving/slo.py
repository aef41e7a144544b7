"""SLO tiers: priority-aware admission and latency-percentile telemetry.

This module turns the raw per-request step stamps the engine records into
the serving metrics a latency SLO is written against, and provides the
scheduler that acts on those SLOs:

:class:`PriorityScheduler`
    A :class:`~repro.serving.scheduler.PagedScheduler` whose queue is kept
    ordered by ``(-priority, request_id)``: higher tiers admit first, FCFS
    within a tier.  It also opts the engine into **priority preemption** —
    when the queue head outranks a running request and admission is blocked,
    the engine preempts the lowest-priority (newest among ties) running
    request through the ordinary preempt-and-restart machinery.  Because a
    restart regenerates bit-identically, priorities change *when* requests
    finish, never *what* they emit.

:class:`LatencyRecord` / :class:`LatencyReport`
    Per-request latency triplets (TTFT / TPOT / E2E, in the load harness's
    virtual time) and their deterministic aggregation into p50/p90/p99
    percentiles, per-tier breakdowns, throughput and SLO goodput.  Reports
    round to six decimals and serialize with sorted keys, so the same trace
    always produces a byte-identical report (pinned by ``make load-smoke``).

:class:`SLOSpec` / :class:`SLOTarget`
    Per-tier latency targets.  *Goodput* is the fraction of submitted
    requests that completed normally (EOS or length) **and** met every
    target of their tier — throughput that missed its SLO counts for
    nothing, which is the metric that makes tail latency visible.

Metric definitions (``docs/workloads.md`` derives them with pictures):

* **TTFT** — ``first_token_time - submit_time``: queue wait + prefill.
* **TPOT** — ``(finish_time - first_token_time) / (n_tokens - 1)``: the
  steady-state per-token pace after the first token (``None`` for
  single-token outputs).
* **E2E** — ``finish_time - submit_time``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.serving.request import RequestState
from repro.serving.scheduler import PagedScheduler

__all__ = [
    "TIER_BATCH",
    "TIER_STANDARD",
    "TIER_INTERACTIVE",
    "PriorityScheduler",
    "SLOTarget",
    "SLOSpec",
    "LatencyRecord",
    "LatencyReport",
    "percentile",
]

#: Conventional tier names for the three-tier setup used throughout the
#: docs and benchmarks.  Priorities are plain ints — any values work; the
#: scheduler only compares them.
TIER_BATCH = 0
TIER_STANDARD = 1
TIER_INTERACTIVE = 2


class PriorityScheduler(PagedScheduler):
    """Paged admission with strict priority tiers (FCFS within a tier).

    The queue is kept sorted by ``(-priority, request_id)`` on every insert:
    :meth:`submit` and :meth:`requeue` both use the same ordering, so a
    preempted low-tier request re-enters *behind* any queued higher tier.
    Admission itself is inherited head-of-line — the head is simply the
    highest-priority oldest request.

    Setting :attr:`priority_preemption` (class attribute, ``True`` here)
    tells the engine to preempt running lower-tier requests when the queue
    head outranks them and cannot be admitted otherwise.  Note the inherited
    head-of-line contract now holds *per tier*: a blocked high-tier head
    still blocks everything behind it, which keeps admission latency
    predictable within each tier.
    """

    #: Engine hint: preempt running lower-priority requests for a blocked
    #: higher-priority queue head.
    priority_preemption = True

    @staticmethod
    def _order_key(state: RequestState) -> tuple[int, int]:
        return (-state.request.priority, state.request_id)

    def _insert_ordered(self, state: RequestState) -> None:
        key = self._order_key(state)
        at = 0
        for queued in self._queue:
            if self._order_key(queued) < key:
                at += 1
            else:
                break
        self._queue.insert(at, state)

    def _enqueue(self, state: RequestState) -> None:
        """Insert a new submission in ``(-priority, request_id)`` order."""
        self._insert_ordered(state)

    def requeue(self, state: RequestState) -> None:
        """Requeue a preempted/failed request in priority order.

        Within a tier this degenerates to the FCFS rule (ids are monotonic),
        so single-tier workloads behave exactly like :class:`PagedScheduler`.
        """
        self._insert_ordered(state)


# ----------------------------------------------------------------------
# SLO targets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SLOTarget:
    """Latency targets for one tier, in virtual time units (``None`` = don't
    care).  A request *attains* its SLO when every set target is met."""

    ttft: float | None = None
    e2e: float | None = None

    def met_by(self, record: "LatencyRecord") -> bool:
        """True when the record completed normally within every set target."""
        if not record.completed:
            return False
        if self.ttft is not None:
            if record.ttft is None or record.ttft > self.ttft:
                return False
        if self.e2e is not None:
            if record.e2e is None or record.e2e > self.e2e:
                return False
        return True


@dataclass(frozen=True)
class SLOSpec:
    """Per-tier SLO targets with a default for unlisted tiers.

    ``targets`` maps a priority value to its :class:`SLOTarget`;
    ``default`` covers every other tier.
    """

    targets: Mapping[int, SLOTarget] = field(default_factory=dict)
    default: SLOTarget = field(default_factory=SLOTarget)

    def target_for(self, priority: int) -> SLOTarget:
        """The target that applies to ``priority``."""
        return self.targets.get(priority, self.default)

    def met_by(self, record: "LatencyRecord") -> bool:
        """Whether a record attained the SLO of its tier."""
        return self.target_for(record.priority).met_by(record)

    @classmethod
    def three_tier(
        cls, ttft: float = 200.0, e2e: float = 2000.0
    ) -> "SLOSpec":
        """The conventional three-tier spec used by the load harness.

        Interactive traffic gets half the baseline targets, batch traffic
        four times; standard traffic gets the baseline.
        """
        return cls(
            targets={
                TIER_INTERACTIVE: SLOTarget(ttft=ttft / 2, e2e=e2e / 2),
                TIER_STANDARD: SLOTarget(ttft=ttft, e2e=e2e),
                TIER_BATCH: SLOTarget(ttft=ttft * 4, e2e=e2e * 4),
            },
            default=SLOTarget(ttft=ttft, e2e=e2e),
        )


# ----------------------------------------------------------------------
# latency records and percentile reports
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Deterministic linear-interpolation percentile (NumPy's default).

    Sorting and interpolation are exact float64 operations, so the same
    sample always produces the same bits on every platform.
    """
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass(frozen=True)
class LatencyRecord:
    """One request's latency outcome, in the harness's virtual time."""

    request_id: int
    priority: int
    prompt_len: int
    n_tokens: int
    finish_reason: str
    submit_time: float
    first_token_time: float | None
    finish_time: float | None

    @property
    def completed(self) -> bool:
        """True for the normal completions (EOS or length budget)."""
        return self.finish_reason in ("eos", "length")

    @property
    def ttft(self) -> float | None:
        """Time to first token: queue wait + prefill (+ any preemptions)."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.submit_time

    @property
    def tpot(self) -> float | None:
        """Time per output token after the first (``None`` if < 2 tokens)."""
        if (
            self.first_token_time is None
            or self.finish_time is None
            or self.n_tokens < 2
        ):
            return None
        return (self.finish_time - self.first_token_time) / (self.n_tokens - 1)

    @property
    def e2e(self) -> float | None:
        """End-to-end latency from submission to retirement."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    @classmethod
    def from_state(
        cls,
        state: RequestState,
        submit_time: float,
        first_token_time: float | None,
        finish_time: float | None,
    ) -> "LatencyRecord":
        """Build a record from a finished engine state + harness timestamps."""
        reason = state.finish_reason.value if state.finish_reason else "unknown"
        return cls(
            request_id=state.request_id,
            priority=state.request.priority,
            prompt_len=state.request.prompt_len,
            n_tokens=len(state.tokens),
            finish_reason=reason,
            submit_time=submit_time,
            first_token_time=first_token_time,
            finish_time=finish_time,
        )


def _summary(values: list[float]) -> dict:
    """p50/p90/p99 + mean/max of a latency sample (zeros when empty)."""
    if not values:
        return {"n": 0, "p50": 0.0, "p90": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "n": len(values),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p99": percentile(values, 99),
        "mean": float(np.mean(np.asarray(values, dtype=np.float64))),
        "max": float(np.max(np.asarray(values, dtype=np.float64))),
    }


def _round(obj):
    """Round every float in a nested dict/list to 6 decimals (determinism)."""
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _round(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round(v) for v in obj]
    return obj


@dataclass(frozen=True)
class LatencyReport:
    """Aggregate latency percentiles, throughput and SLO goodput.

    Built by :meth:`from_records`; :meth:`to_dict` emits a deterministic
    structure (floats rounded to six decimals) — replaying the same trace
    yields an identical report, and ``json.dumps(..., sort_keys=True)`` of
    it byte-identical text.
    """

    records: tuple[LatencyRecord, ...]
    makespan: float
    slo: SLOSpec | None = None

    @classmethod
    def from_records(
        cls,
        records: Sequence[LatencyRecord],
        makespan: float,
        slo: SLOSpec | None = None,
    ) -> "LatencyReport":
        """Aggregate per-request records over one trace replay.

        ``makespan`` is the total virtual time the replay took (arrival of
        the first event to retirement of the last request) — the denominator
        of every throughput/goodput rate.
        """
        return cls(records=tuple(records), makespan=float(makespan), slo=slo)

    # -- aggregation ----------------------------------------------------
    def _completed(self) -> list[LatencyRecord]:
        return [r for r in self.records if r.completed]

    def goodput(self) -> float:
        """Fraction of *all submitted* requests that completed within SLO.

        1.0 without an :class:`SLOSpec` only if everything completed
        normally; aborts, timeouts and errors always count against goodput.
        """
        if not self.records:
            return 0.0
        if self.slo is None:
            good = sum(1 for r in self.records if r.completed)
        else:
            good = sum(1 for r in self.records if self.slo.met_by(r))
        return good / len(self.records)

    def to_dict(self) -> dict:
        """The report as a deterministic, JSON-ready nested dict."""
        completed = self._completed()
        ttft = [r.ttft for r in completed if r.ttft is not None]
        tpot = [r.tpot for r in completed if r.tpot is not None]
        e2e = [r.e2e for r in completed if r.e2e is not None]
        reasons: dict[str, int] = {}
        for r in self.records:
            reasons[r.finish_reason] = reasons.get(r.finish_reason, 0) + 1
        per_tier: dict[str, dict] = {}
        for tier in sorted({r.priority for r in self.records}):
            tier_recs = [r for r in self.records if r.priority == tier]
            tier_done = [r for r in tier_recs if r.completed]
            tier_good = (
                sum(1 for r in tier_recs if self.slo.met_by(r)) / len(tier_recs)
                if self.slo is not None and tier_recs
                else (len(tier_done) / len(tier_recs) if tier_recs else 0.0)
            )
            per_tier[str(tier)] = {
                "n": len(tier_recs),
                "goodput": tier_good,
                "ttft": _summary([r.ttft for r in tier_done if r.ttft is not None]),
                "e2e": _summary([r.e2e for r in tier_done if r.e2e is not None]),
            }
        total_tokens = sum(r.n_tokens for r in completed)
        span = self.makespan if self.makespan > 0 else 1.0
        out = {
            "n_requests": len(self.records),
            "n_completed": len(completed),
            "finish_reasons": reasons,
            "ttft": _summary(ttft),
            "tpot": _summary(tpot),
            "e2e": _summary(e2e),
            "per_tier": per_tier,
            "goodput": self.goodput(),
            "throughput": {
                "makespan": self.makespan,
                "tokens_per_time": total_tokens / span,
                "requests_per_time": len(completed) / span,
                "total_tokens": total_tokens,
            },
        }
        return _round(out)
