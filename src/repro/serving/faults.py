"""Deterministic fault injection and liveness watchdogs for the serving engine.

Fault tolerance is only trustworthy if its failure paths are *exercised*, and
failure paths are only debuggable if every chaos run is replayable.  This
module provides the two pieces the engine's robustness layer is built on:

:class:`FaultInjector`
    A seeded, deterministic fault source with named **injection points**
    (:data:`INJECTION_POINTS`): page allocation inside the block pools,
    the prefill and batched-decode steps, the speculative verify pass, the
    drafter round and the tiered pools' spill/restore transfers
    (``spill_io``).  Whether occurrence ``i`` of point ``p`` fires is a
    pure function of ``(seed, p, i)`` — independent of draw order across
    points — so the same workload with the same injector seed faults at
    exactly the same places, every time.  A completed run's
    :meth:`~FaultInjector.fired_schedule` can replay the identical fault
    pattern through an explicit schedule, even at a different rate.

:class:`EngineWatchdog`
    A liveness monitor the engine feeds once per step.  It detects the two
    ways a fault-tolerant engine can silently stop serving: **no-progress
    livelock** (steps pass, no tokens are recorded and nothing finishes —
    e.g. an admission/retry cycle that never converges) and **preemption
    thrash** (the pool is so tight that rows are endlessly preempted and
    re-prefilled without net progress).  Both raise :class:`LivelockError`.

Injected faults raise :class:`InjectedFault`, a ``RuntimeError`` carrying the
injection point, the occurrence index and (when known) the request id — the
engine's quarantine logic uses these to attribute a mid-batch failure to the
one row that caused it.  See ``docs/robustness.md`` for the full fault model.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

__all__ = [
    "INJECTION_POINTS",
    "InjectedFault",
    "FaultInjector",
    "EngineWatchdog",
    "LivelockError",
]

#: Injection points of the serving stack, in engine-flow order: page
#: allocation (fires inside ``BlockPool.alloc`` — prefill joins, decode
#: appends, copy-on-write), the per-request prefill step, the
#: per-row batched decode step, the speculative verify pass, the drafter
#: round, and spill/restore transfers of the tiered KV-offload pools
#: (``spill_io`` fires inside ``_TieredMixin._spill_page`` /
#: ``_restore_page`` **before** any state mutates, so an injected transfer
#: fault leaves pool and arena unchanged).  ``spill_io`` is appended last:
#: :meth:`FaultInjector.should_fire` keys its RNG on each point's index in
#: this tuple, so appending preserves every existing chaos schedule.
INJECTION_POINTS = ("page_alloc", "prefill", "decode", "verify", "draft", "spill_io")


class InjectedFault(RuntimeError):
    """A deliberately injected fault (see :class:`FaultInjector`).

    Attributes
    ----------
    point:
        Injection point name (one of :data:`INJECTION_POINTS`).
    occurrence:
        Zero-based index of this check among all checks of ``point``.
    request_id:
        The request the faulting check was attributed to, when the caller
        knew it (engine-level checks); ``None`` for pool-level faults, which
        the engine attributes afterwards via the ``fault_row`` annotation.
    """

    def __init__(self, point: str, occurrence: int, request_id: int | None = None):
        detail = f" (request {request_id})" if request_id is not None else ""
        super().__init__(
            f"injected fault at {point!r}, occurrence {occurrence}{detail}"
        )
        self.point = point
        self.occurrence = occurrence
        self.request_id = request_id


class FaultInjector:
    """Seeded deterministic fault source for chaos testing.

    Parameters
    ----------
    rate:
        Probability that any single check fires (ignored when ``schedule``
        is given).  The decision for occurrence ``i`` of point ``p`` is a
        pure function of ``(seed, p, i)``, so runs are replayable and the
        decision stream of one point is unaffected by how often the others
        are checked.
    seed:
        Seed of the decision function.
    points:
        Subset of :data:`INJECTION_POINTS` allowed to fire; ``None`` enables
        all.  Occurrence counters advance for *every* check regardless, so a
        schedule recorded with one subset replays identically under another.
    schedule:
        Explicit ``(point, occurrence)`` pairs that fire, overriding the
        rate-based decision entirely — the replay mechanism.
    max_faults:
        Stop firing after this many faults (``None`` = unlimited).
    """

    def __init__(
        self,
        rate: float = 0.01,
        seed: int = 0,
        points: Iterable[str] | None = None,
        schedule: Iterable[tuple[str, int]] | None = None,
        max_faults: int | None = None,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        for point in points or ():
            if point not in INJECTION_POINTS:
                raise ValueError(
                    f"unknown injection point {point!r}; expected one of "
                    f"{INJECTION_POINTS}"
                )
        self.rate = float(rate)
        self.seed = int(seed)
        self.points = frozenset(points) if points is not None else frozenset(INJECTION_POINTS)
        self.schedule = (
            frozenset((p, int(i)) for p, i in schedule) if schedule is not None else None
        )
        self.max_faults = max_faults
        #: Per-point check counters (how often each point was reached).
        self.counters: dict[str, int] = {p: 0 for p in INJECTION_POINTS}
        #: Faults actually fired, as ``(point, occurrence)`` in firing order.
        self.fired: list[tuple[str, int]] = []

    # ------------------------------------------------------------------
    def should_fire(self, point: str, occurrence: int) -> bool:
        """Pure decision: does occurrence ``occurrence`` of ``point`` fault?

        Stateless — safe to call ahead of time to predict (or post-hoc to
        explain) a run's fault pattern.
        """
        if self.schedule is not None:
            return (point, occurrence) in self.schedule
        if self.rate <= 0.0 or point not in self.points:
            return False
        point_index = INJECTION_POINTS.index(point)
        rng = np.random.default_rng((self.seed, point_index, occurrence))
        return bool(rng.random() < self.rate)

    def check(self, point: str, request_id: int | None = None) -> None:
        """Count one arrival at ``point``; raise :class:`InjectedFault` if it fires."""
        if point not in INJECTION_POINTS:
            raise ValueError(f"unknown injection point {point!r}")
        occurrence = self.counters[point]
        self.counters[point] = occurrence + 1
        if self.max_faults is not None and len(self.fired) >= self.max_faults:
            return
        if self.should_fire(point, occurrence):
            self.fired.append((point, occurrence))
            raise InjectedFault(point, occurrence, request_id)

    def hook(self, point: str) -> Callable[[], None]:
        """Zero-argument closure for callback-style injection sites.

        The engine installs ``hook("page_alloc")`` as every block pool's
        ``fault_hook`` — the pool calls it at the top of each allocation.
        """
        return lambda: self.check(point)

    # ------------------------------------------------------------------
    def fired_schedule(self) -> tuple[tuple[str, int], ...]:
        """The faults fired so far, as a schedule suitable for :meth:`replay`."""
        return tuple(self.fired)

    def replay(self) -> "FaultInjector":
        """A fresh injector that fires exactly the faults this one fired."""
        return FaultInjector(seed=self.seed, schedule=self.fired_schedule())


class LivelockError(RuntimeError):
    """The engine stopped making progress (see :class:`EngineWatchdog`)."""


class EngineWatchdog:
    """Detects no-progress livelock and preemption thrash in the engine loop.

    The engine calls :meth:`observe` once per :meth:`~repro.serving.engine.
    ContinuousBatchingEngine.step` with whether the step made *real* progress
    (recorded at least one token, or finished at least one request) and how
    many preemptions it performed.  A healthy engine progresses on every step
    that has work, so the default patience values are far above anything a
    legitimate schedule (including retry backoff) can produce.

    Parameters
    ----------
    no_progress_patience:
        Consecutive progress-free steps tolerated before declaring livelock.
    preemption_patience:
        Preemptions tolerated since the last progressing step before
        declaring thrash (preempt/re-prefill cycles that never commit).
    """

    def __init__(self, no_progress_patience: int = 256, preemption_patience: int = 512):
        if no_progress_patience <= 0 or preemption_patience <= 0:
            raise ValueError("watchdog patience values must be positive")
        self.no_progress_patience = no_progress_patience
        self.preemption_patience = preemption_patience
        #: Consecutive steps without progress.
        self.stalled_steps = 0
        #: Preemptions since the last progressing step.
        self.preemptions_since_progress = 0

    def observe(self, progressed: bool, preemptions: int = 0) -> None:
        """Record one engine step; raises :class:`LivelockError` on livelock."""
        if progressed:
            self.stalled_steps = 0
            self.preemptions_since_progress = 0
            return
        self.stalled_steps += 1
        self.preemptions_since_progress += int(preemptions)
        if self.stalled_steps > self.no_progress_patience:
            raise LivelockError(
                f"no-progress livelock: {self.stalled_steps} consecutive engine "
                "steps recorded no token and finished no request"
            )
        if self.preemptions_since_progress > self.preemption_patience:
            raise LivelockError(
                f"preemption thrash: {self.preemptions_since_progress} preemptions "
                "since the last progressing step"
            )

    def reset(self) -> None:
        """Clear both counters (e.g. after an intentional pause)."""
        self.stalled_steps = 0
        self.preemptions_since_progress = 0
