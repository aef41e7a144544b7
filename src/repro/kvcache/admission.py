"""Prefix-cache admission: which registered chunk the registry reclaims.

The :class:`~repro.kvcache.paged.PrefixRegistry` reports each chunk's life to
one policy — ``on_insert``, ``on_access``, ``on_drop`` and, when the pool
runs dry, ``choose_victim`` over the registry's eligible set (the registry
still enforces freeability and the parent-before-child chain rule).  Every
recency here is a :class:`RecencyOrder`, the one LRU order of the KV stack
(tier-0 spill victims use it too, keyed by page id):

* :class:`LRUAdmissionPolicy` (``"lru"``, the default) — one order; the
  victim is the oldest eligible chunk.
* :class:`WTinyLFUAdmissionPolicy` (``"wtinylfu"``) — W-TinyLFU (Einziger et
  al.), the cure for LRU's scan thrashing: one burst of unique prompts
  registers never-reused chunks whose recency beats every hot shared
  system-prompt chunk.  Keys move through ``window`` → ``probation`` →
  ``protected`` orders, and a window candidate displaces the oldest
  probation chunk only when its :class:`FrequencySketch` estimate (a
  count-min sketch with conservative update and exponential aging) strictly
  beats the incumbent's.

Everything here is deterministic: chunk keys are process-stable
:func:`~repro.kvcache.paged.chunk_digest` bytes, the sketch hashes them with
a fixed seeded mix (never Python's randomized ``hash``), and every order is
dict insertion order — so reclaim is a pure function of the request stream
and the engines' bit-exactness contract holds under either policy.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ADMISSION_POLICIES",
    "FrequencySketch",
    "LRUAdmissionPolicy",
    "RecencyOrder",
    "WTinyLFUAdmissionPolicy",
    "check_admission_policy",
    "resolve_admission_policy",
]

#: Valid values of the ``admission_policy`` knob
#: (:class:`~repro.kvcache.paged.KVStoreConfig`).
ADMISSION_POLICIES = ("lru", "wtinylfu")

_MASK64 = (1 << 64) - 1
#: Per-row seeds folded into the key hash (one per hash row, cycled).
_ROW_SEEDS = (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F)
#: Saturation cap of every sketch counter (4 aging halvings to forget).
_COUNTER_CAP = 255


def _mix64(value: int) -> int:
    """Murmur3's 64-bit finalizer: avalanche ``value`` into a mixed hash."""
    value &= _MASK64
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & _MASK64
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & _MASK64
    value ^= value >> 33
    return value


def _key_base(key) -> int:
    """Process-stable 64-bit base hash of a sketch key.

    Chunk keys are :func:`~repro.kvcache.paged.chunk_digest` bytes; their
    leading 8 bytes are already uniformly mixed, so they are used directly.
    Integers are accepted for tests and ad-hoc use.  Python's builtin
    ``hash`` is deliberately avoided — it is randomized per process, which
    would break the cross-process determinism the sharded engines rely on.
    """
    if isinstance(key, (bytes, bytearray)):
        return int.from_bytes(bytes(key[:8]).ljust(8, b"\0"), "little")
    return int(key) & _MASK64


class FrequencySketch:
    """Count-min sketch over chunk keys with conservative update and aging.

    Parameters
    ----------
    width:
        Counters per hash row; rounded up to a power of two (minimum 64) so
        row indexing is a mask.
    depth:
        Number of independent hash rows; the estimate is the row minimum.
    sample_size:
        Aging threshold: after this many recorded increments every counter
        is halved (floor division) exactly once and the increment counter
        resets — the exponential-decay window of "recent" frequency.
        ``None`` disables aging entirely (used by the never-under-counts
        property tests).
    conservative:
        When true (default) :meth:`record` increments only the counters
        currently at the row minimum — the TinyLFU conservative update,
        which is pointwise ≤ the plain update and still never under-counts.
    """

    def __init__(
        self,
        width: int = 1024,
        depth: int = 4,
        sample_size: int | None = None,
        conservative: bool = True,
    ):
        if depth <= 0:
            raise ValueError("depth must be positive")
        if sample_size is not None and sample_size <= 0:
            raise ValueError("sample_size must be positive (or None)")
        w = 64
        while w < width:
            w *= 2
        self.width = w
        self.depth = int(depth)
        self.mask = w - 1
        self.sample_size = (
            int(sample_size) if sample_size is not None else None
        )
        self.conservative = bool(conservative)
        self._tables = np.zeros((self.depth, w), dtype=np.int64)
        #: Increments recorded since the last aging pass.
        self.ops_since_aging = 0
        #: Total increments ever recorded.
        self.n_increments = 0
        #: Aging passes performed (each halves every counter once).
        self.n_agings = 0

    # ------------------------------------------------------------------
    def _indexes(self, key) -> list[int]:
        """Row-local counter index of ``key`` in every hash row."""
        base = _key_base(key)
        return [
            _mix64(base ^ (_ROW_SEEDS[row % len(_ROW_SEEDS)] + row)) & self.mask
            for row in range(self.depth)
        ]

    def record(self, key) -> None:
        """Count one access of ``key`` (then age if the sample filled up)."""
        idxs = self._indexes(key)
        tables = self._tables
        if self.conservative:
            current = [int(tables[row, idx]) for row, idx in enumerate(idxs)]
            floor = min(current)
            if floor < _COUNTER_CAP:
                for row, idx in enumerate(idxs):
                    if tables[row, idx] == floor:
                        tables[row, idx] = floor + 1
        else:
            for row, idx in enumerate(idxs):
                if tables[row, idx] < _COUNTER_CAP:
                    tables[row, idx] += 1
        self.n_increments += 1
        self.ops_since_aging += 1
        if self.sample_size is not None and self.ops_since_aging >= self.sample_size:
            self._age()

    def _age(self) -> None:
        """Halve every counter once (exponential decay of stale history)."""
        self._tables >>= 1
        self.ops_since_aging = 0
        self.n_agings += 1

    def estimate(self, key) -> int:
        """Estimated access count of ``key`` — the minimum over hash rows.

        Without aging this never under-counts the true number of
        :meth:`record` calls for ``key`` (collisions only inflate it).
        """
        idxs = self._indexes(key)
        return int(min(self._tables[row, idx] for row, idx in enumerate(idxs)))


class RecencyOrder(dict):
    """Keys from least to most recently used: dict insertion order.

    A key's place is the order of its last :meth:`touch`, so :meth:`oldest`
    answers what a minimum over distinct last-touch stamps would, without
    the stamps.
    """

    def touch(self, key) -> None:
        """Move ``key`` to the most-recently-used end (adding it if new)."""
        self.pop(key, None)
        self[key] = None

    def drop(self, key) -> None:
        """Forget ``key`` (a no-op when it is not ordered)."""
        self.pop(key, None)

    def oldest(self, eligible=None):
        """Least recently used key in the set ``eligible`` (any key when
        ``None``), or ``None`` when no ordered key is eligible."""
        if eligible is None:
            return next(iter(self), None)
        return next((key for key in self if key in eligible), None)


def _membership_violations(tracked_keys: Iterable, ordered: set) -> list[str]:
    """Every registered chunk (each pins refcounted pages) is ordered, and no
    ordered key outlives its chunk."""
    violations: list[str] = []
    tracked = set(tracked_keys)
    missing = tracked - ordered
    if missing:
        violations.append(
            f"admission: {len(missing)} registered chunk(s) in no segment"
        )
    stale = ordered - tracked
    if stale:
        violations.append(
            f"admission: {len(stale)} segment key(s) reference reclaimed "
            "chunks (stale pins)"
        )
    return violations


class LRUAdmissionPolicy(RecencyOrder):
    """Least-recently-used reclaim: one recency order over every registered
    chunk key, touched on insert and access; the victim is the oldest
    eligible chunk.  It ranks no tier-0 spills and adds no telemetry."""

    #: Spill-ranking heat by segment: none, so tier-0 keeps its own order.
    segment_heat: dict[str, int] = {}
    on_insert = on_access = RecencyOrder.touch
    on_drop = RecencyOrder.drop

    def segment_of(self, key) -> str | None:
        """``"lru"`` for a tracked key, ``None`` otherwise."""
        return "lru" if key in self else None

    def choose_victim(self, eligible: Sequence):
        """The least recently used of ``eligible`` chunk keys."""
        if not eligible:
            raise ValueError("choose_victim needs at least one eligible key")
        return self.oldest(set(eligible))

    def audit(self, tracked_keys: Iterable) -> list[str]:
        """The order holds exactly ``tracked_keys`` (violation strings)."""
        return _membership_violations(tracked_keys, set(self))

    def telemetry(self) -> dict:
        """No counters beyond the registry's own."""
        return {}


class WTinyLFUAdmissionPolicy:
    """Window → probation → protected SLRU segmentation with sketch admission.

    The policy tracks registry chunk *keys* only (no pages, no refcounts —
    the registry keeps enforcing freeability and chain safety) and decides
    which eligible chunk to sacrifice when the pool runs dry.

    Segment lifecycle
    -----------------
    * a newly registered chunk enters the **window**; window overflow spills
      the window LRU into **probation** (main's entry tier);
    * a window hit promotes the chunk to probation; a probation hit promotes
      it to **protected**; a protected hit refreshes its recency;
    * protected overflow demotes the protected LRU back to probation (most
      recent end) — the SLRU demotion path.

    Eviction-time competitive admission
    -----------------------------------
    :meth:`choose_victim` compares the oldest eligible window chunk (the
    candidate) against the oldest eligible probation chunk (the incumbent
    victim): the candidate is admitted into main — and the incumbent evicted
    — only when the candidate's sketched frequency strictly beats the
    incumbent's; otherwise the candidate itself is evicted.  One-shot scan
    chunks therefore evict each other inside the window while frequently
    reused chunks ride out the burst in probation/protected.

    Parameters
    ----------
    capacity:
        Nominal capacity in chunks (the registry passes its per-layer pool
        page count — the most chunks it could ever pin).  Sizes the window
        and protected tiers and, by default, the sketch.
    window_fraction, protected_fraction:
        Fraction of ``capacity`` kept as admission window, and fraction of
        the remaining main capacity kept protected (Caffeine's defaults).
    sketch:
        Optional pre-built :class:`FrequencySketch`; by default one is sized
        at four counters per capacity slot with a ``16 * capacity`` aging
        sample.
    """

    #: Spill-ranking heat by segment: protected chunks are the proven-hot
    #: working set, probation next, window (one-shot candidates) barely
    #: above unregistered pages.
    segment_heat = {"window": 1, "probation": 2, "protected": 3}

    def __init__(
        self,
        capacity: int = 1024,
        window_fraction: float = 0.2,
        protected_fraction: float = 0.8,
        sketch: FrequencySketch | None = None,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < window_fraction < 1.0:
            raise ValueError("window_fraction must be in (0, 1)")
        if not 0.0 < protected_fraction <= 1.0:
            raise ValueError("protected_fraction must be in (0, 1]")
        self.capacity = int(capacity)
        self.window_cap = max(1, round(window_fraction * capacity))
        main_cap = max(1, self.capacity - self.window_cap)
        self.protected_cap = max(1, round(protected_fraction * main_cap))
        self.sketch = sketch or FrequencySketch(
            width=4 * capacity, sample_size=16 * capacity
        )
        self._window = RecencyOrder()
        self._probation = RecencyOrder()
        self._protected = RecencyOrder()
        self._segments = {
            "window": self._window,
            "probation": self._probation,
            "protected": self._protected,
        }
        #: Candidates admitted into main at a victim's expense.
        self.n_admitted = 0
        #: Candidates evicted because their frequency lost the comparison.
        self.n_rejected = 0
        #: Evictions charged to each segment.
        self.n_evicted_window = 0
        self.n_evicted_probation = 0
        self.n_evicted_protected = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(map(len, self._segments.values()))

    def __contains__(self, key) -> bool:
        return self.segment_of(key) is not None

    def segment_of(self, key) -> str | None:
        """Segment name currently holding ``key`` (``None`` if untracked)."""
        return next((name for name, seg in self._segments.items() if key in seg), None)

    def segments(self) -> dict[str, list]:
        """Snapshot of every segment's keys in LRU→MRU order (tests/audits)."""
        return {name: list(seg) for name, seg in self._segments.items()}

    # ------------------------------------------------------------------
    # lifecycle events (driven by the registry)
    # ------------------------------------------------------------------
    def on_insert(self, key) -> None:
        """A new chunk was registered: sketch it and admit it to the window."""
        self.sketch.record(key)
        if key in self:
            # Defensive re-insert of a tracked key: treat as an access.
            self.on_access(key)
            return
        self._window.touch(key)
        self._overflow(self._window, self.window_cap)

    def on_access(self, key) -> None:
        """A tracked chunk was matched/refreshed: sketch it and promote it."""
        self.sketch.record(key)
        if key in self._window:
            self._window.drop(key)
            self._probation.touch(key)
        elif key in self._probation:
            self._probation.drop(key)
            self._protected.touch(key)
            self._overflow(self._protected, self.protected_cap)
        elif key in self._protected:
            self._protected.touch(key)
        else:
            # Untracked (e.g. policy attached to a pre-populated registry):
            # start it in the window like a fresh insert.
            self._window.touch(key)
            self._overflow(self._window, self.window_cap)

    def on_drop(self, key) -> None:
        """A chunk was reclaimed (or cleared): forget its segment entry."""
        for segment in self._segments.values():
            segment.drop(key)

    def _overflow(self, segment: RecencyOrder, cap: int) -> None:
        """Move ``segment``'s LRU overflow to probation's MRU end: window
        spill into main's entry tier, or protected demotion."""
        while len(segment) > cap:
            key = segment.oldest()
            segment.drop(key)
            self._probation.touch(key)

    # ------------------------------------------------------------------
    # reclaim-time victim selection
    # ------------------------------------------------------------------
    def choose_victim(self, eligible: Sequence):
        """Pick which of ``eligible`` chunk keys to reclaim.

        ``eligible`` is the registry's already-filtered victim set (freeable
        leaves, or chain-unblocking leaves) — this method only ranks it.
        When both a window candidate and a probation incumbent are eligible
        the competitive admission rule applies (see class docstring); an
        admitted candidate is moved from the window into probation before
        the incumbent's key is returned.
        """
        if not eligible:
            raise ValueError("choose_victim needs at least one eligible key")
        pool = set(eligible)
        candidate = self._window.oldest(pool)
        incumbent = self._probation.oldest(pool)
        if candidate is not None and incumbent is not None:
            if self.sketch.estimate(candidate) > self.sketch.estimate(incumbent):
                self.n_admitted += 1
                self._window.drop(candidate)
                self._probation.touch(candidate)
                self.n_evicted_probation += 1
                return incumbent
            self.n_rejected += 1
            self.n_evicted_window += 1
            return candidate
        if candidate is not None:
            self.n_evicted_window += 1
            return candidate
        if incumbent is not None:
            self.n_evicted_probation += 1
            return incumbent
        victim = self._protected.oldest(pool)
        if victim is not None:
            self.n_evicted_protected += 1
            return victim
        # Untracked keys (defensive): evict the first eligible as given.
        return eligible[0]

    # ------------------------------------------------------------------
    # auditing & telemetry
    # ------------------------------------------------------------------
    def audit(self, tracked_keys: Iterable) -> list[str]:
        """Cross-check segment state against the registry's chunk set.

        Verifies the SLRU invariants — no key in two segments, window and
        protected within their capacity bounds — and that segment
        membership is exactly ``tracked_keys`` (the registry's registered
        chunks, each of which pins refcounted pages), so a segment entry can
        never outlive or predate its chunk's pins.  Returns violation
        strings (empty = clean).
        """
        violations: list[str] = []
        pairs = itertools.combinations(self._segments.items(), 2)
        for (name_a, seg_a), (name_b, seg_b) in pairs:
            overlap = seg_a.keys() & seg_b.keys()
            if overlap:
                violations.append(
                    f"admission: {len(overlap)} key(s) in both {name_a} and {name_b}"
                )
        if len(self._window) > self.window_cap:
            violations.append(
                f"admission: window holds {len(self._window)} keys "
                f"(cap {self.window_cap})"
            )
        if len(self._protected) > self.protected_cap:
            violations.append(
                f"admission: protected holds {len(self._protected)} keys "
                f"(cap {self.protected_cap})"
            )
        ordered = set().union(*self._segments.values())
        violations.extend(_membership_violations(tracked_keys, ordered))
        return violations

    def telemetry(self) -> dict:
        """Sketch / segment / admission-decision counters (all deterministic)."""
        return {
            "window_chunks": len(self._window),
            "probation_chunks": len(self._probation),
            "protected_chunks": len(self._protected),
            "window_cap": self.window_cap,
            "protected_cap": self.protected_cap,
            "admitted": self.n_admitted,
            "rejected": self.n_rejected,
            "evicted_window": self.n_evicted_window,
            "evicted_probation": self.n_evicted_probation,
            "evicted_protected": self.n_evicted_protected,
            "sketch_increments": self.sketch.n_increments,
            "sketch_agings": self.sketch.n_agings,
        }


def check_admission_policy(name: str) -> None:
    """Reject an ``admission_policy`` knob value outside :data:`ADMISSION_POLICIES`."""
    if name not in ADMISSION_POLICIES:
        raise ValueError(
            f"unknown admission_policy {name!r}; expected one of {ADMISSION_POLICIES}"
        )


def resolve_admission_policy(
    name: str | None, capacity: int
) -> LRUAdmissionPolicy | WTinyLFUAdmissionPolicy:
    """Admission-policy instance for an ``admission_policy`` knob value:
    ``None`` or ``"lru"`` builds an :class:`LRUAdmissionPolicy`,
    ``"wtinylfu"`` a :class:`WTinyLFUAdmissionPolicy` sized for ``capacity``
    chunks."""
    if name in (None, "lru"):
        return LRUAdmissionPolicy()
    check_admission_policy(name)
    return WTinyLFUAdmissionPolicy(capacity=capacity)
