"""Frequency-aware prefix-cache admission: count-min sketch + W-TinyLFU SLRU.

The :class:`~repro.kvcache.paged.PrefixRegistry` historically reclaimed its
pinned prompt chunks LRU leaf-first.  Under realistic multi-tenant traffic
that scan-thrashes: one burst of unique prompts registers a train of
never-reused chunks whose recency beats every hot shared system-prompt
chunk, so the prefixes everyone shares are exactly the ones evicted.  This
module provides the classic cure — W-TinyLFU admission (Einziger et al.)
over the registry's chunk keys:

* :class:`FrequencySketch` — a count-min sketch estimating how often each
  chunk key was touched.  **Conservative update** increments only the
  counters currently at the minimum (tightening over-estimation without
  ever under-counting), and **exponential aging** halves every counter once
  each time ``sample_size`` increments have been recorded, so stale history
  decays instead of pinning yesterday's hot set forever.
* :class:`WTinyLFUAdmissionPolicy` — segments tracked chunk keys into
  ``window`` → ``probation`` → ``protected`` SLRU tiers (new chunks enter
  the window; a re-accessed window chunk moves to probation; a re-accessed
  probation chunk is promoted to protected, demoting the protected LRU back
  to probation when the protected tier overflows).  At reclaim time the
  registry asks :meth:`WTinyLFUAdmissionPolicy.choose_victim` to pick among
  the *eligible* chunks (the registry still enforces freeability and the
  parent-before-child chain rule): the window's oldest eligible chunk is
  the admission **candidate**, the probation tier's oldest eligible chunk
  the incumbent **victim**, and the candidate is admitted into main — the
  victim evicted — only if its sketched frequency strictly beats the
  victim's.  Protected chunks are touched only when no window or probation
  chunk is eligible.

Everything here is deterministic: chunk keys are process-stable
:func:`~repro.kvcache.paged.chunk_digest` bytes, the sketch hashes them with
a fixed seeded mix (never Python's randomized ``hash``), and segment order
is plain dict insertion order — so admission is a pure function of the
request stream and the serving engines' bit-exactness contract extends to
the ``"wtinylfu"`` policy unchanged.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ADMISSION_POLICIES",
    "FrequencySketch",
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

    def counters(self) -> np.ndarray:
        """Copy of the raw counter matrix, shape ``(depth, width)`` (tests)."""
        return self._tables.copy()


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
        # Plain dicts: insertion order is LRU (front) -> MRU (back).
        self._window: dict = {}
        self._probation: dict = {}
        self._protected: dict = {}
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
        return len(self._window) + len(self._probation) + len(self._protected)

    def __contains__(self, key) -> bool:
        return (
            key in self._window or key in self._probation or key in self._protected
        )

    def segment_of(self, key) -> str | None:
        """Segment name currently holding ``key`` (``None`` if untracked)."""
        if key in self._window:
            return "window"
        if key in self._probation:
            return "probation"
        if key in self._protected:
            return "protected"
        return None

    def segments(self) -> dict[str, list]:
        """Snapshot of every segment's keys in LRU→MRU order (tests/audits)."""
        return {
            "window": list(self._window),
            "probation": list(self._probation),
            "protected": list(self._protected),
        }

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
        self._window[key] = None
        self._spill_window()

    def on_access(self, key) -> None:
        """A tracked chunk was matched/refreshed: sketch it and promote it."""
        self.sketch.record(key)
        if key in self._window:
            del self._window[key]
            self._probation[key] = None
        elif key in self._probation:
            del self._probation[key]
            self._protected[key] = None
            self._spill_protected()
        elif key in self._protected:
            del self._protected[key]
            self._protected[key] = None
        else:
            # Untracked (e.g. policy attached to a pre-populated registry):
            # start it in the window like a fresh insert.
            self._window[key] = None
            self._spill_window()

    def on_drop(self, key) -> None:
        """A chunk was reclaimed (or cleared): forget its segment entry."""
        for segment in (self._window, self._probation, self._protected):
            if key in segment:
                del segment[key]
                return

    def _spill_window(self) -> None:
        """Move window-LRU overflow into probation (main's entry tier)."""
        while len(self._window) > self.window_cap:
            key = next(iter(self._window))
            del self._window[key]
            self._probation[key] = None

    def _spill_protected(self) -> None:
        """Demote protected-LRU overflow back to probation (MRU end)."""
        while len(self._protected) > self.protected_cap:
            key = next(iter(self._protected))
            del self._protected[key]
            self._probation[key] = None

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
        candidate = next((k for k in self._window if k in pool), None)
        incumbent = next((k for k in self._probation if k in pool), None)
        if candidate is not None and incumbent is not None:
            if self.sketch.estimate(candidate) > self.sketch.estimate(incumbent):
                self.n_admitted += 1
                del self._window[candidate]
                self._probation[candidate] = None
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
        victim = next((k for k in self._protected if k in pool), None)
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
        window = set(self._window)
        probation = set(self._probation)
        protected = set(self._protected)
        for name_a, set_a, name_b, set_b in (
            ("window", window, "probation", probation),
            ("window", window, "protected", protected),
            ("probation", probation, "protected", protected),
        ):
            overlap = set_a & set_b
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
        tracked = set(tracked_keys)
        segmented = window | probation | protected
        missing = tracked - segmented
        if missing:
            violations.append(
                f"admission: {len(missing)} registered chunk(s) in no segment"
            )
        stale = segmented - tracked
        if stale:
            violations.append(
                f"admission: {len(stale)} segment key(s) reference reclaimed "
                "chunks (stale pins)"
            )
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
) -> WTinyLFUAdmissionPolicy | None:
    """Admission-policy instance for an ``admission_policy`` knob value.

    ``None`` or ``"lru"`` returns ``None`` — the registry keeps its
    historical LRU leaf-first reclaim byte-exactly; ``"wtinylfu"`` builds a
    :class:`WTinyLFUAdmissionPolicy` sized for ``capacity`` chunks.
    """
    if name in (None, "lru"):
        return None
    check_admission_policy(name)
    return WTinyLFUAdmissionPolicy(capacity=capacity)
