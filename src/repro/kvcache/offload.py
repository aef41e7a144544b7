"""Tiered KV offload: hot pages resident in tier-0 frames, cold pages spilled.

The tiered pools keep the :class:`~repro.kvcache.paged.BlockPool` *logical*
page space intact — page ids, refcounts, the free heap and copy-on-write all
work exactly as before — but size the slabs to a fixed number of physical
**frames** (``tier0_pages``).  A logical page is either *resident* (mapped to
a frame) or *spilled* (its slab bytes parked in a tier-1 arena) or *free*
(unallocated, backed by nothing).  Every slab access funnels through the
:meth:`~repro.kvcache.paged.BlockPool._page_base` storage hook, which
transparently restores spilled pages on demand, evicting the coldest resident
page when no frame is free — so the cache managers, the serving engine,
prefix sharing, speculative rollback and eviction policies all run unchanged.

A spilled page is one fixed-size record — its slab bytes and nothing else —
in a :class:`_RecordArena`; the ``spill_backend`` values differ only in where
the record buffer lives:

* ``"compressed"`` — :class:`CompressedSpillArena`, a private anonymous map
  (RAM; the default).  Knob value and class name are historical: there is no
  codec.  The deflate codec it had took ``serve_offload_tight``'s float64
  pages only 71.2 MB → 66.5 MB per round (ratio 0.933) for 2.2 s of a 3.4 s
  round, so tier 1 now costs its raw bytes.
* ``"mmap"`` — :class:`MmapSpillArena`, a map of an unlinked temporary file
  (the shape a second storage device would take).

Determinism contract: a spill→restore round-trip is **byte-exact** — the
record is the raw slab bytes (int8 codes for the quantized pool, whose
per-page parameters never leave RAM; raw float slabs otherwise) — so victim
selection and frame placement can never change a computed value, and outputs
are bit-identical with offload on or off.  Victim selection prefers the
registry's W-TinyLFU segment ranking when a ``spill_ranker`` is installed
(see :meth:`repro.kvcache.paged.PrefixRegistry.spill_ranker`) and falls back
to least-recently-touched order, so the hot prefix working set stays
resident.
"""

from __future__ import annotations

import heapq
import mmap
import tempfile
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.kvcache.paged import (
    BlockPool,
    PageTable,
    PoolExhausted,
    tag_fault_row,
)
from repro.kvcache.quant import QuantizedBlockPool

__all__ = [
    "SPILL_BACKENDS",
    "CompressedSpillArena",
    "MmapSpillArena",
    "TieredBlockPool",
    "TieredQuantizedBlockPool",
    "check_spill_backend",
    "resolve_spill_arena",
    "resolve_tiered_pool_class",
]

#: Recognized ``spill_backend`` knob values (``None`` means ``"compressed"``).
SPILL_BACKENDS = ("compressed", "mmap")


class _RecordArena:
    """Tier-1 arena: ``record_nbytes``-sized records, keyed by logical page,
    in one map that grows by doubling (the tiered pools spill fixed-size
    pages, so records never fragment).

    A page→slot map and a lowest-first heap of freed slots address the map.
    ``store`` and ``load`` copy — a live view would make the map unresizable.
    The concrete arenas supply only the map (:meth:`_open_map`).
    """

    def __init__(self, record_nbytes: int):
        if record_nbytes <= 0:
            raise ValueError("record_nbytes must be positive")
        self.record_nbytes = int(record_nbytes)
        self._map: mmap.mmap | None = None
        self._capacity = 0
        self._slots: dict[int, int] = {}
        self._free: list[int] = []
        self._high = 0

    def _open_map(self, nbytes: int) -> mmap.mmap:
        """A fresh resizable map of ``nbytes`` — where the records live."""
        raise NotImplementedError

    def _grow(self) -> None:
        """Double the map's capacity (from a floor of 8 records)."""
        capacity = max(2 * self._capacity, 8)
        if self._map is None:
            self._map = self._open_map(capacity * self.record_nbytes)
        else:
            self._map.resize(capacity * self.record_nbytes)
        self._capacity = capacity

    def store(self, page: int, payload: bytes) -> None:
        """Park ``payload`` as the spilled content of logical ``page``."""
        if len(payload) != self.record_nbytes:
            raise ValueError(
                f"payload is {len(payload)} bytes; arena records are "
                f"{self.record_nbytes}"
            )
        slot = self._slots.get(page)
        if slot is None:
            if not self._free:  # a new slot enters through the free heap
                if self._high == self._capacity:
                    self._grow()
                heapq.heappush(self._free, self._high)
                self._high += 1
            slot = self._free[0]
        off = slot * self.record_nbytes
        self._map[off : off + self.record_nbytes] = payload
        if page not in self._slots:
            # Claimed only once it holds the record: neither a failed growth
            # nor a failed copy can leak a slot.
            self._slots[page] = heapq.heappop(self._free)

    def load(self, page: int) -> bytes:
        """The byte-exact payload previously stored for ``page`` (a copy)."""
        off = self._slots[page] * self.record_nbytes
        return self._map[off : off + self.record_nbytes]

    def drop(self, page: int) -> None:
        """Free ``page``'s record slot for reuse (restore completion or page
        free); a page without a record is a no-op."""
        slot = self._slots.pop(page, None)
        if slot is not None:
            heapq.heappush(self._free, slot)

    def __contains__(self, page: int) -> bool:
        """True when ``page`` has a spilled record."""
        return page in self._slots

    def __len__(self) -> int:
        """Number of spilled records."""
        return len(self._slots)

    def keys(self):
        """Logical page ids currently spilled."""
        return self._slots.keys()

    def nbytes(self) -> int:
        """Tier-1 bytes parked: live records (the map may be larger)."""
        return len(self._slots) * self.record_nbytes

    def owned_slots(self) -> int:
        """Slots handed out and not freed — ``len(self)`` unless one leaked."""
        return self._high - len(self._free)

    def check_invariants(self, label: str = "arena") -> list[str]:
        """The arena's own law: owned and free slots partition
        ``0..high-water`` (none owned twice, none lost), within capacity."""
        owned = sorted(self._slots.values())
        partitioned = sorted(owned + self._free) == list(range(self._high))
        if partitioned and self._high <= self._capacity:
            return []
        return [
            f"{label}: arena slots owned {owned} + free {sorted(self._free)} do "
            f"not partition 0..{self._high} (capacity {self._capacity})"
        ]

    def close(self) -> None:
        """Unmap the buffer and forget every record."""
        if self._map is not None:
            self._map.close()
        self.__init__(self.record_nbytes)


class CompressedSpillArena(_RecordArena):
    """In-memory tier-1 arena: raw records in a private anonymous map (the
    name and the ``"compressed"`` knob value are historical: no codec)."""

    def _open_map(self, nbytes: int) -> mmap.mmap:
        """Private, not the ``mmap.mmap(-1, n)`` default: a shared anonymous
        map takes SIGBUS on the first touch past its original size after
        ``resize``.  Unlike a heap buffer, growth moves no bytes and untouched
        capacity costs no RSS."""
        return mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)

    # In each arena's own __dict__: tracers patch store/load class by class.
    store = _RecordArena.store
    load = _RecordArena.load


class MmapSpillArena(_RecordArena):
    """File-backed tier-1 arena: raw records in a memory-mapped unlinked
    temporary file (simulates a second storage device)."""

    def _open_map(self, nbytes: int) -> mmap.mmap:
        """The map keeps its own descriptor (and ``resize`` truncates through
        it), so the file object need not outlive this call."""
        with tempfile.TemporaryFile() as file:
            file.truncate(nbytes)
            return mmap.mmap(file.fileno(), nbytes)

    store = _RecordArena.store
    load = _RecordArena.load


def check_spill_backend(backend: str | None) -> str:
    """Arena name for a ``spill_backend`` knob value (``None`` →
    ``"compressed"``); anything outside :data:`SPILL_BACKENDS` is rejected."""
    name = "compressed" if backend is None else str(backend)
    if name not in SPILL_BACKENDS:
        raise ValueError(
            f"unknown spill_backend {backend!r}; expected one of {SPILL_BACKENDS}"
        )
    return name


def resolve_spill_arena(backend: str | None, record_nbytes: int):
    """Arena instance for a ``spill_backend`` knob value, holding records of
    ``record_nbytes`` bytes."""
    if check_spill_backend(backend) == "compressed":
        return CompressedSpillArena(record_nbytes)
    return MmapSpillArena(record_nbytes)


class _TieredMixin:
    """Frame indirection shared by :class:`TieredBlockPool` and
    :class:`TieredQuantizedBlockPool`.

    Must be first in the MRO: it intercepts the
    :meth:`~repro.kvcache.paged.BlockPool._page_base` /
    :meth:`~repro.kvcache.quant.QuantizedBlockPool._page_of_slot` storage
    hooks and the structural methods (``slot_map`` / ``token_runs`` /
    ``token_view`` / ``is_contiguous`` / ``release`` / ``_grow`` /
    ``_copy_on_write``) so the concrete pools' data paths run unchanged on
    top of a resident-frame window.  dtype-specific read/append overrides
    (``fill_row``, the vectorized ``append_rows``) live on the concrete
    subclasses — putting them here would shadow the quantized pool's
    dequantizing implementations.
    """

    def __init__(
        self,
        *args,
        tier0_pages: int = 2,
        spill_backend: str | None = None,
        **kwargs,
    ):
        tier0_pages = int(tier0_pages)
        if tier0_pages < 2:
            # Copy-on-write resolves a source and a destination frame at
            # once, so one frame can never make progress.
            raise ValueError("tier0_pages must be >= 2")
        backend = check_spill_backend(spill_backend)
        # The base constructor sizes the slabs through _slab_pages, which
        # reads this — it must exist before super().__init__ runs.
        self._tier0_pages = tier0_pages
        super().__init__(*args, **kwargs)
        self.spill_backend = backend
        self._page_frame = np.full(self.n_pages, -1, dtype=np.int64)
        self._frame_page = np.full(tier0_pages, -1, dtype=np.int64)
        self._free_frames = list(range(tier0_pages))
        heapq.heapify(self._free_frames)
        self._last_touch = np.zeros(self.n_pages, dtype=np.int64)
        self._tier_clock = 0
        #: Pages the in-flight operation holds resident (page -> pin count);
        #: pinned pages are never chosen as spill victims.  Always empty
        #: between operations — a leak is an integrity violation.
        self._pins: dict[int, int] = {}
        #: Optional victim-ranking callback (lower rank spills first) —
        #: typically :meth:`repro.kvcache.paged.PrefixRegistry.spill_ranker`,
        #: which keeps W-TinyLFU-protected prefix pages resident longest.
        self.spill_ranker: Callable[[int], int] | None = None
        #: Optional fault-injection callback fired before every spill and
        #: restore transfer (the ``spill_io`` injection point); it raises
        #: *before* any state mutates, so an injected fault leaves both the
        #: pool and the arena exactly as they were.
        self.spill_hook: Callable[[], None] | None = None
        self.arena = resolve_spill_arena(backend, self._payload_nbytes())
        self.n_spills = 0
        self.n_restores = 0
        self.spill_bytes = 0
        self.restore_bytes = 0

    # ------------------------------------------------------------------
    # storage hooks
    # ------------------------------------------------------------------
    def _slab_pages(self, n_pages: int) -> int:
        """Slabs hold ``tier0_pages`` physical frames regardless of the
        logical page count."""
        return self._tier0_pages

    def _page_base(self, page: int) -> int:
        """First slab slot backing logical ``page``, restoring it into a
        tier-0 frame first when it is spilled (the coldest resident page is
        evicted to make room).  Also the LRU touch point."""
        frame = int(self._page_frame[page])
        if frame < 0:
            frame = self._assign_frame(page)
        self._tier_clock += 1
        self._last_touch[page] = self._tier_clock
        return frame * self.page_size

    # ------------------------------------------------------------------
    # frame management
    # ------------------------------------------------------------------
    @property
    def n_frames(self) -> int:
        """Physical tier-0 frames the slabs hold."""
        return self._frame_page.shape[0]

    def _slabs(self) -> list[np.ndarray]:
        """The live storage slabs, in payload order."""
        return [s for s in (self._k, self._v, self._pos, self._k_rot) if s is not None]

    def _assign_frame(self, page: int) -> int:
        """Map ``page`` onto a tier-0 frame: take a free frame or spill the
        coldest unpinned resident page, then restore ``page``'s payload from
        the arena (or zero the frame for a never-written page — preserving
        the benign-padding contract of the base slabs)."""
        if self._free_frames:
            frame = heapq.heappop(self._free_frames)
        else:
            victim = self._choose_victim()
            frame = int(self._page_frame[victim])
            self._spill_page(victim, frame)
        try:
            if page in self.arena:
                self._restore_page(page, frame)
            else:
                base = frame * self.page_size
                for slab in self._slabs():
                    slab[:, base : base + self.page_size] = 0
        except BaseException:
            # The restore failed before anything was written; hand the frame
            # back so an injected spill_io fault leaves no orphaned frame.
            heapq.heappush(self._free_frames, frame)
            self._frame_page[frame] = -1
            raise
        self._page_frame[page] = frame
        self._frame_page[frame] = page
        return frame

    def _choose_victim(self) -> int:
        """Coldest unpinned resident page: minimal ``(spill rank, last
        touch, page id)`` — pure LRU when no ranker is installed."""
        unpinned = self._frame_page >= 0
        if self._pins:  # a pinned page may itself be waiting for a frame (-1)
            frames = self._page_frame[list(self._pins)]
            unpinned[frames[frames >= 0]] = False
        pages = self._frame_page[unpinned]
        if not pages.size:
            raise PoolExhausted(
                f"tier-0 frames exhausted: all {self.n_frames} frames are "
                "pinned by the current operation; raise tier0_pages"
            )
        ranker = self.spill_ranker
        rank = [ranker(p) for p in pages.tolist()] if ranker else np.zeros_like(pages)
        return int(pages[np.lexsort((pages, self._last_touch[pages], rank))[0]])

    def _spill_page(self, page: int, frame: int) -> None:
        """Park resident ``page``'s slab bytes (each slab's slice of
        ``frame``, in :meth:`_slabs` order) in the arena and unmap the frame.
        The ``spill_hook`` fires before any mutation, so an injected
        ``spill_io`` fault leaves the page resident and the arena unchanged."""
        if self.spill_hook is not None:
            self.spill_hook()
        base = frame * self.page_size
        payload = b"".join(
            slab[:, base : base + self.page_size].tobytes() for slab in self._slabs()
        )
        self.arena.store(page, payload)
        self._page_frame[page] = -1
        self._frame_page[frame] = -1
        self.n_spills += 1
        self.spill_bytes += len(payload)

    def _restore_page(self, page: int, frame: int) -> None:
        """Copy ``page``'s spilled slab bytes back into ``frame`` and drop the
        arena record.  ``spill_hook`` fires before any mutation."""
        if self.spill_hook is not None:
            self.spill_hook()
        payload = self.arena.load(page)
        base = frame * self.page_size
        offset = 0
        for slab in self._slabs():
            dst = slab[:, base : base + self.page_size]
            dst[...] = np.frombuffer(
                payload, dtype=slab.dtype, count=dst.size, offset=offset
            ).reshape(dst.shape)
            offset += dst.nbytes
        self.arena.drop(page)
        self.n_restores += 1
        self.restore_bytes += len(payload)

    def _payload_nbytes(self) -> int:
        """Exact byte size of one page's slab bytes (the arena record size)."""
        return sum(slab[:, : self.page_size].nbytes for slab in self._slabs())

    # ------------------------------------------------------------------
    # pinning / bulk residency
    # ------------------------------------------------------------------
    def _pin(self, pages: Iterable[int]) -> None:
        """Guard ``pages`` against eviction for the in-flight operation."""
        for page in pages:
            page = int(page)
            self._pins[page] = self._pins.get(page, 0) + 1

    def _unpin(self, pages: Iterable[int]) -> None:
        """Drop one pin per page (inverse of :meth:`_pin`)."""
        for page in pages:
            page = int(page)
            count = self._pins.get(page, 0) - 1
            if count <= 0:
                self._pins.pop(page, None)
            else:
                self._pins[page] = count

    def _ensure_resident(self, pages: Iterable[int]) -> None:
        """Make every page in ``pages`` simultaneously resident (pinning
        them against each other's restores); raises
        :class:`~repro.kvcache.paged.PoolExhausted` when they cannot all fit
        in tier-0 at once."""
        ordered = list(dict.fromkeys(int(p) for p in pages))
        if len(ordered) > self.n_frames:
            raise PoolExhausted(
                f"operation needs {len(ordered)} simultaneously resident "
                f"pages but the pool has only {self.n_frames} tier-0 frames; "
                "raise tier0_pages"
            )
        self._pin(ordered)
        try:
            for page in ordered:
                if self._page_frame[page] < 0:
                    self._assign_frame(page)
        finally:
            self._unpin(ordered)

    def restore_pages(self, pages: Iterable[int]) -> int:
        """Bulk-restore spilled ``pages`` (engine prefetch): restores as many
        as fit in tier-0, newly restored pages pinned for the duration of
        the call so the batch cannot thrash itself.  Returns the number of
        pages restored."""
        wanted = [
            p
            for p in dict.fromkeys(int(p) for p in pages)
            if 0 <= p < self.n_pages and self._page_frame[p] < 0 and p in self.arena
        ][: self.n_frames]
        restored = 0
        pinned: list[int] = []
        try:
            for page in wanted:
                try:
                    self._assign_frame(page)
                except PoolExhausted:
                    break
                self._pin([page])
                pinned.append(page)
                restored += 1
        finally:
            self._unpin(pinned)
        return restored

    # ------------------------------------------------------------------
    # structural overrides
    # ------------------------------------------------------------------
    def is_contiguous(self, table: PageTable) -> bool:
        """Always ``False``: frames move under spill/restore, so no stable
        zero-copy slab view exists — spilled pages hold no live views."""
        return False

    def slot_map(self, table: PageTable) -> np.ndarray:
        """Flat *frame* slot of every live token (the whole table is made
        resident first — compaction's vectorized gather needs all source
        slots valid at once)."""
        if not table.pages:
            return np.empty(0, dtype=np.int64)
        self._ensure_resident(table.pages)
        frames = self._page_frame[np.asarray(table.pages, dtype=np.int64)]
        slots = (
            frames[:, None] * self.page_size + np.arange(self.page_size)
        ).reshape(-1)
        return slots[table.offset : table.end]

    def token_runs(self, table: PageTable) -> list[tuple[int, int, int]]:
        """Per-page frame-slot runs of the live tokens (the whole table is
        made resident first; runs never span pages because adjacent logical
        pages land on arbitrary frames)."""
        self._ensure_resident(table.pages)
        return [
            (logical, self._page_base(page) + within, chunk)
            for logical, page, within, chunk in self._page_chunks(table)
        ]

    def token_view(self, table: PageTable, slab: np.ndarray) -> np.ndarray:
        """Dense copy of the live tokens, streamed page by page — each page
        is restored just for its memcpy, so a row longer than tier-0 still
        reads with as little as one free frame."""
        if table.length == 0:
            return slab[:, :0]
        out = np.empty((slab.shape[0], table.length) + slab.shape[2:], dtype=slab.dtype)
        for logical, page, within, chunk in self._page_chunks(table):
            base = self._page_base(page) + within
            out[:, logical : logical + chunk] = slab[:, base : base + chunk]
        return out

    def gather(self, table: PageTable, indices: np.ndarray) -> int:
        """Eviction compaction without a whole-row residency requirement.

        The base pool's general path gathers every surviving slot in one
        vectorized take, which would need all source pages resident at once.
        Here survivors are instead selected from the dense streamed views
        (page-at-a-time restores), then written back through
        ``_write_all`` — elementwise the same reads and writes, so the
        result is bit-identical to the single-tier pool's.  The identity /
        pure-suffix fast path is pure bookkeeping and delegates to the base
        implementation untouched.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim == 3:
            indices = indices[0]
        length = table.length
        if indices.shape[0] != self.n_heads:
            raise ValueError(
                f"gather expects ({self.n_heads}, K) indices, got {indices.shape}"
            )
        if indices.size and (indices.min() < 0 or indices.max() >= length):
            raise IndexError("gather indices out of range")
        k = indices.shape[-1]
        dropped = length - k
        if bool((indices == np.arange(dropped, length)).all()):
            return super().gather(table, indices)
        hidx = np.arange(self.n_heads)[:, None]
        keys = self.keys_view(table)[hidx, indices]
        values = self.values_view(table)[hidx, indices]
        positions = self.positions_view(table)[hidx, indices]
        k_rot = (
            self.rotated_view(table)[hidx, indices]
            if self._k_rot is not None
            else None
        )
        data = [keys, values, positions, k_rot]
        n_needed = self.pages_for(max(k, 1))
        if self._exclusive(table):
            self.release(table.drop_pages(n_needed))
        else:
            fresh = self.alloc(n_needed)
            self.release(table.pages)
            table.pages = fresh
        table.offset = 0
        table.length = k
        self._write_all(table, data)
        return dropped

    def _copy_on_write(self, table: PageTable, page_index: int) -> None:
        """Exception-safe tiered copy-on-write.

        Replaces (rather than wraps) the base implementation for two
        reasons: the source page must be *pinned* so resolving the
        destination's frame cannot evict it mid-copy, and a spill/restore
        fault while resolving either frame must not leak the freshly
        allocated destination page — the base version allocates first and
        only publishes the page into the table after the copy, so an
        injected ``spill_io`` fault in between would strand a refcount.
        """
        if self._n_shared == 0:
            return
        page = table.pages[page_index]
        if self.refcounts[page] == 1:
            return
        self._pin([page])
        try:
            (fresh,) = self.alloc(1)
            try:
                ps = self.page_size
                src = self._page_base(page)
                dst = self._page_base(fresh)
                for slab in self._slabs():
                    slab[:, dst : dst + ps] = slab[:, src : src + ps]
                self._copy_page_state(page, fresh)
            except BaseException:
                self.release([fresh])
                raise
            table.replace_page(page_index, fresh)
            self.release([page])
        finally:
            self._unpin([page])

    def release(self, pages: Iterable[int]) -> None:
        """Release references; pages dropping to refcount zero also give up
        their frame or arena record (no spill-index leaks)."""
        pages = [int(p) for p in pages]
        super().release(pages)
        for page in pages:
            if self.refcounts[page] == 0:
                frame = int(self._page_frame[page])
                if frame >= 0:
                    self._page_frame[page] = -1
                    self._frame_page[frame] = -1
                    heapq.heappush(self._free_frames, frame)
                elif page in self.arena:
                    self.arena.drop(page)

    def _grow(self, min_pages: int) -> None:
        """Grow the *logical* page space only — refcounts, the free heap and
        the tier maps; the slabs stay at ``tier0_pages`` frames (growth never
        buys residency, it buys spillable capacity)."""
        old = self.n_pages
        new_pages = max(min_pages, 2 * old)
        self.refcounts = np.concatenate(
            [self.refcounts, np.zeros(new_pages - old, dtype=np.int64)]
        )
        self._page_frame = np.concatenate(
            [self._page_frame, np.full(new_pages - old, -1, dtype=np.int64)]
        )
        self._last_touch = np.concatenate(
            [self._last_touch, np.zeros(new_pages - old, dtype=np.int64)]
        )
        for page in range(old, new_pages):
            heapq.heappush(self._free, page)
        self._grow_page_state(new_pages)

    # ------------------------------------------------------------------
    # telemetry / auditing
    # ------------------------------------------------------------------
    def tier_usage(self) -> dict:
        """Tier telemetry: frame count, resident/spilled pages, cumulative
        spill/restore transfer counts and bytes, and current arena bytes."""
        return {
            "tier0_frames": self.n_frames,
            "resident_pages": int((self._page_frame >= 0).sum()),
            "spilled_pages": len(self.arena),
            "spills": self.n_spills,
            "restores": self.n_restores,
            "spill_bytes": self.spill_bytes,
            "restore_bytes": self.restore_bytes,
            "spilled_nbytes": self.arena.nbytes(),
        }

    def tier_page_state(self, page: int) -> str:
        """``"resident"``, ``"spilled"`` or ``"free"`` — every page is in
        exactly one of these states (the resident-XOR-spilled invariant)."""
        if self._page_frame[page] >= 0:
            return "resident"
        if page in self.arena:
            return "spilled"
        return "free"

    def check_invariants(
        self,
        owners: Sequence[PageTable] | None = None,
        pinned: Iterable[int] = (),
        label: str = "pool",
    ) -> list[str]:
        """Base-pool audit plus the tier invariants: a page is resident XOR
        spilled XOR free, the page↔frame maps are mutually inverse, the
        free-frame list is exactly the unmapped frames, every arena record
        belongs to a live (refcount > 0) page, every arena slot is accounted
        for, and no operation leaked a pin."""
        violations = super().check_invariants(owners=owners, pinned=pinned, label=label)
        n_frames = self.n_frames
        for page in range(self.n_pages):
            frame = int(self._page_frame[page])
            if frame < 0:
                continue
            if not 0 <= frame < n_frames:
                violations.append(
                    f"{label}: tier page {page} maps frame {frame} out of range"
                )
            elif int(self._frame_page[frame]) != page:
                violations.append(
                    f"{label}: tier page {page} maps frame {frame} owned by "
                    f"page {int(self._frame_page[frame])}"
                )
            if page in self.arena:
                violations.append(
                    f"{label}: tier page {page} is both resident and spilled"
                )
        for frame in range(n_frames):
            page = int(self._frame_page[frame])
            if page >= 0 and (
                page >= self.n_pages or int(self._page_frame[page]) != frame
            ):
                violations.append(
                    f"{label}: tier frame {frame} claims page {page} which "
                    "does not map back"
                )
        free = sorted(self._free_frames)
        if len(set(free)) != len(free):
            violations.append(f"{label}: duplicate tier-0 frames on the free list")
        unmapped = np.flatnonzero(self._frame_page < 0).tolist()
        if sorted(set(free)) != unmapped:
            violations.append(
                f"{label}: free-frame list {free} != unmapped frames {unmapped}"
            )
        for page in self.arena.keys():
            if not 0 <= page < self.n_pages:
                violations.append(
                    f"{label}: spill index holds out-of-range page {page}"
                )
            elif self.refcounts[page] == 0:
                violations.append(
                    f"{label}: spill-index leak — page {page} is spilled but "
                    "has refcount 0"
                )
        violations.extend(self.arena.check_invariants(label))
        if self._pins:
            violations.append(f"{label}: pin(s) leaked: {dict(self._pins)}")
        return violations


class TieredBlockPool(_TieredMixin, BlockPool):
    """Full-precision :class:`~repro.kvcache.paged.BlockPool` with tiered
    offload: raw float slabs spill byte-exactly, so reads reproduce the
    single-tier pool bit for bit."""

    def append_rows(
        self,
        tables: Sequence[PageTable],
        k: np.ndarray,
        v: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        """Vectorized one-token-per-table append with destination pinning:
        each row's destination page is pinned as its slot resolves, so a
        later row's restore cannot evict an earlier row's frame before the
        single scatter write lands."""
        if not len(tables):
            return
        slots = np.empty(len(tables), dtype=np.int64)
        pinned: list[int] = []
        try:
            for i, table in enumerate(tables):
                try:
                    slots[i] = self._append_slot(table)
                    page = table.pages[table.end // self.page_size]
                    self._pin([page])
                    pinned.append(page)
                except Exception as exc:
                    tag_fault_row(exc, i)
                    raise
            positions = np.asarray(positions, dtype=np.int64)
            self._k[:, slots] = k.transpose(1, 0, 2)
            self._v[:, slots] = v.transpose(1, 0, 2)
            self._pos[:, slots] = positions
            if self._k_rot is not None:
                k_rot = self.rope_table.rotate(k, positions[:, None])
                self._k_rot[:, slots] = k_rot.transpose(1, 0, 2)
            for table in tables:
                table.length += 1
        finally:
            self._unpin(pinned)

    def fill_row(
        self,
        table: PageTable,
        out_k: np.ndarray,
        out_v: np.ndarray,
        out_pos: np.ndarray,
        rotated: bool,
    ) -> None:
        """Padded-batch read streamed page by page (each page restored just
        for its memcpy — rows longer than tier-0 read fine)."""
        if table.length == 0:
            return
        keys = self._k_rot if rotated else self._k
        for logical, page, within, chunk in self._page_chunks(table):
            base = self._page_base(page) + within
            dst = slice(logical, logical + chunk)
            out_k[:, dst] = keys[:, base : base + chunk]
            out_v[:, dst] = self._v[:, base : base + chunk]
            out_pos[:, dst] = self._pos[:, base : base + chunk]


class TieredQuantizedBlockPool(_TieredMixin, QuantizedBlockPool):
    """Int8 :class:`~repro.kvcache.quant.QuantizedBlockPool` with tiered
    offload.  A spill record is the page's int8 codes only: the quantization
    parameters are indexed by *logical* page and stay RAM-resident, so
    ``alloc``, copy-on-write and compaction's range reset act on the one live
    copy whether or not the page is resident, and a restore — which never
    writes them — cannot resurrect a stale range.  The quantized per-page
    read/write paths (``_dequant_view``, ``_quantize_into``, ``fill_row``)
    already chunk per logical page through ``_page_base``, so they stream
    through tier-0 unchanged."""

    def _page_of_slot(self, slots):
        """Logical page owning flat *frame* slot(s) — the frame→page map
        lookup (scalar or vectorized)."""
        return self._frame_page[slots // self.page_size]


def resolve_tiered_pool_class(base_cls: type[BlockPool]) -> type[BlockPool]:
    """Tiered variant of a single-tier pool class (how
    :class:`~repro.kvcache.paged.PagedKVStore` upgrades its pools when
    ``tier0_pages`` is set)."""
    if issubclass(base_cls, QuantizedBlockPool):
        return TieredQuantizedBlockPool
    if issubclass(base_cls, BlockPool):
        return TieredBlockPool
    raise ValueError(f"no tiered variant for pool class {base_cls!r}")
