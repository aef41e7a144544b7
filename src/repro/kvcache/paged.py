"""Paged KV-cache storage: block pools, page tables and prefix sharing.

This module is the single storage substrate under the one per-layer cache,
:class:`~repro.kvcache.batch.BatchedLayerKVCache`, which both the solo/beam
:class:`~repro.kvcache.manager.CacheManager` and the continuous-batching
engine's manager keep their rows in.  Instead of one private slab per sequence, every decoder layer owns a
:class:`BlockPool` of fixed-size **pages** (``page_size`` token slots each,
holding keys, values and original positions; a pool with ``rope_dims > 0``
stores its keys already RoPE-rotated at those positions, the form attention
reads), and every sequence holds one :class:`PageTable` per
layer mapping its logical token axis onto pool pages:

* **append** writes one token slot (allocating a page only on a boundary);
* **gather** (eviction) keeps its fast paths — identity is a no-op, a pure
  suffix selection is an O(1) offset bump that frees whole leading pages —
  and otherwise compacts through a flat row-gather into (re)allocated pages;
* **ref-counting + copy-on-write** let two sequences map the same physical
  page: a page is only written in place when its refcount is 1, so sharing a
  prompt prefix (or duplicating a beam) can never corrupt a neighbour;
* **materialization** resolves a page table back into the dense
  ``(heads, length, d_head)`` tensors attention consumes, with a zero-copy
  slab view when the pages happen to be physically contiguous (the common
  case for a solo sequence) and a page-gather copy otherwise.

Pages within one pool share the token-major layout ``(heads, n_pages *
page_size, d_head)``, so "physically contiguous pages" literally means a
contiguous token axis — exactly the slab layout the attention einsum's memory
locality depends on.

:class:`PrefixRegistry` implements vLLM-style prefix caching on top of the
ref-counts: page-aligned chunks of prompt token ids are hashed (chained, so a
chunk is only reachable through its full prefix) to the physical pages that
hold their KV, and a new request whose prompt starts with a registered chunk
chain maps those pages instead of recomputing them.  Registered pages are
pinned by a registry refcount and reclaimed LRU-first when the pool runs dry.

Everything here is storage bookkeeping — no floating-point arithmetic beyond
the (bit-exact, elementwise) eager RoPE rotation of new keys — which is what
keeps the paged backend bit-identical to the historical slab backend.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import math
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.score import EvictOne
from repro.kvcache.admission import check_admission_policy, resolve_admission_policy
from repro.models.positional import RopeTable, get_rope_table

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "chunk_digest",
    "PoolExhausted",
    "PoolIntegrityError",
    "PageTable",
    "BlockPool",
    "KVStoreConfig",
    "PagedKVStore",
    "PrefixMatch",
    "PrefixRegistry",
    "resolve_pool_class",
    "shift_heads_down",
]

DEFAULT_PAGE_SIZE = 16


def pages_needed(n_tokens: int, page_size: int) -> int:
    """Pages required to hold ``n_tokens`` token slots (ceil division)."""
    return -(-int(n_tokens) // page_size)


def shift_heads_down(arrays: Sequence[np.ndarray], starts: Sequence[int], stop: int) -> None:
    """Move slots ``starts[h] + 1 .. stop`` of head ``h`` down one slot, in
    place, in every ``(heads, slots, ...)`` array of ``arrays`` — the one
    evict-one move of pool slabs and padded workspace rows alike.

    Each head's slots are moved as one flat 1-D run (the arrays must be
    C-contiguous, so the reshape is a view): a 1-D overlapping move is done
    in place, where the same move of ``(slots, d_head)`` rows is staged
    through a temporary copy of the source.
    """
    for array in arrays:
        width = math.prod(array.shape[2:])
        flat = array.reshape(array.shape[0], -1)
        last, end = (stop - 1) * width, stop * width
        for head, start in enumerate(starts):
            start *= width
            if start < last:
                flat[head, start:last] = flat[head, start + width : end]


class PoolExhausted(RuntimeError):
    """Raised when a fixed-size pool cannot allocate and nothing is reclaimable."""


class PoolIntegrityError(RuntimeError):
    """A pool-integrity audit (:meth:`BlockPool.check_invariants`) failed."""


def tag_fault_row(exc: BaseException, row: int) -> None:
    """Tag ``exc`` with the batch row whose work raised it (best effort).

    Row-scoped loops over a batch (pool appends, per-row policy observation)
    call this so the serving engine's quarantine handler can attribute an
    arbitrary mid-batch exception to the one row it belongs to.  First
    writer wins: an exception propagating through nested row loops keeps
    the innermost attribution.
    """
    if getattr(exc, "fault_row", None) is None:
        try:
            exc.fault_row = row
        except AttributeError:
            pass  # exceptions with __slots__ cannot carry the tag


class PageTable:
    """Per-sequence (per-layer) mapping of the logical token axis onto pages.

    ``pages`` lists physical page ids in logical order; the live tokens occupy
    slots ``offset .. offset + length`` of the concatenated pages.  A nonzero
    ``offset`` arises from the suffix-eviction fast path (sliding-window
    policies dropping the oldest tokens bump the offset instead of copying).

    The table remembers whether its pages form one ascending run (the
    zero-copy condition, asked on every cache access), so the page list may
    only change through the methods below or by assignment to ``pages``;
    mutating the returned list in place leaves the answer stale, which
    :meth:`BlockPool.check_invariants` reports.

    ``epoch`` counts what may move live slots (gather, truncate, assigning
    ``pages``); appends and copy-on-write leave copied-out tokens valid.
    """

    __slots__ = ("_pages", "_contiguous", "offset", "length", "epoch")

    def __init__(self) -> None:
        self._pages: list[int] = []
        #: ``True``/``False`` when known, ``None`` = rescan on next ask.
        self._contiguous: bool | None = True
        self.offset = 0
        self.length = 0
        self.epoch = 0

    @property
    def pages(self) -> list[int]:
        """Physical page ids in logical order (read-only by convention)."""
        return self._pages

    @pages.setter
    def pages(self, pages: list[int]) -> None:
        self._pages = pages
        self._contiguous = None
        self.epoch += 1

    def scan_contiguous(self) -> bool:
        """Recompute from the page ids whether they form one ascending run."""
        pages = self._pages
        return len(pages) <= 1 or pages == list(range(pages[0], pages[0] + len(pages)))

    def is_contiguous(self) -> bool:
        """True when the pages form one ascending run of page ids (cached)."""
        known = self._contiguous
        if known is None:
            known = self._contiguous = self.scan_contiguous()
        return known

    def push_pages(self, pages: list[int]) -> None:
        """Map ``pages`` after the current last page."""
        # A known run stays one when the single next page id follows it;
        # anything else needs a rescan.  A fragmented table (False) stays
        # fragmented whatever is appended.
        if self._contiguous and (
            len(pages) != 1 or not self._pages or pages[0] != self._pages[-1] + 1
        ):
            self._contiguous = None
        self._pages.extend(pages)

    def drop_pages(self, keep: int) -> list[int]:
        """Unmap and return every page after the first ``keep``."""
        dropped = self._pages[keep:]
        del self._pages[keep:]
        if not self._contiguous:
            self._contiguous = None  # a shorter list may be one run again
        return dropped

    def pop_front(self) -> int:
        """Unmap and return the first page."""
        if not self._contiguous:
            self._contiguous = None
        return self._pages.pop(0)

    def replace_page(self, index: int, page: int) -> None:
        """Remap logical page ``index`` onto physical ``page`` (copy-on-write)."""
        self._pages[index] = page
        self._contiguous = None

    @property
    def end(self) -> int:
        """One past the last live slot (in concatenated-page coordinates)."""
        return self.offset + self.length

    def allocated(self, page_size: int) -> int:
        """Total token slots covered by this table's pages."""
        return len(self._pages) * page_size

    def clone(self) -> "PageTable":
        """Shallow copy sharing the same physical pages (caller must retain)."""
        table = PageTable()
        table._pages = list(self._pages)
        table._contiguous = self._contiguous
        table.offset = self.offset
        table.length = self.length
        return table


class BlockPool:
    """Fixed-size KV pages for one decoder layer.

    Slabs are token-major — ``(n_heads, n_pages * page_size, d_head)`` for
    keys/values and ``(n_heads, n_pages * page_size)`` for the per-head
    original positions — so a run of consecutive page ids is a contiguous
    token axis and materializes as a zero-copy view.  There is one key slab,
    holding the keys attention reads: with ``rope_dims > 0`` every write
    rotates its keys at their positions first (elementwise, hence
    bit-identical to rotating at read time); otherwise keys are stored raw.

    Parameters
    ----------
    growable:
        When true (solo generation) the pool doubles on demand like the old
        slabs did.  When false (the serving engine's memory-aware mode) an
        allocation that cannot be satisfied first asks the ``reclaimer`` (the
        prefix registry) to drop cold pinned pages and then raises
        :class:`PoolExhausted`, which the engine turns into preemption.
    """

    def __init__(
        self,
        n_heads: int,
        d_head: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        n_pages: int = 64,
        dtype: np.dtype | str = np.float64,
        rope_dims: int = 0,
        rope_table: RopeTable | None = None,
        growable: bool = True,
    ):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        if n_pages <= 0:
            raise ValueError("n_pages must be positive")
        self.page_size = int(page_size)
        self.dtype = np.dtype(dtype)
        self.rope_dims = int(rope_dims)
        self.rope_table = rope_table
        if self.rope_dims > 0 and rope_table is None:
            self.rope_table = get_rope_table(self.rope_dims)
        self.growable = growable
        self.reclaimer: Callable[[int], int] | None = None
        #: Optional fault-injection callback consulted at the top of every
        #: allocation (see :class:`repro.serving.faults.FaultInjector`); it
        #: raises to simulate an allocation failure before any state mutates.
        self.fault_hook: Callable[[], None] | None = None

        n_slots = self._slab_pages(n_pages) * self.page_size
        storage = self._storage_dtype()
        # np.zeros (not empty): padded/stale slots must stay benign — the
        # float32 serving path may touch them before masking.
        self._k = np.zeros((n_heads, n_slots, d_head), dtype=storage)
        self._v = np.zeros((n_heads, n_slots, d_head), dtype=storage)
        self._pos = np.zeros((n_heads, n_slots), dtype=np.int64)
        self.refcounts = np.zeros(n_pages, dtype=np.int64)
        self._free = list(range(n_pages))
        heapq.heapify(self._free)
        #: Pages currently mapped by more than one owner.  Zero means no
        #: copy-on-write can ever be needed — the solo-decode steady state —
        #: so the per-append/per-gather exclusivity checks reduce to one
        #: integer comparison.
        self._n_shared = 0

    # ------------------------------------------------------------------
    # storage hooks (overridden by the quantized pool)
    # ------------------------------------------------------------------
    def _storage_dtype(self) -> np.dtype:
        """Dtype of the key/value slabs; the full-precision pool stores the
        compute dtype itself (:class:`~repro.kvcache.quant.QuantizedBlockPool`
        stores ``int8`` codes instead)."""
        return self.dtype

    def _grow_page_state(self, n_pages: int) -> None:
        """Hook: grow per-page bookkeeping to ``n_pages`` entries (no-op here;
        the quantized pool grows its scale/zero tensors)."""

    def _copy_page_state(self, src_page: int, dst_page: int) -> None:
        """Hook: copy per-page bookkeeping during copy-on-write (no-op here;
        the quantized pool copies the page's quantization parameters)."""

    def _slab_pages(self, n_pages: int) -> int:
        """Hook: physical pages the slabs are sized for (identity here; the
        tiered pools of :mod:`repro.kvcache.offload` cap the slabs at their
        tier-0 frame count and spill the rest)."""
        return n_pages

    def _page_base(self, page: int) -> int:
        """Hook: first slab slot backing logical ``page`` (plain page
        arithmetic here).  Every slab access funnels through this so the
        tiered pools can map logical pages onto resident tier-0 frames,
        restoring spilled pages on demand."""
        return page * self.page_size

    # ------------------------------------------------------------------
    # geometry / accounting
    # ------------------------------------------------------------------
    @property
    def n_heads(self) -> int:
        """Number of attention heads the slabs are laid out for."""
        return self._k.shape[0]

    @property
    def d_head(self) -> int:
        """Per-head feature dimension of the key/value slabs."""
        return self._k.shape[2]

    @property
    def n_pages(self) -> int:
        """Total pages in the pool (free and mapped)."""
        return self.refcounts.shape[0]

    @property
    def n_slots(self) -> int:
        """Total token slots across all pages (``n_pages * page_size``)."""
        return self._k.shape[1]

    @property
    def free_pages(self) -> int:
        """Pages currently on the free list."""
        return len(self._free)

    @property
    def used_pages(self) -> int:
        """Pages currently mapped by at least one owner."""
        return self.n_pages - len(self._free)

    @property
    def shared_pages(self) -> int:
        """Pages mapped by more than one owner (sequences and/or registry)."""
        return self._n_shared

    def pages_for(self, n_tokens: int) -> int:
        """Pages needed to hold ``n_tokens`` token slots."""
        return pages_needed(n_tokens, self.page_size)

    def kv_token_nbytes(self) -> float:
        """Key+value storage bytes one cached token occupies (all heads).

        Full-precision pools store the compute dtype itself; the quantized
        pool overrides this with int8 codes plus the amortized per-page
        ``(scale, zero)`` tensors, so memory accounting
        (:meth:`repro.kvcache.manager.CacheManager.total_kv_bytes`,
        :class:`~repro.kvcache.stats.CacheStats`) reflects what is actually
        resident.
        """
        return float(2 * self.n_heads * self.d_head * self._k.dtype.itemsize)

    @classmethod
    def estimate_page_nbytes(
        cls,
        n_heads: int,
        d_head: int,
        page_size: int,
        dtype: np.dtype | str,
    ) -> float:
        """Resident bytes of one page before a pool exists — used to convert
        a byte budget into a page count (``max_pool_bytes``).  Counts every
        slab a page holds: keys, values and the int64 per-head positions
        (RoPE changes only what the key slab holds, not its size)."""
        itemsize = np.dtype(dtype).itemsize
        return float(page_size * n_heads * (2 * d_head * itemsize + 8))

    def page_nbytes(self) -> float:
        """Resident bytes of one page of this pool (see
        :meth:`estimate_page_nbytes`)."""
        return type(self).estimate_page_nbytes(
            self.n_heads, self.d_head, self.page_size, self.dtype
        )

    def nbytes(self) -> int:
        """Resident bytes of this pool's slabs — keys, values and positions
        (plus, in the quantized pool, its per-page quantization tensors)."""
        return sum(slab.nbytes for slab in self._slabs())

    # ------------------------------------------------------------------
    # allocation / refcounting
    # ------------------------------------------------------------------
    def _grow(self, min_pages: int) -> None:
        new_pages = max(min_pages, 2 * self.n_pages)
        n_slots = new_pages * self.page_size

        def grown(slab: np.ndarray, trailing: tuple[int, ...]) -> np.ndarray:
            """Copy ``slab`` into a zero-padded array with ``n_slots`` slots."""
            fresh = np.zeros((self.n_heads, n_slots) + trailing, dtype=slab.dtype)
            fresh[:, : slab.shape[1]] = slab
            return fresh

        self._k = grown(self._k, (self.d_head,))
        self._v = grown(self._v, (self.d_head,))
        self._pos = grown(self._pos, ())
        for page in range(self.n_pages, new_pages):
            heapq.heappush(self._free, page)
        self.refcounts = np.concatenate(
            [self.refcounts, np.zeros(new_pages - self.n_pages, dtype=np.int64)]
        )
        self._grow_page_state(new_pages)

    def alloc(self, n: int) -> list[int]:
        """Allocate ``n`` pages (refcount 1 each), lowest ids first.

        Lowest-first keeps a freshly seeded sequence on a physically
        contiguous run of pages, which is what the zero-copy materialization
        fast path relies on.
        """
        if n <= 0:
            return []
        if self.fault_hook is not None:
            # Fires before any mutation, so an injected allocation fault
            # leaves the pool exactly as it was.
            self.fault_hook()
        if len(self._free) < n:
            if self.growable:
                self._grow(self.used_pages + n)
            elif self.reclaimer is not None:
                self.reclaimer(n - len(self._free))
        if len(self._free) < n:
            raise PoolExhausted(
                f"pool out of pages: need {n}, have {len(self._free)} free "
                f"of {self.n_pages}"
            )
        pages = [heapq.heappop(self._free) for _ in range(n)]
        self.refcounts[pages] = 1
        return pages

    def retain(self, pages: Iterable[int]) -> None:
        """Bump the refcount of every page in ``pages``."""
        for page in pages:
            count = self.refcounts[page] + 1
            self.refcounts[page] = count
            if count == 2:
                self._n_shared += 1

    def release(self, pages: Iterable[int]) -> None:
        """Drop one reference per page; free pages return to the free list."""
        for page in pages:
            count = self.refcounts[page] - 1
            if count < 0:
                raise RuntimeError(f"page {page} released more times than retained")
            self.refcounts[page] = count
            if count == 0:
                heapq.heappush(self._free, page)
            elif count == 1:
                self._n_shared -= 1

    def release_table(self, table: PageTable) -> None:
        """Release every page a table maps and reset it to empty."""
        self.release(table.pages)
        table.pages = []
        table.offset = 0
        table.length = 0

    # ------------------------------------------------------------------
    # integrity auditing
    # ------------------------------------------------------------------
    def check_invariants(
        self,
        owners: Sequence[PageTable] | None = None,
        pinned: Iterable[int] = (),
        label: str = "pool",
    ) -> list[str]:
        """Audit the pool's bookkeeping; returns violation strings (empty = clean).

        Internal consistency is always checked: non-negative refcounts, a
        duplicate-free free list containing exactly the refcount-zero pages,
        and the shared-page counter matching the refcounts.  When ``owners``
        is not ``None`` it must be the **complete** enumeration of live page
        tables mapping this pool; together with ``pinned`` (one entry per
        registry pin, duplicates allowed) the per-page reference totals are
        then cross-checked exactly — any mismatch is a leaked or corrupted
        page — and each table's remembered contiguity is compared with a
        rescan of its page ids.  ``label`` prefixes each violation for
        multi-pool reports.
        """
        violations: list[str] = []
        n_pages = self.n_pages
        refcounts = self.refcounts

        negative = np.flatnonzero(refcounts < 0)
        if negative.size:
            violations.append(f"{label}: negative refcounts at pages {negative.tolist()}")

        free_counts: dict[int, int] = {}
        for page in self._free:
            free_counts[page] = free_counts.get(page, 0) + 1
        for page, count in free_counts.items():
            if not 0 <= page < n_pages:
                violations.append(f"{label}: free-list page {page} out of range")
            elif count > 1:
                violations.append(f"{label}: page {page} on the free list {count} times")
            elif refcounts[page] != 0:
                violations.append(
                    f"{label}: page {page} is free but has refcount {int(refcounts[page])}"
                )
        lost = [
            page
            for page in np.flatnonzero(refcounts == 0).tolist()
            if page not in free_counts
        ]
        if lost:
            violations.append(
                f"{label}: pages {lost} have refcount 0 but are not on the free list"
            )

        n_shared_actual = int((refcounts >= 2).sum())
        if self._n_shared != n_shared_actual:
            violations.append(
                f"{label}: shared-page counter {self._n_shared} != "
                f"{n_shared_actual} pages with refcount >= 2"
            )

        if owners is None:
            return violations

        expected = np.zeros(n_pages, dtype=np.int64)
        for t, table in enumerate(owners):
            if not 0 <= table.offset < max(self.page_size, 1) and table.pages:
                violations.append(
                    f"{label}: table {t} offset {table.offset} outside [0, page_size)"
                )
            if table.length < 0 or table.end > table.allocated(self.page_size):
                violations.append(
                    f"{label}: table {t} spans {table.end} slots but maps only "
                    f"{table.allocated(self.page_size)}"
                )
            if table._contiguous not in (None, table.scan_contiguous()):
                violations.append(
                    f"{label}: table {t} remembers contiguous={table._contiguous} "
                    f"but its pages say {table.scan_contiguous()} (page list "
                    "mutated behind the table's back)"
                )
            for page in table.pages:
                if not 0 <= page < n_pages:
                    violations.append(f"{label}: table {t} maps page {page} out of range")
                else:
                    expected[page] += 1
        for page in pinned:
            if not 0 <= page < n_pages:
                violations.append(f"{label}: pinned page {page} out of range")
            else:
                expected[page] += 1
        mismatched = np.flatnonzero(expected != refcounts)
        for page in mismatched.tolist():
            violations.append(
                f"{label}: page {page} refcount {int(refcounts[page])} != "
                f"{int(expected[page])} live references (tables + pins)"
            )
        return violations

    # ------------------------------------------------------------------
    # slot arithmetic
    # ------------------------------------------------------------------
    def slot_map(self, table: PageTable) -> np.ndarray:
        """Flat pool slot of every live token, shape ``(length,)``."""
        if not table.pages:
            return np.empty(0, dtype=np.int64)
        pages = np.asarray(table.pages, dtype=np.int64)
        slots = (
            pages[:, None] * self.page_size + np.arange(self.page_size)
        ).reshape(-1)
        return slots[table.offset : table.end]

    def token_runs(self, table: PageTable, start: int = 0) -> list[tuple[int, int, int]]:
        """Live tokens from logical ``start`` on as maximal physically-contiguous runs.

        Returns ``(logical_start, pool_slot_start, length)`` triples; copying
        run-by-run turns a fragmented table's materialization into a handful
        of slice memcpys instead of an elementwise fancy-index gather.
        """
        ps = self.page_size
        runs: list[tuple[int, int, int]] = []
        logical = start
        i, within = divmod(table.offset + start, ps)
        n_pages = len(table.pages)
        while logical < table.length:
            first = table.pages[i]
            # Extend across consecutive page ids.
            j = i + 1
            while j < n_pages and table.pages[j] == table.pages[j - 1] + 1:
                j += 1
            span = (j - i) * ps - within
            span = min(span, table.length - logical)
            runs.append((logical, first * ps + within, span))
            logical += span
            i, within = j, 0
        return runs

    def _page_chunks(
        self, table: PageTable, start: int | None = None, span: int | None = None
    ) -> Iterator[tuple[int, int, int, int]]:
        """Yield ``(logical, page, within, chunk)`` pieces covering
        concatenated-page slots ``start .. start + span`` of ``table`` (the
        live region by default) one page at a time, ``logical`` counting from
        the first covered slot — the one page walk of every per-page read and
        write (quantization parameters and tier-0 frames are per page, so
        those paths cannot batch across pages the way :meth:`token_runs`
        does)."""
        ps = self.page_size
        if start is None:
            start, span = table.offset, table.length
        done = 0
        while done < span:
            slot = start + done
            within = slot % ps
            chunk = min(ps - within, span - done)
            yield done, table.pages[slot // ps], within, chunk
            done += chunk

    def is_contiguous(self, table: PageTable) -> bool:
        """True when the table's pages form one ascending run of page ids
        (the table remembers the answer between mutations)."""
        return table.is_contiguous()

    @property
    def exact_survivors(self) -> bool:
        """True when eviction keeps every survivor byte for byte: the slabs
        hold the compute dtype itself (an int8 pool re-quantizes survivors
        against fresh page ranges)."""
        return self._k.dtype == self.dtype

    def _slabs(self) -> list[np.ndarray]:
        """The storage slabs — keys, values, positions — in the order every
        whole-page move (copy-on-write, evict-one shift, spill record) walks."""
        return [self._k, self._v, self._pos]

    def _exclusive(self, table: PageTable) -> bool:
        if self._n_shared == 0:
            return True
        return all(self.refcounts[page] == 1 for page in table.pages)

    # ------------------------------------------------------------------
    # writes: seed / extend / append
    # ------------------------------------------------------------------
    def _write_span(self, table: PageTable, start: int, array_by_slab) -> None:
        """Write dense per-slab arrays into concatenated-page slots
        ``start .. start + span`` of ``table`` (pages must already exist)."""
        if self.is_contiguous(table):
            # One slice write per slab — the common case (ascending page run).
            base = self._page_base(table.pages[0]) + start if table.pages else 0
            for slab, data in array_by_slab:
                slab[:, base : base + data.shape[1]] = data
            return
        for slab, data in array_by_slab:
            for done, page, within, chunk in self._page_chunks(table, start, data.shape[1]):
                base = self._page_base(page) + within
                slab[:, base : base + chunk] = data[:, done : done + chunk]

    def extend(
        self,
        table: PageTable,
        keys: np.ndarray,
        values: np.ndarray,
        positions: np.ndarray,
        reserve_tokens: int = 0,
    ) -> None:
        """Bulk-append ``keys``/``values`` of shape ``(heads, T, d_head)`` with
        per-head ``positions`` of shape ``(heads, T)`` at the table's end.

        Seeding a fresh table is ``extend`` on an empty one.  ``reserve_tokens``
        pre-allocates capacity beyond the written tokens (the historical
        ``capacity`` constructor argument of the slab caches).
        """
        t = keys.shape[1]
        needed_slots = max(table.end + t, table.offset + reserve_tokens)
        needed_pages = self.pages_for(max(needed_slots, 1))
        if needed_pages > len(table.pages):
            table.push_pages(self.alloc(needed_pages - len(table.pages)))
        if t == 0:
            return
        start = table.end
        ps = self.page_size
        if table.pages and start < table.allocated(ps):
            # The first written slot lands inside the current last page; COW
            # it if shared (e.g. right after a beam duplicated this table).
            self._copy_on_write(table, start // ps)
        self._store_span(table, start, keys, values, positions)
        table.length += t

    def _store_span(
        self,
        table: PageTable,
        start: int,
        keys: np.ndarray,
        values: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        """Write a dense token span (keys rotated first when RoPE) into the
        pages covering slots ``start ..`` of ``table`` — the single write
        primitive :meth:`extend` funnels through, overridden by the quantized
        pool."""
        if self.rope_dims > 0:
            keys = self.rope_table.rotate(keys, positions)
        self._write_span(table, start, zip(self._slabs(), (keys, values, positions)))

    def _copy_on_write(self, table: PageTable, page_index: int) -> None:
        """Give ``table`` an exclusive copy of its ``page_index``-th page."""
        if self._n_shared == 0:
            return
        page = table.pages[page_index]
        if self.refcounts[page] == 1:
            return
        (fresh,) = self.alloc(1)
        ps = self.page_size
        src, dst = self._page_base(page), self._page_base(fresh)
        for slab in self._slabs():
            slab[:, dst : dst + ps] = slab[:, src : src + ps]
        self._copy_page_state(page, fresh)
        table.replace_page(page_index, fresh)
        self.release([page])

    def append(self, table: PageTable, k: np.ndarray, v: np.ndarray, position: int) -> None:
        """Append one token (``k``/``v`` of shape ``(heads, d_head)``)."""
        slot = self._append_slot(table)
        self._store_token(slot, k, v, int(position))
        table.length += 1

    def _store_token(self, slot: int, k: np.ndarray, v: np.ndarray, position: int) -> None:
        """Write one token's key (rotated first when RoPE), value and
        position into a resolved pool slot — the single-token write primitive
        shared by :meth:`append`, overridden by the quantized pool."""
        if self.rope_dims > 0:
            k = self.rope_table.rotate_uniform(k, position)
        self._k[:, slot] = k
        self._v[:, slot] = v
        self._pos[:, slot] = position

    def _append_slot(self, table: PageTable) -> int:
        """Flat pool slot for the next appended token (allocates / COWs)."""
        ps = self.page_size
        end = table.end
        if end == table.allocated(ps):
            table.push_pages(self.alloc(1))
        else:
            self._copy_on_write(table, end // ps)
        page = table.pages[end // ps]
        return self._page_base(page) + end % ps

    def append_rows(
        self,
        tables: Sequence[PageTable],
        k: np.ndarray,
        v: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        """Append one token per table: ``k``/``v`` of shape ``(rows, heads,
        d_head)``, ``positions`` of shape ``(rows,)``.

        Slot resolution is per row (page boundaries differ), but the actual
        slab writes are one vectorized scatter per slab — the steady-state
        decode cost is one indexed write, not a Python loop of copies.
        """
        if not len(tables):
            return
        slots = np.empty(len(tables), dtype=np.int64)
        for i, table in enumerate(tables):
            try:
                slots[i] = self._append_slot(table)
            except Exception as exc:
                # Rows before i already consumed their slot but their length
                # was not bumped; the engine's snapshot/restore quarantine
                # rolls the whole step back, so attribution is all we add.
                tag_fault_row(exc, i)
                raise
        self._scatter_rows(slots, k, v, positions)
        for table in tables:
            table.length += 1

    def _scatter_rows(
        self, slots: np.ndarray, k: np.ndarray, v: np.ndarray, positions: np.ndarray
    ) -> None:
        """One vectorized write per slab of row ``i``'s token into resolved
        slot ``slots[i]`` (the write half of :meth:`append_rows`)."""
        positions = np.asarray(positions, dtype=np.int64)
        if self.rope_dims > 0:
            # Per-row positions; elementwise, so each row is bit-identical to
            # the solo cache's rotate_uniform at that position.
            k = self.rope_table.rotate(k, positions[:, None])
        self._k[:, slots] = k.transpose(1, 0, 2)
        self._v[:, slots] = v.transpose(1, 0, 2)
        self._pos[:, slots] = positions

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def gather(self, table: PageTable, indices: np.ndarray) -> int:
        """Retain only the live entries selected by ``indices`` of shape
        ``(heads, K)`` (ascending per head, relative to the live region).

        ``indices`` may also be an :class:`~repro.core.score.EvictOne` naming
        the one entry each head drops.  The one place a selection is validated
        (shape and range), for every cache front-end.  Four paths, cheapest
        first (``docs/kvcache.md``,
        "Eviction paths"): an *identity* selection moves nothing; a pure
        *suffix* (every head keeps exactly the newest ``K``) bumps the offset
        and frees fully-skipped leading pages without touching data; when
        every head drops exactly one entry — the steady state of a
        fixed-budget score policy — each head's tail *shifts* down one slot
        (:meth:`_shift_out`); everything else *compacts* (:meth:`_compact`).
        The shift is taken only where it leaves slabs, table, refcounts and
        free list exactly as compaction would: the pool stores the compute
        dtype itself (int8 survivors are re-quantized), the pages are
        exclusively owned (one physical run or several), and the live region
        starts at slot 0.  It keeps cache order, which the softmax / value
        reduction order and "the last ``w`` entries are the recent window"
        rest on; writing the incoming token into the evicted slot would move
        nothing but break both, so it is not done.  Returns the number of
        evicted entries.
        """
        length = table.length
        if isinstance(indices, EvictOne):
            # The policy names the one evicted entry per head outright, so
            # there is no index array to derive it from or check it against.
            drop = indices.drop if indices.drop.ndim == 1 else indices.drop[0]
            if drop.shape != (self.n_heads,) or indices.length != length:
                raise ValueError(
                    f"gather expects one drop per head ({self.n_heads}) of "
                    f"{length} entries, got {drop.shape} of {indices.length}"
                )
            if drop.min() < 0 or drop.max() >= length:
                raise IndexError("gather indices out of range")
            k = length - 1
            suffix = not drop.any()
        else:
            indices = np.asarray(indices, dtype=np.int64)
            if indices.ndim == 3:
                indices = indices[0]
            if indices.shape[0] != self.n_heads:
                raise ValueError(
                    f"gather expects ({self.n_heads}, K) indices, got {indices.shape}"
                )
            if indices.size and (indices.min() < 0 or indices.max() >= length):
                raise IndexError("gather indices out of range")
            k = indices.shape[-1]
            base = np.arange(k)
            # How far each survivor moves down: 0 before a head's first
            # evicted entry, and ``length - k`` everywhere exactly when the
            # newest K survive.
            shift = indices - base
            suffix = bool((shift == length - k).all())
            drop = None
        table.epoch += 1
        dropped = length - k
        ps = self.page_size
        if suffix:
            # Identity (dropped == 0) or pure suffix: O(1) pointer bump.
            table.offset += dropped
            table.length = k
            if k == 0:
                self.release_table(table)
            else:
                while table.offset >= ps:
                    self.release([table.pop_front()])
                    table.offset -= ps
            return dropped

        if (
            dropped == 1
            and table.offset == 0
            and self.exact_survivors
            and self._exclusive(table)
        ):
            if drop is None:
                # One gap per head means 0s up to it and 1s from it on, so the
                # gap sits at K minus the number of 1s; the comparison then
                # rejects every selection that is not of that form.
                drop = k - shift.sum(axis=-1)
                if not bool((shift == (base >= drop[:, None])).all()):
                    drop = None
            if drop is not None:
                self._shift_out(table, drop)
                return dropped
        self._compact(table, np.asarray(indices))
        return dropped

    def _shift_out(self, table: PageTable, drop: np.ndarray) -> None:
        """Evict entry ``drop[h]`` of every head ``h`` by moving that head's
        tail down one slot (see :meth:`gather` for the preconditions).

        A table of several physical runs moves each run's part of the tail
        inside the run and carries one token across each run boundary, from
        the run holding the smallest ``drop`` on.  One run keeps the plain
        single move: walking :meth:`token_runs` loops over pages in Python,
        and a solo row is one run of many pages."""
        slabs = self._slabs()
        if self.is_contiguous(table):
            base = self._page_base(table.pages[0])
            shift_heads_down(slabs, (base + drop).tolist(), base + table.length)
        else:
            drops = drop.tolist()
            runs = self.token_runs(table, min(drops))
            for (logical, slot, span), nxt in zip(runs, runs[1:] + [None]):
                end = logical + span
                starts = [slot + max(d - logical, 0) for d in drops]
                shift_heads_down(slabs, starts, slot + span)
                if nxt is not None:
                    heads = [h for h, d in enumerate(drops) if d < end]
                    # Basic indexing when every head carries (the common
                    # case): a fancy-indexed copy costs several times more.
                    if len(heads) == len(drops):
                        heads = slice(None)
                    for s in slabs:
                        s[heads, slot + span - 1] = s[heads, nxt[1]]
        table.length -= 1
        self.release(table.drop_pages(self.pages_for(table.length)))

    def _compact(self, table: PageTable, indices: np.ndarray) -> None:
        """General eviction: one flat row-gather of the survivors, written
        back from slot 0 — into the table's own pages when they are
        exclusively owned, into freshly allocated pages when any are shared
        (copy-on-write).  ``indices`` is the validated ``(heads, K)``
        selection; the reference every faster :meth:`gather` path must match.
        """
        k = indices.shape[-1]
        head_offsets = (np.arange(self.n_heads) * self.n_slots)[:, None]
        if self.is_contiguous(table):
            base = self._page_base(table.pages[0]) + table.offset if table.pages else 0
            gidx = (head_offsets + base + indices).reshape(-1)
        else:
            slots = self.slot_map(table)
            gidx = (head_offsets + slots[indices]).reshape(-1)

        data = self._take_all(gidx, k)
        n_needed = self.pages_for(max(k, 1))
        if self._exclusive(table):
            # In-place compaction: keep the first pages, free the tail.
            self.release(table.drop_pages(n_needed))
        else:
            # Allocate the destination before releasing the (shared) source so
            # a failed allocation leaves the table untouched.
            fresh = self.alloc(n_needed)
            self.release(table.pages)
            table.pages = fresh
        table.offset = 0
        table.length = k
        self._write_all(table, data)

    def _take_all(self, gidx: np.ndarray, k: int) -> list[np.ndarray]:
        """Gather ``[keys, values, positions]`` for the flat pool-slot
        indices ``gidx`` (compaction read).  The quantized pool overrides
        this to return *dequantized* keys/values, so eviction re-quantizes
        survivors against fresh per-page ranges."""

        def taken(slab: np.ndarray) -> np.ndarray:
            """Gather ``gidx`` from one slab."""
            if slab.ndim == 2:
                return slab.reshape(-1).take(gidx).reshape(self.n_heads, k)
            flat = slab.reshape(self.n_heads * self.n_slots, self.d_head)
            return flat.take(gidx, axis=0).reshape(self.n_heads, k, self.d_head)

        return [taken(slab) for slab in self._slabs()]

    def _write_all(self, table: PageTable, data: list[np.ndarray]) -> None:
        """Write the compacted ``[keys, values, positions]`` back into
        ``table``'s (re)allocated pages.  The slab attributes are re-read only
        here: the allocation in :meth:`gather` may have grown the pool and
        rebound them — pairing slabs with the gathered data any earlier would
        write the compaction into orphaned arrays."""
        self._write_span(table, 0, zip(self._slabs(), data))

    def truncate(self, table: PageTable, n: int) -> None:
        """Drop the last ``n`` live tokens (speculative-decode rollback).

        Pure bookkeeping: the logical length shrinks and trailing pages that
        no longer cover any live slot return to the free list (a refcount
        drop — shared owners keep theirs).  Rejected-token *data* is left in
        place; the next append overwrites those slots, copy-on-writing first
        when the page is shared.
        """
        if n == 0:
            return
        if n < 0 or n > table.length:
            raise ValueError(f"cannot truncate {n} of {table.length} tokens")
        table.epoch += 1
        table.length -= n
        if table.length == 0:
            self.release_table(table)
            return
        needed = pages_needed(table.end, self.page_size)
        if needed < len(table.pages):
            self.release(table.drop_pages(needed))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def token_view(self, table: PageTable, slab: np.ndarray) -> np.ndarray:
        """Dense ``(heads, length, ...)`` of the live tokens.

        Zero-copy slab view when the pages are physically contiguous (the
        attention fast path); a page-gather copy otherwise.
        """
        if table.length == 0:
            return slab[:, :0]
        if self.is_contiguous(table):
            start = self._page_base(table.pages[0]) + table.offset
            return slab[:, start : start + table.length]
        # Fragmented table: assemble from per-run slice copies.  The result
        # must be C-contiguous — NumPy's mixed slice+fancy indexing would
        # return token-major *memory* under a (heads, length, ...) shape, and
        # reduction kernels (einsum, softmax's pairwise sum) pick their
        # blocking from memory layout, bit-diverging from the slab-view fast
        # path.  Run-wise slicing is both layout-correct and a plain memcpy.
        out = np.empty((slab.shape[0], table.length) + slab.shape[2:], dtype=slab.dtype)
        for logical, src, span in self.token_runs(table):
            out[:, logical : logical + span] = slab[:, src : src + span]
        return out

    def keys_view(self, table: PageTable) -> np.ndarray:
        """Dense live keys as attention reads them (RoPE-rotated at their
        original positions when ``rope_dims > 0``), shape ``(heads, length,
        d_head)``."""
        return self.token_view(table, self._k)

    def values_view(self, table: PageTable) -> np.ndarray:
        """Dense live values, shape ``(heads, length, d_head)``."""
        return self.token_view(table, self._v)

    def positions_view(self, table: PageTable) -> np.ndarray:
        """Dense live original positions, shape ``(heads, length)``."""
        return self.token_view(table, self._pos)

    def fill_row(
        self,
        table: PageTable,
        out_k: np.ndarray,
        out_v: np.ndarray,
        out_pos: np.ndarray,
        start: int = 0,
    ) -> None:
        """Copy one table's live tokens from ``start`` (already held by the
        buffers) into padded batch buffers (``out_*[:, start:length]``) — the
        page-gather read of the batched path."""
        for logical, src, span in self.token_runs(table, start):
            dst = slice(logical, logical + span)
            out_k[:, dst] = self._k[:, src : src + span]
            out_v[:, dst] = self._v[:, src : src + span]
            out_pos[:, dst] = self._pos[:, src : src + span]

    def audit_read(self, table: PageTable) -> tuple | None:
        """A full :meth:`fill_row` into fresh ``(keys, values, positions)``
        for integrity audits; ``None`` where it would change pool state."""
        kv = np.empty((2, self.n_heads, table.length, self.d_head), self.dtype)
        out = (kv[0], kv[1], np.empty(kv.shape[1:3], np.int64))
        self.fill_row(table, *out)
        return out

    def page_tokens_view(self, pages: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(heads, n_pages * page_size, d)`` keys (as
        :meth:`keys_view` holds them) and values of full pages (used by prefix
        sharing to hand a mapped prefix to chunked prefill)."""
        probe = PageTable()
        probe.pages = list(pages)
        probe.length = len(probe.pages) * self.page_size
        return self.keys_view(probe), self.values_view(probe)


def resolve_pool_class(kv_dtype: str | None) -> type[BlockPool]:
    """Pool implementation for a ``kv_dtype`` knob value.

    ``None`` (or ``"native"``) keeps full-precision pages — the bit-exact
    default every golden test runs on; ``"int8"`` selects the quantized pool
    of :mod:`repro.kvcache.quant` (imported lazily to avoid a cycle).
    """
    if kv_dtype in (None, "native"):
        return BlockPool
    if str(kv_dtype) == "int8":
        from repro.kvcache.quant import QuantizedBlockPool

        return QuantizedBlockPool
    raise ValueError(f"unknown kv_dtype {kv_dtype!r}; expected None, 'native' or 'int8'")


@dataclasses.dataclass(frozen=True)
class KVStoreConfig:
    """Every paged-KV-store knob, declared and validated once (knob table:
    ``docs/serving.md``); taken as ``config=`` or keyword fields (:meth:`of`) by the
    store, the batched manager and — extended by ``EngineConfig`` — the engines."""

    #: Tokens per KV page.
    page_size: int = DEFAULT_PAGE_SIZE
    #: Fix each layer pool at ``ceil(max_pool_tokens / page_size)`` pages
    #: (memory-aware admission, preemption on exhaustion); ``None``: growable.
    max_pool_tokens: int | None = None
    #: The same bound as a byte budget over all layer pools, at the per-page
    #: footprint of ``kv_dtype``.  Mutually exclusive with ``max_pool_tokens``.
    max_pool_bytes: int | None = None
    #: Page storage: ``None``/``"native"`` bit-exact, ``"int8"`` quantized.
    kv_dtype: str | None = None
    #: Prefix-registry reclaim: ``"lru"`` (historical, exact) or ``"wtinylfu"``.
    admission_policy: str = "lru"
    #: Tiered KV offload: tier-0 byte budget over all layer pools (the rest spills).
    tier0_budget: int | None = None
    #: Tier-1 arena, ``"compressed"`` (``None``) or ``"mmap"``.
    spill_backend: str | None = None

    def __post_init__(self) -> None:
        if self.max_pool_bytes is not None and self.max_pool_tokens is not None:
            raise ValueError("pass either max_pool_tokens or max_pool_bytes, not both")
        resolve_pool_class(self.kv_dtype)
        check_admission_policy(self.admission_policy)
        if self.tier0_budget is not None and self.tier0_budget <= 0:
            raise ValueError("tier0_budget must be positive (or None)")
        if self.spill_backend is not None:
            if self.tier0_budget is None:
                raise ValueError(
                    "spill_backend requires tier0_budget — KV offload is enabled "
                    "by the tier-0 byte budget"
                )
            from repro.kvcache.offload import check_spill_backend  # imports this module

            check_spill_backend(self.spill_backend)

    @classmethod
    def of(cls, config: KVStoreConfig | None = None, **knobs):
        """``config`` with ``knobs`` replaced (``cls(**knobs)`` without one) —
        the one construction path, so an unknown knob is a ``TypeError``."""
        return cls(**knobs) if config is None else dataclasses.replace(config, **knobs)

    def page_bytes(self, model_config) -> float:
        """Resident bytes of one KV page across a model's layer pools."""
        mc = model_config
        return mc.n_layers * PagedKVStore.page_nbytes_for(
            self.kv_dtype, mc.n_heads, mc.d_head, self.page_size, mc.np_dtype
        )

    def tier0_frame_bytes(self, model_config) -> float:
        """What ``tier0_budget`` pays for one frame across a model's layer
        pools: :meth:`page_bytes`, plus one more key slab per layer for a
        RoPE model (int8: its codes and four float32 rows per head).

        Tier-0 budgets were calibrated when RoPE pages also held raw keys;
        this price keeps an existing offload budget at the frames, and so at
        the spill behaviour, it was chosen for.  The frames are smaller than
        the price, so a tiered store stays under its budget.  To be removed
        together with a re-tune of the budgets that rely on it (ROADMAP
        22(e)); ``max_pool_bytes`` pays :meth:`page_bytes`."""
        mc = model_config
        page_bytes = self.page_bytes(mc)
        if mc.rope_dims == 0:
            return page_bytes
        # Half of a page's K/V bytes (all of it but the int64 positions).
        positions = mc.n_layers * self.page_size * mc.n_heads * 8
        return page_bytes + (page_bytes - positions) / 2

    def resolve_pages(self, model_config=None) -> tuple[int | None, int | None]:
        """``(n_pages, tier0_pages)`` per layer pool — the only budget→pages
        conversion.  ``n_pages``: ``None`` for growable pools, else >= 1;
        ``tier0_pages``: ``None`` without offload, else >= 2 (copy-on-write
        holds two pages).  Byte budgets divide by :meth:`page_bytes` (tier 0:
        :meth:`tier0_frame_bytes`) of ``model_config``, so they need one."""
        if model_config is None and (
            self.max_pool_bytes is not None or self.tier0_budget is not None
        ):
            raise ValueError(
                "byte budgets (max_pool_bytes, tier0_budget) need the model's "
                "geometry to price a page: pass n_pages/tier0_pages, or build "
                "the serving engine, which resolves them from the model config"
            )
        n_pages = tier0_pages = None
        if self.max_pool_tokens is not None:
            n_pages = max(pages_needed(self.max_pool_tokens, self.page_size), 1)
        if self.max_pool_bytes is not None:
            n_pages = max(int(self.max_pool_bytes // self.page_bytes(model_config)), 1)
        if self.tier0_budget is not None:
            tier0_pages = max(int(self.tier0_budget // self.tier0_frame_bytes(model_config)), 2)
        return n_pages, tier0_pages


class PagedKVStore:
    """One :class:`BlockPool` per decoder layer plus cross-layer accounting.

    This is the "one store" both cache managers are thin views over.  Layers
    never share pages (their KV contents differ), but they share geometry and
    — through this object — a single notion of free memory that the
    memory-aware scheduler admits against.

    Knobs come from ``config`` / keyword fields of :class:`KVStoreConfig`
    (``page_size``, ``kv_dtype``, ``admission_policy``, ``spill_backend``);
    ``n_pages`` / ``growable`` / ``tier0_pages`` are the per-layer pool
    geometry, already resolved (:meth:`KVStoreConfig.resolve_pages`) — the
    store never converts a budget itself.  ``tier0_pages`` enables tiered KV
    offload (:mod:`repro.kvcache.offload`); ``None`` keeps every page resident.
    """

    def __init__(
        self,
        n_layers: int,
        n_heads: int,
        d_head: int,
        dtype: np.dtype | str = np.float64,
        rope_dims: int = 0,
        rope_table: RopeTable | None = None,
        n_pages: int | None = None,
        growable: bool = True,
        tier0_pages: int | None = None,
        config: KVStoreConfig | None = None,
        **knobs,
    ):
        # Frames handed over already resolved bring their arena with them: a
        # config names an arena only beside the byte budget that enables offload.
        arena = knobs.pop("spill_backend", None) if tier0_pages is not None else None
        self.config = config = KVStoreConfig.of(config, **knobs)
        self.n_layers = n_layers
        self.page_size = int(config.page_size)
        self.growable = growable
        self.tier0_pages = int(tier0_pages) if tier0_pages is not None else None
        pool_cls = resolve_pool_class(config.kv_dtype)
        pool_kwargs: dict = {}
        if self.tier0_pages is not None:
            from repro.kvcache.offload import resolve_tiered_pool_class

            pool_cls = resolve_tiered_pool_class(pool_cls)
            pool_kwargs = {
                "tier0_pages": self.tier0_pages,
                "spill_backend": arena or config.spill_backend,
            }
        self.pools = [
            pool_cls(
                n_heads,
                d_head,
                page_size=self.page_size,
                n_pages=n_pages if n_pages is not None else 64,
                dtype=dtype,
                rope_dims=rope_dims,
                rope_table=rope_table,
                growable=growable,
                **pool_kwargs,
            )
            for _ in range(n_layers)
        ]

    def pool(self, layer_idx: int) -> BlockPool:
        """The block pool backing decoder layer ``layer_idx``."""
        return self.pools[layer_idx]

    def attach_reclaimer(self, reclaimer: Callable[[int], int]) -> None:
        """Install the prefix registry's reclaim callback on every pool."""
        for pool in self.pools:
            pool.reclaimer = reclaimer

    # ------------------------------------------------------------------
    @staticmethod
    def page_nbytes_for(
        kv_dtype: str | None,
        n_heads: int,
        d_head: int,
        page_size: int,
        dtype: np.dtype | str,
    ) -> float:
        """Resident bytes of one page for a store that does not exist yet —
        how a byte budget (``max_pool_bytes``) is converted into a page
        count before the pools are built."""
        return resolve_pool_class(kv_dtype).estimate_page_nbytes(
            n_heads, d_head, page_size, dtype
        )

    def pages_for_tokens(self, n_tokens: int) -> int:
        """Pages (per layer) needed to hold ``n_tokens`` token slots."""
        return pages_needed(n_tokens, self.page_size)

    @property
    def total_pages(self) -> int:
        """Pages across all layer pools (free and mapped)."""
        return sum(pool.n_pages for pool in self.pools)

    @property
    def free_pages(self) -> int:
        """Free pages across all layer pools."""
        return sum(pool.free_pages for pool in self.pools)

    @property
    def used_pages(self) -> int:
        """Mapped pages across all layer pools."""
        return sum(pool.used_pages for pool in self.pools)

    @property
    def shared_pages(self) -> int:
        """Multiply-mapped pages across all layer pools."""
        return sum(pool.shared_pages for pool in self.pools)

    def min_free_pages(self) -> int:
        """Free pages in the tightest layer pool (layers evolve symmetrically,
        so this is the admission-relevant number)."""
        return min(pool.free_pages for pool in self.pools)

    def tier0_frames(self) -> int | None:
        """Resident tier-0 frames per layer pool under KV offload, ``None``
        when offload is disabled — the residency budget
        :class:`~repro.serving.scheduler.PagedScheduler` admits rows
        against (admission counts only tier-0 residency)."""
        return self.tier0_pages

    def usage(self) -> dict:
        """Aggregate pool utilization (for demos / telemetry).

        Besides page counts, reports **bytes**: ``bytes_total`` is the
        resident size of every slab (plus quantization state), and
        ``bytes_used`` the share covered by mapped pages — the number that
        makes full-precision and int8 pools comparable under one budget.
        Under KV offload a ``tier`` sub-dict aggregates each pool's
        resident/spilled page counts and spill/restore traffic (see
        :meth:`repro.kvcache.offload._TieredMixin.tier_usage`); the
        single-tier report stays byte-identical to the historical schema.
        """
        page_bytes = sum(pool.page_nbytes() for pool in self.pools) / max(
            self.n_layers, 1
        )
        out = {
            "pages_total": self.total_pages,
            "pages_used": self.used_pages,
            "pages_free": self.free_pages,
            "pages_shared": self.shared_pages,
            "bytes_total": self.nbytes(),
            "bytes_used": int(
                sum(pool.used_pages * pool.page_nbytes() for pool in self.pools)
            ),
            "bytes_per_page": int(page_bytes),
        }
        if self.tier0_pages is not None:
            tier: dict[str, int] = {}
            for pool in self.pools:
                for key, value in pool.tier_usage().items():
                    tier[key] = tier.get(key, 0) + int(value)
            tier["tier0_frames"] = self.tier0_pages  # per layer, not summed
            out["tier"] = tier
        return out

    def nbytes(self) -> int:
        """Resident bytes of all pool slabs — keys, values and positions
        (plus per-page quantization tensors for an int8 store),
        i.e. the sum of every pool's :meth:`BlockPool.nbytes`."""
        return sum(pool.nbytes() for pool in self.pools)

    def check_invariants(
        self,
        owner_tables_per_layer: Sequence[Sequence[PageTable]] | None = None,
        pinned_per_layer: Sequence[Iterable[int]] | None = None,
    ) -> list[str]:
        """Audit every layer pool (see :meth:`BlockPool.check_invariants`).

        ``owner_tables_per_layer[layer]`` enumerates all live page tables
        mapping layer ``layer``; ``pinned_per_layer`` the registry pins
        (typically :meth:`PrefixRegistry.pinned_pages`).  Both may be
        ``None`` to skip the cross-reference check.  Returns the combined
        violation list, each entry labelled with its layer.
        """
        violations: list[str] = []
        for layer, pool in enumerate(self.pools):
            violations.extend(
                pool.check_invariants(
                    owners=(
                        owner_tables_per_layer[layer]
                        if owner_tables_per_layer is not None
                        else None
                    ),
                    pinned=(
                        pinned_per_layer[layer] if pinned_per_layer is not None else ()
                    ),
                    label=f"layer {layer}",
                )
            )
        return violations


def chunk_digest(tokens, parent: bytes | None = None) -> bytes:
    """Process-stable digest of one page-aligned prefix chunk.

    Chains like the registry's chunk keys: pass the previous chunk's digest
    as ``parent`` so a chunk is only ever equal to another chunk behind the
    exact same full prefix.  The digest is ``blake2b`` over the parent digest
    plus the token ids serialized as little-endian int64 — byte-identical
    across processes, platforms and ``PYTHONHASHSEED`` values, which is what
    lets the sharded router (:mod:`repro.serving.sharded`) and every worker's
    own :class:`PrefixRegistry` agree on chunk identity without sharing any
    in-process state.
    """
    h = hashlib.blake2b(digest_size=16)
    if parent is not None:
        h.update(parent)
    arr = np.asarray(tokens, dtype=np.int64).reshape(-1)
    h.update(arr.astype("<i8", copy=False).tobytes())
    return h.digest()


class PrefixMatch:
    """Result of a registry lookup: a mapped page-aligned prompt prefix."""

    __slots__ = ("length", "pages_per_layer")

    def __init__(self, length: int, pages_per_layer: list[list[int]]):
        self.length = length
        self.pages_per_layer = pages_per_layer


class _PrefixChunk:
    __slots__ = ("key", "parent", "pages_per_layer", "children")

    def __init__(self, key, parent, pages_per_layer):
        self.key = key
        self.parent = parent
        self.pages_per_layer = pages_per_layer
        self.children: set = set()


class PrefixRegistry:
    """Content-addressed index of resident page-aligned prompt prefixes.

    Chunks are keyed by a chained :func:`chunk_digest` (the parent chunk's
    digest folded into this chunk's token bytes) so a chunk is only ever
    matched behind its exact full prefix, and the keys are process-stable —
    the sharded front-end hashes the same bytes to pick a replica, so the
    replica a prompt lands on is exactly the one whose registry can already
    hold its prefix.  Each registered
    chunk pins one page per layer (a registry refcount); sequences that
    evict or retire therefore never invalidate a registered prefix — the
    copy-on-write rules in :class:`BlockPool` route their mutations to
    private pages.  When a non-growable pool runs out, :meth:`reclaim` drops
    leaf chunks until enough pages come free, in the order the admission
    policy ranks them (see :mod:`repro.kvcache.admission`): least recently
    used first under the default ``"lru"``, by W-TinyLFU competitive
    admission under ``"wtinylfu"``.  Either way a parent chunk is never
    dropped while a descendant is live.
    """

    def __init__(self, store: PagedKVStore, admission_policy: str | None = None):
        self.store = store
        self.page_size = store.page_size
        self._chunks: dict[bytes, _PrefixChunk] = {}
        #: Per-layer reverse map page id -> owning chunk key (registration is
        #: 1:1 per layer: each chunk pins exactly one page in every layer and
        #: identical prefixes resolve to the *same* chunk).  Backs the tiered
        #: pools' frequency-aware spill ranking (:meth:`page_heat`).
        self._page_owner: list[dict[int, bytes]] = [
            {} for _ in range(store.n_layers)
        ]
        if admission_policy is None:
            admission_policy = store.config.admission_policy
        self.admission_policy = admission_policy
        # Nominal chunk capacity = per-layer pool pages (the most chunks the
        # registry could ever pin); sizes the W-TinyLFU segments and sketch.
        capacity = store.pools[0].n_pages if store.pools else 64
        self._admission = resolve_admission_policy(admission_policy, capacity)
        #: Chunks served from the registry by :meth:`match` (cumulative).
        self.n_hits = 0
        #: Prompt tokens mapped from resident pages instead of recomputed.
        self.n_hit_tokens = 0
        #: Chunks newly registered (cumulative, across reclaim cycles).
        self.n_registered = 0
        #: Chunks dropped under pool pressure (:meth:`reclaim` victims).
        self.n_reclaimed = 0
        store.attach_reclaimer(self.reclaim)

    def __len__(self) -> int:
        return len(self._chunks)

    @staticmethod
    def _chunk_key(parent_key: bytes | None, tokens: np.ndarray) -> bytes:
        return chunk_digest(tokens, parent_key)

    # ------------------------------------------------------------------
    def match(self, token_ids: np.ndarray, max_tokens: int | None = None) -> PrefixMatch | None:
        """Longest registered page-aligned prefix of ``token_ids``.

        ``max_tokens`` caps the usable prefix (the chunked-prefill path must
        recompute at least the last two prompt tokens).  Returns ``None``
        when not even one full page matches.
        """
        token_ids = np.asarray(token_ids).reshape(-1)
        ps = self.page_size
        limit = len(token_ids) if max_tokens is None else min(max_tokens, len(token_ids))
        matched: list[_PrefixChunk] = []
        parent = None
        covered = 0
        while covered + ps <= limit:
            key = self._chunk_key(parent, token_ids[covered : covered + ps])
            chunk = self._chunks.get(key)
            if chunk is None:
                break
            matched.append(chunk)
            parent = key
            covered += ps
        if not matched:
            return None
        self.n_hits += len(matched)
        self.n_hit_tokens += covered
        for chunk in matched:
            self._admission.on_access(chunk.key)
        pages_per_layer = [
            [chunk.pages_per_layer[layer] for chunk in matched]
            for layer in range(self.store.n_layers)
        ]
        return PrefixMatch(covered, pages_per_layer)

    def register(self, token_ids: np.ndarray, tables: Sequence[PageTable]) -> int:
        """Register every full-page chunk of a freshly seeded prompt.

        ``tables`` holds the sequence's per-layer page tables right after
        seeding (offset 0, pristine prompt content).  Already-known chunks
        are refreshed; new ones pin their page in every layer.  Returns the
        number of newly registered chunks.
        """
        token_ids = np.asarray(token_ids).reshape(-1)
        ps = self.page_size
        n_full = len(token_ids) // ps
        parent = None
        added = 0
        for i in range(n_full):
            key = self._chunk_key(parent, token_ids[i * ps : (i + 1) * ps])
            chunk = self._chunks.get(key)
            if chunk is None:
                pages = [tables[layer].pages[i] for layer in range(self.store.n_layers)]
                for layer, page in enumerate(pages):
                    self.store.pools[layer].retain([page])
                    self._page_owner[layer][page] = key
                chunk = _PrefixChunk(key, parent, pages)
                self._chunks[key] = chunk
                if parent is not None:
                    self._chunks[parent].children.add(key)
                added += 1
                self._admission.on_insert(key)
            else:
                self._admission.on_access(key)
            parent = key
        self.n_registered += added
        return added

    # ------------------------------------------------------------------
    def _freeable(self, chunk: _PrefixChunk) -> bool:
        """Dropping this chunk returns its page to every layer's free list
        (no live sequence maps it — the registry holds the only reference)."""
        return all(
            self.store.pools[layer].refcounts[page] == 1
            for layer, page in enumerate(chunk.pages_per_layer)
        )

    def reclaimable_pages(self) -> int:
        """Pages per layer that :meth:`reclaim` could free right now.

        Counts only chunks no live sequence maps — dropping a chunk whose
        page is also held by a running row releases the registry pin but
        frees no memory, so it must not count toward admission headroom.
        """
        return sum(1 for chunk in self._chunks.values() if self._freeable(chunk))

    def reclaim(self, n_pages: int) -> int:
        """Drop leaf chunks until ``n_pages`` pages per layer came free (or
        nothing freeable remains).  Returns the number of pages freed per
        layer.

        Freeable leaves go first; when none exist, an unfreeable leaf is
        dropped only if that unblocks a freeable ancestor — chunks that can
        free nothing (their pages are mapped by live rows) are never wasted.
        Victim *ranking* within the eligible set is the admission policy's
        ``choose_victim``.  Only leaves are ever eligible, so a parent chunk
        can never be reclaimed while a descendant is live.
        """
        freed = 0
        while freed < n_pages and self._chunks:
            leaves = [c for c in self._chunks.values() if not c.children]
            eligible = [c for c in leaves if self._freeable(c)]
            if eligible:
                freed += 1
            else:
                eligible = [c for c in leaves if self._has_freeable_ancestor(c)]
                if not eligible:
                    break
            victim = self._admission.choose_victim([c.key for c in eligible])
            self._drop(self._chunks[victim])
            self.n_reclaimed += 1
        return freed

    def _has_freeable_ancestor(self, chunk: _PrefixChunk) -> bool:
        key = chunk.parent
        while key is not None:
            parent = self._chunks.get(key)
            if parent is None:
                break
            if self._freeable(parent):
                return True
            key = parent.parent
        return False

    def _drop(self, chunk: _PrefixChunk) -> None:
        if chunk.children:
            # Explicit chain guard, not an iteration-order accident: a parent
            # reclaimed while a descendant is live would leave the child's
            # chained key matchable with its prefix pages gone.
            raise PoolIntegrityError(
                f"refusing to drop chunk {chunk.key.hex()} with "
                f"{len(chunk.children)} live descendant chunk(s)"
            )
        for layer, page in enumerate(chunk.pages_per_layer):
            self.store.pools[layer].release([page])
            self._page_owner[layer].pop(page, None)
        if chunk.parent is not None and chunk.parent in self._chunks:
            self._chunks[chunk.parent].children.discard(chunk.key)
        del self._chunks[chunk.key]
        self._admission.on_drop(chunk.key)

    def page_heat(self, layer: int, page: int) -> int:
        """Spill-priority score of ``page`` in ``layer`` (higher = keep
        resident longer): the owning chunk's segment heat under the admission
        policy (``segment_heat``), 0 for a page no chunk pins.

        Under ``"wtinylfu"`` a page pinned by a protected-segment chunk
        outranks a probation chunk's page, which outranks a window chunk's
        page.  Under ``"lru"`` every page scores 0 and the tiered pools keep
        their own recency order — placement never affects decoded values
        (spill/restore is byte-exact), only transfer counts.
        """
        policy = self._admission
        key = self._page_owner[layer].get(page)
        return policy.segment_heat.get(policy.segment_of(key), 0)

    def spill_ranker(self, layer: int) -> Callable[[int], int] | None:
        """Victim-ranking callback for ``layer``'s tiered pool (installable
        as :attr:`repro.kvcache.offload._TieredMixin.spill_ranker`); ``None``
        when the admission policy has no segment heat (``"lru"``: every page
        would score 0, which is the pool's own order without the calls)."""
        if not self._admission.segment_heat:
            return None
        return lambda page: self.page_heat(layer, page)

    def pinned_pages(self) -> list[list[int]]:
        """Per-layer page ids the registry currently pins (one per chunk).

        Feed this as ``pinned_per_layer`` to
        :meth:`PagedKVStore.check_invariants` so registry refcounts are
        accounted for in the cross-reference audit.
        """
        pinned: list[list[int]] = [[] for _ in range(self.store.n_layers)]
        for chunk in self._chunks.values():
            for layer, page in enumerate(chunk.pages_per_layer):
                pinned[layer].append(page)
        return pinned

    def audit(self) -> list[str]:
        """Structural audit of chunk chains and admission segments.

        Checks that every chunk's parent is still registered and back-links
        it as a child (the reclaim-ordering bug class: a parent reclaimed
        while a descendant is live would break exactly this), that children
        sets reference only live chunks, and that the admission policy
        tracks exactly the registered chunk set (every tracked key pins
        refcounted pages, every pinned chunk sits in exactly one segment;
        see :meth:`repro.kvcache.admission.WTinyLFUAdmissionPolicy.audit`).
        Over tiered pools (KV offload) every pinned page must additionally
        be in a definite tier — resident on a tier-0 frame XOR spilled to
        the arena — never lost in between.
        Returns violation strings (empty = clean).
        """
        violations: list[str] = []
        for key, chunk in self._chunks.items():
            if chunk.parent is not None:
                parent = self._chunks.get(chunk.parent)
                if parent is None:
                    violations.append(
                        f"registry: chunk {key.hex()} is live but its parent "
                        f"{chunk.parent.hex()} was reclaimed"
                    )
                elif key not in parent.children:
                    violations.append(
                        f"registry: chunk {key.hex()} not back-linked as a "
                        f"child of {chunk.parent.hex()}"
                    )
            for child in chunk.children:
                if child not in self._chunks:
                    violations.append(
                        f"registry: chunk {key.hex()} lists reclaimed child "
                        f"{child.hex()}"
                    )
            for layer, page in enumerate(chunk.pages_per_layer):
                tier_state = getattr(self.store.pools[layer], "tier_page_state", None)
                if tier_state is not None and tier_state(page) == "free":
                    violations.append(
                        f"registry: layer {layer} chunk {key.hex()} pins page "
                        f"{page} that is neither resident nor spilled"
                    )
        violations.extend(self._admission.audit(self._chunks.keys()))
        return violations

    def telemetry(self) -> dict:
        """Registry hit/savings counters, plus the admission policy's own
        (none under ``"lru"``; see
        :meth:`repro.kvcache.admission.WTinyLFUAdmissionPolicy.telemetry`)."""
        out = {
            "policy": self.admission_policy,
            "chunks": len(self._chunks),
            "hits": self.n_hits,
            "hit_tokens": self.n_hit_tokens,
            "registered": self.n_registered,
            "reclaimed": self.n_reclaimed,
        }
        out.update(self._admission.telemetry())
        return out

    def clear(self) -> None:
        """Drop every registered chunk, leaves first, releasing all pins (a
        loop: a chain is as deep as a prompt is long in pages)."""
        leaves = [c for c in self._chunks.values() if not c.children]
        while leaves:
            chunk = leaves.pop()
            self._drop(chunk)
            parent = self._chunks.get(chunk.parent)
            if parent is not None and not parent.children:
                leaves.append(parent)
