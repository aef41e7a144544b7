"""Int8-quantized paged KV storage: shrink resident pages, keep the API.

The paper's thesis is that KV-cache memory bounds generative inference; the
paged :class:`~repro.kvcache.paged.BlockPool` (PR 3) already treats free
pages as the admission currency, but every page still stores full-precision
keys/values.  :class:`QuantizedBlockPool` attacks the same bottleneck from
the *representation* side — and composes with token eviction: the eviction
policies shrink how many tokens survive, quantization shrinks what each
survivor costs.

Storage format
--------------
Each slab that holds floating-point content (keys — already RoPE-rotated
for RoPE models — and values) is stored as an **int8 token-major slab**
of codes in ``[-127, 127]``, with affine dequantization parameters kept
**per page, per head** in float32 tensors of shape ``(n_pages, n_heads)``::

    x_hat = code * scale[page, head] + zero[page, head]

``scale``/``zero`` are derived from a running per-page/per-head value range
``[lo, hi]``: ``scale = (hi - lo) / 254`` and ``zero = (hi + lo) / 2``, so
the extremes map to ±127 and every stored element satisfies
``|x - x_hat| <= scale / 2``.  Positions stay int64 — they are exact by
construction.

Write protocol
--------------
* A **fresh page** (allocation resets its range to empty) quantizes its
  first span directly.
* An **append into a partially filled page** widens the running range only
  when the new token falls outside it; widening re-encodes the page's
  resident codes under the new parameters (re-rounding each at most once per
  widening — dequantize-then-encode is the identity when parameters are
  unchanged).
* **Eviction** (:meth:`BlockPool.gather`) dequantizes the survivors and
  re-quantizes them against *fresh* destination-page ranges, so a page's
  range tracks the live content instead of ratcheting ever wider.  The
  suffix fast path stays pure bookkeeping — untouched pages keep their
  codes and parameters bit-for-bit.
* **Copy-on-write** copies codes *and* parameters, so a forked sequence
  dequantizes identically to its source until it actually diverges.

Determinism contract
--------------------
Quantization is a pure function of the write history (values and the order
and grouping of writes), never of physical page ids.  Two sequences that
perform the same appends/extends/evictions therefore hold bit-identical
dequantized views — which is why batched int8 serving, preemption-restart
and table fork/rollback reproduce solo int8 decoding exactly (pinned by the
schedule-equivalence tests).  What int8 mode does *not* preserve is
bit-equality with full-precision decoding; that accuracy delta is measured
by the pinned quantization benchmarks and documented in
``docs/quantization.md``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kvcache.paged import BlockPool, PageTable, tag_fault_row

__all__ = ["QuantizedBlockPool", "QMAX", "QUANT_STEPS"]

#: Largest code magnitude stored in the int8 slabs (codes live in [-QMAX, QMAX]).
QMAX = 127
#: Quantization steps spanning a page's [lo, hi] value range.
QUANT_STEPS = 2 * QMAX


class QuantizedBlockPool(BlockPool):
    """A :class:`BlockPool` whose K/V pages are int8 codes + per-page scales.

    Drop-in for the full-precision pool: every write path (``extend`` /
    ``append`` / ``append_rows`` / ``gather`` compaction / copy-on-write)
    quantizes through the storage hooks of the base class, and every read
    path (``keys_view`` / ``values_view`` / ``fill_row`` /
    ``page_tokens_view``) materializes **dequantized** tensors in the
    pool's compute ``dtype`` — so :class:`~repro.kvcache.batch.BatchedLayerKVCache`
    under either manager, prefix sharing, truncate/fork rollback and the
    attention kernels run unchanged.  The one
    structural difference from the base pool: reads are always page-gather
    copies (there is no zero-copy dequantized view of int8 codes), so the
    chunked-prefill attention over a shared prefix sees dequantized — not
    exact — prefix KV; see the accuracy contract in ``docs/quantization.md``.
    """

    #: The quantized streams: keys (as attention reads them) and values.
    _qnames = ("k", "v")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        shape, names = (self.n_pages, self.n_heads), self._qnames
        self._qscale = {n: np.ones(shape, dtype=np.float32) for n in names}
        self._qzero = {n: np.zeros(shape, dtype=np.float32) for n in names}
        self._qlo = {n: np.full(shape, np.inf, dtype=np.float32) for n in names}
        self._qhi = {n: np.full(shape, -np.inf, dtype=np.float32) for n in names}

    # ------------------------------------------------------------------
    # base-class storage hooks
    # ------------------------------------------------------------------
    def _storage_dtype(self) -> np.dtype:
        """Slabs hold int8 codes; ``self.dtype`` stays the compute dtype."""
        return np.dtype(np.int8)

    def _grow_page_state(self, n_pages: int) -> None:
        """Grow the per-page quantization tensors alongside the slabs."""
        for store, fill in (
            (self._qscale, 1.0),
            (self._qzero, 0.0),
            (self._qlo, np.inf),
            (self._qhi, -np.inf),
        ):
            for name, arr in store.items():
                extra = np.full(
                    (n_pages - arr.shape[0], self.n_heads), fill, dtype=np.float32
                )
                store[name] = np.concatenate([arr, extra])

    def _copy_page_state(self, src_page: int, dst_page: int) -> None:
        """Copy-on-write: the copied codes dequantize with the same params."""
        for store in (self._qscale, self._qzero, self._qlo, self._qhi):
            for arr in store.values():
                arr[dst_page] = arr[src_page]

    def alloc(self, n: int) -> list[int]:
        """Allocate pages with their quantization ranges reset to empty."""
        pages = super().alloc(n)
        self._reset_page_params(pages)
        return pages

    # ------------------------------------------------------------------
    # quantization primitives
    # ------------------------------------------------------------------
    def _qslab(self, name: str) -> np.ndarray:
        """The int8 slab a quantized-stream name refers to."""
        return self._k if name == "k" else self._v

    def _page_of_slot(self, slots):
        """Hook: logical page id(s) owning flat slab slot(s) — the inverse of
        :meth:`~repro.kvcache.paged.BlockPool._page_base`.  Plain page
        arithmetic here; the tiered pool maps slab *frames* back to logical
        pages, because quantization parameters are indexed by logical page
        while the slabs are indexed by frame.  Accepts a scalar or an int64
        array (vectorized compaction reads)."""
        return slots // self.page_size

    def _reset_page_params(self, pages: Sequence[int]) -> None:
        """Mark ``pages`` as empty: unit scale, zero offset, empty range."""
        if not len(pages):
            return
        idx = np.asarray(pages, dtype=np.int64)
        for name in self._qnames:
            self._qscale[name][idx] = 1.0
            self._qzero[name][idx] = 0.0
            self._qlo[name][idx] = np.inf
            self._qhi[name][idx] = -np.inf

    @staticmethod
    def _params_from(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Affine (scale, zero) mapping ``[lo, hi]`` onto codes ``[-127, 127]``
        per head; a degenerate (constant) range gets unit scale so the
        constant round-trips exactly through ``zero``."""
        span = hi - lo
        scale = np.where(span > 0, span / QUANT_STEPS, 1.0).astype(np.float32)
        zero = ((hi + lo) * 0.5).astype(np.float32)
        return scale, zero

    @staticmethod
    def _encode(data: np.ndarray, scale: np.ndarray, zero: np.ndarray) -> np.ndarray:
        """Quantize ``(heads, T, d)`` floats to int8 codes with per-head params."""
        codes = np.rint((data - zero[:, None, None]) / scale[:, None, None])
        return np.clip(codes, -QMAX, QMAX).astype(np.int8)

    def _decode(self, codes: np.ndarray, scale: np.ndarray, zero: np.ndarray) -> np.ndarray:
        """Dequantize ``(heads, T, d)`` int8 codes into the compute dtype."""
        return codes.astype(self.dtype) * scale[:, None, None] + zero[:, None, None]

    def _quantize_into(self, name: str, page: int, within: int, data: np.ndarray) -> None:
        """Quantize ``data`` of shape ``(heads, c, d)`` into slots
        ``within .. within + c`` of ``page``, widening the page's running
        range first when the new values fall outside it (which re-encodes the
        page's resident codes under the widened parameters — a no-op for
        heads whose parameters are unchanged)."""
        slab = self._qslab(name)
        scale, zero = self._qscale[name], self._qzero[name]
        lo, hi = self._qlo[name], self._qhi[name]
        dmin = data.min(axis=(1, 2)).astype(np.float32)
        dmax = data.max(axis=(1, 2)).astype(np.float32)
        new_lo = np.minimum(lo[page], dmin)
        new_hi = np.maximum(hi[page], dmax)
        ps = self.page_size
        base = self._page_base(page)
        if (new_lo < lo[page]).any() or (new_hi > hi[page]).any():
            new_scale, new_zero = self._params_from(new_lo, new_hi)
            if np.isfinite(lo[page]).any():
                resident = self._decode(
                    slab[:, base : base + ps], scale[page], zero[page]
                )
                slab[:, base : base + ps] = self._encode(resident, new_scale, new_zero)
            scale[page], zero[page] = new_scale, new_zero
            lo[page], hi[page] = new_lo, new_hi
        slab[:, base + within : base + within + data.shape[1]] = self._encode(
            data, scale[page], zero[page]
        )

    def _quant_write_span(
        self, name: str, table: PageTable, start: int, data: np.ndarray
    ) -> None:
        """Quantize a dense ``(heads, T, d)`` span into the pages covering
        concatenated slots ``start .. start + T`` of ``table``."""
        for done, page, within, chunk in self._page_chunks(table, start, data.shape[1]):
            self._quantize_into(name, page, within, data[:, done : done + chunk])

    # ------------------------------------------------------------------
    # write hooks
    # ------------------------------------------------------------------
    def _store_span(
        self,
        table: PageTable,
        start: int,
        keys: np.ndarray,
        values: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        """Quantized bulk write: positions land exactly, K (rotated first
        when RoPE) and V are quantized page by page."""
        if self.rope_dims > 0:
            keys = self.rope_table.rotate(keys, positions)
        self._write_span(table, start, [(self._pos, positions)])
        self._quant_write_span("k", table, start, np.asarray(keys))
        self._quant_write_span("v", table, start, np.asarray(values))

    def _store_token(self, slot: int, k: np.ndarray, v: np.ndarray, position: int) -> None:
        """Quantized single-token write into a resolved pool slot."""
        ps = self.page_size
        page, within = self._page_of_slot(slot), slot % ps
        self._pos[:, slot] = position
        k = np.asarray(k)
        if self.rope_dims > 0:
            k = self.rope_table.rotate_uniform(k, position)
        self._quantize_into("k", page, within, k[:, None, :])
        self._quantize_into("v", page, within, np.asarray(v)[:, None, :])

    def append_rows(
        self,
        tables: Sequence[PageTable],
        k: np.ndarray,
        v: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        """Append one token per table, quantizing row by row.

        The base pool's vectorized scatter assumes it can write raw values;
        quantized appends must update each destination page's running range,
        so this runs the same per-row ``_store_token`` the solo cache uses —
        keeping batched int8 serving bit-identical to solo int8 decoding.
        """
        if not len(tables):
            return
        positions = np.asarray(positions, dtype=np.int64)
        for i, table in enumerate(tables):
            try:
                slot = self._append_slot(table)
                self._store_token(slot, k[i], v[i], int(positions[i]))
            except Exception as exc:
                tag_fault_row(exc, i)
                raise
            table.length += 1

    # ------------------------------------------------------------------
    # integrity auditing
    # ------------------------------------------------------------------
    def check_invariants(
        self,
        owners: Sequence[PageTable] | None = None,
        pinned: Sequence[int] = (),
        label: str = "pool",
    ) -> list[str]:
        """Base-pool audit plus the quantization-state invariants.

        For every quantized stream: the four per-page parameter tensors keep
        shape ``(n_pages, n_heads)`` (they must grow in lockstep with the
        slabs), every tracked range is either empty (``lo=+inf, hi=-inf``,
        the post-``alloc`` reset state) or finite with ``lo <= hi``, scales
        are finite and positive, and ``(scale, zero)`` equal the pure
        recomputation :meth:`_params_from` of the running range — the
        determinism contract says parameters are a function of the range,
        never of stale history.
        """
        violations = super().check_invariants(owners=owners, pinned=pinned, label=label)
        shape = (self.n_pages, self.n_heads)
        for name in self._qnames:
            scale, zero = self._qscale[name], self._qzero[name]
            lo, hi = self._qlo[name], self._qhi[name]
            for tensor_name, tensor in (
                ("scale", scale), ("zero", zero), ("lo", lo), ("hi", hi)
            ):
                if tensor.shape != shape:
                    violations.append(
                        f"{label}: quant {name}/{tensor_name} shape "
                        f"{tensor.shape} != slab page count {shape}"
                    )
            if any(t.shape != shape for t in (scale, zero, lo, hi)):
                continue  # elementwise checks below assume aligned shapes
            empty = np.isinf(lo) & np.isinf(hi) & (lo > 0) & (hi < 0)
            tracked = ~empty
            bad_range = tracked & ~(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi))
            for page in np.flatnonzero(bad_range.any(axis=1)).tolist():
                violations.append(
                    f"{label}: quant {name} page {page} range is neither empty "
                    "nor a finite lo <= hi interval"
                )
            bad_scale = ~(np.isfinite(scale) & (scale > 0))
            for page in np.flatnonzero(bad_scale.any(axis=1)).tolist():
                violations.append(
                    f"{label}: quant {name} page {page} has non-finite or "
                    "non-positive scale"
                )
            if tracked.any():
                with np.errstate(invalid="ignore", over="ignore"):
                    want_scale, want_zero = self._params_from(lo, hi)
                stale = tracked & (
                    (scale != want_scale) | (zero != want_zero)
                )
                for page in np.flatnonzero(stale.any(axis=1)).tolist():
                    violations.append(
                        f"{label}: quant {name} page {page} (scale, zero) do not "
                        "match recomputation from its running [lo, hi] range"
                    )
        return violations

    # ------------------------------------------------------------------
    # eviction hooks
    # ------------------------------------------------------------------
    def _take_all(self, gidx: np.ndarray, k: int) -> list[np.ndarray]:
        """Compaction read: gather codes, then dequantize keys/values with
        each element's own page/head parameters."""
        data = super()._take_all(gidx, k)
        heads = gidx // self.n_slots
        pages = self._page_of_slot(gidx % self.n_slots)
        for i, name in enumerate(self._qnames):
            scale = self._qscale[name][pages, heads].reshape(self.n_heads, k, 1)
            zero = self._qzero[name][pages, heads].reshape(self.n_heads, k, 1)
            data[i] = data[i].astype(self.dtype) * scale + zero
        return data

    def _write_all(self, table: PageTable, data: list[np.ndarray]) -> None:
        """Compaction write: survivors are re-quantized against fresh
        destination-page ranges (the destination pages hold only the
        compacted content, so their ranges never ratchet wider)."""
        keys, values, positions = data
        self._reset_page_params(table.pages)
        self._write_span(table, 0, [(self._pos, positions)])
        self._quant_write_span("k", table, 0, keys)
        self._quant_write_span("v", table, 0, values)

    # ------------------------------------------------------------------
    # reads (always dequantizing page-gather copies)
    # ------------------------------------------------------------------
    def _dequant_view(self, table: PageTable, name: str) -> np.ndarray:
        """Dense dequantized ``(heads, length, d_head)`` of the live tokens."""
        slab = self._qslab(name)
        scale, zero = self._qscale[name], self._qzero[name]
        out = np.empty((self.n_heads, table.length, self.d_head), dtype=self.dtype)
        for logical, page, within, chunk in self._page_chunks(table):
            base = self._page_base(page) + within
            out[:, logical : logical + chunk] = self._decode(
                slab[:, base : base + chunk], scale[page], zero[page]
            )
        return out

    def keys_view(self, table: PageTable) -> np.ndarray:
        """Dequantized live keys (RoPE-rotated when ``rope_dims > 0``), shape
        ``(heads, length, d_head)``."""
        return self._dequant_view(table, "k")

    def values_view(self, table: PageTable) -> np.ndarray:
        """Dequantized live values, shape ``(heads, length, d_head)``."""
        return self._dequant_view(table, "v")

    def fill_row(
        self,
        table: PageTable,
        out_k: np.ndarray,
        out_v: np.ndarray,
        out_pos: np.ndarray,
        start: int = 0,
    ) -> None:
        """Dequantize one table's live tokens into padded batch buffers from
        the first slot of ``start``'s page on (an append re-encodes its page);
        only those pages pass ``_page_base`` (the tiered recency touch and
        restore): the buffers already hold the rest."""
        first = start - (table.offset + start) % self.page_size
        for logical, page, within, chunk in self._page_chunks(table):
            if logical < first:
                continue
            base = self._page_base(page) + within
            dst = slice(logical, logical + chunk)
            out_k[:, dst] = self._decode(
                self._k[:, base : base + chunk],
                self._qscale["k"][page],
                self._qzero["k"][page],
            )
            out_v[:, dst] = self._decode(
                self._v[:, base : base + chunk],
                self._qscale["v"][page],
                self._qzero["v"][page],
            )
            out_pos[:, dst] = self._pos[:, base : base + chunk]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def kv_token_nbytes(self) -> float:
        """Key+value bytes per cached token: int8 codes plus the amortized
        per-page float32 ``(scale, zero)`` pairs of the K and V streams."""
        codes = 2 * self.n_heads * self.d_head
        params = 2 * self.n_heads * 2 * 4 / self.page_size
        return float(codes + params)

    @classmethod
    def estimate_page_nbytes(
        cls,
        n_heads: int,
        d_head: int,
        page_size: int,
        dtype: np.dtype | str,
    ) -> float:
        """Resident bytes of one quantized page: the K and V int8 code
        slabs, int64 positions, and the four float32 per-head parameter rows
        (scale, zero, lo, hi) of both streams.  ``dtype`` (the compute dtype)
        does not matter — that is the point."""
        per_slot = n_heads * (2 * d_head * 1 + 8)
        params = 2 * n_heads * 4 * 4
        return float(page_size * per_slot + params)

    def nbytes(self) -> int:
        """Resident bytes: int8 slabs + positions + quantization tensors."""
        total = super().nbytes()
        for store in (self._qscale, self._qzero, self._qlo, self._qhi):
            total += sum(arr.nbytes for arr in store.values())
        return total
