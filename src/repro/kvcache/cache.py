"""Per-layer key/value cache: a thin view over the paged block-pool store.

Keys are stored *unrotated* (before RoPE) together with the original position
of every token, so the attention step can apply either the original positional
information (Keyformer (Org Pos)) or a contiguous renumbering
(Keyformer (New Pos)) at read time.  Because eviction policies operate per
attention head, every head of a layer may retain a different set of tokens:
the logical layout is ``(batch, heads, length, d_head)`` with per-head
position arrays.

Physically, storage lives in a :class:`~repro.kvcache.paged.BlockPool` of
fixed-size pages shared with every other sequence on the same layer; this
class only holds one :class:`~repro.kvcache.paged.PageTable` per batch row
and translates the historical slab API (``append`` / ``gather`` /
``rotated_keys`` / ``reorder``) into page-table operations.  The single
implementation of append/grow/gather/rotate is the pool's — the batched
serving cache (:mod:`repro.kvcache.batch`) is a view over the same code.

Two properties of the old slab design are preserved by construction:

* a solo sequence's pages are allocated as one ascending run, so ``keys`` /
  ``values`` / ``positions`` are zero-copy pool views (contiguous token
  axis) exactly like the old slab prefix;
* rotated keys (RoPE at original positions) are maintained *eagerly* by the
  pool — rotation is elementwise per token, so eager and the old lazy
  rotation are bit-identical — and eviction compacts the rotated pages with
  the same indices, keeping decode free of per-step O(L) re-rotation.

``reorder`` (beam search) duplicates page tables instead of copying slabs:
the duplicated rows share pages until their first divergent write, at which
point the pool's copy-on-write gives each beam a private page.
"""

from __future__ import annotations

import numpy as np

from repro.core.score import EvictOne
from repro.kvcache.paged import (
    DEFAULT_PAGE_SIZE,
    BlockPool,
    PageTable,
    pages_needed,
    resolve_pool_class,
)
from repro.models.positional import RopeTable

__all__ = ["LayerKVCache"]


class LayerKVCache:
    """Key/value storage for one decoder layer.

    Parameters
    ----------
    keys, values:
        Initial contents of shape ``(batch, heads, length, d_head)``.
    positions:
        Original token positions of shape ``(batch, heads, length)``.
    dtype:
        Storage/compute dtype; defaults to the dtype of ``keys`` when it is a
        floating type, otherwise ``float64``.
    capacity:
        Token slots to reserve per sequence up front (rounded up to whole
        pages).  Defaults to the initial length; more pages are allocated
        whenever ``append`` runs out of room.
    rope_dims:
        When positive, maintain a rotated-key slab (RoPE applied at original
        positions) alongside the raw keys.
    rope_table:
        Optional shared :class:`RopeTable`; defaults to the process-wide table
        for ``rope_dims``.
    pool:
        Optional shared :class:`BlockPool` to store pages in (the cache
        manager passes one per layer).  When omitted a private growable pool
        is created — the standalone behaviour of the historical slab cache.
    kv_dtype:
        Page storage format for a privately created pool: ``None`` (default)
        stores the compute dtype bit-exactly, ``"int8"`` stores quantized
        pages (see :mod:`repro.kvcache.quant`).  Ignored when ``pool`` is
        passed — the pool's own format wins.
    """

    def __init__(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        positions: np.ndarray,
        dtype: np.dtype | str | None = None,
        capacity: int | None = None,
        rope_dims: int = 0,
        rope_table: RopeTable | None = None,
        pool: BlockPool | None = None,
        page_size: int | None = None,
        kv_dtype: str | None = None,
    ):
        keys = np.asarray(keys)
        values = np.asarray(values)
        positions = np.asarray(positions, dtype=np.int64)
        if dtype is None:
            dtype = keys.dtype if np.issubdtype(keys.dtype, np.floating) else np.float64
        self.dtype = np.dtype(dtype)
        if keys.shape != values.shape:
            raise ValueError(f"keys/values shape mismatch: {keys.shape} vs {values.shape}")
        if keys.ndim != 4:
            raise ValueError(f"expected (batch, heads, length, d_head) keys, got {keys.shape}")
        if positions.shape != keys.shape[:3]:
            raise ValueError(
                f"positions shape {positions.shape} must match {keys.shape[:3]}"
            )

        b, h, t, d = keys.shape
        self.rope_dims = int(rope_dims)
        cap = max(int(capacity) if capacity is not None else t, t, 1)
        if pool is None:
            ps = page_size or DEFAULT_PAGE_SIZE
            pool = resolve_pool_class(kv_dtype)(
                h,
                d,
                page_size=ps,
                n_pages=max(b, 1) * max(pages_needed(cap, ps), 1) + 1,
                dtype=self.dtype,
                rope_dims=self.rope_dims,
                rope_table=rope_table,
                growable=True,
            )
        self._pool = pool

        if keys.dtype != self.dtype:
            keys = keys.astype(self.dtype)
        if values.dtype != self.dtype:
            values = values.astype(self.dtype)
        self._tables: list[PageTable] = []
        for row in range(b):
            table = PageTable()
            pool.extend(table, keys[row], values[row], positions[row], reserve_tokens=cap)
            self._tables.append(table)

        # Dense materializations are cached per mutation epoch so repeated
        # property reads within one decoding step cost one resolve at most.
        self._version = 0
        self._dense: dict[str, np.ndarray] = {}
        self._dense_version = -1

        self.total_appended = t
        self.total_evicted = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_prompt(
        cls,
        keys: np.ndarray,
        values: np.ndarray,
        positions: np.ndarray | None = None,
        **kwargs,
    ) -> "LayerKVCache":
        """Build a cache from prompt-phase keys/values of shape ``(B, H, T, d)``.

        ``positions`` defaults to ``0..T-1`` replicated across batch and heads.
        Extra keyword arguments (``dtype``, ``capacity``, ``rope_dims``, ...)
        are forwarded to the constructor.
        """
        keys = np.asarray(keys)
        b, h, t, _ = keys.shape
        if positions is None:
            positions = np.arange(t)
        positions = np.asarray(positions, dtype=np.int64)
        if positions.ndim == 1:
            positions = np.broadcast_to(positions, (b, h, t))
        return cls(keys, np.asarray(values), positions, **kwargs)

    @classmethod
    def empty(cls, batch_size: int, n_heads: int, d_head: int, **kwargs) -> "LayerKVCache":
        """An empty cache (used when decoding starts without a prompt)."""
        return cls(
            np.zeros((batch_size, n_heads, 0, d_head)),
            np.zeros((batch_size, n_heads, 0, d_head)),
            np.zeros((batch_size, n_heads, 0), dtype=np.int64),
            **kwargs,
        )

    @classmethod
    def map_tables(
        cls, pool: BlockPool, tables: list[PageTable], rope_dims: int = 0
    ) -> "LayerKVCache":
        """A cache whose rows *map* existing page tables instead of copying.

        Used by the speculative drafter to start from the target sequence's
        prompt pages: each row clones a source table and retains its live
        pages (a refcount bump), so drafter and target co-own the physical
        prompt KV until the drafter's first divergent write (its prompt-phase
        eviction, or an append into the shared boundary page), when
        copy-on-write gives the drafter a private page.  Only pages covering
        live tokens are mapped — the source's reserve-capacity tail stays
        exclusively its own, so its in-place appends need no copy.
        """
        cache = cls.__new__(cls)
        cache.dtype = pool.dtype
        cache.rope_dims = int(rope_dims)
        cache._pool = pool
        cache._tables = []
        for table in tables:
            clone = table.clone()
            clone.drop_pages(pages_needed(clone.end, pool.page_size))
            pool.retain(clone.pages)
            cache._tables.append(clone)
        cache._version = 0
        cache._dense = {}
        cache._dense_version = -1
        cache.total_appended = cache._tables[0].length if cache._tables else 0
        cache.total_evicted = 0
        return cache

    # ------------------------------------------------------------------
    def _resolve(self, name: str) -> np.ndarray:
        """Dense ``(B, H, L, ...)`` materialization of one pool slab.

        For a single-row cache on physically contiguous pages this is a
        zero-copy pool view; otherwise a page gather assembles the rows.
        """
        if self._dense_version != self._version:
            self._dense = {}
            self._dense_version = self._version
        cached = self._dense.get(name)
        if cached is not None:
            return cached
        pool = self._pool
        reader = {
            "keys": pool.keys_view,
            "values": pool.values_view,
            "positions": pool.positions_view,
            "rotated": pool.rotated_view,
        }[name]
        rows = [reader(table) for table in self._tables]
        if len(rows) == 1:
            dense = rows[0][None]
        else:
            dense = np.stack(rows)
        if name == "positions":
            dense = dense.view()
            dense.flags.writeable = False
        self._dense[name] = dense
        return dense

    @property
    def keys(self) -> np.ndarray:
        """Live (unrotated) keys, shape ``(B, H, L, d)`` — a pool view when
        the sequence's pages are contiguous."""
        return self._resolve("keys")

    @property
    def values(self) -> np.ndarray:
        """Live values, shape ``(B, H, L, d)``."""
        return self._resolve("values")

    @property
    def positions(self) -> np.ndarray:
        """Live original positions, shape ``(B, H, L)`` (read-only)."""
        return self._resolve("positions")

    @property
    def batch_size(self) -> int:
        """Number of sequence rows (page tables) in this cache."""
        return len(self._tables)

    @property
    def n_heads(self) -> int:
        """Attention heads of the backing pool."""
        return self._pool.n_heads

    @property
    def length(self) -> int:
        """Number of cached tokens (per head)."""
        return self._tables[0].length

    @property
    def capacity(self) -> int:
        """Allocated token slots per sequence (whole pages)."""
        table = self._tables[0]
        return table.allocated(self._pool.page_size) - table.offset

    @property
    def d_head(self) -> int:
        """Per-head feature dimension of the backing pool."""
        return self._pool.d_head

    @property
    def page_size(self) -> int:
        """Tokens per KV page of the backing pool."""
        return self._pool.page_size

    @property
    def pool(self) -> BlockPool:
        """The block pool this cache stores its pages in."""
        return self._pool

    @property
    def tables(self) -> list[PageTable]:
        """Per-row page tables (row order matches the batch dimension)."""
        return self._tables

    def __len__(self) -> int:
        return self._tables[0].length

    def nbytes(self, dtype_bytes: int | None = None) -> int:
        """Resident size of the cached keys+values.

        By default this asks the backing pool what a cached token actually
        costs (``BlockPool.kv_token_nbytes``): the storage dtype's item size
        for a full-precision pool, int8 codes plus amortized per-page scales
        for a quantized one.  (The historical default silently assumed fp16.)
        Pass an explicit ``dtype_bytes`` to model a different deployment
        dtype instead.
        """
        if dtype_bytes is None:
            return int(self.batch_size * self.length * self._pool.kv_token_nbytes())
        return 2 * self.batch_size * self.n_heads * self.length * self.d_head * dtype_bytes

    # ------------------------------------------------------------------
    def append(self, k: np.ndarray, v: np.ndarray, position: int) -> None:
        """Append the key/value of a new token at original position ``position``.

        ``k`` and ``v`` have shape ``(batch, heads, d_head)``.  This is an
        in-place page write; a new page is allocated only on a page boundary.
        """
        k = np.asarray(k)
        v = np.asarray(v)
        expected = (self.batch_size, self.n_heads, self.d_head)
        if k.shape != expected:
            raise ValueError(f"append expects shape {expected}, got {k.shape}")
        if v.shape != expected:
            raise ValueError(f"append expects value shape {expected}, got {v.shape}")
        for row, table in enumerate(self._tables):
            self._pool.append(table, k[row], v[row], int(position))
        self._version += 1
        self.total_appended += 1

    # ------------------------------------------------------------------
    def rotated_keys(self) -> np.ndarray:
        """Live keys rotated by their *original* positions, shape ``(B, H, L, d)``.

        The pool maintains the rotated pages eagerly (one elementwise
        rotation per appended token — bit-identical to rotating lazily), so
        this is a plain materialization.
        """
        return self._resolve("rotated")

    # ------------------------------------------------------------------
    def gather(self, indices: np.ndarray) -> None:
        """Retain only the entries selected by ``indices`` of shape ``(B, H, K)``
        (or the :class:`~repro.core.score.EvictOne` standing for them).

        Indices must be sorted ascending per head so chronological order inside
        the cache is preserved.  The pool validates the selection and picks
        the cheapest of its eviction paths (identity, suffix bump, evict-one
        shift, compaction — see :meth:`BlockPool.gather`).
        """
        if not isinstance(indices, EvictOne):
            indices = np.asarray(indices, dtype=np.int64)
            if indices.ndim == 1:
                indices = np.broadcast_to(indices, (self.batch_size, self.n_heads, indices.size))
        if indices.shape[:2] != (self.batch_size, self.n_heads):
            raise ValueError(
                f"indices shape {indices.shape} incompatible with cache "
                f"({self.batch_size}, {self.n_heads}, ...)"
            )
        evicted = 0
        for row, table in enumerate(self._tables):
            evicted = self._pool.gather(table, indices[row])
        self._version += 1
        self.total_evicted += max(evicted, 0)

    # ------------------------------------------------------------------
    def fork_tables(self) -> list[PageTable]:
        """Snapshot every row's page table, retaining the pages.

        The clones co-own the physical pages (refcount bump); hand them back
        through :meth:`restore_tables` to rewind, or release each via
        ``pool.release_table`` to discard the snapshot.  The speculative
        drafter snapshots before consuming each unverified draft token so a
        rejected draft can be rolled back without replaying the cache.
        """
        forked = []
        for table in self._tables:
            clone = table.clone()
            self._pool.retain(clone.pages)
            forked.append(clone)
        return forked

    def restore_tables(self, tables: list[PageTable]) -> None:
        """Adopt snapshot ``tables`` from :meth:`fork_tables`, releasing the
        current ones.  Ownership transfers to the cache — a snapshot can be
        restored at most once."""
        if len(tables) != len(self._tables):
            raise ValueError(
                f"snapshot has {len(tables)} rows, cache has {len(self._tables)}"
            )
        for table in self._tables:
            self._pool.release_table(table)
        self._tables = list(tables)
        self._version += 1

    def discard_tables(self, tables: list[PageTable]) -> None:
        """Release an unused snapshot from :meth:`fork_tables`."""
        for table in tables:
            self._pool.release_table(table)

    def reorder(self, batch_indices: np.ndarray) -> None:
        """Reorder (or duplicate) the batch dimension — used by beam search.

        Pure page-table bookkeeping: duplicated rows share pages (refcount
        bumped) until copy-on-write splits them at the first divergent write.
        """
        batch_indices = np.asarray(batch_indices, dtype=np.int64)
        if batch_indices.size and (
            batch_indices.min() < 0 or batch_indices.max() >= self.batch_size
        ):
            raise IndexError("reorder indices out of range")
        fresh = []
        for idx in batch_indices:
            table = self._tables[int(idx)].clone()
            self._pool.retain(table.pages)
            fresh.append(table)
        for table in self._tables:
            self._pool.release_table(table)
        self._tables = fresh
        self._version += 1

    # ------------------------------------------------------------------
    def retained_original_positions(self) -> np.ndarray:
        """Original positions of the retained tokens, shape ``(B, H, L)``.

        Returns a **read-only view**: valid until the next
        ``append``/``gather``/``reorder``; copy it to keep it longer.
        """
        return self._resolve("positions")

    def renumbered_positions(self) -> np.ndarray:
        """Contiguous 0..L-1 positions (Keyformer (New Pos) mode), shape ``(B, H, L)``.

        Returns a read-only broadcast view (no per-call allocation).
        """
        idx = np.arange(self.length)
        return np.broadcast_to(idx, (self.batch_size, self.n_heads, self.length))

    # ------------------------------------------------------------------
    def release(self) -> None:
        """Return every page to the pool (used when a manager tears down)."""
        for table in self._tables:
            self._pool.release_table(table)
        self._version += 1
