"""The per-layer KV cache, and the one cache manager.

:class:`BatchedLayerKVCache` is the one per-layer cache: the serving
engine's :class:`BatchedCacheManager` and the solo/beam
:class:`~repro.kvcache.manager.CacheManager` both keep their rows in it.
Each sequence row is a :class:`~repro.kvcache.paged.PageTable` into the
layer's :class:`~repro.kvcache.paged.BlockPool` — the cache adds no storage
logic of its own, it only drives the pool's single implementation of
append/extend/gather for a set of rows:

* ``append_rows`` resolves one page slot per active sequence and writes all
  rows with one vectorized scatter per slab;
* ``gather_row`` compacts a single sequence when its eviction policy drops
  tokens (the pool keeps the suffix-eviction O(1) fast path that makes
  sliding-window serving cheap);
* ``join_row`` / ``join_row_shared`` / ``free_row`` manage the persistent
  batch: a retiring row's pages go straight back to the pool (an O(1)
  refcount drop — no slab copy, unlike the historical dense-slab design),
  and a joining row may *map* already-resident pages for a shared prompt
  prefix instead of storing a duplicate;
* ``fork_row`` clones a table (a refcount bump): the snapshots behind
  rollback and beam reorder.

The attention step consumes padded ``(rows, heads, max_len, d)`` tensors
kept in a workspace that page-gathers only the tokens a row appended since
its last read (an evict-one moves the workspace row with the pool's tail;
a row whose table was otherwise rewritten is read whole; a lone row on
contiguous pages is zero-copy).  Bit-exactness contract: every stored value is
produced by the same per-token elementwise operations whichever write path
stored it, so row ``b`` of the padded view restricted to ``lengths[b]``
entries is bit-identical to the cache of a sequence decoded alone.

:class:`BatchedCacheManager` keeps the per-sequence decode state once, for
the engine and for its solo subclass
:class:`~repro.kvcache.manager.CacheManager` alike: one policy *instance per
row*, so that policy state (score accumulators, noise RNGs) evolves exactly
as it would in a dedicated single-sequence run.
"""

from __future__ import annotations

import copy
from typing import Callable

import numpy as np

from repro.core.policies import EvictionPolicy
from repro.core.score import EvictOne
from repro.kvcache.paged import (
    DEFAULT_PAGE_SIZE,
    BlockPool,
    KVStoreConfig,
    PagedKVStore,
    PageTable,
    PrefixMatch,
    PrefixRegistry,
    pages_needed,
    shift_heads_down,
    tag_fault_row,
)
from repro.kvcache.stats import CacheStats
from repro.kvcache.verify import VerifyView
from repro.models.positional import RopeTable, get_rope_table

__all__ = ["BatchedLayerKVCache", "BatchedCacheManager", "BatchedLayerView", "PolicyDriver"]

_MIN_CAPACITY = 16


class PolicyDriver:
    """Drives one sequence's policy through its decode steps.

    A per-layer policy is called as each layer observes.  For a policy with
    ``stacked_steps`` the layers' tensors are collected — stacked ``(layers,
    B, H, L)``, in buffers reused while the shape repeats (it does from the
    step a fixed-budget policy reaches its budget) — and the last layer's
    call runs the policy once for the whole step.
    """

    def __init__(self, n_layers: int):
        self.n_layers = n_layers
        self.logits: np.ndarray | None = None
        self.probs: np.ndarray | None = None
        self._filled = 0

    def _stash(self, layer_idx: int, logits: np.ndarray, probs: np.ndarray) -> bool:
        """Store layer ``layer_idx``'s tensors; true once the step is whole.

        Layers must arrive in order from 0 (a step abandoned midway is simply
        restarted), all with layer 0's shape.
        """
        held = self.logits
        if layer_idx == 0:
            shape = (self.n_layers,) + logits.shape
            if held is None or held.shape != shape or held.dtype != logits.dtype:
                self.logits = np.empty(shape, dtype=logits.dtype)
                self.probs = np.empty(shape, dtype=probs.dtype)
        elif layer_idx != self._filled or logits.shape != held.shape[1:]:
            raise RuntimeError(
                f"layer {layer_idx} observed {logits.shape} out of step: "
                f"{self._filled} layers stashed, layer 0 had "
                f"{None if held is None else held.shape[1:]}"
            )
        self.logits[layer_idx] = logits
        self.probs[layer_idx] = probs
        self._filled = layer_idx + 1
        return self._filled == self.n_layers

    def observe(
        self,
        policy: EvictionPolicy,
        layer_idx: int,
        logits: np.ndarray,
        probs: np.ndarray,
        step: int,
        positions_of: Callable[[int], np.ndarray],
        apply: Callable[[int, object], None],
    ) -> None:
        """Run ``policy`` on layer ``layer_idx``'s step tensors and hand each
        layer's selection to ``apply(layer, selection)``.

        ``positions_of(layer)`` materializes that layer's key positions; it is
        called only for a policy that declares ``needs_key_positions``.
        """
        layers = range(self.n_layers)
        if policy.stacked_steps:
            if not self._stash(layer_idx, logits, probs):
                return
            positions = None
            if policy.needs_key_positions:
                positions = np.stack([positions_of(idx) for idx in layers])
            selection = policy.step_selection(None, self.logits, self.probs, positions, step)
            if selection is not None:
                for idx in layers:
                    apply(idx, selection[0 if policy.shared_selection else idx])
            return
        positions = positions_of(layer_idx) if policy.needs_key_positions else None
        selection = policy.step_selection(layer_idx, logits, probs, positions, step)
        if selection is not None:
            for idx in layers if policy.shared_selection else (layer_idx,):
                apply(idx, selection)


class _RowSnapshot:
    """Pre-step state of one row (see :meth:`BatchedCacheManager.snapshot_row`)."""

    __slots__ = (
        "tables",
        "policy",
        "total_appended",
        "total_evicted",
        "step_lengths",
        "position",
        "step",
    )

    def __init__(
        self,
        tables: list[PageTable],
        policy: EvictionPolicy,
        total_appended: int,
        total_evicted: int,
        step_lengths: list[int],
        position: int,
        step: int,
    ):
        self.tables = tables
        self.policy = policy
        self.total_appended = total_appended
        self.total_evicted = total_evicted
        self.step_lengths = step_lengths
        self.position = position
        self.step = step


class BatchedLayerKVCache:
    """Key/value storage for one decoder layer shared by a batch of sequences.

    Parameters
    ----------
    max_batch:
        Number of sequence rows.
    n_heads, d_head:
        Attention geometry (shared by all sequences).
    capacity:
        Initial token slots to size a private pool for (ignored when ``pool``
        is passed); the pool grows geometrically on demand when growable.
    dtype:
        Storage dtype of keys/values.
    rope_dims:
        When positive, the pool stores keys RoPE-rotated at their positions
        (rotation is eager and elementwise, hence bit-identical to rotating
        at read time).
    pool:
        Optional shared :class:`BlockPool` (the batched manager passes one
        per layer, owned by its :class:`PagedKVStore`).
    """

    def __init__(
        self,
        max_batch: int,
        n_heads: int,
        d_head: int,
        capacity: int = _MIN_CAPACITY,
        dtype: np.dtype | str = np.float64,
        rope_dims: int = 0,
        rope_table: RopeTable | None = None,
        pool: BlockPool | None = None,
        page_size: int | None = None,
    ):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if pool is None:
            ps = page_size or DEFAULT_PAGE_SIZE
            pool = BlockPool(
                n_heads,
                d_head,
                page_size=ps,
                n_pages=max_batch * max(pages_needed(capacity, ps), 1) + 1,
                dtype=dtype,
                rope_dims=rope_dims,
                rope_table=rope_table,
                growable=True,
            )
        self.pool = pool
        self.dtype = pool.dtype
        self.rope_dims = pool.rope_dims
        self.tables: list[PageTable] = [PageTable() for _ in range(max_batch)]
        # Persistent padded-batch workspace (keys, values, positions), grown
        # on demand.  A row slot keeps its tokens between steps; ``_synced``
        # records ``(table, epoch, length)`` of what each holds.
        # Zero initialization (and only ever overwriting with stored values)
        # keeps every slot finite for the masked float32 path.
        self._ws: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._synced: list[tuple | None] = [None] * max_batch

    # ------------------------------------------------------------------
    @property
    def max_batch(self) -> int:
        """Number of sequence rows this cache was sized for."""
        return len(self.tables)

    @property
    def n_heads(self) -> int:
        """Attention heads of the backing pool."""
        return self.pool.n_heads

    @property
    def d_head(self) -> int:
        """Per-head feature dimension of the backing pool."""
        return self.pool.d_head

    @property
    def capacity(self) -> int:
        """Largest per-row allocated token span (whole pages)."""
        ps = self.pool.page_size
        return max((t.allocated(ps) - t.offset for t in self.tables), default=0)

    @property
    def lengths(self) -> np.ndarray:
        """Live token count of every row."""
        return np.asarray([t.length for t in self.tables], dtype=np.int64)

    # ------------------------------------------------------------------
    def join_row(
        self, row: int, keys: np.ndarray, values: np.ndarray, positions: np.ndarray
    ) -> None:
        """Seed row ``row`` from prompt-phase tensors of shape ``(1, H, T, d)``.

        ``positions`` has shape ``(1, H, T)`` (original token positions).
        """
        keys = np.asarray(keys)
        if keys.ndim != 4 or keys.shape[0] != 1:
            raise ValueError(f"join_row expects (1, H, T, d) keys, got {keys.shape}")
        table = self.tables[row]
        if table.pages:
            self.pool.release_table(table)
        self.pool.extend(
            table,
            keys[0],
            np.asarray(values)[0],
            np.asarray(positions, dtype=np.int64)[0],
        )

    def join_row_shared(
        self,
        row: int,
        shared_pages: list[int],
        shared_len: int,
        keys: np.ndarray,
        values: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        """Seed row ``row`` by *mapping* ``shared_pages`` (a page-aligned
        resident prompt prefix of ``shared_len`` tokens) and storing only the
        freshly computed suffix tensors ``(1, H, S, d)``.

        The mapped pages are refcount-shared; the pool's copy-on-write keeps
        them pristine if this row later evicts or appends into them.
        """
        if shared_len % self.pool.page_size != 0:
            raise ValueError("shared prefix must be page-aligned")
        if shared_len != len(shared_pages) * self.pool.page_size:
            raise ValueError("shared_pages do not cover shared_len tokens")
        table = self.tables[row]
        if table.pages:
            self.pool.release_table(table)
        table.pages = list(shared_pages)
        table.offset = 0
        table.length = shared_len
        self.pool.retain(shared_pages)
        self.pool.extend(
            table,
            np.asarray(keys)[0],
            np.asarray(values)[0],
            np.asarray(positions, dtype=np.int64)[0],
        )

    def fork_row(self, row: int) -> PageTable:
        """A clone of row ``row``'s table co-owning its pages (a refcount
        bump, not a copy): a snapshot the row's later writes cannot touch."""
        fork = self.tables[row].clone()
        self.pool.retain(fork.pages)
        return fork

    def free_row(self, row: int, last: int) -> None:
        """Retire ``row``: release its pages and move row ``last`` into it.

        Pure page-table bookkeeping — an O(1) refcount drop plus a pointer
        move, where the dense-slab design copied the whole moved row.
        """
        self.pool.release_table(self.tables[row])
        if row != last:
            self.tables[row] = self.tables[last]
            self.tables[last] = PageTable()

    def append_rows(
        self, n_active: int, k: np.ndarray, v: np.ndarray, positions: np.ndarray
    ) -> None:
        """Append one token per active row at each row's own cursor.

        ``k``/``v`` have shape ``(R, H, d)`` and ``positions`` shape ``(R,)``
        with the original position of each row's new token.
        """
        expected = (n_active, self.n_heads, self.d_head)
        if k.shape != expected:
            raise ValueError(f"append_rows expects shape {expected}, got {k.shape}")
        self.pool.append_rows(self.tables[:n_active], k, v, positions)

    def gather_row(self, row: int, indices: np.ndarray) -> int:
        """Retain only the entries of ``row`` selected by ``indices``.

        ``indices`` has shape ``(1, H, K)`` or ``(H, K)``, ascending per head,
        relative to the row's live region, or is an :class:`EvictOne`.
        Returns the number of evicted entries.  Suffix selections
        (sliding-window steady state) are an O(1) page-table bump.

        An ``EvictOne`` on a row whose padded workspace holds all of it (the
        engine's order: append, read, observe, evict) applies the pool's
        per-head tail move to the workspace row too and carries the record
        forward, so the next read copies only the next appended token.  The
        pool must keep survivors byte for byte; an int8 pool re-quantizes
        them, so its row is read whole again.
        """
        table = self.tables[row]
        length = table.length
        whole = self._synced[row] is not None and self._held(row) == length
        evicted = self.pool.gather(table, indices)
        if whole and isinstance(indices, EvictOne) and self.pool.exact_survivors:
            drop = indices.drop if indices.drop.ndim == 1 else indices.drop[0]
            shift_heads_down([ws[row] for ws in self._ws], drop.tolist(), length)
            self._synced[row] = (table, table.epoch, table.length)
        return evicted

    def append_pages_needed(self, n_active: int) -> int:
        """Pages this layer must allocate to append one token to every active
        row (used by the engine's preemption check before a decode step)."""
        ps = self.pool.page_size
        needed = 0
        for table in self.tables[:n_active]:
            if table.end == table.allocated(ps):
                needed += 1
            elif table.pages and self.pool.refcounts[table.pages[table.end // ps]] > 1:
                needed += 1  # copy-on-write of a shared last page
        return needed

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def positions_row(self, row: int) -> np.ndarray:
        """Original positions of row ``row``'s live entries, shape ``(1, H, L)``."""
        return self.pool.positions_view(self.tables[row])[None]

    def _all_rows(self, read) -> np.ndarray:
        rows = [read(table) for table in self.tables]
        return rows[0][None] if len(rows) == 1 else np.stack(rows)

    @property
    def keys(self) -> np.ndarray:
        """Stored keys of every row slot (RoPE-rotated in a RoPE pool),
        ``(rows, H, L, d)``, for rows of one length (the solo manager's); a
        zero-copy view for one row on contiguous pages."""
        return self._all_rows(self.pool.keys_view)

    @property
    def positions(self) -> np.ndarray:
        """Original positions of every row slot, ``(rows, H, L)`` (see
        :attr:`keys`)."""
        return self._all_rows(self.pool.positions_view)

    def padded_batch(
        self, n_active: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """Padded ``(R, H, max_len, ...)`` batch tensors read through the page
        tables: ``(keys, values, positions, lengths, max_len)``.

        ``keys`` are the pool's stored keys (:meth:`BlockPool.keys_view`).
        Row ``b`` is valid up to ``lengths[b]``; padding is zero or stale
        finite values (a row shrank, a slot was reused), inert under the
        float32 ``-inf`` mask and the float64 exact-length slices.  A row
        copies only what it appended since its last read (:meth:`_held`).  A
        lone active row on contiguous pages is returned as zero-copy pool
        views (the paged read's fast path).
        """
        pool = self.pool
        lengths = self.lengths[:n_active]
        max_len = int(lengths.max(initial=0))
        if n_active == 1:
            self._synced = [None] * self.max_batch
            table = self.tables[0]
            return (
                pool.keys_view(table)[None],
                pool.values_view(table)[None],
                pool.positions_view(table)[None],
                lengths,
                max_len,
            )
        if self._ws is None or self._ws[0].shape[2] < max_len:
            h, d = self.n_heads, self.d_head
            cap = max(max_len, 2 * (self._ws[0].shape[2] if self._ws else 0), 16)
            self._ws = (
                np.zeros((self.max_batch, h, cap, d), dtype=self.dtype),
                np.zeros((self.max_batch, h, cap, d), dtype=self.dtype),
                np.zeros((self.max_batch, h, cap), dtype=np.int64),
            )
            self._synced = [None] * self.max_batch
        keys = self._ws[0][:n_active, :, :max_len]
        values = self._ws[1][:n_active, :, :max_len]
        positions = self._ws[2][:n_active, :, :max_len]
        for row in range(n_active):
            table = self.tables[row]
            start = self._held(row)
            try:
                pool.fill_row(table, keys[row], values[row], positions[row], start)
            except Exception as exc:
                # Read-path faults (a tiered pool's spill_io restore) must be
                # row-attributable so the engine can quarantine the row.
                tag_fault_row(exc, row)
                raise
            self._synced[row] = (table, table.epoch, table.length)
        return keys, values, positions, lengths, max_len

    def _held(self, row: int) -> int:
        """Tokens of ``row`` the workspace holds: the last read's length while
        table object and epoch match and the row has not shrunk."""
        held, table = self._synced[row], self.tables[row]
        same = held is not None and held[:2] == (table, table.epoch)
        return held[2] if same and held[2] <= table.length else 0

    def check_workspace(self) -> list[str]:
        """Row slots unchanged since their last read whose workspace differs
        from a fresh read of the pool (the integrity audit; empty = clean)."""
        violations = []
        for row, held in enumerate(self._synced):
            table = self.tables[row]
            if held is None or self._held(row) != table.length:
                continue
            fresh = self.pool.audit_read(table)
            if fresh is not None and any(
                ws[row, :, : table.length].tobytes() != arr.tobytes()
                for ws, arr in zip(self._ws, fresh)
            ):
                violations.append(f"row slot {row}: padded workspace differs from the pool")
        return violations


class BatchedLayerView:
    """Per-layer facade of the one cache manager: the ``DecodeCache``
    protocol over rows padded to the longest sequence, for engine and solo
    rows alike (``R`` query positions and ``R`` lengths)."""

    def __init__(self, manager: "BatchedCacheManager", layer_idx: int):
        self.manager = manager
        self.layer_idx = layer_idx

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append one token per active row to this layer."""
        self.manager.append_batch(self.layer_idx, k, v)

    def attention_view(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
        """Padded ragged-batch attention inputs for this layer."""
        return self.manager.attention_view_batch(self.layer_idx)

    def observe(self, logits: np.ndarray, probs: np.ndarray) -> None:
        """Feed the step's attention tensors to every row's policy."""
        self.manager.observe_batch(self.layer_idx, logits, probs)


class BatchedCacheManager:
    """Owns the paged store's per-layer pools and one eviction policy per row.

    Sequences ``join`` and ``retire`` independently and every per-sequence
    quantity (policy instance, :class:`CacheStats`, position cursor,
    generation step) lives in a row-indexed list that is compacted together
    with the page tables.  The solo
    :class:`~repro.kvcache.manager.CacheManager` runs its rows on the same
    state and code.

    The shared store's knobs come from ``config`` / keyword fields of
    :class:`~repro.kvcache.paged.KVStoreConfig` (knob table:
    ``docs/serving.md``).  ``n_pages`` / ``tier0_pages`` are the per-layer pool
    geometry already resolved by the caller
    (:meth:`~repro.kvcache.paged.KVStoreConfig.resolve_pages` — the serving
    engine does this, since byte budgets need the model config); left
    ``None``, the manager resolves the config's token budget itself; a
    budget whose page count is left ``None`` beside the other one given is
    a ``ValueError``.  A fixed
    pool never grows: running out becomes
    :class:`~repro.kvcache.paged.PoolExhausted`, which the engine answers
    with registry reclamation and preemption.  With ``tier0_pages`` set the
    registry's admission ranking also drives spill-victim selection, so hot
    shared-prefix pages stay resident longest.
    """

    def __init__(
        self,
        n_layers: int,
        n_heads: int,
        d_head: int,
        max_batch: int,
        positional_mode: str = "original",
        dtype: np.dtype | str | None = None,
        rope_dims: int = 0,
        n_pages: int | None = None,
        tier0_pages: int | None = None,
        config: KVStoreConfig | None = None,
        **knobs,
    ):
        self._init_geometry(n_layers, n_heads, d_head, positional_mode, dtype, rope_dims)
        self.config = config = KVStoreConfig.of(config, **knobs)
        if n_pages is None and tier0_pages is None:
            n_pages, tier0_pages = config.resolve_pages()
        elif (
            n_pages is None
            and (config.max_pool_tokens is not None or config.max_pool_bytes is not None)
        ) or (tier0_pages is None and config.tier0_budget is not None):
            raise ValueError(
                "a budget beside pre-resolved pages would be dropped: pass n_pages "
                "and tier0_pages both, as KVStoreConfig.resolve_pages returns them"
            )
        self.store = PagedKVStore(
            n_layers,
            n_heads,
            d_head,
            dtype=self.dtype,
            rope_dims=self.rope_dims,
            n_pages=n_pages,
            growable=n_pages is None,
            tier0_pages=tier0_pages,
            config=config,
        )
        self.registry = PrefixRegistry(self.store)
        if tier0_pages is not None:
            # Victim selection reuses the registry's admission ranking:
            # W-TinyLFU-protected prefix pages spill last (no ranker, hence
            # pure pool LRU, under the default "lru" policy).
            for layer, pool in enumerate(self.store.pools):
                pool.spill_ranker = self.registry.spill_ranker(layer)
        self.caches = [
            BatchedLayerKVCache(
                max_batch, n_heads, d_head, pool=self.store.pools[layer]
            )
            for layer in range(n_layers)
        ]
        self._clear_rows(max_batch)

    def _init_geometry(
        self,
        n_layers: int,
        n_heads: int,
        d_head: int,
        positional_mode: str,
        dtype: np.dtype | str | None,
        rope_dims: int,
    ) -> None:
        if positional_mode not in ("original", "new"):
            raise ValueError(f"unknown positional mode {positional_mode!r}")
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.d_head = d_head
        self.positional_mode = positional_mode
        self.dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        # Pools store rotated keys only under stable original positions;
        # renumbered mode stores raw keys and re-rotates per step.
        self.rope_dims = int(rope_dims) if positional_mode == "original" else 0
        self._rope_table = get_rope_table(rope_dims) if rope_dims > 0 else None

    def _clear_rows(self, max_batch: int) -> None:
        """No active row; per-row state for up to ``max_batch`` rows."""
        self.max_batch = max_batch
        self.n_active = 0
        self.policies: list[EvictionPolicy] = []
        self.stats: list[CacheStats] = []
        self.current_position: list[int] = []
        self.generation_step: list[int] = []
        self.prompt_len: list[int] = []
        self._step_lengths: list[list[int]] = []
        self._qpos: np.ndarray | None = None
        # Per row slot, for policies with ``stacked_steps``; contents live
        # only within one decode step, so rows moving between slots (retire)
        # or being rewound (restore_row) need not carry them.
        self._drivers = [PolicyDriver(self.n_layers) for _ in range(max_batch)]

    # ------------------------------------------------------------------
    # sequence lifecycle
    # ------------------------------------------------------------------
    def join(
        self,
        prompt_kv: list[tuple[np.ndarray, np.ndarray]],
        policy: EvictionPolicy,
        shared_prefix: PrefixMatch | None = None,
        prompt_token_ids: np.ndarray | None = None,
    ) -> int:
        """Admit one sequence and return its row index.

        Without ``shared_prefix``, ``prompt_kv`` holds the full prompt
        tensors; with it, they hold only the recomputed **suffix** — the
        prefix pages are mapped from the registry match.  ``policy`` was set
        up for the whole prompt before its prompt pass, which scored it; it
        is not set up again here, so a join retried after
        ``PoolExhausted`` keeps those scores.  When
        ``prompt_token_ids`` is given, the seeded prompt's page-aligned
        chunks are registered for future prefix sharing *before* the policy's
        prompt-phase eviction runs (eviction copy-on-writes away from
        registered pages, so they stay pristine).  Without it (the engine
        passes none for a policy that needs prompt attention) the row owns
        its prompt pages alone and the eviction compacts them in place.
        """
        if self.n_active >= self.max_batch:
            raise RuntimeError(f"batch is full ({self.max_batch} rows)")
        if len(prompt_kv) != self.n_layers:
            raise ValueError(
                f"expected {self.n_layers} layers of prompt KV, got {len(prompt_kv)}"
            )
        keys0 = prompt_kv[0][0]
        if keys0.shape[0] != 1:
            raise ValueError("join admits one sequence at a time (batch dim must be 1)")
        shared_len = shared_prefix.length if shared_prefix is not None else 0
        suffix_len = keys0.shape[2]
        prompt_len = shared_len + suffix_len
        row = self.n_active

        suffix_positions = np.arange(shared_len, prompt_len)
        pos_bht = np.broadcast_to(suffix_positions, (1, self.n_heads, suffix_len))
        try:
            for layer_idx, (keys, values) in enumerate(prompt_kv):
                cache = self.caches[layer_idx]
                if shared_prefix is not None:
                    cache.join_row_shared(
                        row,
                        shared_prefix.pages_per_layer[layer_idx],
                        shared_len,
                        keys,
                        values,
                        pos_bht,
                    )
                else:
                    cache.join_row(row, keys, values, pos_bht)
        except Exception:
            # A mid-join failure must not leak the pages already seeded into
            # earlier layers — unwind so the engine can preempt and retry.
            # The row has no stats entry yet (it is appended below).
            self.unwind_row(row, [0] * self.n_layers, adjust_stats=False)
            raise
        if prompt_token_ids is not None:
            self.registry.register(
                prompt_token_ids, [cache.tables[row] for cache in self.caches]
            )
        self._start_row(policy, prompt_len)
        try:
            self._evict_prompt(row)
        except Exception:
            # The prompt-phase eviction can exhaust the pool too when the
            # row registered or mapped its prompt (a copy-on-write gather of
            # shared pages allocates fresh ones); an unregistered row's
            # gather compacts in place.  The row is fully admitted at this
            # point, so unwind it through the normal retirement path before
            # re-raising — the engine treats the failure as "join could not
            # be funded".
            self.retire(row)
            raise
        return row

    def _start_row(self, policy: EvictionPolicy, prompt_len: int) -> None:
        """Activate row ``n_active``, whose pages hold its ``prompt_len``
        prompt tokens, under its own set-up ``policy``."""
        stats = CacheStats(
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_head=self.d_head,
            batch_size=1,
            prompt_len=prompt_len,
        )
        stats.kv_token_bytes = self.store.pools[0].kv_token_nbytes()
        stats.total_appended += prompt_len * self.n_layers
        self.policies.append(policy)
        self.stats.append(stats)
        self.current_position.append(prompt_len)
        self.generation_step.append(0)
        self.prompt_len.append(prompt_len)
        self._step_lengths.append([])
        self.n_active += 1

    def _evict_prompt(self, row: int) -> None:
        """Run row ``row``'s prompt-phase eviction (its policy scored the
        prompt during the prompt pass)."""
        policy = self.policies[row]
        shared_selection: np.ndarray | None = None
        for layer_idx in range(self.n_layers):
            selection = policy.initial_selection(layer_idx)
            if selection is None:
                continue
            if policy.shared_selection:
                shared_selection = selection
            else:
                self._apply_row_selection(layer_idx, row, selection)
        if shared_selection is not None:
            for layer_idx in range(self.n_layers):
                self._apply_row_selection(layer_idx, row, shared_selection)

    def prefix_tensors(
        self, shared_prefix: PrefixMatch
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer ``(keys_for_attention, values)`` of a mapped prefix,
        each of shape ``(1, H, P, d)``.

        For RoPE models the keys are rotated at their original positions —
        read straight from the pages in original-position mode, whose pools
        store them rotated, and rotated once here (bit-identically) in
        renumbered-position mode, whose pools store them raw.
        Views are zero-copy when the prefix pages are contiguous.
        """
        out = []
        for layer_idx in range(self.n_layers):
            pool = self.store.pools[layer_idx]
            pages = shared_prefix.pages_per_layer[layer_idx]
            keys, values = pool.page_tokens_view(pages)
            if self._rope_table is not None and pool.rope_dims == 0:
                keys = self._rope_table.rotate(keys, np.arange(shared_prefix.length))
            out.append((keys[None], values[None]))
        return out

    def retire(self, row: int) -> CacheStats:
        """Remove a finished sequence; the last active row moves into its slot.

        Returns the sequence's :class:`CacheStats`.  Callers tracking row
        assignments must note that row ``n_active - 1`` (if different) now
        lives at ``row``.
        """
        if not (0 <= row < self.n_active):
            raise IndexError(f"row {row} out of range (n_active={self.n_active})")
        last = self.n_active - 1
        stats = self.stats[row]
        for cache in self.caches:
            cache.free_row(row, last)
        for values in (
            self.policies,
            self.stats,
            self.current_position,
            self.generation_step,
            self.prompt_len,
            self._step_lengths,
        ):
            values[row] = values[last]
            values.pop()
        self.n_active -= 1
        self._qpos = None
        return stats

    def release_row(self, row: int) -> None:
        """Drop a row without finalizing it (preemption): identical row
        compaction to :meth:`retire`, stats discarded."""
        self.retire(row)

    # ------------------------------------------------------------------
    # fault unwinding and row snapshots
    # ------------------------------------------------------------------
    def row_lengths(self, row: int) -> list[int]:
        """Per-layer live token counts of one row — capture these *before* a
        multi-write operation so :meth:`unwind_row` can roll it back."""
        return [cache.tables[row].length for cache in self.caches]

    def unwind_row(
        self, row: int, lengths_before: list[int], adjust_stats: bool = True
    ) -> int:
        """Roll back one row's partial appends to the captured lengths.

        The single unwind path shared by every append-style failure: a
        mid-join seed, a fault mid decode-step append, or a speculative
        verify round that died after its block append.  Per layer: a row
        that had no tokens before releases its table outright (this also
        drops freshly mapped shared-prefix pages); otherwise the extra
        appended tokens are truncated and any trailing page a partially
        failed append allocated but never filled is released.  Returns the
        number of unwound token-appends (summed over layers); when
        ``adjust_stats`` the row's ``total_appended`` is decremented by it.

        Only *appends* are unwound — evictions (gather) are irreversible, so
        a step that may evict must be protected by :meth:`snapshot_row`
        instead.
        """
        unwound = 0
        ps = self.store.page_size
        for layer, cache in enumerate(self.caches):
            table = cache.tables[row]
            before = int(lengths_before[layer])
            if before == 0:
                if table.pages:
                    unwound += table.length
                    cache.pool.release_table(table)
                continue
            extra = table.length - before
            if extra > 0:
                cache.pool.truncate(table, extra)
                unwound += extra
            keep = pages_needed(table.end, ps)
            if len(table.pages) > keep:
                cache.pool.release(table.drop_pages(keep))
        if adjust_stats and unwound and row < len(self.stats):
            self.stats[row].total_appended -= unwound
        return unwound

    def snapshot_row(self, row: int) -> "_RowSnapshot":
        """Copy-on-write snapshot of one row's full per-step mutable state.

        Forks the row's page tables (retaining their pages, so subsequent
        writes copy-on-write into fresh pages and the snapshot content stays
        pristine — including int8 quantization parameters, which
        copy-on-write duplicates alongside the codes), deep-copies the row's
        eviction policy, and captures the step-scoped stats counters and the
        position and step counters.
        Every snapshot must be consumed by exactly one of :meth:`restore_row`
        or :meth:`discard_row_snapshot`, or its page references leak.
        """
        stats = self.stats[row]
        return _RowSnapshot(
            [cache.fork_row(row) for cache in self.caches],
            copy.deepcopy(self.policies[row]),
            stats.total_appended,
            stats.total_evicted,
            list(self._step_lengths[row]),
            self.current_position[row],
            self.generation_step[row],
        )

    def restore_row(self, row: int, snapshot: "_RowSnapshot") -> None:
        """Reinstate a row's state from :meth:`snapshot_row`, consuming it.

        The snapshot's forked tables become the live tables (its retained
        page references transfer), so a restored snapshot must **not** also
        be discarded.  Restoring replays the row to the exact pre-step state
        — the basis of the survivors-stay-bit-exact quarantine guarantee.
        """
        for cache, fork in zip(self.caches, snapshot.tables):
            cache.pool.release_table(cache.tables[row])
            cache.tables[row] = fork
        self.policies[row] = snapshot.policy
        stats = self.stats[row]
        stats.total_appended = snapshot.total_appended
        stats.total_evicted = snapshot.total_evicted
        self._step_lengths[row] = list(snapshot.step_lengths)
        self.current_position[row] = snapshot.position
        self.generation_step[row] = snapshot.step
        self._qpos = None

    def discard_row_snapshot(self, snapshot: "_RowSnapshot") -> None:
        """Release an unused snapshot's page references (the success path)."""
        for cache, fork in zip(self.caches, snapshot.tables):
            cache.pool.release_table(fork)

    # ------------------------------------------------------------------
    # integrity auditing
    # ------------------------------------------------------------------
    def check_invariants(self) -> list[str]:
        """Audit the store against this manager's complete ownership map.

        Active rows' tables must account for every page reference alongside
        the registry's pins; inactive row slots must be empty.  Returns all
        violations (empty list = clean); see
        :meth:`BlockPool.check_invariants`.
        """
        violations: list[str] = []
        owners: list[list[PageTable]] = []
        for layer, cache in enumerate(self.caches):
            for idx in range(self.n_active, cache.max_batch):
                table = cache.tables[idx]
                if table.pages or table.length or table.offset:
                    violations.append(
                        f"layer {layer}: inactive row slot {idx} is not empty "
                        f"({len(table.pages)} pages, length {table.length})"
                    )
            violations.extend(f"layer {layer}: {v}" for v in cache.check_workspace())
            owners.append(list(cache.tables[: self.n_active]))
        violations.extend(
            self.store.check_invariants(owners, self.registry.pinned_pages())
        )
        # Registry structure: parent chains intact, and (under wtinylfu)
        # SLRU segment membership in lockstep with the pinned chunk set.
        violations.extend(self.registry.audit())
        return violations

    # ------------------------------------------------------------------
    # decode phase
    # ------------------------------------------------------------------
    def layer_views(self) -> list[BatchedLayerView]:
        """Per-layer facades handed to ``DecoderBlock.decode_step_batch``."""
        return [BatchedLayerView(self, i) for i in range(self.n_layers)]

    def query_positions(self) -> np.ndarray:
        """Original position of each active sequence's next token, shape ``(R,)``."""
        if self._qpos is None:
            self._qpos = np.asarray(self.current_position, dtype=np.int64)
        return self._qpos

    def append_batch(self, layer_idx: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append one token per active row to one layer's cache."""
        self.caches[layer_idx].append_rows(self.n_active, k, v, self.query_positions())
        for stats in self.stats:
            stats.total_appended += 1

    def append_pages_shortfall(self) -> int:
        """How many pages the tightest layer pool is short of to run one
        decode step's appends.  Zero means the step cannot exhaust the pool;
        positive means the engine must reclaim or preempt first."""
        shortfall = 0
        reclaimable = self.registry.reclaimable_pages()
        for cache in self.caches:
            needed = cache.append_pages_needed(self.n_active)
            available = cache.pool.free_pages + reclaimable
            shortfall = max(shortfall, needed - available)
        return shortfall

    def attention_view_batch(
        self, layer_idx: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
        """``(keys, values, key_positions, query_positions, lengths, keys_rotated)``.

        All tensor outputs are padded to the batch's longest row; ``lengths``
        gives each row's live entry count.  Rows are bit-identical (within
        their live region) to the single-sequence attention view.
        """
        cache = self.caches[layer_idx]
        r = self.n_active
        rotated = self.rope_dims > 0  # zero outside original-position mode
        keys, values, pos, lengths, max_len = cache.padded_batch(r)
        for i in range(r):
            self._step_lengths[i].append(int(lengths[i]))
        if self.positional_mode == "original":
            key_positions = pos
            query_positions = self.query_positions()
        else:
            key_positions = np.broadcast_to(
                np.arange(max_len), (r, self.n_heads, max_len)
            )
            query_positions = lengths - 1
        return keys, values, key_positions, query_positions, lengths, rotated

    def observe_batch(self, layer_idx: int, logits: np.ndarray, probs: np.ndarray) -> None:
        """Feed each row's exact-length logits/probs slice to its own policy."""
        cache = self.caches[layer_idx]
        for row in range(self.n_active):
            policy = self.policies[row]
            if type(policy).step_selection is EvictionPolicy.step_selection:
                # The base no-op (full attention) reads none of its arguments:
                # skip building them.
                continue
            try:
                length = cache.tables[row].length
                self._drivers[row].observe(
                    policy,
                    layer_idx,
                    logits[row : row + 1, :, :length],
                    probs[row : row + 1, :, :length],
                    self.generation_step[row] + 1,
                    # On demand only: a page-gather copy on a fragmented
                    # table, a pass through tier-0 under offload.
                    lambda idx: self.caches[idx].positions_row(row),
                    lambda idx, selection: self._apply_row_selection(idx, row, selection),
                )
            except Exception as exc:
                tag_fault_row(exc, row)
                raise

    def advance(self) -> None:
        """Mark the end of one batched decoding step for every active sequence."""
        for row in range(self.n_active):
            if self._step_lengths[row]:
                self.stats[row].record_step(self._step_lengths[row])
                self._step_lengths[row] = []
            self.generation_step[row] += 1
            self.current_position[row] += 1
        self._qpos = None

    # ------------------------------------------------------------------
    # speculative verify phase (single-row multi-token decode)
    # ------------------------------------------------------------------
    def row_verify_views(self, row: int) -> list[VerifyView]:
        """Per-layer views of one row as virtual batch rows, for one verify
        pass starting at the row's current position (see
        :class:`~repro.kvcache.verify.VerifyView`)."""
        return [
            VerifyView(
                cache.pool,
                cache.tables[row],
                self.stats[row],
                self.current_position[row],
                self.positional_mode,
                self._rope_table,
            )
            for cache in self.caches
        ]

    def commit_verify_row(self, row: int, n_committed: int, n_appended: int) -> None:
        """Finalize one row's verify round: truncate the rejected tail and
        advance that row's position/step counters by the committed count."""
        drop = n_appended - n_committed
        if drop < 0:
            raise ValueError("cannot commit more tokens than were appended")
        if drop:
            for cache in self.caches:
                cache.pool.truncate(cache.tables[row], drop)
        self.stats[row].record_backdated_steps(
            [cache.tables[row].length for cache in self.caches], n_committed
        )
        self.generation_step[row] += n_committed
        self.current_position[row] += n_committed
        self._qpos = None

    # ------------------------------------------------------------------
    def _apply_row_selection(self, layer_idx: int, row: int, selection: np.ndarray) -> None:
        evicted = self.caches[layer_idx].gather_row(row, selection)
        self.stats[row].total_evicted += evicted

    def cache_lengths(self, row: int) -> list[int]:
        """Current per-layer cache lengths of one sequence."""
        return [cache.tables[row].length for cache in self.caches]

    def total_kv_bytes(self) -> int:
        """Current resident KV-cache size of the active rows across all
        layers, at what a cached token actually costs in the pool
        (``BlockPool.kv_token_nbytes``)."""
        return sum(
            int(
                sum(table.length for table in cache.tables[: self.n_active])
                * cache.pool.kv_token_nbytes()
            )
            for cache in self.caches
        )

    def pool_usage(self) -> dict:
        """Aggregate page-pool utilization (pages *and* bytes — see
        :meth:`repro.kvcache.paged.PagedKVStore.usage`) plus registry
        occupancy.

        Under the non-default ``"wtinylfu"`` admission policy an
        ``admission`` sub-dict carries the registry's sketch / segment /
        admission-decision counters; the default ``"lru"`` report stays
        byte-identical to the historical schema.
        """
        usage = self.store.usage()
        usage["registry_chunks"] = len(self.registry)
        if self.registry.admission_policy != "lru":
            usage["admission"] = self.registry.telemetry()
        return usage

    def prefetch_decode(self) -> int:
        """Bulk-restore the spilled pages of every active row before a decode
        step — one :meth:`repro.kvcache.offload._TieredMixin.restore_pages`
        call per layer, so the step's reads hit resident frames instead of
        issuing one restore per page access.  No-op (returns 0) on
        single-tier pools."""
        restored = 0
        for cache in self.caches:
            restore = getattr(cache.pool, "restore_pages", None)
            if restore is None:
                return 0
            pages: list[int] = []
            for table in cache.tables[: self.n_active]:
                pages.extend(table.pages)
            if pages:
                restored += restore(pages)
        return restored
