"""Cache manager: connects decoder layers, KV caches and eviction policies.

The manager keeps its ``B`` rows (a batch, or the beams of a beam search) in
one :class:`~repro.kvcache.batch.BatchedLayerKVCache` per decoder layer — the
per-layer cache the serving engine uses — and drives a single eviction policy.
During incremental decoding each decoder block interacts with the manager
through a :class:`LayerCacheView`, which implements the ``DecodeCache``
protocol of :meth:`repro.models.block.DecoderBlock.decode_step_batch` as a
batch whose rows are never padded (every row holds the same number of
entries):

1. ``append`` stores the new token's key/value;
2. ``attention_view`` exposes keys/values plus positional indices in either
   original or renumbered form;
3. ``observe`` hands the step's attention logits/probabilities to the policy,
   which may return a selection of entries to retain; the manager applies the
   selection (to one layer, or to all layers for shared score functions).  For
   a policy with ``stacked_steps`` the layers' tensors are collected (see
   :class:`~repro.kvcache.batch.PolicyDriver`) and the last layer's
   ``observe`` runs the policy once for the whole step, then evicts layer by
   layer — no layer's cache is read again before the next token, so nothing
   observes the deferral.

Every row is seeded as one ascending page run with its whole generation
reserved up front, so a lone row's reads are zero-copy pool views.  The rest
is page-table bookkeeping over the same pool: beam ``reorder`` and the
drafter's ``fork`` / ``restore`` / ``discard`` clone tables (a refcount bump;
copy-on-write splits a shared page at its first divergent write), and
``initialize_mapped`` starts from another sequence's tables.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.policies import EvictionPolicy
from repro.core.score import EvictOne
from repro.kvcache.batch import BatchedLayerKVCache, PolicyDriver
from repro.kvcache.paged import DEFAULT_PAGE_SIZE, PagedKVStore, PageTable, pages_needed
from repro.kvcache.stats import CacheStats

__all__ = ["CacheManager", "LayerCacheView"]


class _Snapshot:
    """One rewind point of a :class:`CacheManager` (see :meth:`CacheManager.fork`)."""

    __slots__ = ("tables", "policy", "position", "step")

    def __init__(self, tables, policy, position, step):
        self.tables = tables
        self.policy = policy
        self.position = position
        self.step = step


class LayerCacheView:
    """Per-layer facade implementing the model's ``DecodeCache`` protocol.

    The solo decode step is the ragged-batch kernel over ``B`` rows of one
    length, so :meth:`attention_view` answers ``lengths=None`` (no row is
    padded) and a scalar query position shared by every row.
    """

    def __init__(self, manager: "CacheManager", layer_idx: int):
        self.manager = manager
        self.layer_idx = layer_idx

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Store the new token's key/value in this layer's cache."""
        self.manager.append(self.layer_idx, k, v)

    def attention_view(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, None, bool]:
        """Keys/values plus positional indices for the attention step."""
        return self.manager.attention_view(self.layer_idx)

    def observe(self, logits: np.ndarray, probs: np.ndarray) -> None:
        """Hand the step's attention tensors to the eviction policy."""
        self.manager.observe(self.layer_idx, logits, probs)


class CacheManager:
    """Owns per-layer KV caches and drives one eviction policy.

    Parameters
    ----------
    dtype:
        Storage/compute dtype of the KV slabs (default ``float64``; the
        model's ``compute_dtype`` is plumbed through here by the generator).
    rope_dims:
        When positive and ``positional_mode == "original"``, per-layer caches
        maintain incrementally updated *rotated* keys so the attention step
        never re-rotates unchanged cache entries.
    kv_dtype:
        Page storage format of the store this manager builds: ``None``
        (default) keeps full-precision pages — the bit-exact golden mode —
        while ``"int8"`` stores quantized pages (see
        :mod:`repro.kvcache.quant`).  Ignored when ``store`` is passed.
    """

    def __init__(
        self,
        policy: EvictionPolicy,
        n_layers: int,
        n_heads: int,
        d_head: int,
        positional_mode: str | None = None,
        dtype: np.dtype | str | None = None,
        rope_dims: int = 0,
        page_size: int = DEFAULT_PAGE_SIZE,
        store: PagedKVStore | None = None,
        kv_dtype: str | None = None,
    ):
        self.policy = policy
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.d_head = d_head
        self.positional_mode = positional_mode or policy.config.positional_mode
        if self.positional_mode not in ("original", "new"):
            raise ValueError(f"unknown positional mode {self.positional_mode!r}")
        self.dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        # Rotated-key caching is only sound when rotations are keyed to the
        # (stable) original positions; renumbered mode re-rotates per step.
        self.rope_dims = int(rope_dims) if self.positional_mode == "original" else 0
        self.page_size = int(page_size)
        if store is not None:
            # A caller-supplied store lets a self-drafter keep its page
            # tables in the serving engine's pools, over the same physical
            # pages as its target row.  With a fixed (non-growable) store,
            # allocations can surface ``PoolExhausted``; the engine answers
            # that with preemption.
            self.page_size = store.page_size
        self.kv_dtype = store.config.kv_dtype if store is not None else kv_dtype
        self._shared_store = store
        self.store: PagedKVStore | None = store
        self.caches: list[BatchedLayerKVCache] = []
        self.stats = CacheStats(n_layers=n_layers, n_heads=n_heads, d_head=d_head)
        self.prompt_len = 0
        self.generation_step = 0
        self.current_position = 0
        self._step_lengths: list[int] = []
        self._qpos_array: np.ndarray | None = None
        self._driver = PolicyDriver(n_layers)

    def _build_store(self, batch_size: int, capacity: int) -> None:
        """One growable :class:`PagedKVStore` per generation run — the single
        storage substrate every per-layer cache view writes into."""
        if self._shared_store is not None:
            self.store = self._shared_store
            return
        pages = max(pages_needed(capacity, self.page_size), 1) * max(batch_size, 1) + 1
        self.store = PagedKVStore(
            self.n_layers,
            self.n_heads,
            self.d_head,
            page_size=self.page_size,
            dtype=self.dtype,
            rope_dims=self.rope_dims,
            n_pages=pages,
            growable=True,
            kv_dtype=self.kv_dtype,
        )

    def _seed(
        self, batch_size: int, capacity: int, kv: list[tuple[np.ndarray, np.ndarray]]
    ) -> None:
        """One cache per layer, each row seeded from its ``(B, H, T, d)``
        keys/values as one page run reserving ``capacity`` tokens."""
        self._build_store(batch_size, capacity)
        self.caches = self._new_caches(batch_size)
        t = kv[0][0].shape[2]
        positions = np.broadcast_to(np.arange(t), (self.n_heads, t))
        for cache, (keys, values) in zip(self.caches, kv):
            keys = np.asarray(keys, dtype=self.dtype)
            values = np.asarray(values, dtype=self.dtype)
            for row, table in enumerate(cache.tables):
                cache.pool.extend(
                    table, keys[row], values[row], positions, reserve_tokens=capacity
                )
        self.stats.kv_token_bytes = self.store.pools[0].kv_token_nbytes()

    def _new_caches(self, batch_size: int) -> list[BatchedLayerKVCache]:
        return [
            BatchedLayerKVCache(batch_size, self.n_heads, self.d_head, pool=pool)
            for pool in self.store.pools
        ]

    def _start(self, batch_size: int, prompt_len: int) -> None:
        """Reset the counters and stats for a new run."""
        self.prompt_len = prompt_len
        self.generation_step = 0
        self.current_position = prompt_len  # original position of the next token
        self._qpos_array = None
        self.stats = CacheStats(
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_head=self.d_head,
            batch_size=batch_size,
            prompt_len=prompt_len,
        )
        self.stats.total_appended += prompt_len * self.n_layers

    # ------------------------------------------------------------------
    # prompt phase
    # ------------------------------------------------------------------
    def initialize_from_prompt(
        self,
        prompt_kv: list[tuple[np.ndarray, np.ndarray]],
        prompt_attn: list[np.ndarray],
        prompt_logits: list[np.ndarray],
        max_new_tokens: int,
    ) -> None:
        """Seed the caches from prompt-phase tensors and apply the initial eviction.

        Parameters
        ----------
        prompt_kv:
            Per-layer ``(keys, values)`` of shape ``(B, H, T, d_head)``.
        prompt_attn:
            Per-layer post-softmax attention of shape ``(B, H, T, T)``.
        prompt_logits:
            Per-layer masked unnormalized logits of shape ``(B, H, T, T)``.
        max_new_tokens:
            Expected generation length ``T`` (drives the τ schedule).
        """
        if len(prompt_kv) != self.n_layers:
            raise ValueError(f"expected {self.n_layers} layers of prompt KV, got {len(prompt_kv)}")
        batch_size, _, prompt_len, _ = prompt_kv[0][0].shape
        self._start(batch_size, prompt_len)
        self.policy.setup(self.n_layers, self.n_heads, batch_size, prompt_len, max_new_tokens)
        self._seed(batch_size, prompt_len + max_new_tokens + 1, prompt_kv)
        self._apply_prompt_selections(prompt_attn, prompt_logits, prompt_len)

    def _apply_prompt_selections(
        self, prompt_attn: list[np.ndarray], prompt_logits: list[np.ndarray], prompt_len: int
    ) -> None:
        """Run the policy's prompt-phase eviction over freshly seeded caches."""
        positions = np.arange(prompt_len)
        shared_selection: np.ndarray | None = None
        for layer_idx in range(self.n_layers):
            selection = self.policy.initial_selection(
                layer_idx, prompt_attn[layer_idx], prompt_logits[layer_idx], positions
            )
            if selection is None:
                continue
            if getattr(self.policy, "shared_selection", False):
                shared_selection = selection
            else:
                self._apply_selection(layer_idx, selection)
        if shared_selection is not None:
            for layer_idx in range(self.n_layers):
                self._apply_selection(layer_idx, shared_selection)

    def initialize_mapped(
        self,
        source_tables: list[list["PageTable"]],
        prompt_attn: list[np.ndarray],
        prompt_logits: list[np.ndarray],
        max_new_tokens: int,
    ) -> None:
        """Seed by *mapping* another manager's page tables (self-speculation).

        ``source_tables`` holds, per layer, the page tables of a sequence
        already resident in this manager's (shared) store — the serving
        engine's speculative row right after it joined.  Instead of copying
        the prompt KV, each row clones its source table and retains the pages
        covering live tokens (the source's reserve tail stays its own, so its
        in-place appends need no copy); the drafter's prompt-phase eviction
        then copy-on-writes into private pages, so target and drafter share
        physical prompt pages exactly as long as their contents agree.
        """
        if self._shared_store is None:
            raise RuntimeError("initialize_mapped requires a shared store")
        if len(source_tables) != self.n_layers:
            raise ValueError(
                f"expected {self.n_layers} layers of tables, got {len(source_tables)}"
            )
        self.store = self._shared_store
        batch_size = len(source_tables[0])
        self._start(batch_size, source_tables[0][0].length)
        self.policy.setup(
            self.n_layers, self.n_heads, batch_size, self.prompt_len, max_new_tokens
        )
        self.caches = self._new_caches(batch_size)
        for cache, tables in zip(self.caches, source_tables):
            for row, table in enumerate(tables):
                cache.map_row(row, table)
        self.stats.kv_token_bytes = self.store.pools[0].kv_token_nbytes()
        try:
            self._apply_prompt_selections(prompt_attn, prompt_logits, self.prompt_len)
        except Exception:
            # A mid-eviction failure (PoolExhausted from a copy-on-write
            # gather, or an injected allocation fault) must not leak the
            # freshly mapped pages — release them so the caller can preempt
            # or quarantine with the pool intact.
            self.release()
            raise

    def initialize_empty(self, batch_size: int, max_new_tokens: int, prompt_len: int = 1) -> None:
        """Start decoding with empty caches (used in unit tests and microbenchmarks)."""
        self._start(batch_size, 0)
        self.policy.setup(
            self.n_layers, self.n_heads, batch_size, max(prompt_len, 1), max_new_tokens
        )
        empty = np.zeros((batch_size, self.n_heads, 0, self.d_head))
        self._seed(batch_size, max_new_tokens + 1, [(empty, empty)] * self.n_layers)

    # ------------------------------------------------------------------
    # decode phase
    # ------------------------------------------------------------------
    def layer_view(self, layer_idx: int) -> LayerCacheView:
        """The per-layer facade handed to ``DecoderBlock.decode_step_batch``."""
        if not (0 <= layer_idx < self.n_layers):
            raise IndexError(f"layer index {layer_idx} out of range")
        return LayerCacheView(self, layer_idx)

    def layer_views(self) -> list[LayerCacheView]:
        """Views for all layers, in order."""
        return [self.layer_view(i) for i in range(self.n_layers)]

    def append(self, layer_idx: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append the current token's key/value (``(B, H, d_head)``) to one
        layer's cache: an in-place page write per row."""
        cache = self.caches[layer_idx]
        for row, table in enumerate(cache.tables):
            cache.pool.append(table, k[row], v[row], self.current_position)
        self.stats.total_appended += 1

    def attention_view(
        self, layer_idx: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, None, bool]:
        """``(keys, values, key_positions, query_positions, None,
        keys_rotated)``: the ``DecodeCache`` view, no row padded.

        ``query_positions`` is a 0-d array shared by every row.  With
        rotated-key caching active, ``keys`` are already RoPE-rotated at
        their original positions (``keys_rotated=True``) and the attention
        step skips its own key rotation.
        """
        cache = self.caches[layer_idx]
        original = self.positional_mode == "original"
        rotated = original and self.rope_dims > 0
        keys, values, positions, _, length = cache.padded_batch(len(cache.tables), rotated)
        if original:
            if self._qpos_array is None:
                # One array per decoding step, shared by every layer.
                self._qpos_array = np.asarray(self.current_position)
            query_positions = self._qpos_array
        else:
            positions = np.broadcast_to(np.arange(length), positions.shape)
            query_positions = np.asarray(length - 1)
        self._step_lengths.append(length)
        return keys, values, positions, query_positions, None, rotated

    def observe(self, layer_idx: int, logits: np.ndarray, probs: np.ndarray) -> None:
        """Run the policy on the step's attention tensors; apply evictions."""
        self._driver.observe(
            self.policy,
            layer_idx,
            logits,
            probs,
            self.generation_step + 1,
            lambda idx: self.caches[idx].positions,
            self._apply_selection,
        )

    def advance(self) -> None:
        """Mark the end of a decoding step (one token processed by all layers)."""
        if self._step_lengths:
            self.stats.record_step(self._step_lengths)
            self._step_lengths = []
        self.generation_step += 1
        self.current_position += 1
        self._qpos_array = None

    # ------------------------------------------------------------------
    # page-table operations: beam reorder, rollback, teardown
    # ------------------------------------------------------------------
    @staticmethod
    def _adopt(cache: BatchedLayerKVCache, tables: list[PageTable]) -> None:
        """Release ``cache``'s row tables and put ``tables`` in their slots."""
        for table in cache.tables:
            cache.pool.release_table(table)
        cache.tables[:] = tables

    def reorder(self, batch_indices: np.ndarray) -> None:
        """Reorder (or duplicate) the batch/beam rows of every cache and of
        the policy state.  Duplicated rows share pages until copy-on-write
        splits them at the first divergent write."""
        for cache in self.caches:
            self._adopt(cache, [cache.fork_row(int(i)) for i in batch_indices])
        self.policy.reorder(batch_indices)

    def fork(self) -> _Snapshot:
        """A rewind point: every row's page tables (cloned — refcounts, not
        copies), a copy of the policy state and the position counters.

        Hand it to :meth:`restore` (at most once) to rewind, or to
        :meth:`discard` to release it.  The speculative drafter forks before
        consuming each unverified draft token.
        """
        return _Snapshot(
            [[cache.fork_row(row) for row in range(len(cache.tables))] for cache in self.caches],
            copy.deepcopy(self.policy),
            self.current_position,
            self.generation_step,
        )

    def restore(self, snapshot: _Snapshot) -> None:
        """Rewind to ``snapshot`` (from :meth:`fork`), which the manager
        takes over; the current tables are released."""
        for cache, tables in zip(self.caches, snapshot.tables):
            self._adopt(cache, tables)
        self.policy = snapshot.policy
        self.current_position = snapshot.position
        self.generation_step = snapshot.step
        self._qpos_array = None
        self._step_lengths = []

    def discard(self, snapshot: _Snapshot) -> None:
        """Release an unused snapshot from :meth:`fork`."""
        for cache, tables in zip(self.caches, snapshot.tables):
            for table in tables:
                cache.pool.release_table(table)

    def release(self) -> None:
        """Return every cached page to the store (drafter teardown)."""
        for cache in self.caches:
            self._adopt(cache, [])
        self.caches = []

    # ------------------------------------------------------------------
    def _apply_selection(self, layer_idx: int, selection) -> None:
        """Evict every row of one layer down to ``selection`` (``(B, H, K)``,
        ``(K,)`` for every row and head, or an :class:`EvictOne`)."""
        cache = self.caches[layer_idx]
        rows = len(cache.tables)
        if not isinstance(selection, EvictOne):
            selection = np.asarray(selection, dtype=np.int64)
            if selection.ndim == 1:
                selection = np.broadcast_to(selection, (rows, self.n_heads, selection.size))
        if selection.shape[:2] != (rows, self.n_heads):
            raise ValueError(
                f"selection shape {selection.shape} incompatible with "
                f"({rows}, {self.n_heads}, ...) rows"
            )
        evicted = 0
        for row in range(rows):
            evicted = cache.gather_row(row, selection[row])
        self.stats.total_evicted += evicted

    # ------------------------------------------------------------------
    def cache_lengths(self) -> list[int]:
        """Current per-layer cache lengths."""
        return [cache.tables[0].length for cache in self.caches]

    def total_kv_bytes(self) -> int:
        """Current resident KV-cache size across all layers, at what a cached
        token actually costs in the pool (``BlockPool.kv_token_nbytes``)."""
        return sum(
            int(len(cache.tables) * cache.tables[0].length * cache.pool.kv_token_nbytes())
            for cache in self.caches
        )
