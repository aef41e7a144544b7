"""The solo cache manager: a batch, or the beams of a beam search.

:class:`CacheManager` is the one cache manager,
:class:`~repro.kvcache.batch.BatchedCacheManager`, with the solo entry points
added.  Its ``B`` rows start together from one prompt pass and advance in
lockstep; every row carries its own eviction policy instance (row 0 the
caller's, the others deep copies), its own stats and counters, exactly as an
engine row does — so a row's policy state, noise draws included, is the one
it would have decoded alone.  It decodes exactly as the engine does: each
decoder block reaches it through a
:class:`~repro.kvcache.batch.BatchedLayerView` (``layer_views``), whose
``append`` / ``attention_view`` / ``observe`` are the base class's batched
entry points; every row holds the same number of entries, so no row is
padded.  ``append``, ``attention_view`` and ``observe`` are class-level
aliases of those entry points, kept for the span tracer's target list.

Every row is seeded as one ascending page run with its whole generation
reserved up front, so a lone row's reads are zero-copy pool views.  Beam
``reorder`` clones page tables (a refcount bump; copy-on-write splits a
shared page at its first divergent write) and moves the policies with them.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.policies import EvictionPolicy
from repro.kvcache.batch import BatchedCacheManager, BatchedLayerKVCache
from repro.kvcache.paged import DEFAULT_PAGE_SIZE, PagedKVStore, pages_needed

__all__ = ["CacheManager"]


class CacheManager(BatchedCacheManager):
    """The cache manager of rows that start and advance together.

    Parameters
    ----------
    policy:
        Row 0's eviction policy; every other row runs a deep copy of it.
    dtype:
        Storage/compute dtype of the KV slabs (default ``float64``; the
        model's ``compute_dtype`` is plumbed through here by the generator).
    rope_dims:
        When positive and ``positional_mode == "original"``, the pools
        store keys rotated once at write time, so the attention step never
        re-rotates unchanged cache entries.
    kv_dtype:
        Page storage format of the store this manager builds: ``None``
        (default) keeps full-precision pages — the bit-exact golden mode —
        while ``"int8"`` stores quantized pages (see
        :mod:`repro.kvcache.quant`).
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
        kv_dtype: str | None = None,
    ):
        # Not the base constructor: that builds the engine's store and prefix
        # registry, where this manager sizes a store per run (``_open``).
        self._init_geometry(
            n_layers,
            n_heads,
            d_head,
            positional_mode or policy.config.positional_mode,
            dtype,
            rope_dims,
        )
        self.policy = policy
        self.page_size = int(page_size)
        self.kv_dtype = kv_dtype
        self.store: PagedKVStore | None = None
        self.registry = None
        self.caches: list[BatchedLayerKVCache] = []
        self._clear_rows(0)
        self._row_policies: list[EvictionPolicy] | None = None

    def _open(self, batch_size: int, capacity: int) -> None:
        """Empty caches of ``batch_size`` rows in one growable
        :class:`PagedKVStore` sized for ``capacity`` tokens a row."""
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
        self.caches = [
            BatchedLayerKVCache(batch_size, self.n_heads, self.d_head, pool=pool)
            for pool in self.store.pools
        ]
        self._clear_rows(batch_size)

    def setup_rows(
        self, batch_size: int, prompt_len: int, max_new_tokens: int
    ) -> list[EvictionPolicy]:
        """Set up one policy per row for a ``prompt_len``-token prompt (row 0
        the caller's, the others deep copies made before ``setup``) and
        return them for the prompt pass to score; the next ``initialize_*``
        call starts the rows under them, with no second ``setup``."""
        policies = [self.policy]
        policies += [copy.deepcopy(self.policy) for _ in range(batch_size - 1)]
        for policy in policies:
            policy.setup(self.n_layers, self.n_heads, 1, prompt_len, max_new_tokens)
        self._row_policies = policies
        return policies

    def _take_row_policies(self, batch_size: int) -> list[EvictionPolicy]:
        """The ``batch_size`` policies :meth:`setup_rows` set up, taken."""
        policies, self._row_policies = self._row_policies, None
        if policies is None or len(policies) != batch_size:
            raise RuntimeError(f"setup_rows({batch_size}, ...) must precede the prompt pass")
        return policies

    # ------------------------------------------------------------------
    # prompt phase
    # ------------------------------------------------------------------
    def initialize_from_prompt(
        self, prompt_kv: list[tuple[np.ndarray, np.ndarray]], max_new_tokens: int
    ) -> None:
        """Seed the caches from the prompt pass's per-layer ``(keys,
        values)``, ``(B, H, T, d_head)``, and apply the initial eviction;
        ``max_new_tokens`` sizes each row's reserve."""
        if len(prompt_kv) != self.n_layers:
            raise ValueError(f"expected {self.n_layers} layers of prompt KV, got {len(prompt_kv)}")
        batch_size, _, prompt_len, _ = prompt_kv[0][0].shape
        policies = self._take_row_policies(batch_size)
        self._seed(prompt_kv, prompt_len + max_new_tokens + 1)
        for policy in policies:
            self._start_row(policy, prompt_len)
        for row in range(self.n_active):
            self._evict_prompt(row)

    def _seed(self, kv: list[tuple[np.ndarray, np.ndarray]], capacity: int) -> None:
        """Seed each row from its ``(B, H, T, d)`` keys/values as one page
        run reserving ``capacity`` tokens."""
        batch_size, _, t, _ = kv[0][0].shape
        self._open(batch_size, capacity)
        positions = np.broadcast_to(np.arange(t), (self.n_heads, t))
        for cache, (keys, values) in zip(self.caches, kv):
            keys = np.asarray(keys, dtype=self.dtype)
            values = np.asarray(values, dtype=self.dtype)
            for row, table in enumerate(cache.tables):
                cache.pool.extend(
                    table, keys[row], values[row], positions, reserve_tokens=capacity
                )

    def initialize_empty(self, batch_size: int, max_new_tokens: int, prompt_len: int = 1) -> None:
        """Start decoding with empty caches (used in unit tests and
        microbenchmarks); ``prompt_len`` only sizes the policies' budget."""
        empty = np.zeros((batch_size, self.n_heads, 0, self.d_head))
        self._seed([(empty, empty)] * self.n_layers, max_new_tokens + 1)
        for policy in self.setup_rows(batch_size, max(prompt_len, 1), max_new_tokens):
            self._start_row(policy, 0)

    # ------------------------------------------------------------------
    # decode phase: the batched entry points, under the names the span
    # tracer's target list gives them
    # ------------------------------------------------------------------
    append = BatchedCacheManager.append_batch
    attention_view = BatchedCacheManager.attention_view_batch
    observe = BatchedCacheManager.observe_batch

    # ------------------------------------------------------------------
    def reorder(self, batch_indices: np.ndarray) -> None:
        """Reorder (or duplicate) the beam rows: page tables and policies
        move together; a parent chosen twice gets its policy deep-copied.
        Duplicated rows share pages until copy-on-write splits them at the
        first divergent write."""
        parents = [int(i) for i in batch_indices]
        for cache in self.caches:
            forks = [cache.fork_row(i) for i in parents]
            for table in cache.tables:
                cache.pool.release_table(table)
            cache.tables[:] = forks
        moved = set()
        policies = []
        for i in parents:
            policy = self.policies[i]
            policies.append(copy.deepcopy(policy) if i in moved else policy)
            moved.add(i)
        self.policies = policies
