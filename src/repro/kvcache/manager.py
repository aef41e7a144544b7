"""Cache manager: connects decoder layers, KV caches and eviction policies.

The manager owns one :class:`LayerKVCache` per decoder layer and a single
eviction policy.  During incremental decoding each decoder block interacts
with the manager through a :class:`LayerCacheView`, which implements the
``DecodeCache`` protocol of
:meth:`repro.models.block.DecoderBlock.decode_step_batch` as a batch whose
rows are never padded (every row holds the same number of entries):

1. ``append`` stores the new token's key/value;
2. ``attention_view`` exposes keys/values plus positional indices in either
   original or renumbered form;
3. ``observe`` hands the step's attention logits/probabilities to the policy,
   which may return a selection of entries to retain; the manager applies the
   selection (to one layer, or to all layers for shared score functions).  For
   a policy with ``stacked_steps`` the layers' tensors are collected (see
   :class:`PolicyDriver`) and the last layer's ``observe`` runs the policy once
   for the whole step, then evicts layer by layer — no layer's cache is read
   again before the next token, so nothing observes the deferral.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.policies import EvictionPolicy
from repro.kvcache.cache import LayerKVCache
from repro.kvcache.paged import DEFAULT_PAGE_SIZE, PagedKVStore, PageTable, pages_needed
from repro.kvcache.stats import CacheStats
from repro.kvcache.verify import VerifyView
from repro.models.positional import get_rope_table

__all__ = ["CacheManager", "LayerCacheView", "PolicyDriver"]


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
        # Renumbered mode rotates on read: the verify view needs the table.
        self._rope_table = get_rope_table(rope_dims) if rope_dims > 0 else None
        self.page_size = int(page_size)
        if store is not None:
            # A caller-supplied store lets two managers share one set of
            # block pools — the speculative decoder's target and drafter
            # hold their own page tables over the same physical pages.  With
            # a fixed (non-growable) store, allocations can surface
            # ``PoolExhausted``; the serving engine answers that with
            # preemption, solo callers should pass a growable store.
            self.page_size = store.page_size
        self.kv_dtype = store.config.kv_dtype if store is not None else kv_dtype
        self._shared_store = store
        self.store: PagedKVStore | None = store
        self.caches: list[LayerKVCache] = []
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

    def _make_cache_kwargs(self, max_new_tokens: int, initial_len: int) -> dict:
        return {
            "dtype": self.dtype,
            "capacity": initial_len + max_new_tokens + 1,
            "rope_dims": self.rope_dims,
        }

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
        keys0 = prompt_kv[0][0]
        batch_size, _, prompt_len, _ = keys0.shape
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

        self.policy.setup(self.n_layers, self.n_heads, batch_size, prompt_len, max_new_tokens)

        cache_kwargs = self._make_cache_kwargs(max_new_tokens, prompt_len)
        self._build_store(batch_size, cache_kwargs["capacity"])
        self.caches = [
            LayerKVCache.from_prompt(
                keys, values, pool=self.store.pool(layer), **cache_kwargs
            )
            for layer, (keys, values) in enumerate(prompt_kv)
        ]
        self.stats.kv_token_bytes = self.store.pools[0].kv_token_nbytes()
        self.stats.total_appended += prompt_len * self.n_layers

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
        already resident in this manager's (shared) store — typically the
        speculative target right after its prompt forward.  Instead of
        copying the prompt KV, each layer cache clones the source table and
        retains its pages; the drafter's prompt-phase eviction then
        copy-on-writes into private pages, so target and drafter share
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
        prompt_len = source_tables[0][0].length
        self.prompt_len = prompt_len
        self.generation_step = 0
        self.current_position = prompt_len
        self._qpos_array = None
        self.stats = CacheStats(
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_head=self.d_head,
            batch_size=batch_size,
            prompt_len=prompt_len,
        )
        self.policy.setup(self.n_layers, self.n_heads, batch_size, prompt_len, max_new_tokens)
        self.caches = [
            LayerKVCache.map_tables(self.store.pool(layer), tables, rope_dims=self.rope_dims)
            for layer, tables in enumerate(source_tables)
        ]
        self.stats.kv_token_bytes = self.store.pools[0].kv_token_nbytes()
        self.stats.total_appended += prompt_len * self.n_layers
        try:
            self._apply_prompt_selections(prompt_attn, prompt_logits, prompt_len)
        except Exception:
            # A mid-eviction failure (PoolExhausted from a copy-on-write
            # gather, or an injected allocation fault) must not leak the
            # freshly mapped pages — release them so the caller can preempt
            # or quarantine with the pool intact.
            self.release()
            raise

    def initialize_empty(self, batch_size: int, max_new_tokens: int, prompt_len: int = 1) -> None:
        """Start decoding with empty caches (used in unit tests and microbenchmarks)."""
        self.prompt_len = 0
        self.generation_step = 0
        self.current_position = 0
        self._qpos_array = None
        self.policy.setup(
            self.n_layers, self.n_heads, batch_size, max(prompt_len, 1), max_new_tokens
        )
        cache_kwargs = self._make_cache_kwargs(max_new_tokens, 0)
        self._build_store(batch_size, cache_kwargs["capacity"])
        self.caches = [
            LayerKVCache.empty(
                batch_size, self.n_heads, self.d_head, pool=self.store.pool(layer), **cache_kwargs
            )
            for layer in range(self.n_layers)
        ]
        self.stats = CacheStats(
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_head=self.d_head,
            batch_size=batch_size,
            prompt_len=0,
        )
        self.stats.kv_token_bytes = self.store.pools[0].kv_token_nbytes()

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
        """Append the current token's key/value to one layer's cache."""
        self.caches[layer_idx].append(k, v, self.current_position)
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
        keys_rotated = False
        if self.positional_mode == "original":
            key_positions = cache.retained_original_positions()
            if self._qpos_array is None:
                # One array per decoding step, shared by every layer.
                self._qpos_array = np.asarray(self.current_position)
            query_positions = self._qpos_array
            if self.rope_dims > 0:
                keys = cache.rotated_keys()
                keys_rotated = True
            else:
                keys = cache.keys
        else:
            keys = cache.keys
            key_positions = cache.renumbered_positions()
            query_positions = np.asarray(cache.length - 1)
        self._step_lengths.append(cache.length)
        return keys, cache.values, key_positions, query_positions, None, keys_rotated

    def observe(self, layer_idx: int, logits: np.ndarray, probs: np.ndarray) -> None:
        """Run the policy on the step's attention tensors; apply evictions."""
        self._driver.observe(
            self.policy,
            layer_idx,
            logits,
            probs,
            self.generation_step + 1,
            lambda idx: self.caches[idx].retained_original_positions(),
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
    # speculative verify phase
    # ------------------------------------------------------------------
    def verify_views(self) -> list[VerifyView]:
        """Per-layer views of the sequence as virtual batch rows, for one
        verify pass starting at the current position (see
        :class:`~repro.kvcache.verify.VerifyView`).  Block writes go through
        :meth:`LayerKVCache.extend` so the dense views are invalidated."""
        if self.caches[0].batch_size != 1:
            raise RuntimeError("the verify path decodes one sequence at a time")
        return [
            VerifyView(
                cache.pool,
                cache.tables[0],
                lambda k, v, pos, cache=cache: cache.extend(k[None], v[None], pos[None]),
                self.stats,
                self.current_position,
                self.positional_mode,
                self._rope_table,
            )
            for cache in self.caches
        ]

    def commit_verify(self, n_committed: int, n_appended: int) -> None:
        """Finalize one verify round: roll back the rejected tail and advance.

        The verify pass appended ``n_appended`` KV entries per layer; only the
        first ``n_committed`` correspond to tokens that actually entered the
        committed sequence, so the last ``n_appended - n_committed`` are
        truncated (pages back to the free list via the refcount machinery).
        Position/step counters advance by the committed count, exactly as
        ``n_committed`` sequential ``advance`` calls would.
        """
        drop = n_appended - n_committed
        if drop < 0:
            raise ValueError("cannot commit more tokens than were appended")
        if drop:
            for cache in self.caches:
                cache.truncate(drop)
        self.stats.record_backdated_steps(
            [cache.length for cache in self.caches], n_committed
        )
        self.generation_step += n_committed
        self.current_position += n_committed
        self._step_lengths = []
        self._qpos_array = None

    def release(self) -> None:
        """Return every cached page to the store (drafter teardown)."""
        for cache in self.caches:
            cache.release()
        self.caches = []

    def reorder(self, batch_indices: np.ndarray) -> None:
        """Reorder the batch/beam dimension of every cache and of the policy state."""
        for cache in self.caches:
            cache.reorder(batch_indices)
        self.policy.reorder(batch_indices)

    # ------------------------------------------------------------------
    def _apply_selection(self, layer_idx: int, selection: np.ndarray) -> None:
        cache = self.caches[layer_idx]
        evicted_before = cache.total_evicted
        cache.gather(selection)
        self.stats.total_evicted += cache.total_evicted - evicted_before

    # ------------------------------------------------------------------
    def cache_lengths(self) -> list[int]:
        """Current per-layer cache lengths."""
        return [cache.length for cache in self.caches]

    def total_kv_bytes(self, dtype_bytes: int | None = None) -> int:
        """Current resident KV-cache size across all layers.

        Defaults to the actual storage dtype (see ``LayerKVCache.nbytes``);
        pass ``dtype_bytes`` to model a different deployment dtype.
        """
        return sum(cache.nbytes(dtype_bytes) for cache in self.caches)
