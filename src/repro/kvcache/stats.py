"""Cache occupancy and data-movement accounting.

The statistics collected here feed the analytical performance model
(:mod:`repro.perfmodel`): the number of KV entries read at every decoding
step determines the KV-cache data movement that dominates generation latency
in the paper's Figure 1/10 analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CacheStats"]


@dataclass
class CacheStats:
    """Aggregated statistics over one generation run."""

    n_layers: int = 0
    n_heads: int = 0
    d_head: int = 0
    batch_size: int = 0
    prompt_len: int = 0
    #: cache length (per layer, per step) observed when attending
    lengths_per_step: list[list[int]] = field(default_factory=list)
    total_appended: int = 0
    total_evicted: int = 0
    #: Actual key+value storage bytes per cached token (all heads), as
    #: reported by the backing pool's ``kv_token_nbytes`` — the storage
    #: dtype's size for full-precision pools, int8 codes plus amortized
    #: per-page scales for quantized ones.  0 means "not attached to a
    #: store", in which case the ``*_actual`` readings are 0.
    kv_token_bytes: float = 0.0

    def record_step(self, lengths: list[int]) -> None:
        """Record the per-layer cache length used at one decoding step."""
        self.lengths_per_step.append(list(lengths))

    def record_backdated_steps(self, final_lengths: list[int], n_steps: int) -> None:
        """Record ``n_steps`` steps leading up to ``final_lengths``.

        The speculative verify commit records its accepted tokens after the
        fact: a no-eviction cache held exactly ``n_steps - 1 - i`` fewer
        tokens at committed step ``i`` than it does now.  Shared by the solo
        and batched managers so the back-dating arithmetic lives once.
        """
        for i in range(n_steps):
            self.record_step(
                [length - (n_steps - 1 - i) for length in final_lengths]
            )

    # ------------------------------------------------------------------
    @property
    def n_steps(self) -> int:
        """Number of decoding steps recorded so far."""
        return len(self.lengths_per_step)

    def mean_cache_length(self) -> float:
        """Average number of cached tokens attended per layer per step."""
        if not self.lengths_per_step:
            return 0.0
        return float(np.mean([np.mean(step) for step in self.lengths_per_step]))

    def peak_cache_length(self) -> int:
        """Largest per-layer cache length observed."""
        if not self.lengths_per_step:
            return 0
        return int(max(max(step) for step in self.lengths_per_step))

    def kv_entries_read(self) -> int:
        """Total KV entries read across all layers and steps (per batch element)."""
        return int(sum(sum(step) for step in self.lengths_per_step))

    def kv_bytes_read(self, dtype_bytes: int = 2) -> int:
        """Total bytes of KV data moved during generation (keys + values)."""
        per_entry = 2 * self.n_heads * self.d_head * dtype_bytes
        return self.kv_entries_read() * per_entry * max(self.batch_size, 1)

    def kv_bytes_read_actual(self) -> int:
        """Total bytes of KV data moved during generation at the *actual*
        storage cost per token (0 when no store was attached)."""
        return int(self.kv_entries_read() * self.kv_token_bytes * max(self.batch_size, 1))

    def peak_kv_bytes_actual(self) -> int:
        """Peak resident KV bytes at the actual storage cost per token
        (0 when no store was attached)."""
        return int(
            self.peak_cache_length()
            * self.kv_token_bytes
            * self.n_layers
            * max(self.batch_size, 1)
        )
