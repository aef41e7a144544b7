"""Speculative verification as a ragged-batch decode step over virtual rows."""

from __future__ import annotations

import numpy as np

from repro.kvcache.paged import BlockPool, PageTable
from repro.kvcache.stats import CacheStats
from repro.models.positional import RopeTable

__all__ = ["VerifyView"]


class VerifyView:
    """One layer of one sequence as ``S`` virtual rows of a ragged batch.

    Scoring ``S`` consecutive tokens of a sequence is
    :meth:`repro.models.transformer.DecoderLM.decode_step_batch` over ``S``
    rows that all read the *same* cache: row ``i`` is the sequence as it
    stood after tokens ``0..i`` were appended (``lengths[i] = L-S+1+i``).
    This view implements the model's ``DecodeCache`` protocol
    that way, so verification runs the batched kernel unmodified and
    inherits its batched-equals-solo bit contract.

    The block is written into ``table`` through ``pool``; ``start`` is the
    original position of the block's first token, ``rope_table`` the model's
    RoPE table (used under renumbered positions, where the pool keeps raw
    keys).  Sound only for a no-eviction target: nothing may shrink the cache
    between the block append and the manager's ``commit_verify_row``.
    """

    def __init__(
        self,
        pool: BlockPool,
        table: PageTable,
        stats: CacheStats,
        start: int,
        positional_mode: str,
        rope_table: RopeTable | None,
    ):
        self.pool = pool
        self.table = table
        self.stats = stats
        self.start = start
        self.positional_mode = positional_mode
        self.rope_table = rope_table
        self._n_rows = 0

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append the block's ``(S, heads, d_head)`` keys/values in one write.

        Tokens land at original positions ``start .. start + S``; the pool
        rotates eagerly per token, bit-identical to ``S`` single appends.
        """
        s = k.shape[0]
        positions = np.arange(self.start, self.start + s)
        self.pool.extend(
            self.table,
            k.transpose(1, 0, 2),
            v.transpose(1, 0, 2),
            np.broadcast_to(positions, (k.shape[1], s)),
        )
        self.stats.total_appended += s
        self._n_rows = s

    def attention_view(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
        """``(keys, values, key_positions, query_positions, lengths,
        keys_rotated)`` with the sequence's tensors broadcast (stride 0, no
        copy) over the ``S`` rows and ``lengths = L-S+1 .. L``."""
        pool, table, s = self.pool, self.table, self._n_rows
        length = table.length
        lengths = np.arange(length - s + 1, length + 1)
        if self.positional_mode == "original":
            key_positions = pool.positions_view(table)
            query_positions = np.arange(self.start, self.start + s)
            keys_rotated = pool.rope_dims > 0
            keys = pool.rotated_view(table) if keys_rotated else pool.keys_view(table)
        else:
            key_positions = np.broadcast_to(np.arange(length), (pool.n_heads, length))
            query_positions = lengths - 1
            keys = pool.keys_view(table)
            keys_rotated = self.rope_table is not None
            if keys_rotated:
                # Once for all rows, rather than the kernel rotating S
                # materialized copies of the broadcast view.
                keys = self.rope_table.rotate(keys, key_positions)
        values = pool.values_view(table)
        return (
            np.broadcast_to(keys, (s,) + keys.shape),
            np.broadcast_to(values, (s,) + values.shape),
            np.broadcast_to(key_positions, (s,) + key_positions.shape),
            query_positions,
            lengths,
            keys_rotated,
        )

    def observe(self, logits: np.ndarray, probs: np.ndarray) -> None:
        """No-op: the verify target is full attention, which never evicts."""
