"""The drafter: a cheap proposer of candidate continuations for verification.

A drafter proposes ``k`` tokens per round; the target model verifies them in
one batched pass (see :mod:`repro.speculative.decoder`).  Because greedy
verification recomputes the target's own logits exactly, a drafter can never
change *what* is generated — only the acceptance rate, and with it the
throughput.

:class:`NgramDrafter` is prompt-lookup decoding: propose the continuation of
the most recent matching suffix n-gram in the already-committed context.  No
model pass and no cache pages — drafting is free, so the speedup is bounded
only by how repetitive the target's output is, and a rejected draft needs no
rollback on the drafter's side.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.speculative.config import SpeculationConfig

__all__ = ["NgramDrafter"]


class NgramDrafter:
    """Prompt-lookup drafting: copy the continuation of a repeated n-gram.

    The committed context (prompt + generated tokens) is scanned for the most
    recent earlier occurrence of its own suffix n-gram (longest first,
    ``ngram_max`` down to ``ngram_min``); the tokens that followed that
    occurrence become the draft.  Generation that revisits context — looping
    continuations, quoted spans, structured output — verifies in blocks, and
    a miss costs nothing but a normal decode step.
    """

    def __init__(self, prompt_ids: np.ndarray, config: SpeculationConfig):
        self._history = [int(t) for t in np.asarray(prompt_ids).reshape(-1)]
        self.ngram_max = config.ngram_max
        self.ngram_min = config.ngram_min

    def note_committed(self, tokens: Sequence[int]) -> None:
        """Extend the lookup history with freshly committed tokens."""
        self._history.extend(int(t) for t in tokens)

    def draft(self, k: int, eos_token_id: int | None = None) -> list[int]:
        """Propose up to ``k`` tokens after the history by rolling n-gram
        lookups forward; fewer when the lookup runs dry or proposes
        ``eos_token_id``."""
        if k <= 0:
            return []
        # Roll the lookup forward one token at a time over a virtual history
        # (committed context + draft so far): each step proposes the token
        # that followed the most recent earlier occurrence of the current
        # suffix n-gram.  Rolling — rather than copying a block after one
        # match — keeps drafting through periodic content whose latest match
        # sits flush against the end of the history.
        virtual = np.empty(len(self._history) + k, dtype=np.int64)
        virtual[: len(self._history)] = self._history
        n = len(self._history)
        draft: list[int] = []
        for _ in range(k):
            token = self._lookup_next(virtual[:n])
            if token is None:
                break
            draft.append(token)
            virtual[n] = token
            n += 1
            if eos_token_id is not None and token == eos_token_id:
                break
        return draft

    def _lookup_next(self, history: np.ndarray) -> int | None:
        """Token following the most recent earlier occurrence of the longest
        matching suffix n-gram, or ``None`` when no n-gram recurs."""
        n = history.size
        for m in range(min(self.ngram_max, n - 1), self.ngram_min - 1, -1):
            pattern = history[n - m :]
            windows = np.lib.stride_tricks.sliding_window_view(history, m)
            matches = np.flatnonzero((windows[: n - m] == pattern).all(axis=1))
            if matches.size:
                return int(history[int(matches[-1]) + m])
        return None

    def describe(self) -> dict:
        """Summary of the lookup configuration for results/telemetry."""
        return {
            "drafter": "ngram",
            "ngram_max": self.ngram_max,
            "ngram_min": self.ngram_min,
        }
