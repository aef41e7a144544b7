"""Next-token selection strategies."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

__all__ = ["Sampler", "GreedySampler", "sample_rows"]


class Sampler(ABC):
    """Maps next-token logits ``(batch, vocab)`` to token ids ``(batch,)``."""

    @abstractmethod
    def __call__(self, logits: np.ndarray) -> np.ndarray:
        ...


class GreedySampler(Sampler):
    """Deterministic argmax decoding (used by the accuracy experiments)."""

    def __call__(self, logits: np.ndarray) -> np.ndarray:
        logits = np.atleast_2d(np.asarray(logits))
        return np.argmax(logits, axis=-1).astype(np.int64)


def sample_rows(samplers: Sequence[Sampler], logits: np.ndarray) -> np.ndarray:
    """Sample one token per row, each row with its own sampler.

    Used by the continuous-batching engine: every in-flight request carries
    its own sampler (greedy unless the caller passed one), so each row's
    token is the one that request would sample alone.  The all-greedy case
    runs as a single batched argmax — ``np.argmax`` reduces each row
    independently, so the batched call matches per-row calls bit for bit.
    """
    logits = np.atleast_2d(np.asarray(logits))
    if logits.shape[0] != len(samplers):
        raise ValueError(
            f"got {logits.shape[0]} logit rows for {len(samplers)} samplers"
        )
    if all(type(s) is GreedySampler for s in samplers):
        return np.argmax(logits, axis=-1).astype(np.int64)
    out = np.empty(len(samplers), dtype=np.int64)
    for row, sampler in enumerate(samplers):
        out[row] = sampler(logits[row : row + 1])[0]
    return out
