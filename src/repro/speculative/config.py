"""Configuration of the draft-then-verify speculative decode loop."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SpeculationConfig"]


@dataclass(frozen=True)
class SpeculationConfig:
    """How the speculative decoder drafts and verifies.

    Speculative decoding never changes *what* is generated — greedy output is
    bit-identical to vanilla greedy decoding (the verify pass recomputes the
    target logits exactly) — only how many target passes it takes.  Drafts
    come from prompt lookup (:class:`~repro.speculative.drafter.NgramDrafter`):
    the continuation of the most recent matching n-gram in the
    already-committed context.  No model pass at all — drafting is free, so
    throughput is bounded only by acceptance.

    Parameters
    ----------
    k:
        Draft tokens proposed per round; each round commits between 1 and
        ``k + 1`` tokens (accepted prefix plus one token from the verify
        logits).
    ngram_max, ngram_min:
        Longest/shortest suffix n-gram the lookup drafter tries to match.
    """

    k: int = 4
    ngram_max: int = 3
    ngram_min: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("speculation k must be >= 1")
        if self.ngram_min < 1 or self.ngram_max < self.ngram_min:
            raise ValueError("need 1 <= ngram_min <= ngram_max")
