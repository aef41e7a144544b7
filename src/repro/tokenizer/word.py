"""Deterministic word-level tokenizer used by the synthetic datasets."""

from __future__ import annotations

import re
from typing import Iterable, Sequence

import numpy as np

from repro.tokenizer.vocab import Vocabulary

__all__ = ["WordTokenizer"]

_TOKEN_RE = re.compile(r"[a-zA-Z0-9_]+|[^\sa-zA-Z0-9_]")


class WordTokenizer:
    """Whitespace/punctuation word tokenizer with a fixed vocabulary.

    The synthetic corpora in :mod:`repro.data` are generated from a closed
    vocabulary, so a word-level tokenizer is lossless for them while keeping
    sequence lengths short enough for laptop-scale training.
    """

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab

    # ------------------------------------------------------------------
    @staticmethod
    def word_split(text: str) -> list[str]:
        """Split raw text into word/punctuation tokens (lowercased)."""
        return _TOKEN_RE.findall(text.lower())

    @classmethod
    def from_corpus(cls, texts: Iterable[str], max_vocab: int | None = None) -> "WordTokenizer":
        """Build a tokenizer whose vocabulary covers ``texts``.

        Tokens are added in frequency order (ties broken alphabetically) so the
        vocabulary is deterministic for a given corpus.
        """
        counts: dict[str, int] = {}
        for text in texts:
            for token in cls.word_split(text):
                counts[token] = counts.get(token, 0) + 1
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if max_vocab is not None:
            ordered = ordered[:max_vocab]
        vocab = Vocabulary(token for token, _ in ordered)
        return cls(vocab)

    # ------------------------------------------------------------------
    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def encode(self, text: str, add_bos: bool = False, add_eos: bool = False) -> list[int]:
        """Encode raw text to token ids."""
        ids = self.vocab.encode_tokens(self.word_split(text))
        if add_bos:
            ids = [self.vocab.bos_id] + ids
        if add_eos:
            ids = ids + [self.vocab.eos_id]
        return ids

    def decode(self, ids: Sequence[int] | np.ndarray, skip_special: bool = True) -> str:
        """Decode token ids back to a whitespace-joined string."""
        tokens = self.vocab.decode_ids([int(i) for i in ids], skip_special=skip_special)
        return " ".join(tokens)
