"""Vocabulary and special-token handling shared by all tokenizers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["SpecialTokens", "Vocabulary"]


@dataclass(frozen=True)
class SpecialTokens:
    """Names of the special tokens every vocabulary contains."""

    pad: str = "<pad>"
    bos: str = "<bos>"
    eos: str = "<eos>"
    unk: str = "<unk>"
    sep: str = "<sep>"

    def as_tuple(self) -> tuple[str, ...]:
        return (self.pad, self.bos, self.eos, self.unk, self.sep)


class Vocabulary:
    """Bidirectional mapping between token strings and integer ids.

    Special tokens always occupy the first ids (pad=0, bos=1, eos=2, unk=3,
    sep=4) so models can rely on stable ids regardless of corpus content.
    """

    def __init__(self, tokens: Iterable[str] = (), specials: SpecialTokens | None = None):
        self.specials = specials or SpecialTokens()
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        for token in self.specials.as_tuple():
            self._add(token)
        for token in tokens:
            self.add(token)

    # ------------------------------------------------------------------
    def _add(self, token: str) -> int:
        idx = len(self._id_to_token)
        self._token_to_id[token] = idx
        self._id_to_token.append(token)
        return idx

    def add(self, token: str) -> int:
        """Add ``token`` if not present; return its id."""
        if token in self._token_to_id:
            return self._token_to_id[token]
        return self._add(token)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    # ------------------------------------------------------------------
    @property
    def pad_id(self) -> int:
        return self._token_to_id[self.specials.pad]

    @property
    def bos_id(self) -> int:
        return self._token_to_id[self.specials.bos]

    @property
    def eos_id(self) -> int:
        return self._token_to_id[self.specials.eos]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[self.specials.unk]

    @property
    def sep_id(self) -> int:
        return self._token_to_id[self.specials.sep]

    # ------------------------------------------------------------------
    def token_to_id(self, token: str) -> int:
        """Map a token to its id; unknown tokens map to ``unk_id``."""
        return self._token_to_id.get(token, self.unk_id)

    def id_to_token(self, idx: int) -> str:
        """Map an id back to its token string."""
        if not (0 <= idx < len(self._id_to_token)):
            raise IndexError(f"token id {idx} out of range [0, {len(self._id_to_token)})")
        return self._id_to_token[idx]

    def encode_tokens(self, tokens: Sequence[str]) -> list[int]:
        """Encode a pre-tokenized sequence of strings."""
        return [self.token_to_id(t) for t in tokens]

    def decode_ids(self, ids: Sequence[int], skip_special: bool = True) -> list[str]:
        """Decode ids back to token strings, optionally dropping specials."""
        special_ids = {self.pad_id, self.bos_id, self.eos_id, self.sep_id}
        out = []
        for idx in ids:
            idx = int(idx)
            if skip_special and idx in special_ids:
                continue
            out.append(self.id_to_token(idx))
        return out
