"""Model configuration for the NumPy transformer substrate."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Any

import numpy as np

VALID_POSITIONAL = ("rope", "alibi", "learned", "none")
VALID_COMPUTE_DTYPES = ("float32", "float64")


@dataclass
class ModelConfig:
    """Configuration of a decoder-only transformer language model.

    Attributes
    ----------
    vocab_size:
        Number of entries in the token embedding table.
    d_model:
        Width of the residual stream.
    n_layers:
        Number of decoder blocks.
    n_heads:
        Number of attention heads; must divide ``d_model``.
    d_ff:
        Hidden width of the feed-forward block.
    max_seq_len:
        Maximum sequence length the model supports.  For ``learned``
        positional embeddings this bounds the embedding table; for RoPE and
        ALiBi it only bounds precomputed caches.
    positional:
        Positional-encoding family: ``"rope"`` (GPT-J style), ``"alibi"``
        (MPT style), ``"learned"`` (Cerebras-GPT style) or ``"none"``.
    rope_fraction:
        Fraction of each head dimension that is rotated by RoPE (GPT-J uses a
        partial rotary dimension).
    layer_norm_eps:
        Epsilon used by all LayerNorm layers.
    tie_embeddings:
        Whether the LM head shares weights with the token embedding.
    init_std:
        Standard deviation of the Gaussian weight initialization.
    compute_dtype:
        Floating dtype of parameters, activations and KV caches.  The default
        ``"float64"`` is what training and the bit-exactness tests use;
        inference deployments should prefer ``"float32"``, which halves
        memory bandwidth on the decode hot path at a documented (small)
        numerical tolerance.
    """

    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_seq_len: int = 512
    positional: str = "rope"
    rope_fraction: float = 1.0
    layer_norm_eps: float = 1e-5
    tie_embeddings: bool = True
    init_std: float = 0.02
    compute_dtype: str = "float64"
    name: str = "decoder-lm"

    def __post_init__(self) -> None:
        if self.vocab_size <= 0:
            raise ValueError(f"vocab_size must be positive, got {self.vocab_size}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if self.positional not in VALID_POSITIONAL:
            raise ValueError(
                f"positional must be one of {VALID_POSITIONAL}, got {self.positional!r}"
            )
        if not (0.0 < self.rope_fraction <= 1.0):
            raise ValueError("rope_fraction must be in (0, 1]")
        if self.max_seq_len <= 0:
            raise ValueError("max_seq_len must be positive")
        if self.compute_dtype not in VALID_COMPUTE_DTYPES:
            raise ValueError(
                f"compute_dtype must be one of {VALID_COMPUTE_DTYPES}, got {self.compute_dtype!r}"
            )

    @property
    def np_dtype(self) -> np.dtype:
        """The configured compute dtype as a NumPy dtype."""
        return np.dtype(self.compute_dtype)

    @property
    def d_head(self) -> int:
        """Per-head dimension."""
        return self.d_model // self.n_heads

    @property
    def rope_dims(self) -> int:
        """Number of per-head dimensions rotated by RoPE (always even; 0 for
        a model without RoPE positions)."""
        if self.positional != "rope":
            return 0
        dims = int(self.d_head * self.rope_fraction)
        return dims - (dims % 2)

    def n_parameters(self) -> int:
        """Approximate parameter count of a model built from this config."""
        emb = self.vocab_size * self.d_model
        pos = self.max_seq_len * self.d_model if self.positional == "learned" else 0
        per_layer = (
            4 * self.d_model * self.d_model  # q, k, v, o projections
            + 4 * self.d_model  # projection biases
            + 2 * self.d_model * self.d_ff  # feed-forward
            + self.d_ff
            + self.d_model
            + 4 * self.d_model  # two layer norms (gamma + beta)
        )
        final_ln = 2 * self.d_model
        head = 0 if self.tie_embeddings else self.vocab_size * self.d_model
        return emb + pos + self.n_layers * per_layer + final_ln + head

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a plain dictionary (JSON friendly)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ModelConfig":
        """Build a config from :meth:`to_dict` output."""
        return cls(**data)


@dataclass
class GenerationConfig:
    """Decoding-time configuration shared by samplers and beam search.

    Attributes
    ----------
    max_new_tokens:
        Number of tokens generated after the prompt.
    beam_size:
        Beam width; ``1`` means greedy / sampling decoding.
    temperature:
        Softmax temperature used by samplers (not Keyformer's τ); ``0``
        conventionally means greedy decoding (argmax).
    top_k:
        If positive, restrict sampling to the ``top_k`` most likely tokens.
    eos_token_id:
        Optional end-of-sequence token id that terminates generation early.
    length_penalty:
        Beam-search length penalty exponent (>1 favors longer sequences).
    seed:
        Seed for stochastic samplers.
    """

    max_new_tokens: int = 32
    beam_size: int = 1
    temperature: float = 1.0
    top_k: int = 0
    eos_token_id: int | None = None
    length_penalty: float = 1.0
    seed: int = 0
    extras: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        if self.beam_size <= 0:
            raise ValueError("beam_size must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative (0 means greedy)")
