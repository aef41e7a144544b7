"""Pre-LayerNorm decoder block used by :class:`repro.models.transformer.DecoderLM`."""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.models.attention import MultiHeadAttention
from repro.models.config import ModelConfig
from repro.models.layers import LayerNorm, Module
from repro.models.mlp import MLP

__all__ = [
    "DecoderBlock",
    "LayerDecodeCache",
    "BatchedLayerDecodeCache",
]


class BatchedLayerDecodeCache(Protocol):
    """Interface a ragged-batch KV cache must implement for continuous batching.

    Mirrors :class:`LayerDecodeCache`, but every tensor carries one row per
    in-flight sequence and ``attention_view`` additionally returns per-row
    live lengths (rows are padded to the longest sequence).  The concrete
    implementations are :class:`repro.kvcache.batch.BatchedLayerView` and,
    for the rows-of-one-sequence batch of speculative verification,
    :class:`repro.kvcache.verify.VerifyView`.
    """

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Store each sequence's new key/value (shape ``(batch, heads, d_head)``)."""

    def attention_view(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
        """Return ``(keys, values, key_positions, query_positions, lengths,
        keys_rotated)`` — padded to the longest row; ``lengths[b]`` gives row
        ``b``'s live entry count and ``query_positions`` is per-row."""

    def observe(self, logits: np.ndarray, probs: np.ndarray) -> None:
        """Feed padded attention logits/probabilities to per-sequence policies."""


class LayerDecodeCache(Protocol):
    """Interface a per-layer KV cache must implement for incremental decoding.

    The concrete implementation lives in :mod:`repro.kvcache`; decoder blocks
    only rely on this protocol so the model substrate stays independent of the
    eviction policies layered on top of it.
    """

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Store the key/value of the newly produced token."""

    def attention_view(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
        """Return ``(keys, values, key_positions, query_positions, keys_rotated)``.

        ``keys_rotated`` signals that ``keys`` already carry RoPE at the given
        key positions (incrementally maintained by the cache), so the
        attention step must not rotate them again.
        """

    def observe(self, logits: np.ndarray, probs: np.ndarray) -> None:
        """Feed attention logits/probabilities to the eviction policy."""


class DecoderBlock(Module):
    """Pre-LN transformer decoder block: attention + feed-forward residuals."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.ln_attn = LayerNorm(config.d_model, eps=config.layer_norm_eps)
        self.attn = MultiHeadAttention(config, rng)
        self.ln_mlp = LayerNorm(config.d_model, eps=config.layer_norm_eps)
        self.mlp = MLP(config, rng)

    # ------------------------------------------------------------------
    # training path
    # ------------------------------------------------------------------
    def forward(
        self,
        x: np.ndarray,
        positions: np.ndarray | None = None,
        store_attention: bool = False,
    ) -> np.ndarray:
        """Full-sequence forward pass: ``x + attn(ln(x))`` then ``x + mlp(ln(x))``."""
        attn_out = self.attn(self.ln_attn(x), positions=positions, store_attention=store_attention)
        x = x + attn_out
        mlp_out = self.mlp(self.ln_mlp(x))
        return x + mlp_out

    def __call__(self, x: np.ndarray, **kwargs) -> np.ndarray:
        return self.forward(x, **kwargs)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Backward pass through both residual branches."""
        dmlp_in = self.mlp.backward(dout)
        dx = dout + self.ln_mlp.backward(dmlp_in)
        dattn_in = self.attn.backward(dx)
        return dx + self.ln_attn.backward(dattn_in)

    # ------------------------------------------------------------------
    # chunked prefill path (prefix sharing)
    # ------------------------------------------------------------------
    def prefill_chunk(
        self,
        x: np.ndarray,
        prefix_keys: np.ndarray,
        prefix_values: np.ndarray,
        prefix_len: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Process a prompt-suffix chunk attending over a cached prefix.

        ``x`` has shape ``(1, S, d_model)``.  Returns ``(hidden, k_raw, v)``
        where ``k_raw``/``v`` are the suffix's cache-seeding tensors.  Every
        row is bit-identical to the same row of :meth:`forward` on the full
        prompt (see :meth:`MultiHeadAttention.attend_prefill`).
        """
        a_in = self.ln_attn(x)
        attn_out, k_raw, v = self.attn.attend_prefill(
            a_in, prefix_keys, prefix_values, prefix_len
        )
        x = x + attn_out
        return x + self.mlp(self.ln_mlp(x)), k_raw, v

    # ------------------------------------------------------------------
    # incremental decode path
    # ------------------------------------------------------------------
    def decode_step(self, x: np.ndarray, layer_cache: LayerDecodeCache) -> np.ndarray:
        """Process one token through the block using a per-layer KV cache.

        ``x`` has shape ``(batch, d_model)``.  The cache appends the new
        key/value, exposes the retained keys/values with their positions, and
        observes the attention logits/probabilities so its eviction policy
        (Keyformer, H2O, window, ...) can update token scores and evict.
        """
        a_in = self.ln_attn(x)
        q, k, v = self.attn.project_qkv(a_in)
        layer_cache.append(k, v)
        keys, values, key_positions, query_positions, keys_rotated = (
            layer_cache.attention_view()
        )
        attn_out, logits, probs = self.attn.attend_step(
            q, keys, values, query_positions, key_positions, keys_rotated=keys_rotated
        )
        layer_cache.observe(logits, probs)
        x = x + attn_out
        return x + self.mlp(self.ln_mlp(x))

    def decode_step_batch(
        self, x: np.ndarray, layer_cache: BatchedLayerDecodeCache
    ) -> np.ndarray:
        """Process one token per in-flight sequence through the block.

        ``x`` has shape ``(batch, d_model)`` with one row per sequence; each
        sequence attends over its own (ragged) cache row.  At float64 the
        projections use the row-exact kernels, making every row bit-identical
        to :meth:`decode_step` on that sequence alone; at float32 the
        projections run as one batched BLAS matmul (documented tolerance).
        """
        exact = x.dtype == np.float64
        a_in = self.ln_attn(x)
        if exact:
            q, k, v = self.attn.project_qkv_rows(a_in)
        else:
            q, k, v = self.attn.project_qkv(a_in)
        layer_cache.append(k, v)
        keys, values, key_positions, query_positions, lengths, keys_rotated = (
            layer_cache.attention_view()
        )
        attn_out, logits, probs = self.attn.attend_step_batch(
            q,
            keys,
            values,
            query_positions,
            key_positions,
            lengths,
            keys_rotated=keys_rotated,
        )
        layer_cache.observe(logits, probs)
        x = x + attn_out
        h = self.ln_mlp(x)
        return x + (self.mlp.forward_rows(h) if exact else self.mlp(h))
