"""Pre-LayerNorm decoder block used by :class:`repro.models.transformer.DecoderLM`."""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.models.attention import MultiHeadAttention
from repro.models.config import ModelConfig
from repro.models.layers import LayerNorm, Module
from repro.models.mlp import MLP

__all__ = ["DecoderBlock", "DecodeCache"]


class DecodeCache(Protocol):
    """Interface a per-layer KV cache implements for incremental decoding.

    Every tensor carries one row per sequence; rows may be padded to the
    longest one.  The concrete implementations live in :mod:`repro.kvcache`
    — :class:`~repro.kvcache.batch.BatchedLayerView` (engine, solo and beam
    rows) and :class:`~repro.kvcache.verify.VerifyView` (the
    rows-of-one-sequence batch of speculative verification) — so the model
    substrate stays independent of the eviction policies layered on top of
    it.
    """

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Store each sequence's new key/value (shape ``(batch, heads, d_head)``)."""

    def attention_view(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
        """Return ``(keys, values, key_positions, query_positions, lengths,
        keys_rotated)``: ``query_positions[b]`` and ``lengths[b]`` (both
        ``(batch,)``) are row ``b``'s query position and live entry count;
        ``keys_rotated`` says ``keys`` already carry RoPE at
        ``key_positions``, so the attention step must not rotate them again."""

    def observe(self, logits: np.ndarray, probs: np.ndarray) -> None:
        """Feed the step's attention logits/probabilities to the eviction policies."""


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
        prompt_len: int | None = None,
        scorers: Sequence[tuple] = (),
        workspace: dict | None = None,
        keep: int = 0,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Process prompt rows ``[P, P + S)`` attending over a cached prefix.

        ``x`` has shape ``(B, S, d_model)``.  Returns ``(hidden, (k_raw,
        v))`` with the hidden rows ``[keep, S)`` only, ``(B, S - keep,
        d_model)`` (see :meth:`MultiHeadAttention.attend_prefill`).
        """
        a_in = self.ln_attn.apply(x)
        attn_out, kv = self.attn.attend_prefill(
            a_in, prefix_keys, prefix_values, prefix_len, prompt_len, scorers, workspace, keep
        )
        x = x[:, keep:] + attn_out
        return x + self.mlp.apply(self.ln_mlp.apply(x)), kv

    # ------------------------------------------------------------------
    # incremental decode path
    # ------------------------------------------------------------------
    def decode_step_batch(self, x: np.ndarray, layer_cache: DecodeCache) -> np.ndarray:
        """Process one token per sequence through the block.

        ``x`` has shape ``(batch, d_model)`` with one row per sequence; each
        sequence attends over its own (possibly padded) cache row, and the
        cache's policies observe the attention logits/probabilities and may
        evict.  At float64 the projections use the row-exact kernels, making
        every row bit-identical to that sequence decoded alone; at float32
        they run as one batched BLAS matmul (documented tolerance).
        """
        exact = x.dtype == np.float64
        a_in = self.ln_attn.apply(x)
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
        h = self.ln_mlp.apply(x)
        return x + (self.mlp.forward_rows(h) if exact else self.mlp.apply(h))
