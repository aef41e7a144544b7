"""Decoder-only language model built from the NumPy substrate layers."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.models import tensor_ops as ops
from repro.models.block import (
    BatchedLayerDecodeCache,
    DecoderBlock,
    LayerDecodeCache,
)
from repro.models.config import ModelConfig
from repro.models.layers import Embedding, LayerNorm, Linear, Module, dot_rows

__all__ = ["DecoderLM"]


class DecoderLM(Module):
    """Autoregressive decoder-only transformer language model.

    The model supports three positional-encoding families via
    :class:`ModelConfig.positional`:

    * ``"rope"`` — rotary embeddings applied inside attention (GPT-J family);
    * ``"alibi"`` — linear attention biases (MPT family);
    * ``"learned"`` — absolute position embeddings added to token embeddings
      (Cerebras-GPT family).

    Two execution paths are provided:

    * :meth:`forward` / :meth:`backward` / :meth:`loss` — full-sequence
      training (and prompt processing);
    * :meth:`embed_step` + :meth:`DecoderBlock.decode_step` +
      :meth:`lm_logits` — incremental decoding with a pluggable KV cache.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)

        self.token_embedding = Embedding(config.vocab_size, config.d_model, rng, config.init_std)
        self.position_embedding: Embedding | None = None
        if config.positional == "learned":
            self.position_embedding = Embedding(
                config.max_seq_len, config.d_model, rng, config.init_std
            )
        self.blocks = [DecoderBlock(config, rng) for _ in range(config.n_layers)]
        self.ln_final = LayerNorm(config.d_model, eps=config.layer_norm_eps)
        self.lm_head: Linear | None = None
        if not config.tie_embeddings:
            self.lm_head = Linear(config.d_model, config.vocab_size, rng, config.init_std)

        if config.np_dtype != np.float64:
            # Weights are drawn in float64 for seed-stable initialization,
            # then cast once so every activation downstream stays in the
            # configured compute dtype.
            self.to_dtype(config.np_dtype)

        self._final_hidden: np.ndarray | None = None

    # ------------------------------------------------------------------
    # embedding / head helpers
    # ------------------------------------------------------------------
    def embed(self, token_ids: np.ndarray, positions: np.ndarray | None = None) -> np.ndarray:
        """Embed a batch of token sequences: ``(B, T)`` -> ``(B, T, d_model)``."""
        token_ids = np.asarray(token_ids)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        h = self.token_embedding(token_ids)
        if self.position_embedding is not None:
            if positions is None:
                positions = np.arange(token_ids.shape[1])
            h = h + self.position_embedding(np.asarray(positions))
        return h

    def embed_step(self, token_ids: np.ndarray, positions: np.ndarray | int) -> np.ndarray:
        """Embed a single decoding step: ``(B,)`` token ids -> ``(B, d_model)``."""
        token_ids = np.asarray(token_ids).reshape(-1)
        h = self.token_embedding(token_ids)
        if self.position_embedding is not None:
            pos = np.asarray(positions).reshape(-1)
            pos = np.broadcast_to(pos, token_ids.shape)
            pos = np.minimum(pos, self.config.max_seq_len - 1)
            h = h + self.position_embedding(pos)
        return h

    def lm_logits(self, hidden: np.ndarray) -> np.ndarray:
        """Project hidden states to vocabulary logits."""
        if self.lm_head is not None:
            return self.lm_head(hidden)
        weight = self.token_embedding.params["weight"]
        if hidden.ndim == 3:
            # Sequence path (prompt forward / chunked prefill): BLAS GEMM
            # rows over a *contiguous* B are bit-stable when leading rows are
            # removed, while the transposed view hits a strided small-M
            # kernel whose reduction order depends on the row count — which
            # would break the prefix-sharing invariant that a suffix chunk
            # reproduces the full forward's rows exactly.  The contiguous
            # copy is bit-identical to the view at any full-sequence length
            # (pinned by the golden tests) and is rebuilt per call so
            # in-place weight updates during training are always seen.
            return hidden @ np.ascontiguousarray(weight.T)
        return hidden @ weight.T

    # ------------------------------------------------------------------
    # training / prompt processing path
    # ------------------------------------------------------------------
    def forward(
        self,
        token_ids: np.ndarray,
        positions: np.ndarray | None = None,
        store_attention: bool = False,
    ) -> np.ndarray:
        """Full-sequence forward pass returning logits ``(B, T, vocab)``.

        When ``store_attention`` is true every attention layer keeps its
        post-softmax probabilities in ``block.attn.last_attention`` for
        analysis and for prompt-phase score accumulation.
        """
        token_ids = np.asarray(token_ids)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        if token_ids.shape[1] > self.config.max_seq_len and self.config.positional == "learned":
            raise ValueError(
                f"sequence length {token_ids.shape[1]} exceeds max_seq_len "
                f"{self.config.max_seq_len} for learned positional embeddings"
            )
        h = self.embed(token_ids, positions=positions)
        for block in self.blocks:
            h = block(h, positions=positions, store_attention=store_attention)
        h = self.ln_final(h)
        self._final_hidden = h
        return self.lm_logits(h)

    def __call__(self, token_ids: np.ndarray, **kwargs) -> np.ndarray:
        return self.forward(token_ids, **kwargs)

    def loss(
        self, token_ids: np.ndarray, targets: np.ndarray, ignore_index: int = -100
    ) -> tuple[float, np.ndarray]:
        """Compute mean cross-entropy and the gradient w.r.t. the logits.

        ``targets`` must have the same shape as ``token_ids``; positions equal
        to ``ignore_index`` are excluded from the loss (used to mask prompt
        tokens when only the summary/response should be learned).
        """
        logits = self.forward(token_ids)
        b, t, v = logits.shape
        loss, dlogits = ops.cross_entropy(
            logits.reshape(b * t, v), np.asarray(targets).reshape(b * t), ignore_index
        )
        return loss, dlogits.reshape(b, t, v)

    def backward(self, dlogits: np.ndarray) -> None:
        """Backpropagate from the vocabulary logits through the whole model."""
        if self._final_hidden is None:
            raise RuntimeError("backward called before forward")
        if self.lm_head is not None:
            dh = self.lm_head.backward(dlogits)
        else:
            weight = self.token_embedding.params["weight"]
            b, t, v = dlogits.shape
            dh = dlogits @ weight
            dweight = dlogits.reshape(b * t, v).T @ self._final_hidden.reshape(b * t, -1)
            self.token_embedding.grads["weight"] += dweight
        dh = self.ln_final.backward(dh)
        for block in reversed(self.blocks):
            dh = block.backward(dh)
        if self.position_embedding is not None:
            # The positional embedding was broadcast-added over the batch, so
            # its gradient is the sum of dh over the batch dimension.
            self.position_embedding.backward(dh.sum(axis=0))
        self.token_embedding.backward(dh)

    def train_step_gradients(
        self, token_ids: np.ndarray, targets: np.ndarray, ignore_index: int = -100
    ) -> float:
        """Convenience wrapper: zero grads, forward, loss, backward; return loss."""
        self.zero_grad()
        loss, dlogits = self.loss(token_ids, targets, ignore_index=ignore_index)
        self.backward(dlogits)
        return loss

    # ------------------------------------------------------------------
    # chunked prefill path (prefix sharing)
    # ------------------------------------------------------------------
    def forward_suffix(
        self,
        suffix_ids: np.ndarray,
        prefix_kv: Sequence[tuple[np.ndarray, np.ndarray]],
        prefix_len: int,
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """Prompt forward for a suffix chunk over cached prefix KV.

        ``suffix_ids`` has shape ``(1, S)`` with ``S >= 2`` (the bit-stability
        floor of the chunked projections); ``prefix_kv`` holds one
        ``(keys_for_attention, values)`` pair per layer, shape ``(1, H, P, d)``
        (keys RoPE-rotated at original positions for RoPE models, raw
        otherwise).  Returns the suffix logits ``(1, S, vocab)`` — bit-equal
        to the corresponding rows of :meth:`forward` on the full prompt —
        and the per-layer ``(k_raw, v)`` suffix tensors that seed the cache.

        Attention maps are *not* stored: the engine only takes this path for
        eviction policies that never read prompt attention values.
        """
        suffix_ids = np.asarray(suffix_ids)
        if suffix_ids.ndim == 1:
            suffix_ids = suffix_ids[None, :]
        s = suffix_ids.shape[1]
        if s < 2:
            raise ValueError(
                f"chunked prefill needs a suffix of >= 2 tokens, got {s} "
                "(cap the shared prefix at prompt_len - 2)"
            )
        if len(prefix_kv) != len(self.blocks):
            raise ValueError(
                f"expected {len(self.blocks)} layers of prefix KV, got {len(prefix_kv)}"
            )
        positions = np.arange(prefix_len, prefix_len + s)
        h = self.embed(suffix_ids, positions=positions)
        suffix_kv: list[tuple[np.ndarray, np.ndarray]] = []
        for block, (prefix_keys, prefix_values) in zip(self.blocks, prefix_kv):
            h, k_raw, v = block.prefill_chunk(h, prefix_keys, prefix_values, prefix_len)
            suffix_kv.append((k_raw, v))
        h = self.ln_final(h)
        return self.lm_logits(h), suffix_kv

    # ------------------------------------------------------------------
    # incremental decode path
    # ------------------------------------------------------------------
    def decode_step(
        self,
        token_ids: np.ndarray,
        positions: np.ndarray | int,
        layer_caches: Sequence[LayerDecodeCache],
    ) -> np.ndarray:
        """Run one decoding step through all layers using per-layer caches.

        Returns the vocabulary logits for the new token, shape ``(B, vocab)``.
        """
        if len(layer_caches) != len(self.blocks):
            raise ValueError(
                f"expected {len(self.blocks)} layer caches, got {len(layer_caches)}"
            )
        h = self.embed_step(token_ids, positions)
        for block, cache in zip(self.blocks, layer_caches):
            h = block.decode_step(h, cache)
        h = self.ln_final(h)
        return self.lm_logits(h)

    def decode_step_batch(
        self,
        token_ids: np.ndarray,
        positions: np.ndarray,
        layer_caches: Sequence[BatchedLayerDecodeCache],
    ) -> np.ndarray:
        """One decoding step for a ragged batch of independent sequences.

        ``token_ids`` and ``positions`` have shape ``(batch,)`` — each
        sequence contributes one token at its own position.  Embedding,
        layer norms and activations are row-independent; projections use the
        row-exact kernels at float64 — so each row of the returned logits
        ``(batch, vocab)`` is bit-identical to :meth:`decode_step` run on
        that sequence alone.  At float32, projections run fully batched.
        """
        if len(layer_caches) != len(self.blocks):
            raise ValueError(
                f"expected {len(self.blocks)} layer caches, got {len(layer_caches)}"
            )
        h = self.embed_step(token_ids, positions)
        for block, cache in zip(self.blocks, layer_caches):
            h = block.decode_step_batch(h, cache)
        h = self.ln_final(h)
        if h.dtype == np.float64:
            return self.lm_logits_rows(h)
        return self.lm_logits(h)

    def lm_logits_rows(self, hidden: np.ndarray) -> np.ndarray:
        """Row-exact LM head for 2-D hidden states (bit-parity decode path)."""
        if self.lm_head is not None:
            return self.lm_head.forward_rows(hidden)
        return dot_rows(hidden, self.token_embedding.params["weight"].T)

    def take_prompt_tensors(self) -> tuple[list, list[np.ndarray], list[np.ndarray]]:
        """Per-layer ``(k_raw, v)`` pairs, attention maps and masked logits of
        the last ``forward(store_attention=True)``, handed over: every layer
        forgets its copies (:meth:`MultiHeadAttention.take_stored`), so the
        caller's references are the only ones."""
        kv, attn, scores = zip(*(block.attn.take_stored() for block in self.blocks))
        return list(kv), list(attn), list(scores)

    def collect_attention(self) -> list[np.ndarray]:
        """Return the stored attention maps of every layer (after a forward with
        ``store_attention=True``)."""
        maps = []
        for block in self.blocks:
            if block.attn.last_attention is None:
                raise RuntimeError("forward(store_attention=True) has not been run")
            maps.append(block.attn.last_attention)
        return maps
