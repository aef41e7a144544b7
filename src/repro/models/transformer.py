"""Decoder-only language model built from the NumPy substrate layers."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.models import tensor_ops as ops
from repro.models.attention import GEMM_ROW_FLOOR
from repro.models.block import DecodeCache, DecoderBlock
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

    Three execution paths are provided:

    * :meth:`forward` / :meth:`backward` / :meth:`loss` — full-sequence
      training (and attention analysis);
    * :meth:`forward_suffix` — the inference prompt pass, whole or chunked;
    * :meth:`decode_step_batch` — incremental decoding with a pluggable KV
      cache, for one sequence or a ragged batch.
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
        token_ids, positions = self._embed_inputs(token_ids, positions)
        h = self.token_embedding.apply(token_ids)
        return h if positions is None else h + self.position_embedding.apply(positions)

    def _embed_inputs(self, token_ids, positions) -> tuple[np.ndarray, np.ndarray | None]:
        """``(B, T)`` ids and a learned position embedding's checked positions."""
        token_ids = np.asarray(token_ids)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        if self.position_embedding is None:
            return token_ids, None
        positions = np.arange(token_ids.shape[1]) if positions is None else positions
        if np.max(positions, initial=0) >= self.config.max_seq_len:
            raise ValueError(
                f"position {np.max(positions)} exceeds max_seq_len "
                f"{self.config.max_seq_len} for learned positional embeddings"
            )
        return token_ids, np.asarray(positions)

    def embed_step(self, token_ids: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Embed a single decoding step: ``(B,)`` token ids at ``(B,)``
        positions -> ``(B, d_model)``."""
        token_ids = np.asarray(token_ids).reshape(-1)
        h = self.token_embedding.apply(token_ids)
        if self.position_embedding is not None:
            pos = np.minimum(positions, self.config.max_seq_len - 1)
            h = h + self.position_embedding.apply(pos)
        return h

    def lm_logits(self, hidden: np.ndarray) -> np.ndarray:
        """Project hidden states to vocabulary logits."""
        if self.lm_head is not None:
            return self.lm_head.apply(hidden)
        weight = self.token_embedding.params["weight"]
        if hidden.ndim == 3:
            # Sequence path: GEMM rows over a *contiguous* B do not depend on
            # the row count (tests/models/test_blas_rows.py), while the
            # transposed view's strided small-M kernel does, which would cost
            # prompt chunks their row equality.  The copy is bit-identical to
            # the view on whole sequences (goldens) and is rebuilt per call so
            # in-place weight updates during training are seen.
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

        This is the training pass: every layer caches what :meth:`backward`
        reads.  When ``store_attention`` is true every attention layer keeps
        its post-softmax probabilities in ``block.attn.last_attention`` for
        analysis (:meth:`collect_attention`).
        """
        token_ids, embed_positions = self._embed_inputs(token_ids, positions)
        h = self.token_embedding(token_ids)
        if embed_positions is not None:
            h = h + self.position_embedding(embed_positions)
        for block in self.blocks:
            h = block(h, positions=positions, store_attention=store_attention)
        h = self.ln_final(h)
        self._final_hidden = h
        return self.lm_logits(h) if self.lm_head is None else self.lm_head(h)

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
        prefix_kv: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
        prefix_len: int = 0,
        prompt_len: int | None = None,
        scorers: Sequence = (),
    ) -> tuple[np.ndarray | None, list]:
        """The inference prompt pass: rows ``[P, P + S)`` over cached prefix KV.

        ``suffix_ids`` has shape ``(B, S)``; ``prefix_kv`` holds one ``(keys,
        values)`` pair per layer, ``(B, H, P, d)`` with ``P = prefix_len``
        (keys RoPE-rotated for RoPE models), or ``None`` for an empty prefix.
        With ``P > 0``, ``S >= 2`` (a one-row chunk would run BLAS gemv).
        ``prompt_len`` (default ``P + S``) is the prompt's full length;
        chunked prefill passes it.  The KV and logits are those of
        :meth:`forward` on the full prompt, bit for bit for a whole prompt
        (``P = 0``, ``S = T``), and for a chunk when ``S >= 16`` and the prefix
        KV is that forward's (conditions: :meth:`MultiHeadAttention.attend_prefill`).

        ``scorers`` holds, per batch row, the policy whose
        ``prompt_scorer(layer_idx, S, prompt_len)`` each layer feeds block by
        block (the whole prompt in one pass): no ``(B, H, T, T)`` tensor
        outlives its row block.

        Returns the next-token logits ``(B, vocab)`` of the prompt's last row
        (``None`` for a chunk that does not end the prompt) and per-layer
        ``(k_raw, v)``.  Only those logits are read, so the last layer runs
        its queries, attention output, MLP and LM head over the last
        ``GEMM_ROW_FLOOR`` rows (all of them below that; none for a chunk
        that does not end the prompt), where BLAS rows match the whole pass.
        """
        suffix_ids = np.asarray(suffix_ids)
        if suffix_ids.ndim == 1:
            suffix_ids = suffix_ids[None, :]
        b, s = suffix_ids.shape
        if s < 2 and prefix_len > 0:
            raise ValueError(
                f"chunked prefill needs a suffix of >= 2 tokens, got {s} "
                "(cap the shared prefix at prompt_len - 2)"
            )
        config = self.config
        if prefix_kv is None:
            empty = np.empty((b, config.n_heads, 0, config.d_head), config.np_dtype)
            prefix_kv = [(empty, empty)] * len(self.blocks)
        if len(prefix_kv) != len(self.blocks):
            raise ValueError(
                f"expected {len(self.blocks)} layers of prefix KV, got {len(prefix_kv)}"
            )
        width = prefix_len + s if prompt_len is None else prompt_len
        final = width == prefix_len + s
        last = len(self.blocks) - 1
        h = self.embed(suffix_ids, positions=np.arange(prefix_len, prefix_len + s))
        # The layers share one attention buffer: one freed per layer can be
        # split by what a layer leaves on the heap, and the next would grow it.
        kv, workspace = [], {}
        for layer_idx, (block, (keys, values)) in enumerate(zip(self.blocks, prefix_kv)):
            layer_scorers = [
                (row, scorer)
                for row, policy in enumerate(scorers)
                if (scorer := policy.prompt_scorer(layer_idx, s, width)) is not None
            ]
            if layer_scorers and width != s:
                raise ValueError("a prompt is scored in one pass over the whole prompt")
            keep = 0 if layer_idx < last else max(0, s - GEMM_ROW_FLOOR) if final else s
            h, layer_kv = block.prefill_chunk(
                h, keys, values, prefix_len, prompt_len, layer_scorers, workspace, keep
            )
            kv.append(layer_kv)
        if not final:
            return None, kv
        return self.lm_logits(self.ln_final.apply(h))[:, -1].copy(), kv

    # ------------------------------------------------------------------
    # incremental decode path
    # ------------------------------------------------------------------
    def decode_step_batch(
        self,
        token_ids: np.ndarray,
        positions: np.ndarray,
        layer_caches: Sequence[DecodeCache],
    ) -> np.ndarray:
        """One decoding step for a batch of independent sequences.

        ``token_ids`` has shape ``(batch,)``: each sequence contributes one
        token, at its own original position ``positions[b]`` (``(batch,)``).
        Embedding, layer norms and activations are row-independent;
        projections use the row-exact kernels at float64 — so each row of the
        returned logits ``(batch, vocab)`` is bit-identical to that sequence
        decoded alone.  At float32, projections run fully batched.
        """
        if len(layer_caches) != len(self.blocks):
            raise ValueError(
                f"expected {len(self.blocks)} layer caches, got {len(layer_caches)}"
            )
        h = self.embed_step(token_ids, positions)
        for block, cache in zip(self.blocks, layer_caches):
            h = block.decode_step_batch(h, cache)
        h = self.ln_final.apply(h)
        if h.dtype == np.float64:
            return self.lm_logits_rows(h)
        return self.lm_logits(h)

    #: The solo name of the one decode step (kept for the span tracer's
    #: target list).
    decode_step = decode_step_batch

    def lm_logits_rows(self, hidden: np.ndarray) -> np.ndarray:
        """Row-exact LM head for 2-D hidden states (bit-parity decode path)."""
        if self.lm_head is not None:
            return self.lm_head.forward_rows(hidden)
        return dot_rows(hidden, self.token_embedding.params["weight"].T)

    def collect_attention(self) -> list[np.ndarray]:
        """Return the stored attention maps of every layer (after a forward with
        ``store_attention=True``)."""
        maps = []
        for block in self.blocks:
            if block.attn.last_attention is None:
                raise RuntimeError("forward(store_attention=True) has not been run")
            maps.append(block.attn.last_attention)
        return maps
