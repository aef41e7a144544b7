"""Multi-head causal self-attention with training and incremental decode paths.

The training path (:meth:`MultiHeadAttention.forward` / ``backward``) operates
on full sequences and supports manual backpropagation.  The decode path is
split into three stateless steps (``project_step``, ``attend_step`` and the
output projection inside ``attend_step``) so that the KV-cache manager in
:mod:`repro.kvcache` can interpose between the key/value projection and the
actual attention computation — that is exactly where Keyformer and the
baseline policies observe attention logits and evict tokens.
"""

from __future__ import annotations

import numpy as np

from repro.models import tensor_ops as ops
from repro.models.config import ModelConfig
from repro.models.layers import Linear, Module
from repro.models.positional import (
    alibi_bias_matrix,
    alibi_bias_step,
    get_rope_table,
    rope_rotate,
    rope_rotate_backward,
)

__all__ = ["MultiHeadAttention"]

#: Query rows per block of the prompt pass: block ``[i0, i1)`` of
#: :meth:`MultiHeadAttention.forward` works on keys ``[0, i1)`` only.
_ROW_BLOCK = 32


def _layout_empty(shape: tuple, dtype, key_strided: bool) -> np.ndarray:
    """Uninitialised ``(B, H, Q, K)`` array, ``(b, q, k, h)`` in memory if
    ``key_strided`` and C order otherwise."""
    if key_strided:
        b, h, q, k = shape
        return np.empty((b, q, k, h), dtype).transpose(0, 3, 1, 2)
    return np.empty(shape, dtype)


class MultiHeadAttention(Module):
    """Causal multi-head self-attention supporting RoPE, ALiBi or no bias."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.n_heads = config.n_heads
        self.d_head = config.d_head
        self.d_model = config.d_model
        self.positional = config.positional
        self.rope_dims = config.rope_dims if config.positional == "rope" else 0
        # Shared precomputed cos/sin table: decode-path rotations become
        # lookups instead of per-step transcendental evaluations.
        self._rope_table = get_rope_table(self.rope_dims) if self.rope_dims > 0 else None

        # A Python-float scale: a NumPy float64 scalar would upcast the whole
        # float32 inference path to float64 under NumPy 2 promotion rules
        # (bit-identical at float64 either way).
        self._scale = 1.0 / float(np.sqrt(self.d_head))

        self.w_q = Linear(config.d_model, config.d_model, rng, config.init_std)
        self.w_k = Linear(config.d_model, config.d_model, rng, config.init_std)
        self.w_v = Linear(config.d_model, config.d_model, rng, config.init_std)
        self.w_o = Linear(config.d_model, config.d_model, rng, config.init_std)

        self._cache: dict | None = None
        #: Post-softmax attention probabilities of the last ``forward`` call
        #: with ``store_attention=True`` — shape ``(B, H, T, T)``.
        self.last_attention: np.ndarray | None = None
        #: Masked unnormalized logits of the same call (``-inf`` above the
        #: causal diagonal); consumed by Keyformer's prompt-phase score.
        self.last_scores: np.ndarray | None = None
        #: Unrotated keys and values of the same call, used to seed the KV
        #: cache after prompt processing — each of shape ``(B, H, T, d_head)``.
        self.last_kv: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """(B, T, D) -> (B, H, T, d_head)."""
        b, t, _ = x.shape
        return x.reshape(b, t, self.n_heads, self.d_head).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        """(B, H, T, d_head) -> (B, T, D)."""
        b, h, t, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * d)

    # ------------------------------------------------------------------
    # training path
    # ------------------------------------------------------------------
    def forward(
        self,
        x: np.ndarray,
        positions: np.ndarray | None = None,
        store_attention: bool = False,
    ) -> np.ndarray:
        """Full-sequence causal attention.

        Parameters
        ----------
        x:
            Input of shape ``(batch, seq, d_model)``.
        positions:
            Optional per-token positions of shape ``(seq,)`` or
            ``(batch, seq)``; defaults to ``arange(seq)``.
        store_attention:
            When true, the post-softmax attention probabilities are kept in
            :attr:`last_attention` for analysis (Figure 3 / 14 / 15).

        The attention core pays only the causal half of the ``(T, T)``
        square: it runs over blocks of ``_ROW_BLOCK`` query rows, and block
        ``[i0, i1)`` computes scores, ``exp`` and A·V against keys ``[0, i1)``
        only.  Every float64 and float32 bit is that of the whole-tensor
        formulation (``reference_forward`` in ``tests/models/test_attention.py``):
        the buffers have its memory layouts, a row's softmax denominator sums
        the zero-padded full-width row, and below float64 A·V stays one
        whole-tensor matmul, because BLAS rounds differently once its K
        dimension is truncated.
        """
        b, t, _ = x.shape
        if positions is None:
            positions = np.arange(t)
        positions = np.asarray(positions)

        q = self._split_heads(self.w_q(x))
        k_raw = self._split_heads(self.w_k(x))
        v = self._split_heads(self.w_v(x))

        if self.positional == "rope":
            pos_bh = positions if positions.ndim == 1 else positions[:, None, :]
            q_rot = rope_rotate(q, pos_bh, self.rope_dims, table=self._rope_table)
            k_rot = rope_rotate(k_raw, pos_bh, self.rope_dims, table=self._rope_table)
        else:
            q_rot, k_rot = q, k_raw

        # Same dtype rule as attend_step: float64 is the bit-parity dtype and
        # keeps einsum's exact reduction order; any other dtype runs within a
        # documented tolerance, so it takes the BLAS batched matmul.
        scale = self._scale
        exact = q_rot.dtype == np.float64
        bias = alibi_bias_matrix(self.n_heads, t) if self.positional == "alibi" else None
        # Layouts are those of the whole-tensor formulation, because NumPy's
        # reduction order follows memory layout: float64 einsum over the
        # strided ``_split_heads`` views returns key-strided scores, ``(b, q,
        # k, h)`` in memory, so a row sum over them is sequential; RoPE's
        # rotated copies, matmul and ALiBi's bias add give C order, and
        # pairwise row sums.
        raw_strided = exact and not q_rot.flags.c_contiguous
        key_strided = raw_strided and bias is None
        dtype = q_rot.dtype if bias is None else np.result_type(q_rot.dtype, bias)
        # Row blocks; a last block of one row would run BLAS gemv, not gemm.
        bounds = [*range(0, max(t - 1, 1), _ROW_BLOCK), t]
        rows = max(i1 - i0 for i0, i1 in zip(bounds, bounds[1:]))
        shape = (b, self.n_heads, t, t)
        block = (b, self.n_heads, rows, t)
        attn = _layout_empty(shape, dtype, key_strided)
        # Masked logits are kept whole only when stored; otherwise per block.
        # Under ALiBi the product lands in its own block buffer first and the
        # bias add writes the (float64, C-order) scores.
        scores = _layout_empty(shape if store_attention else block, dtype, key_strided)
        raw = None if bias is None else _layout_empty(block, q_rot.dtype, raw_strided)
        # float64 probabilities (ALiBi promotes float32 ones) reduce A·V by
        # einsum, one block at a time; below float64 it is one BLAS matmul.
        exact_av = dtype == np.float64
        if exact_av:
            # einsum's output layout: (b, q, h, d) in memory over key-strided
            # probabilities, C order otherwise.
            if key_strided:
                ctx = np.empty((b, t, self.n_heads, self.d_head), dtype).transpose(0, 2, 1, 3)
            else:
                ctx = np.empty((b, self.n_heads, t, self.d_head), dtype)
        upper = np.triu(np.ones((rows, rows), dtype=bool), k=1)

        for i0, i1 in zip(bounds, bounds[1:]):
            n = i1 - i0
            s = scores[:, :, i0:i1] if store_attention else scores[:, :, :n]
            s = s[..., :i1]
            r = s if raw is None else raw[:, :, :n, :i1]
            if exact:
                np.einsum("bhqd,bhkd->bhqk", q_rot[:, :, i0:i1], k_rot[:, :, :i1], out=r)
            else:
                np.matmul(q_rot[:, :, i0:i1], k_rot[:, :, :i1].swapaxes(-1, -2), out=r)
            r *= scale
            if bias is not None:
                np.add(r, bias[:, i0:i1, :i1], out=s)
            np.copyto(s[..., i0:], -np.inf, where=upper[:n, :n])
            if store_attention:
                scores[:, :, i0:i1, i1:] = -np.inf

            # ops.softmax over the visible columns; the denominator sums the
            # zero-padded full-width row, because pairwise summation regroups
            # a shorter one even when the dropped entries are zeros.
            row = attn[:, :, i0:i1]
            row[..., i1:] = 0.0
            e = row[..., :i1]
            peak = s.max(axis=-1, keepdims=True)
            peak = np.where(np.isfinite(peak), peak, 0.0)
            np.subtract(s, peak, out=e)
            np.exp(e, out=e)
            denom = row.sum(axis=-1, keepdims=True)
            e /= np.where(denom == 0.0, 1.0, denom)

            if exact_av:
                np.einsum("bhqk,bhkd->bhqd", e, v[:, :, :i1], out=ctx[:, :, i0:i1])

        if store_attention:
            self.last_attention = attn
            self.last_scores = scores
            self.last_kv = (k_raw, v)

        if not exact_av:
            ctx = attn @ v
        out = self.w_o(self._merge_heads(ctx))

        self._cache = {
            "q_rot": q_rot,
            "k_rot": k_rot,
            "v": v,
            "attn": attn,
            "positions": positions,
            "scale": scale,
        }
        return out

    def __call__(self, x: np.ndarray, **kwargs) -> np.ndarray:
        return self.forward(x, **kwargs)

    def take_stored(self) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
        """Hand over ``(last_kv, last_attention, last_scores)`` of the last
        ``forward(store_attention=True)`` and forget them — together with the
        backward cache, which holds the same attention array — so a finished
        prompt pass does not pin its ``(B, H, T, T)`` tensors in the model
        while the next one allocates its own."""
        if self.last_kv is None or self.last_scores is None:
            raise RuntimeError("prompt forward did not store attention tensors")
        stored = (self.last_kv, self.last_attention, self.last_scores)
        self.last_kv = self.last_attention = self.last_scores = self._cache = None
        return stored

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Backward pass of :meth:`forward`; returns gradient w.r.t. the input."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        q_rot, k_rot, v = cache["q_rot"], cache["k_rot"], cache["v"]
        attn, positions, scale = cache["attn"], cache["positions"], cache["scale"]

        dctx_merged = self.w_o.backward(dout)
        b, t, _ = dctx_merged.shape
        dctx = self._split_heads(dctx_merged)

        dattn = np.einsum("bhqd,bhkd->bhqk", dctx, v)
        dv = np.einsum("bhqk,bhqd->bhkd", attn, dctx)

        dscores = ops.softmax_backward(dattn, attn, axis=-1)

        dq_rot = np.einsum("bhqk,bhkd->bhqd", dscores, k_rot) * scale
        dk_rot = np.einsum("bhqk,bhqd->bhkd", dscores, q_rot) * scale

        if self.positional == "rope":
            pos_bh = positions if positions.ndim == 1 else positions[:, None, :]
            dq = rope_rotate_backward(dq_rot, pos_bh, self.rope_dims)
            dk = rope_rotate_backward(dk_rot, pos_bh, self.rope_dims)
        else:
            dq, dk = dq_rot, dk_rot

        dx_q = self.w_q.backward(self._merge_heads(dq))
        dx_k = self.w_k.backward(self._merge_heads(dk))
        dx_v = self.w_v.backward(self._merge_heads(dv))
        return dx_q + dx_k + dx_v

    # ------------------------------------------------------------------
    # chunked prefill path (prefix sharing)
    # ------------------------------------------------------------------
    def attend_prefill(
        self,
        x: np.ndarray,
        prefix_keys: np.ndarray,
        prefix_values: np.ndarray,
        prefix_len: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Prompt-phase attention for a *suffix chunk* over a cached prefix.

        The serving engine's prefix sharing maps the KV pages of an
        already-resident prompt prefix instead of recomputing them; only the
        suffix tokens run through the model.  This step attends the suffix
        queries over ``[prefix ∥ suffix]`` keys/values:

        * ``x`` — suffix hidden states, shape ``(1, S, d_model)``, sitting at
          original positions ``prefix_len .. prefix_len + S``;
        * ``prefix_keys`` — cached prefix keys of shape ``(1, H, P, d)``,
          already RoPE-rotated at their original positions for RoPE models
          (read straight from the rotated-key pages), raw otherwise;
        * ``prefix_values`` — cached prefix values, same shape.

        Bit-exactness contract: every operation reproduces the corresponding
        rows of the full prompt forward exactly — the projections are
        ``(S, d_model)`` GEMMs whose rows are bit-stable under removing
        leading rows (pinned by the prefix-sharing tests; requires ``S >= 2``,
        which the engine guarantees by capping the shared prefix at
        ``prompt_len - 2``), scores/context einsums reduce over axes of
        identical extent, and softmax runs over full-length rows with the
        same causal ``-inf`` tail the full forward produces.

        Returns ``(output, k_raw, v)`` where ``output`` is ``(1, S, d_model)``
        and ``k_raw``/``v`` are the suffix's unrotated keys and values
        (``(1, H, S, d)``) for seeding the cache.
        """
        b, s, _ = x.shape
        total_len = prefix_len + s
        positions = np.arange(prefix_len, total_len)

        q = self._split_heads(self.w_q(x))
        k_raw = self._split_heads(self.w_k(x))
        v = self._split_heads(self.w_v(x))

        if self.positional == "rope":
            q_rot = rope_rotate(q, positions, self.rope_dims, table=self._rope_table)
            k_rot = rope_rotate(k_raw, positions, self.rope_dims, table=self._rope_table)
            keys_all = np.concatenate([prefix_keys, k_rot], axis=2)
        else:
            q_rot = q
            keys_all = np.concatenate([prefix_keys, k_raw], axis=2)
        values_all = np.concatenate([prefix_values, v], axis=2)

        scale = self._scale
        scores = np.einsum("bhqd,bhkd->bhqk", q_rot, keys_all) * scale
        if self.positional == "alibi":
            scores = scores + alibi_bias_matrix(self.n_heads, total_len)[None][
                :, :, prefix_len:, :
            ]
        # Same mask rows the full forward applies to queries prefix_len..T.
        causal_mask = (
            np.arange(total_len)[None, :] > positions[:, None]
        )
        scores = np.where(causal_mask[None, None], -np.inf, scores)

        attn = ops.softmax(scores, axis=-1)
        ctx = np.einsum("bhqk,bhkd->bhqd", attn, values_all)
        out = self.w_o(self._merge_heads(ctx))
        return out, k_raw, v

    # ------------------------------------------------------------------
    # incremental decode path
    # ------------------------------------------------------------------
    def project_qkv(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project a batch of single-token hidden states to per-head q/k/v.

        ``x`` has shape ``(batch, d_model)``; each output has shape
        ``(batch, n_heads, d_head)``.  Keys are returned **unrotated** — the
        cache stores raw keys so that both the original-position and
        renumbered-position RoPE/ALiBi modes can be evaluated later.
        """
        if x.ndim != 2:
            raise ValueError(f"expected (batch, d_model) input, got shape {x.shape}")
        b = x.shape[0]
        q = self.w_q(x).reshape(b, self.n_heads, self.d_head)
        k = self.w_k(x).reshape(b, self.n_heads, self.d_head)
        v = self.w_v(x).reshape(b, self.n_heads, self.d_head)
        return q, k, v

    def project_qkv_rows(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row-exact variant of :meth:`project_qkv` for the batched decode path.

        Each output row is bit-identical to ``project_qkv(x[b:b+1])`` — the
        projections run the single-row BLAS kernel per row (see
        ``Linear.forward_rows``), so a batch of sequences decoding together
        produces the same bits as each sequence decoding alone.
        """
        if x.ndim != 2:
            raise ValueError(f"expected (batch, d_model) input, got shape {x.shape}")
        b = x.shape[0]
        q = self.w_q.forward_rows(x).reshape(b, self.n_heads, self.d_head)
        k = self.w_k.forward_rows(x).reshape(b, self.n_heads, self.d_head)
        v = self.w_v.forward_rows(x).reshape(b, self.n_heads, self.d_head)
        return q, k, v

    def attend_step(
        self,
        q: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        query_positions: np.ndarray | int,
        key_positions: np.ndarray,
        keys_rotated: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Attend a single query token over cached keys/values.

        Parameters
        ----------
        q:
            Query of shape ``(batch, n_heads, d_head)`` (unrotated).
        keys, values:
            Cached tensors of shape ``(batch, n_heads, L, d_head)``.
        query_positions:
            Position index of the query token (scalar or ``(batch,)``).
        key_positions:
            Positions of the cached keys, shape ``(batch, n_heads, L)``.
        keys_rotated:
            When true, ``keys`` already carry RoPE at ``key_positions`` (the
            KV cache maintains rotated keys incrementally) and only the query
            is rotated here — the per-step O(L) key re-rotation disappears.

        Returns
        -------
        ``(output, logits, probs)`` where ``output`` has shape
        ``(batch, d_model)``, and ``logits`` / ``probs`` have shape
        ``(batch, n_heads, L)``.  ``logits`` are the *unnormalized* scaled
        dot-product values (the :math:`x_i` of Eq. 4 in the paper), which the
        Keyformer score function perturbs with Gumbel noise.
        """
        b = q.shape[0]
        query_positions = np.asarray(query_positions)

        if self.positional == "rope":
            if self._rope_table is not None and query_positions.ndim == 0:
                # Steady-state decode: one scalar query position.
                q_rot = self._rope_table.rotate_uniform(q, int(query_positions))
            else:
                q_pos = query_positions if query_positions.ndim else query_positions[None]
                if q_pos.shape != (b,):
                    q_pos = np.broadcast_to(q_pos, (b,))
                if self._rope_table is not None:
                    q_rot = self._rope_table.rotate(q, q_pos[:, None])
                else:
                    q_rot = rope_rotate(q, q_pos[:, None], self.rope_dims)
            if keys_rotated:
                k_rot = keys
            elif self._rope_table is not None:
                k_rot = self._rope_table.rotate(keys, key_positions)
            else:
                k_rot = rope_rotate(keys, key_positions, self.rope_dims)
        else:
            q_rot, k_rot = q, keys

        scale = self._scale
        if q_rot.dtype == np.float64:
            # float64 is the bit-parity dtype: keep einsum's exact reduction
            # order so generation stays token-identical with the reference.
            logits = np.einsum("bhd,bhld->bhl", q_rot, k_rot) * scale
        else:
            # float32 inference runs within a documented tolerance, so use the
            # (much faster) BLAS batched matmul kernel.
            logits = (q_rot[:, :, None, :] @ k_rot.swapaxes(-1, -2))[:, :, 0, :] * scale

        if self.positional == "alibi":
            logits = logits + alibi_bias_step(self.n_heads, query_positions, key_positions)

        probs = ops.softmax(logits, axis=-1)
        if probs.dtype == np.float64:
            ctx = np.einsum("bhl,bhld->bhd", probs, values)
        else:
            ctx = (probs[:, :, None, :] @ values)[:, :, 0, :]
        out = self.w_o(ctx.reshape(b, self.d_model))
        return out, logits, probs

    # ------------------------------------------------------------------
    # ragged-batch decode path (continuous batching)
    # ------------------------------------------------------------------
    def attend_step_batch(
        self,
        q: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        query_positions: np.ndarray,
        key_positions: np.ndarray,
        lengths: np.ndarray,
        keys_rotated: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Attend one query token per sequence over a ragged batch of caches.

        ``keys``/``values``/``key_positions`` are padded to the longest
        sequence (``L_max``); row ``b`` holds ``lengths[b]`` live entries.
        ``query_positions`` has shape ``(batch,)`` — one position per
        sequence, since sequences in a continuous batch are at different
        decoding depths.

        Two execution modes, selected by dtype (same convention as
        :meth:`attend_step`):

        * **float64 (bit-parity)** — logits come from one padded einsum (the
          reduction runs over ``d_head`` only, so padding cannot perturb live
          entries), while softmax and the value reduction run per sequence on
          exact-length slices: summing over a padded axis would regroup the
          pairwise reduction and break bit-equality with a sequence decoded
          alone.  The output projection uses the row-exact kernel.
        * **float32 (throughput)** — padded slots are masked to ``-inf`` and
          the whole batch runs through BLAS softmax/matmul in one shot,
          within the documented float32 tolerance.

        Returns ``(output, logits, probs)`` shaped ``(batch, d_model)`` and
        ``(batch, heads, L_max)``; rows of ``logits``/``probs`` are valid up
        to ``lengths[b]`` entries (beyond that: unmasked garbage at float64,
        ``-inf``/``0`` at float32).
        """
        r = q.shape[0]
        lengths = np.asarray(lengths)
        query_positions = np.asarray(query_positions)

        if self.positional == "rope":
            # Per-row positions; elementwise, hence bit-identical per row to
            # the scalar-position rotation of the single-sequence path.
            if self._rope_table is not None:
                q_rot = self._rope_table.rotate(q, query_positions[:, None])
                k_rot = (
                    keys
                    if keys_rotated
                    else self._rope_table.rotate(keys, key_positions)
                )
            else:
                q_rot = rope_rotate(q, query_positions[:, None], self.rope_dims)
                k_rot = (
                    keys
                    if keys_rotated
                    else rope_rotate(keys, key_positions, self.rope_dims)
                )
        else:
            q_rot, k_rot = q, keys

        scale = self._scale
        exact = q_rot.dtype == np.float64
        if exact:
            # Reduction over d_head only: padded token slots cannot affect
            # live entries, so each row is bitwise equal to its solo einsum.
            logits = np.einsum("bhd,bhld->bhl", q_rot, k_rot) * scale
        else:
            logits = (q_rot[:, :, None, :] @ k_rot.swapaxes(-1, -2))[:, :, 0, :] * scale

        if self.positional == "alibi":
            logits = logits + alibi_bias_step(self.n_heads, query_positions, key_positions)

        if exact:
            if r > 0 and int(lengths.min()) == logits.shape[-1]:
                # All sequences at the same depth (steady state of a fixed
                # kv_budget policy): no padding exists, and softmax/einsum
                # reduce each row independently — one batched call is bitwise
                # equal to the per-row loop.
                probs = ops.softmax(logits, axis=-1)
                ctx = np.einsum("bhl,bhld->bhd", probs, values)
            else:
                probs = np.zeros_like(logits)
                ctx = np.empty((r, self.n_heads, self.d_head), dtype=logits.dtype)
                for b in range(r):
                    live = int(lengths[b])
                    p = ops.softmax(logits[b : b + 1, :, :live], axis=-1)
                    probs[b, :, :live] = p[0]
                    ctx[b] = np.einsum(
                        "bhl,bhld->bhd", p, values[b : b + 1, :, :live]
                    )[0]
            out = self.w_o.forward_rows(ctx.reshape(r, self.d_model))
        else:
            max_len = logits.shape[-1]
            mask = np.arange(max_len) >= lengths[:, None, None]
            logits = np.where(mask, -np.inf, logits)
            probs = ops.softmax(logits, axis=-1)
            ctx = (probs[:, :, None, :] @ values)[:, :, 0, :]
            out = self.w_o(ctx.reshape(r, self.d_model))
        return out, logits, probs
