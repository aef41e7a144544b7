"""Multi-head causal self-attention with training and incremental decode paths.

The training path (:meth:`MultiHeadAttention.forward` / ``backward``) operates
on full sequences and supports manual backpropagation.  The decode path is
two stateless steps, ``project_qkv`` (or its row-exact twin
``project_qkv_rows``) and ``attend_step_batch`` with the output projection,
so that the KV-cache manager in :mod:`repro.kvcache` can interpose between
the key/value projection and the actual attention computation — that is
exactly where Keyformer and the baseline policies observe attention logits
and evict tokens.  One decode kernel serves every caller: a solo cache is a
batch whose rows are not padded.
"""

from __future__ import annotations

from typing import Sequence

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
#: Fewest rows a prompt-pass GEMM over part of the pass's rows may have: from
#: 16 rows on, BLAS computes an output row the same way whatever the row
#: count (``tests/models/test_blas_rows.py``).
GEMM_ROW_FLOOR = 16


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
        self.rope_dims = config.rope_dims
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
        #: with ``store_attention=True`` — shape ``(B, H, T, T)``, for analysis.
        self.last_attention: np.ndarray | None = None

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
            :attr:`last_attention` for analysis (Figure 3 / 14 / 15).  The
            inference prompt pass is :meth:`attend_prefill`, which keeps no
            attention tensor: eviction policies score it block by block.

        The core is :meth:`_attend_rows` over all ``T`` rows at width ``T``,
        bit-identical at float64 and float32 to the whole-tensor formulation
        (``reference_forward`` in ``tests/models/test_attention.py``).
        """
        t = x.shape[1]
        if positions is None:
            positions = np.arange(t)
        positions = np.asarray(positions)
        q_rot, k_rot, _, v = self._project(self.w_q(x), self.w_k(x), self.w_v(x), positions)
        ctx, attn = self._attend_rows(q_rot, k_rot, v, t, keep_attention=True)
        if store_attention:
            self.last_attention = attn
        self._cache = {"q_rot": q_rot, "k_rot": k_rot, "v": v, "attn": attn, "positions": positions}
        return self.w_o(self._merge_heads(ctx))

    def _project(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """``(q_rot, k_rot, k_raw, v)`` per head of the ``(B, T, d_model)``
        projections, RoPE applied at ``positions``."""
        q, k_raw, v = self._split_heads(q), self._split_heads(k), self._split_heads(v)
        if self.positional != "rope":
            return q, k_raw, k_raw, v
        pos_bh = positions if positions.ndim == 1 else positions[:, None, :]
        q_rot = rope_rotate(q, pos_bh, self.rope_dims, table=self._rope_table)
        k_rot = rope_rotate(k_raw, pos_bh, self.rope_dims, table=self._rope_table)
        return q_rot, k_rot, k_raw, v

    def _attend_rows(
        self,
        q_rot: np.ndarray,
        k_rot: np.ndarray,
        v: np.ndarray,
        width: int,
        scorers: Sequence[tuple] = (),
        keep_attention: bool = False,
        workspace: dict | None = None,
        keep: int = 0,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The one prompt-attention kernel: causal attention of the ``S``
        query rows ``q_rot``, rows ``[i0, i_end)`` of a prompt, over its keys
        and values ``[0, i_end)`` (``(B, H, ·, d_head)`` each).

        Block ``[a, c)`` of ``_ROW_BLOCK`` rows works on keys ``[0, c)``
        only.  A softmax denominator sums the row zero-padded to ``width``
        (the prompt's length), because NumPy's pairwise summation regroups a
        shorter row even when the dropped entries are zeros.  Buffers have the
        whole-tensor formulation's memory layouts, and below float64 A·V is
        one matmul, because BLAS rounds differently once K is truncated.

        Each ``(b, scorer)`` of ``scorers`` is handed batch row ``b`` of every
        block's masked logits and probabilities, ``(1, H, n, c)``, while the
        block is hot.  A ``workspace`` dict lends the probability buffer, so
        the layers of one pass share one.  Only rows ``[keep, S)`` of the
        context are read: a block that ends before ``keep`` skips its scores
        and softmax (unless scorers need them) and its A·V, except that below
        float64 A·V stays the one matmul over every row, sliced after.
        Returns the ``(B, H, S - keep, d_head)`` context and, when
        ``keep_attention``, the ``(B, H, S, width)`` probabilities.
        """
        b, _, s, _ = q_rot.shape
        end = k_rot.shape[2]
        start = end - s
        # Same dtype rule as the decode kernel: float64 is the bit-parity dtype and
        # keeps einsum's exact reduction order; any other dtype runs within a
        # documented tolerance, so it takes the BLAS batched matmul.
        scale = self._scale
        exact = q_rot.dtype == np.float64
        bias = alibi_bias_matrix(self.n_heads, end) if self.positional == "alibi" else None
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
        bounds = [*range(start, max(end - 1, start + 1), _ROW_BLOCK), end]
        rows = max(i1 - i0 for i0, i1 in zip(bounds, bounds[1:]))
        block = (b, self.n_heads, rows, width)
        # Masked logits live one block at a time.  Under ALiBi the product
        # lands in its own block buffer first and the bias add writes the
        # (float64, C-order) scores.
        scores = _layout_empty(block, dtype, key_strided)
        raw = None if bias is None else _layout_empty(block, q_rot.dtype, raw_strided)
        # float64 probabilities (ALiBi promotes float32 ones) reduce A·V by
        # einsum, one block at a time, so they too live one block at a time;
        # below float64 A·V is one BLAS matmul over them all.
        exact_av = dtype == np.float64
        whole = keep_attention or not exact_av
        spec = ((b, self.n_heads, s, width) if whole else block, dtype, key_strided)
        workspace = {} if workspace is None else workspace
        if spec not in workspace:
            workspace[spec] = _layout_empty(*spec)
            if keep and not exact_av:  # the one A·V matmul reads skipped rows
                workspace[spec].fill(0.0)
        attn = workspace[spec]
        if exact_av:
            # einsum's output layout: (b, q, h, d) in memory over key-strided
            # probabilities, C order otherwise.
            if key_strided:
                ctx = np.empty((b, s, self.n_heads, self.d_head), dtype).transpose(0, 2, 1, 3)
            else:
                ctx = np.empty((b, self.n_heads, s, self.d_head), dtype)
        upper = np.triu(np.ones((rows, rows), dtype=bool), k=1)

        for i0, i1 in zip(bounds, bounds[1:]):
            n = i1 - i0
            r0, r1 = i0 - start, i1 - start  # the block's rows in the buffers
            if r1 <= keep and not scorers:
                continue
            sc = scores[:, :, :n, :i1]
            r = sc if raw is None else raw[:, :, :n, :i1]
            if exact:
                np.einsum("bhqd,bhkd->bhqk", q_rot[:, :, r0:r1], k_rot[:, :, :i1], out=r)
            else:
                np.matmul(q_rot[:, :, r0:r1], k_rot[:, :, :i1].swapaxes(-1, -2), out=r)
            r *= scale
            if bias is not None:
                np.add(r, bias[:, i0:i1, :i1], out=sc)
            np.copyto(sc[..., i0:], -np.inf, where=upper[:n, :n])

            # ops.softmax over the visible columns, summed at ``width``.
            row = attn[:, :, r0:r1] if whole else attn[:, :, :n]
            row[..., i1:] = 0.0
            e = row[..., :i1]
            peak = sc.max(axis=-1, keepdims=True)
            peak = np.where(np.isfinite(peak), peak, 0.0)
            np.subtract(sc, peak, out=e)
            np.exp(e, out=e)
            denom = row.sum(axis=-1, keepdims=True)
            e /= np.where(denom == 0.0, 1.0, denom)

            for at, scorer in scorers:
                scorer(r0, sc[at : at + 1], e[at : at + 1])
            if exact_av and r1 > keep:
                np.einsum("bhqk,bhkd->bhqd", e, v[:, :, :i1], out=ctx[:, :, r0:r1])

        if not exact_av:
            ctx = attn[..., :end] @ v
        return ctx[:, :, keep:], attn if keep_attention else None

    def __call__(self, x: np.ndarray, **kwargs) -> np.ndarray:
        return self.forward(x, **kwargs)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Backward pass of :meth:`forward`; returns gradient w.r.t. the input."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        q_rot, k_rot, v = cache["q_rot"], cache["k_rot"], cache["v"]
        attn, positions, scale = cache["attn"], cache["positions"], self._scale

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
        prompt_len: int | None = None,
        scorers: Sequence[tuple] = (),
        workspace: dict | None = None,
        keep: int = 0,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Prompt attention for rows ``[P, P + S)`` (``x``, ``(B, S,
        d_model)``) over the prompt's first ``P = prefix_len`` keys and
        values (``(B, H, P, d)``; keys RoPE-rotated for RoPE models).

        :meth:`forward`'s kernel on those rows, padded to ``prompt_len``
        (default ``P + S``, a chunk that ends the prompt).  The projections
        are ``(S, d_model)`` GEMMs, so a row equals the whole forward's bit
        for bit only where BLAS rows do not depend on the row count: from 16
        rows on here (``tests/models/test_blas_rows.py``); with ``P = 0`` and
        ``S = T`` the projections are the forward's own, so a whole prompt is
        exact at any length.  A prefix computed inside a prompt of another
        length summed its rows at that width, so it is ulp-close, not exact.
        ``scorers`` score the rows' attention block by block, and
        ``workspace`` lends its buffer (:meth:`_attend_rows`).  Only output
        rows ``[keep, S)`` are computed; ``keep = S`` computes no query.

        Returns the ``(B, S - keep, d_model)`` output and the chunk's
        unrotated keys and values (``(B, H, S, d)``) for seeding the cache.
        """
        s = x.shape[1]
        if keep == s:  # no output row is read: this layer's K and V only
            kv = self._split_heads(self.w_k.apply(x)), self._split_heads(self.w_v.apply(x))
            return x[:, :0], kv
        q, k, v = self.w_q.apply(x), self.w_k.apply(x), self.w_v.apply(x)
        q_rot, k_rot, k_raw, v = self._project(q, k, v, np.arange(prefix_len, prefix_len + s))
        keys = np.concatenate([prefix_keys, k_rot], axis=2)
        values = np.concatenate([prefix_values, v], axis=2)
        width = prefix_len + s if prompt_len is None else prompt_len
        ctx, _ = self._attend_rows(
            q_rot, keys, values, width, scorers, workspace=workspace, keep=keep
        )
        return self.w_o.apply(self._merge_heads(ctx)), (k_raw, v)

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
        q = self.w_q.apply(x).reshape(b, self.n_heads, self.d_head)
        k = self.w_k.apply(x).reshape(b, self.n_heads, self.d_head)
        v = self.w_v.apply(x).reshape(b, self.n_heads, self.d_head)
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

    # ------------------------------------------------------------------
    # the decode kernel (solo, continuous batching, speculative verify)
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
        """Attend one query token per sequence over a batch of caches.

        ``q`` is ``(batch, heads, d_head)``, unrotated.  ``keys``/``values``
        (``(batch, heads, L, d_head)``) and ``key_positions`` (``(batch,
        heads, L)``) are padded to the longest row: row ``b`` holds
        ``lengths[b]`` live entries and its query sits at
        ``query_positions[b]`` (both ``(batch,)``; rows of a continuous batch
        decode at different depths).  With ``keys_rotated`` the keys already
        carry RoPE at ``key_positions`` (the cache keeps rotated keys), so
        only the query is rotated here.

        Two execution modes, selected by dtype:

        * **float64 (bit-parity)** — logits come from one padded einsum (the
          reduction runs over ``d_head`` only, so padding cannot perturb live
          entries), while softmax and the value reduction of a padded batch
          run per sequence on exact-length slices: summing over a padded axis
          would regroup the pairwise reduction and break bit-equality with a
          sequence decoded alone.  The output projection uses the row-exact
          kernel.
        * **float32 (throughput)** — padded slots are masked to ``-inf`` and
          the whole batch runs through BLAS softmax/matmul in one shot,
          within the documented float32 tolerance.

        Returns ``(output, logits, probs)`` shaped ``(batch, d_model)`` and
        ``(batch, heads, L)``.  ``logits`` are the *unnormalized* scaled
        dot products (the :math:`x_i` of Eq. 4 in the paper), which the
        Keyformer score function perturbs with Gumbel noise.  Rows are valid
        up to ``lengths[b]`` entries (beyond that: unmasked garbage at
        float64, ``-inf``/``0`` at float32).
        """
        r = q.shape[0]
        table = self._rope_table
        if table is None:  # no RoPE, or no rotated dimension
            q_rot, k_rot = q, keys
        else:
            # Elementwise, hence bit-identical per row to a solo rotation.
            q_rot = table.rotate(q, query_positions[:, None])
            k_rot = keys if keys_rotated else table.rotate(keys, key_positions)

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

        max_len = logits.shape[-1]
        # A batch at one depth (the steady state of a fixed kv_budget policy)
        # has no padding, and softmax/einsum reduce each row independently:
        # one batched call is bitwise equal to the per-row loop.
        padded = r == 0 or int(np.min(lengths)) < max_len
        if exact:
            if not padded:
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
            if padded:
                mask = np.arange(max_len) >= np.asarray(lengths)[:, None, None]
                logits = np.where(mask, -np.inf, logits)
            probs = ops.softmax(logits, axis=-1)
            ctx = (probs[:, :, None, :] @ values)[:, :, 0, :]
            out = self.w_o.apply(ctx.reshape(r, self.d_model))
        return out, logits, probs

    #: The solo name of the one decode kernel (kept for the span tracer's
    #: target list).
    attend_step = attend_step_batch
