"""Row-exactness of the batched decode kernels.

BLAS matmul kernels choose different reduction orders for different batch
sizes, so ``(B, d) @ W`` is not bitwise row-equal to ``(1, d) @ W``.  The
batched decode path therefore routes every float64 projection through
row-exact kernels (``Linear.forward_rows`` et al.).  These tests pin the
bitwise contract each kernel relies on — if a NumPy/BLAS upgrade ever breaks
the single-row-kernel equivalence, they fail loudly rather than letting the
serving engine silently lose bit parity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.attention import MultiHeadAttention
from repro.models.config import ModelConfig
from repro.models.layers import Linear
from repro.models.mlp import MLP
from repro.models.transformer import DecoderLM
from tests.models.test_attention import reference_attend_step


def _config(positional="rope", **overrides) -> ModelConfig:
    defaults = dict(
        vocab_size=64,
        d_model=32,
        n_layers=2,
        n_heads=4,
        d_ff=64,
        max_seq_len=128,
        positional=positional,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


class TestRowExactKernels:
    def test_linear_forward_rows_bitwise(self):
        rng = np.random.default_rng(0)
        layer = Linear(32, 48, rng)
        x = rng.normal(size=(5, 32))
        batched = layer.forward_rows(x)
        for b in range(5):
            np.testing.assert_array_equal(batched[b : b + 1], layer.forward(x[b : b + 1]))

    def test_mlp_forward_rows_bitwise(self):
        rng = np.random.default_rng(1)
        mlp = MLP(_config(), rng)
        x = rng.normal(size=(4, 32))
        batched = mlp.forward_rows(x)
        for b in range(4):
            np.testing.assert_array_equal(batched[b : b + 1], mlp.forward(x[b : b + 1]))

    def test_project_qkv_rows_bitwise(self):
        rng = np.random.default_rng(2)
        attn = MultiHeadAttention(_config(), rng)
        x = rng.normal(size=(4, 32))
        q, k, v = attn.project_qkv_rows(x)
        for b in range(4):
            q1, k1, v1 = attn.project_qkv(x[b : b + 1])
            np.testing.assert_array_equal(q[b : b + 1], q1)
            np.testing.assert_array_equal(k[b : b + 1], k1)
            np.testing.assert_array_equal(v[b : b + 1], v1)

    @pytest.mark.parametrize("tie", [True, False])
    def test_lm_logits_rows_bitwise(self, tie):
        model = DecoderLM(_config(tie_embeddings=tie), seed=0)
        hidden = np.random.default_rng(3).normal(size=(4, 32))
        batched = model.lm_logits_rows(hidden)
        for b in range(4):
            np.testing.assert_array_equal(
                batched[b : b + 1], model.lm_logits(hidden[b : b + 1])
            )


class TestAttendStepBatch:
    @pytest.mark.parametrize("positional", ["rope", "alibi", "none"])
    def test_ragged_rows_bitwise_equal_solo_attention(self, positional):
        """Each row of the padded ragged attention step must match the dense
        solo reference on that row's exact-length cache."""
        rng = np.random.default_rng(4)
        attn = MultiHeadAttention(_config(positional), rng)
        batch, heads, d_head = 4, attn.n_heads, attn.d_head
        lengths = np.asarray([9, 5, 12, 7])
        max_len = int(lengths.max())
        q = rng.normal(size=(batch, heads, d_head))
        keys = rng.normal(size=(batch, heads, max_len, d_head))
        values = rng.normal(size=(batch, heads, max_len, d_head))
        key_positions = np.broadcast_to(np.arange(max_len), (batch, heads, max_len))
        query_positions = lengths - 1

        out, logits, probs = attn.attend_step_batch(
            q, keys, values, query_positions, key_positions, lengths
        )
        for b in range(batch):
            live = int(lengths[b])
            solo_out, solo_logits, solo_probs = reference_attend_step(
                attn,
                q[b : b + 1],
                keys[b : b + 1, :, :live],
                values[b : b + 1, :, :live],
                np.asarray(int(query_positions[b])),
                key_positions[b : b + 1, :, :live],
            )
            np.testing.assert_array_equal(out[b : b + 1], solo_out)
            np.testing.assert_array_equal(logits[b, :, :live], solo_logits[0])
            np.testing.assert_array_equal(probs[b, :, :live], solo_probs[0])

    def test_equal_length_fast_path_bitwise(self):
        """The no-padding batched softmax path must equal each row alone."""
        rng = np.random.default_rng(5)
        attn = MultiHeadAttention(_config("rope"), rng)
        batch, heads, d_head = 3, attn.n_heads, attn.d_head
        length = 8
        lengths = np.full(batch, length)
        q = rng.normal(size=(batch, heads, d_head))
        keys = rng.normal(size=(batch, heads, length, d_head))
        values = rng.normal(size=(batch, heads, length, d_head))
        key_positions = np.broadcast_to(np.arange(length), (batch, heads, length))
        query_positions = np.asarray([7, 9, 11])
        out, logits, probs = attn.attend_step_batch(
            q, keys, values, query_positions, key_positions, lengths
        )
        for b in range(batch):
            solo_out, solo_logits, solo_probs = reference_attend_step(
                attn,
                q[b : b + 1],
                keys[b : b + 1],
                values[b : b + 1],
                np.asarray(int(query_positions[b])),
                key_positions[b : b + 1],
            )
            np.testing.assert_array_equal(out[b : b + 1], solo_out)
            np.testing.assert_array_equal(logits[b], solo_logits[0])
            np.testing.assert_array_equal(probs[b], solo_probs[0])

    def test_float32_masks_padding(self):
        rng = np.random.default_rng(6)
        attn = MultiHeadAttention(_config("none", compute_dtype="float32"), rng)
        batch, heads, d_head = 2, attn.n_heads, attn.d_head
        lengths = np.asarray([3, 6])
        q = rng.normal(size=(batch, heads, d_head)).astype(np.float32)
        keys = rng.normal(size=(batch, heads, 6, d_head)).astype(np.float32)
        values = rng.normal(size=(batch, heads, 6, d_head)).astype(np.float32)
        key_positions = np.broadcast_to(np.arange(6), (batch, heads, 6))
        out, logits, probs = attn.attend_step_batch(
            q, keys, values, lengths - 1, key_positions, lengths
        )
        assert np.all(np.isneginf(logits[0, :, 3:]))
        assert np.all(probs[0, :, 3:] == 0.0)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-5)
