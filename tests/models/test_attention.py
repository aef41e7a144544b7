"""Tests for multi-head attention: masking, gradients and decode-path equivalence."""

import numpy as np
import pytest

from repro.models.attention import MultiHeadAttention
from tests.conftest import tiny_config


def make_attention(positional="rope", seed=0):
    config = tiny_config(positional)
    return MultiHeadAttention(config, np.random.default_rng(seed)), config


class TestForward:
    @pytest.mark.parametrize("positional", ["rope", "alibi", "learned", "none"])
    def test_output_shape(self, positional, rng):
        attn, config = make_attention(positional)
        x = rng.normal(size=(2, 6, config.d_model))
        out = attn(x)
        assert out.shape == x.shape

    def test_causality(self, rng):
        """Changing a future token must not affect earlier outputs."""
        attn, config = make_attention("rope")
        x = rng.normal(size=(1, 8, config.d_model))
        out_a = attn(x).copy()
        x_mod = x.copy()
        x_mod[0, -1] += 10.0
        out_b = attn(x_mod)
        np.testing.assert_allclose(out_a[0, :-1], out_b[0, :-1], atol=1e-10)
        assert not np.allclose(out_a[0, -1], out_b[0, -1])

    @pytest.mark.parametrize("positional", ["rope", "alibi", "none"])
    def test_float32_forward_stays_close_to_float64(self, positional, rng):
        """Below float64 the two prompt GEMMs run through BLAS matmul (the
        dtype rule of ``attend_step``); outputs, stored logits and stored
        probabilities stay within float32 rounding of the exact path."""
        exact, config = make_attention(positional)
        fast, _ = make_attention(positional)
        fast.to_dtype(np.float32)
        x = rng.normal(size=(2, 40, config.d_model))
        want = exact(x, store_attention=True)
        got = fast(x.astype(np.float32), store_attention=True)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)
        live = np.isfinite(exact.last_scores)
        np.testing.assert_array_equal(np.isfinite(fast.last_scores), live)
        np.testing.assert_allclose(
            fast.last_scores[live], exact.last_scores[live], rtol=0, atol=1e-5
        )
        np.testing.assert_allclose(fast.last_attention, exact.last_attention, rtol=0, atol=1e-6)
        if positional != "alibi":  # the float64 ALiBi bias promotes the scores
            assert got.dtype == fast.last_scores.dtype == np.float32

    def test_attention_rows_are_distributions(self, rng):
        attn, config = make_attention("alibi")
        x = rng.normal(size=(1, 5, config.d_model))
        attn(x, store_attention=True)
        probs = attn.last_attention
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        # Upper triangle must be exactly zero (masked).
        t = probs.shape[-1]
        mask = np.triu(np.ones((t, t), dtype=bool), k=1)
        assert np.all(probs[..., mask] == 0.0)

    def test_store_attention_keeps_kv_and_scores(self, rng):
        attn, config = make_attention("rope")
        x = rng.normal(size=(2, 4, config.d_model))
        attn(x, store_attention=True)
        k_raw, v = attn.last_kv
        assert k_raw.shape == (2, config.n_heads, 4, config.d_head)
        assert v.shape == k_raw.shape
        assert attn.last_scores.shape == (2, config.n_heads, 4, 4)

    def test_backward_input_gradient_matches_fd(self, rng):
        attn, config = make_attention("rope")
        x = rng.normal(size=(1, 3, config.d_model))
        upstream = rng.normal(size=(1, 3, config.d_model))

        def scalar(inp):
            return float(np.sum(attn.forward(inp) * upstream))

        attn.zero_grad()
        attn.forward(x)
        dx = attn.backward(upstream)

        eps = 1e-5
        numeric = np.zeros_like(x)
        flat_x = x.reshape(-1)
        flat_num = numeric.reshape(-1)
        for i in range(0, flat_x.size, 7):  # sample every 7th coordinate for speed
            orig = flat_x[i]
            flat_x[i] = orig + eps
            plus = scalar(x)
            flat_x[i] = orig - eps
            minus = scalar(x)
            flat_x[i] = orig
            flat_num[i] = (plus - minus) / (2 * eps)
        sampled = flat_num != 0
        np.testing.assert_allclose(dx.reshape(-1)[sampled], flat_num[sampled], atol=1e-5)


class TestDecodeStep:
    @pytest.mark.parametrize("positional", ["rope", "alibi", "learned"])
    def test_decode_matches_full_forward_last_row(self, positional, rng):
        """Attending a single query over cached keys must reproduce the last row
        of the full-sequence attention output."""
        attn, config = make_attention(positional)
        t = 6
        x = rng.normal(size=(1, t, config.d_model))
        full_out = attn(x, store_attention=True)
        k_raw, v = attn.last_kv

        q, k_new, v_new = attn.project_qkv(x[:, -1, :])
        np.testing.assert_allclose(k_new, k_raw[:, :, -1, :], atol=1e-10)

        key_positions = np.broadcast_to(np.arange(t), (1, config.n_heads, t))
        out, logits, probs = attn.attend_step(q, k_raw, v, t - 1, key_positions)
        np.testing.assert_allclose(out, full_out[:, -1, :], atol=1e-8)
        np.testing.assert_allclose(probs[0], attn.last_attention[0, :, -1, :], atol=1e-8)

    def test_logits_match_stored_scores(self, rng):
        attn, config = make_attention("alibi")
        t = 5
        x = rng.normal(size=(1, t, config.d_model))
        attn(x, store_attention=True)
        k_raw, v = attn.last_kv
        q, _, _ = attn.project_qkv(x[:, -1, :])
        key_positions = np.broadcast_to(np.arange(t), (1, config.n_heads, t))
        _, logits, _ = attn.attend_step(q, k_raw, v, t - 1, key_positions)
        np.testing.assert_allclose(logits[0], attn.last_scores[0, :, -1, :], atol=1e-8)

    def test_project_qkv_rejects_bad_shape(self, rng):
        attn, config = make_attention("rope")
        with pytest.raises(ValueError):
            attn.project_qkv(rng.normal(size=(1, 3, config.d_model)))

    def test_subset_of_keys_changes_output(self, rng):
        attn, config = make_attention("rope")
        t = 8
        x = rng.normal(size=(1, t, config.d_model))
        attn(x, store_attention=True)
        k_raw, v = attn.last_kv
        q, _, _ = attn.project_qkv(x[:, -1, :])
        all_pos = np.broadcast_to(np.arange(t), (1, config.n_heads, t))
        full, _, _ = attn.attend_step(q, k_raw, v, t - 1, all_pos)
        subset = np.arange(t - 3, t)
        sub_pos = np.broadcast_to(subset, (1, config.n_heads, 3))
        reduced, _, probs = attn.attend_step(
            q, k_raw[:, :, subset, :], v[:, :, subset, :], t - 1, sub_pos
        )
        assert not np.allclose(full, reduced)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
