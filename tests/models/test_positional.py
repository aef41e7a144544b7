"""Tests for RoPE and ALiBi positional encodings."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.positional import (
    RopeTable,
    _rope_cos_sin,
    alibi_bias_matrix,
    alibi_bias_step,
    alibi_slopes,
    get_rope_table,
    rope_rotate,
    rope_rotate_backward,
)


class TestRope:
    def test_position_zero_is_identity(self, rng):
        x = rng.normal(size=(2, 3, 8))
        np.testing.assert_allclose(rope_rotate(x, np.zeros((2, 3))), x, atol=1e-12)

    def test_norm_preserved(self, rng):
        x = rng.normal(size=(2, 4, 5, 16))
        rotated = rope_rotate(x, np.arange(5))
        np.testing.assert_allclose(
            np.linalg.norm(rotated, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-9
        )

    def test_inverse_rotation_round_trip(self, rng):
        x = rng.normal(size=(3, 7, 8))
        positions = np.arange(7)
        rotated = rope_rotate(x, positions)
        recovered = rope_rotate(rotated, positions, inverse=True)
        np.testing.assert_allclose(recovered, x, atol=1e-9)

    def test_backward_is_inverse(self, rng):
        x = rng.normal(size=(2, 5, 8))
        positions = np.arange(5)
        np.testing.assert_allclose(
            rope_rotate_backward(x, positions), rope_rotate(x, positions, inverse=True), atol=1e-12
        )

    def test_relative_position_property(self, rng):
        """q·k after RoPE depends only on the relative offset between positions."""
        d = 8
        q = rng.normal(size=d)
        k = rng.normal(size=d)
        dot_a = rope_rotate(q, np.array(7)) @ rope_rotate(k, np.array(3))
        dot_b = rope_rotate(q, np.array(14)) @ rope_rotate(k, np.array(10))
        np.testing.assert_allclose(dot_a, dot_b, atol=1e-9)

    def test_partial_rotation_leaves_tail_untouched(self, rng):
        x = rng.normal(size=(1, 4, 8))
        rotated = rope_rotate(x, np.arange(4), rope_dims=4)
        np.testing.assert_allclose(rotated[..., 4:], x[..., 4:], atol=1e-12)
        assert not np.allclose(rotated[..., :4][..., 1:], x[..., :4][..., 1:])

    def test_invalid_rope_dims(self, rng):
        x = rng.normal(size=(1, 2, 8))
        with pytest.raises(ValueError):
            rope_rotate(x, np.arange(2), rope_dims=16)
        with pytest.raises(ValueError):
            rope_rotate(x, np.arange(2), rope_dims=3)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_property_norm_preserved_any_position(self, position):
        rng = np.random.default_rng(position)
        x = rng.normal(size=(1, 1, 8))
        rotated = rope_rotate(x, np.array(position))
        np.testing.assert_allclose(
            np.linalg.norm(rotated), np.linalg.norm(x), atol=1e-9
        )


class TestAlibi:
    def test_slopes_power_of_two(self):
        slopes = alibi_slopes(8)
        assert slopes.shape == (8,)
        assert np.all(slopes > 0)
        assert np.all(np.diff(slopes) < 0)  # geometrically decreasing
        np.testing.assert_allclose(slopes[0], 2 ** (-8 / 8), atol=1e-12)

    def test_slopes_non_power_of_two(self):
        slopes = alibi_slopes(6)
        assert slopes.shape == (6,)
        assert np.all(slopes > 0)

    def test_slopes_invalid(self):
        with pytest.raises(ValueError):
            alibi_slopes(0)

    @pytest.mark.parametrize("n_heads", [1, 2, 4, 8, 16])
    def test_power_of_two_slopes_are_the_reference_sequence(self, n_heads):
        """Press et al.: head ``h`` (from 0) gets ``2^(-8 (h + 1) / n)``."""
        expected = 2.0 ** (-8.0 * np.arange(1, n_heads + 1) / n_heads)
        np.testing.assert_allclose(alibi_slopes(n_heads), expected, rtol=1e-12)

    @pytest.mark.parametrize("n_heads, closest", [(6, 4), (12, 8)])
    def test_other_head_counts_interleave_the_next_power(self, n_heads, closest):
        """The nearest lower power of two's slopes, then every other slope of
        twice that many heads."""
        extra = alibi_slopes(2 * closest)[0::2][: n_heads - closest]
        np.testing.assert_allclose(
            alibi_slopes(n_heads), np.concatenate([alibi_slopes(closest), extra]), rtol=1e-12
        )

    def test_slopes_are_a_fresh_array(self):
        slopes = alibi_slopes(4)
        slopes[:] = 0.0
        assert np.all(alibi_slopes(4) > 0)

    def test_bias_matrix_shape_and_sign(self):
        bias = alibi_bias_matrix(4, 6)
        assert bias.shape == (4, 6, 6)
        # Diagonal gets zero bias, lower triangle is non-positive.
        assert np.allclose(np.diagonal(bias, axis1=1, axis2=2), 0.0)
        assert np.all(bias <= 0)

    def test_bias_matrix_distance_scaling(self):
        bias = alibi_bias_matrix(2, 5)
        slopes = alibi_slopes(2)
        np.testing.assert_allclose(bias[0, 4, 0], -slopes[0] * 4, atol=1e-12)
        np.testing.assert_allclose(bias[1, 3, 1], -slopes[1] * 2, atol=1e-12)

    def test_bias_step_matches_matrix_row(self):
        n_heads, t = 4, 7
        matrix = alibi_bias_matrix(n_heads, t)
        key_positions = np.broadcast_to(np.arange(t), (1, n_heads, t))
        step = alibi_bias_step(n_heads, t - 1, key_positions)
        np.testing.assert_allclose(step[0], matrix[:, t - 1, :], atol=1e-12)

    def test_bias_step_recent_tokens_favored(self):
        key_positions = np.broadcast_to(np.arange(10), (1, 2, 10))
        bias = alibi_bias_step(2, 9, key_positions)
        # Bias increases (towards zero) with key position: recent keys preferred.
        assert np.all(np.diff(bias[0, 0]) > 0)


ROPE_B, ROPE_H, ROPE_D = 1, 2, 8


class TestRopeTable:
    def test_matches_direct_computation(self):
        table = RopeTable(ROPE_D, initial_capacity=4)
        positions = np.array([0, 3, 17, 200])
        cos, sin = table.cos_sin(positions)
        ref_cos, ref_sin = _rope_cos_sin(positions, ROPE_D)
        np.testing.assert_array_equal(cos, ref_cos)
        np.testing.assert_array_equal(sin, ref_sin)

    def test_grows_on_demand(self):
        table = RopeTable(ROPE_D, initial_capacity=8)
        start = table.capacity
        table.cos_sin(np.array([10 * start]))
        assert table.capacity >= 10 * start + 1

    def test_rotate_matches_rope_rotate(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(ROPE_B, ROPE_H, 5, ROPE_D))
        positions = rng.integers(0, 50, size=(ROPE_B, ROPE_H, 5))
        table = get_rope_table(ROPE_D)
        np.testing.assert_array_equal(
            table.rotate(x, positions), rope_rotate(x, positions, ROPE_D)
        )

    def test_rotate_uniform_matches_rotate(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(ROPE_B, ROPE_H, ROPE_D))
        table = get_rope_table(ROPE_D)
        uniform = table.rotate_uniform(x, 7)
        general = table.rotate(x, np.full((ROPE_B, ROPE_H), 7))
        np.testing.assert_array_equal(uniform, general)

    def test_float32_lookup_matches_cast(self):
        table = RopeTable(ROPE_D, initial_capacity=16)
        x = np.random.default_rng(4).normal(size=(ROPE_B, ROPE_H, ROPE_D)).astype(np.float32)
        out = table.rotate_uniform(x, 3)
        assert out.dtype == np.float32
        ref = rope_rotate(x, np.full((ROPE_B, ROPE_H), 3), ROPE_D)
        np.testing.assert_allclose(out, ref.astype(np.float32), rtol=1e-6)

    def test_cast_tables_follow_growth(self):
        table = RopeTable(ROPE_D, initial_capacity=16)
        assert table._tables(np.dtype(np.float32))[0].shape[0] == 16
        table.rotate(np.ones((1, ROPE_D), np.float32), np.array([100]))
        cos, sin = table._tables(np.dtype(np.float32))
        assert cos.shape[0] == sin.shape[0] == table.capacity > 100
        assert cos.dtype == np.float32

    def test_two_threads_rotating_are_one(self):
        """Positions rising past the capacity grow the table under both
        threads' reads; every rotation is the single-thread one."""
        x = np.random.default_rng(0).normal(size=(4, ROPE_D)).astype(np.float32)
        positions = [np.array([p, p + 1, 2 * p, p // 2]) for p in range(0, 6000, 3)]

        def rotate_all(table, barrier=None):
            if barrier is not None:
                barrier.wait()
            return [table.rotate(x, pos).tobytes() for pos in positions]

        alone = rotate_all(RopeTable(ROPE_D, initial_capacity=16))
        table, barrier = RopeTable(ROPE_D, initial_capacity=16), threading.Barrier(2)
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(rotate_all, table, barrier) for _ in range(2)]
            assert all(future.result() == alone for future in futures)
