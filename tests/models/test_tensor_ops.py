"""Unit and property tests for the tensor primitives and their gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.models import tensor_ops as ops
from tests.conftest import finite_difference_gradient

finite_floats = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.normal(size=(3, 7))
        probs = ops.softmax(x)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_invariant_to_shift(self, rng):
        x = rng.normal(size=(4, 5))
        np.testing.assert_allclose(ops.softmax(x), ops.softmax(x + 100.0), atol=1e-12)

    def test_handles_masked_rows(self):
        x = np.array([[1.0, -np.inf, 2.0], [-np.inf, -np.inf, -np.inf]])
        probs = ops.softmax(x)
        assert probs[0, 1] == 0.0
        np.testing.assert_allclose(probs[0].sum(), 1.0)
        np.testing.assert_allclose(probs[1], 0.0)

    def test_matches_log_softmax(self, rng):
        x = rng.normal(size=(2, 9))
        np.testing.assert_allclose(np.exp(ops.log_softmax(x)), ops.softmax(x), atol=1e-12)

    @given(arrays(np.float64, (3, 6), elements=finite_floats))
    @settings(max_examples=25, deadline=None)
    def test_property_probabilities(self, x):
        probs = ops.softmax(x)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)

    def test_softmax_backward_matches_fd(self, rng):
        x = rng.normal(size=(2, 5))
        upstream = rng.normal(size=(2, 5))

        def scalar(inp):
            return float(np.sum(ops.softmax(inp) * upstream))

        probs = ops.softmax(x)
        analytic = ops.softmax_backward(upstream, probs)
        numeric = finite_difference_gradient(scalar, x.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)


class TestGelu:
    def test_zero_at_zero(self):
        assert ops.gelu(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_monotone_for_positive(self, rng):
        x = np.linspace(0.1, 5, 50)
        y = ops.gelu(x)
        assert np.all(np.diff(y) > 0)

    def test_backward_matches_fd(self, rng):
        x = rng.normal(size=(4, 3))
        upstream = rng.normal(size=(4, 3))

        def scalar(inp):
            return float(np.sum(ops.gelu(inp) * upstream))

        analytic = ops.gelu_backward(upstream, x)
        numeric = finite_difference_gradient(scalar, x.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)


class TestLayerNorm:
    def test_normalizes_mean_and_variance(self, rng):
        x = rng.normal(3.0, 2.0, size=(5, 16))
        out, _ = ops.layer_norm(x, np.ones(16), np.zeros(16))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_gamma_beta_applied(self, rng):
        x = rng.normal(size=(2, 8))
        gamma = np.full(8, 2.0)
        beta = np.full(8, -1.0)
        out, _ = ops.layer_norm(x, gamma, beta)
        base, _ = ops.layer_norm(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(out, 2.0 * base - 1.0, atol=1e-12)

    def test_backward_matches_fd(self, rng):
        x = rng.normal(size=(3, 6))
        gamma = rng.normal(size=6)
        beta = rng.normal(size=6)
        upstream = rng.normal(size=(3, 6))

        def scalar_x(inp):
            out, _ = ops.layer_norm(inp, gamma, beta)
            return float(np.sum(out * upstream))

        _, cache = ops.layer_norm(x, gamma, beta)
        dx, dgamma, dbeta = ops.layer_norm_backward(upstream, cache)
        np.testing.assert_allclose(dx, finite_difference_gradient(scalar_x, x.copy()), atol=1e-5)

        def scalar_gamma(g):
            out, _ = ops.layer_norm(x, g, beta)
            return float(np.sum(out * upstream))

        np.testing.assert_allclose(
            dgamma, finite_difference_gradient(scalar_gamma, gamma.copy()), atol=1e-5
        )
        np.testing.assert_allclose(dbeta, upstream.sum(axis=0), atol=1e-12)


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.full((2, 4), -20.0)
        logits[0, 1] = 20.0
        logits[1, 2] = 20.0
        loss, _ = ops.cross_entropy(logits, np.array([1, 2]))
        assert loss < 1e-8

    def test_uniform_logits_loss_is_log_vocab(self):
        logits = np.zeros((3, 10))
        loss, _ = ops.cross_entropy(logits, np.array([0, 5, 9]))
        np.testing.assert_allclose(loss, np.log(10), atol=1e-9)

    def test_ignore_index_excluded(self, rng):
        logits = rng.normal(size=(4, 6))
        targets = np.array([1, -100, 3, -100])
        loss, grad = ops.cross_entropy(logits, targets)
        assert np.allclose(grad[1], 0.0) and np.allclose(grad[3], 0.0)
        loss_only, _ = ops.cross_entropy(logits[[0, 2]], targets[[0, 2]])
        np.testing.assert_allclose(loss, loss_only, atol=1e-12)

    def test_gradient_matches_fd(self, rng):
        logits = rng.normal(size=(3, 5))
        targets = np.array([0, 2, 4])

        def scalar(inp):
            loss, _ = ops.cross_entropy(inp, targets)
            return loss

        _, grad = ops.cross_entropy(logits, targets)
        numeric = finite_difference_gradient(scalar, logits.copy())
        np.testing.assert_allclose(grad, numeric, atol=1e-6)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ops.cross_entropy(np.zeros((2, 3, 4)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            ops.cross_entropy(np.zeros((2, 3)), np.zeros(3, dtype=int))
