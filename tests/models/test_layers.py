"""Tests for Linear / LayerNorm / Embedding layers and the Module base class."""

import numpy as np
import pytest

from repro.models.layers import Embedding, LayerNorm, Linear, Module
from tests.conftest import finite_difference_gradient


class TestLinear:
    def test_forward_shape_and_value(self, rng):
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(2, 5, 4))
        out = layer(x)
        assert out.shape == (2, 5, 3)
        np.testing.assert_allclose(out, x @ layer.params["W"] + layer.params["b"], atol=1e-12)

    def test_backward_gradients_match_fd(self, rng):
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3))
        upstream = rng.normal(size=(4, 2))

        def loss_wrt_w(w):
            return float(np.sum((x @ w + layer.params["b"]) * upstream))

        layer.zero_grad()
        layer(x)
        dx = layer.backward(upstream)
        np.testing.assert_allclose(
            layer.grads["W"],
            finite_difference_gradient(loss_wrt_w, layer.params["W"].copy()),
            atol=1e-6,
        )
        np.testing.assert_allclose(layer.grads["b"], upstream.sum(axis=0), atol=1e-12)
        np.testing.assert_allclose(dx, upstream @ layer.params["W"].T, atol=1e-12)

    def test_backward_before_forward_raises(self, rng):
        layer = Linear(2, 2, rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_gradients_accumulate(self, rng):
        layer = Linear(3, 3, rng)
        x = rng.normal(size=(2, 3))
        layer(x)
        layer.backward(np.ones((2, 3)))
        first = layer.grads["W"].copy()
        layer(x)
        layer.backward(np.ones((2, 3)))
        np.testing.assert_allclose(layer.grads["W"], 2 * first, atol=1e-12)


class TestEmbedding:
    def test_lookup(self, rng):
        emb = Embedding(10, 4, rng)
        ids = np.array([[1, 2], [3, 4]])
        out = emb(ids)
        np.testing.assert_allclose(out[0, 0], emb.params["weight"][1])

    def test_out_of_range_raises(self, rng):
        emb = Embedding(5, 2, rng)
        with pytest.raises(IndexError):
            emb(np.array([5]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_backward_scatter_adds(self, rng):
        emb = Embedding(6, 3, rng)
        ids = np.array([1, 1, 2])
        emb(ids)
        emb.backward(np.ones((3, 3)))
        np.testing.assert_allclose(emb.grads["weight"][1], 2.0)
        np.testing.assert_allclose(emb.grads["weight"][2], 1.0)
        np.testing.assert_allclose(emb.grads["weight"][0], 0.0)


class TestModuleTree:
    class _Composite(Module):
        def __init__(self, rng):
            super().__init__()
            self.linear = Linear(3, 3, rng)
            self.norm = LayerNorm(3)
            self.stack = [Linear(3, 2, rng), Linear(2, 3, rng)]

    def test_named_parameters_recurse(self, rng):
        module = self._Composite(rng)
        names = dict(module.named_parameters()).keys()
        assert "linear.W" in names and "norm.gamma" in names
        assert "stack.0.W" in names and "stack.1.b" in names

    def test_state_dict_round_trip(self, rng):
        module = self._Composite(rng)
        state = module.state_dict()
        other = self._Composite(np.random.default_rng(99))
        other.load_state_dict(state)
        for (name_a, a), (name_b, b) in zip(
            sorted(module.named_parameters()), sorted(other.named_parameters())
        ):
            assert name_a == name_b
            np.testing.assert_allclose(a, b)

    def test_load_state_dict_rejects_mismatch(self, rng):
        module = self._Composite(rng)
        state = module.state_dict()
        state.pop("linear.W")
        with pytest.raises(KeyError):
            module.load_state_dict(state)

    def test_load_state_dict_rejects_bad_shape(self, rng):
        module = self._Composite(rng)
        state = module.state_dict()
        state["linear.W"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            module.load_state_dict(state)

    def test_zero_grad(self, rng):
        module = self._Composite(rng)
        module.linear(np.ones((1, 3)))
        module.linear.backward(np.ones((1, 3)))
        assert np.abs(module.linear.grads["W"]).sum() > 0
        module.zero_grad()
        assert np.abs(module.linear.grads["W"]).sum() == 0

    def test_n_parameters(self, rng):
        module = self._Composite(rng)
        expected = (3 * 3 + 3) + (3 + 3) + (3 * 2 + 2) + (2 * 3 + 3)
        assert sum(p.size for _, p in module.named_parameters()) == expected
