"""Tests for optimizers, learning-rate schedules and the trainer."""

import numpy as np
import pytest

from repro.models.layers import Linear, Module
from repro.models.transformer import DecoderLM
from repro.training.lr_schedule import CosineWithWarmup
from repro.training.optimizer import Adam, clip_gradients
from repro.training.trainer import Trainer, TrainingConfig
from tests.conftest import tiny_config


class _Quadratic(Module):
    """Minimal model with a single parameter vector, loss = ||w - target||^2."""

    def __init__(self, target):
        super().__init__()
        self.params = {"w": np.zeros_like(target)}
        self.grads = {"w": np.zeros_like(target)}
        self.target = target

    def loss_and_grad(self):
        diff = self.params["w"] - self.target
        self.grads["w"][...] = 2 * diff
        return float(np.sum(diff**2))


class TestOptimizers:
    def test_adam_converges_on_quadratic(self):
        model = _Quadratic(np.array([1.0, -2.0, 3.0]))
        optimizer = Adam(model, lr=0.1)
        for _ in range(300):
            model.loss_and_grad()
            optimizer.step()
        np.testing.assert_allclose(model.params["w"], model.target, atol=1e-2)

    def test_adam_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam(_Quadratic(np.ones(2)), lr=0.0)

    def test_weight_decay_shrinks_weights(self, rng):
        layer = Linear(4, 4, rng)
        layer.params["W"][...] = 1.0
        optimizer = Adam(layer, lr=0.0 + 1e-12, weight_decay=0.1)
        # With (almost) zero lr the Adam update itself is negligible but decay
        # is proportional to lr, so use a real lr and zero gradients instead.
        optimizer = Adam(layer, lr=0.01, weight_decay=0.5)
        layer.zero_grad()
        before = np.abs(layer.params["W"]).mean()
        optimizer.step()
        assert np.abs(layer.params["W"]).mean() < before

    def test_clip_gradients(self, rng):
        layer = Linear(3, 3, rng)
        layer.grads["W"][...] = 10.0
        layer.grads["b"][...] = 10.0
        norm = clip_gradients(layer, max_norm=1.0)
        assert norm > 1.0
        total = np.sqrt(sum(float(np.sum(g * g)) for _, g in layer.named_gradients()))
        np.testing.assert_allclose(total, 1.0, atol=1e-9)


class TestSchedules:
    def test_cosine_decay(self):
        schedule = CosineWithWarmup(1.0, warmup_steps=5, total_steps=50, min_lr=0.1)
        assert schedule(0) < schedule(4)
        assert schedule(5) == pytest.approx(1.0)
        assert schedule(50) == pytest.approx(0.1)
        values = [schedule(t) for t in range(5, 51)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_cosine_validation(self):
        with pytest.raises(ValueError):
            CosineWithWarmup(1.0, warmup_steps=10, total_steps=5)


class TestTrainer:
    def test_training_reduces_loss(self, rng):
        model = DecoderLM(tiny_config("rope"), seed=2)
        token = 7
        pairs = []
        for _ in range(16):
            seq = np.full(16, token)
            seq[0] = 1
            pairs.append((seq, np.concatenate([seq[1:], [2]])))
        trainer = Trainer(model, TrainingConfig(n_steps=30, batch_size=4, log_every=0))
        result = trainer.train_on_dataset(pairs)
        assert result.final_loss < result.initial_loss
        assert result.n_steps == 30
        assert len(result.losses) == 30

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(n_steps=0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)

    def test_empty_dataset_rejected(self, rng):
        model = DecoderLM(tiny_config("rope"), seed=0)
        trainer = Trainer(model, TrainingConfig(n_steps=2, batch_size=2))
        with pytest.raises(ValueError):
            trainer.train_on_dataset([])

    def test_finite_iterable_is_cycled(self, rng):
        model = DecoderLM(tiny_config("rope"), seed=0)
        trainer = Trainer(model, TrainingConfig(n_steps=5, batch_size=2, log_every=0))
        seq = rng.integers(0, 64, size=(2, 8))
        batches = [(seq, np.roll(seq, -1, axis=1))]
        result = trainer.train(iter(batches))
        assert len(result.losses) == 5

    def test_log_fn_called(self, rng):
        messages = []
        model = DecoderLM(tiny_config("rope"), seed=0)
        trainer = Trainer(
            model, TrainingConfig(n_steps=3, batch_size=2, log_every=1), log_fn=messages.append
        )
        seq = rng.integers(0, 64, size=(2, 8))
        trainer.train(iter([(seq, np.roll(seq, -1, axis=1))]))
        assert len(messages) == 3
