"""First-order optimizers operating on a :class:`repro.models.layers.Module` tree."""

from __future__ import annotations

import numpy as np

from repro.models.layers import Module

__all__ = ["Adam", "clip_gradients"]


def clip_gradients(model: Module, max_norm: float) -> float:
    """Clip all gradients to a global L2 norm; returns the pre-clip norm."""
    grads = [g for _, g in model.named_gradients()]
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total


class Adam:
    """Adam optimizer with decoupled weight decay (AdamW style).

    The optimizer keeps its own first/second moment buffers keyed by the
    qualified parameter names produced by ``Module.named_parameters``.
    """

    def __init__(
        self,
        model: Module,
        lr: float = 3e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.model = model
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        for name, param in model.named_parameters():
            self.m[name] = np.zeros_like(param)
            self.v[name] = np.zeros_like(param)

    def step(self, lr: float | None = None) -> None:
        """Apply one Adam update using the gradients stored in the model."""
        lr = self.lr if lr is None else lr
        self.t += 1
        params = dict(self.model.named_parameters())
        grads = dict(self.model.named_gradients())
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for name, param in params.items():
            g = grads[name]
            if self.weight_decay and param.ndim > 1:
                param -= lr * self.weight_decay * param
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / bias1
            v_hat = v / bias2
            param -= lr * m_hat / (np.sqrt(v_hat) + self.eps)
