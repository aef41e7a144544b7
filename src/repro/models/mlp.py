"""Position-wise feed-forward block with GeLU activation."""

from __future__ import annotations

import numpy as np

from repro.models import tensor_ops as ops
from repro.models.config import ModelConfig
from repro.models.layers import Linear, Module

__all__ = ["MLP"]


class MLP(Module):
    """Two-layer feed-forward network ``W2(gelu(W1 x))``."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.fc_in = Linear(config.d_model, config.d_ff, rng, config.init_std)
        self.fc_out = Linear(config.d_ff, config.d_model, rng, config.init_std)
        self._pre_act: np.ndarray | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The feed-forward pass, caching nothing."""
        return self.fc_out.apply(ops.gelu(self.fc_in.apply(x)))

    def forward(self, x: np.ndarray) -> np.ndarray:
        hidden = self.fc_in(x)
        self._pre_act = hidden
        return self.fc_out(ops.gelu(hidden))

    def forward_rows(self, x: np.ndarray) -> np.ndarray:
        """Row-exact batched forward (bit-parity decode path, no backward).

        GeLU is elementwise and the projections use the single-row kernel per
        row, so each output row is bit-identical to ``forward(x[b:b+1])``.
        """
        return self.fc_out.forward_rows(ops.gelu(self.fc_in.forward_rows(x)))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._pre_act is None:
            raise RuntimeError("backward called before forward")
        dhidden_act = self.fc_out.backward(dout)
        dhidden = ops.gelu_backward(dhidden_act, self._pre_act)
        return self.fc_in.backward(dhidden)
