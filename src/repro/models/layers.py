"""Basic trainable layers (Linear, LayerNorm, Embedding) with manual autodiff.

Every layer owns its parameters in ``self.params`` and the matching gradients
in ``self.grads``.  Inference calls ``apply``, which writes no attribute.
The training ``forward`` caches whatever the corresponding ``backward``
needs and computes what ``apply`` does; ``backward`` accumulates parameter
gradients and returns the gradient with respect to the layer input.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.models import tensor_ops as ops

__all__ = ["Module", "Linear", "LayerNorm", "Embedding", "dot_rows"]


def dot_rows(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Row-exact batched matmul: each output row bitwise equals ``x[b:b+1] @ weight``.

    BLAS matmul kernels pick different reduction orders for different batch
    sizes, so ``(B, d) @ W`` is *not* bitwise row-equal to ``(1, d) @ W``.
    This applies the single-row kernel per row instead (a 1-D row through
    BLAS produces the same bits as the 2-D single-row call — pinned by
    ``tests/models/test_batched_decode.py``), which is what keeps the batched
    float64 decode path bit-identical to solo decoding.
    """
    if x.shape[0] == 1:
        return x @ weight
    dtype = weight.dtype if x.dtype == weight.dtype else np.result_type(x, weight)
    out = np.empty((x.shape[0], weight.shape[1]), dtype=dtype)
    for b in range(x.shape[0]):
        np.dot(x[b], weight, out=out[b])
    return out


class Module:
    """Minimal module base class with recursive parameter discovery."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def submodules(self) -> Iterator[tuple[str, "Module"]]:
        """Yield ``(attribute_name, module)`` for direct child modules."""
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(qualified_name, parameter_array)`` recursively."""
        for name, param in self.params.items():
            yield f"{prefix}{name}", param
        for child_name, child in self.submodules():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def named_gradients(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(qualified_name, gradient_array)`` recursively."""
        for name, grad in self.grads.items():
            yield f"{prefix}{name}", grad
        for child_name, child in self.submodules():
            yield from child.named_gradients(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        """Reset all gradients (recursively) to zero."""
        for name in self.grads:
            self.grads[name][...] = 0.0
        for _, child in self.submodules():
            child.zero_grad()

    def to_dtype(self, dtype: np.dtype | str) -> "Module":
        """Cast all parameters and gradients (recursively) to ``dtype`` in place."""
        dtype = np.dtype(dtype)
        for name, param in self.params.items():
            self.params[name] = param.astype(dtype, copy=False)
        for name, grad in self.grads.items():
            self.grads[name] = grad.astype(dtype, copy=False)
        for _, child in self.submodules():
            child.to_dtype(dtype)
        return self

    def n_parameters(self) -> int:
        """Total number of scalar parameters in this module tree."""
        return sum(p.size for _, p in self.named_parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat ``name -> array`` mapping of all parameters."""
        return {name: param.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters in place from :meth:`state_dict` output."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if param.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {param.shape} vs {state[name].shape}"
                )
            param[...] = state[name]


class Linear(Module):
    """Affine projection ``y = x @ W + b``."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, init_std: float = 0.02):
        super().__init__()
        self.d_in = d_in
        self.d_out = d_out
        self.params = {
            "W": rng.normal(0.0, init_std, size=(d_in, d_out)),
            "b": np.zeros(d_out),
        }
        self.grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        self._x: np.ndarray | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The projection, caching nothing."""
        out = x @ self.params["W"]
        out += self.params["b"]
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the projection; caches the input for the backward pass."""
        self._x = x
        return self.apply(x)

    def forward_rows(self, x: np.ndarray) -> np.ndarray:
        """Row-exact batched projection for the bit-parity decode path.

        Each output row is bit-identical to ``forward(x[b:b+1])`` (see
        :func:`dot_rows`).  Used by the batched decode path at float64; does
        not cache activations (inference only, no backward).
        """
        out = dot_rows(x, self.params["W"])
        out += self.params["b"]
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients and return ``d(loss)/d(input)``."""
        if self._x is None:
            raise RuntimeError("backward called before forward")
        x2d = self._x.reshape(-1, self.d_in)
        dout2d = dout.reshape(-1, self.d_out)
        self.grads["W"] += x2d.T @ dout2d
        self.grads["b"] += dout2d.sum(axis=0)
        return (dout2d @ self.params["W"].T).reshape(self._x.shape)


class LayerNorm(Module):
    """Layer normalization over the trailing dimension."""

    def __init__(self, d: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.params = {"gamma": np.ones(d), "beta": np.zeros(d)}
        self.grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        self._cache: dict | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The normalization, caching nothing."""
        return ops.layer_norm(x, self.params["gamma"], self.params["beta"], eps=self.eps)[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._cache = ops.layer_norm(
            x, self.params["gamma"], self.params["beta"], eps=self.eps
        )
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        dx, dgamma, dbeta = ops.layer_norm_backward(dout, self._cache)
        self.grads["gamma"] += dgamma
        self.grads["beta"] += dbeta
        return dx


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, n_embeddings: int, d: int, rng: np.random.Generator, init_std: float = 0.02):
        super().__init__()
        self.n_embeddings = n_embeddings
        self.d = d
        self.params = {"weight": rng.normal(0.0, init_std, size=(n_embeddings, d))}
        self.grads = {"weight": np.zeros((n_embeddings, d))}
        self._ids: np.ndarray | None = None

    def apply(self, ids: np.ndarray) -> np.ndarray:
        """The lookup, caching nothing."""
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_embeddings):
            raise IndexError(
                f"embedding ids out of range [0, {self.n_embeddings}): "
                f"min={ids.min()} max={ids.max()}"
            )
        return self.params["weight"][ids]

    def forward(self, ids: np.ndarray) -> np.ndarray:
        self._ids = np.asarray(ids)
        return self.apply(ids)

    def __call__(self, ids: np.ndarray) -> np.ndarray:
        return self.forward(ids)

    def backward(self, dout: np.ndarray) -> None:
        if self._ids is None:
            raise RuntimeError("backward called before forward")
        np.add.at(self.grads["weight"], self._ids.reshape(-1), dout.reshape(-1, self.d))
