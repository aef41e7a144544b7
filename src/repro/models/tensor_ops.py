"""Numerically stable tensor primitives with explicit gradients.

All functions operate on NumPy arrays and are written in vectorized form.  The
backward functions implement the exact analytical gradients and are verified
against finite differences in ``tests/models/test_tensor_ops.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "softmax",
    "log_softmax",
    "softmax_backward",
    "gelu",
    "gelu_backward",
    "layer_norm",
    "layer_norm_backward",
    "cross_entropy",
]

# Coefficient of the tanh GeLU approximation (same as GPT-2 / GPT-J).
# A Python float so float32 inputs are not silently promoted to float64.
_GELU_C = float(np.sqrt(2.0 / np.pi))


_FLOAT_KINDS = frozenset("f")


def _as_float(x: np.ndarray) -> np.ndarray:
    """View ``x`` as a floating array, preserving float32/float64 inputs."""
    x = np.asarray(x)
    if x.dtype.kind not in _FLOAT_KINDS:
        return x.astype(np.float64)
    return x


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    Rows that are entirely ``-inf`` (fully masked) produce all-zero outputs
    rather than NaNs, which is convenient for causal attention masks.  The
    input's floating dtype is preserved (float32 stays float32).
    """
    x = _as_float(x)
    # ndarray methods skip the np.max/np.sum dispatch overhead, which is
    # measurable on the (B, H, L) arrays of the per-token decode path.
    x_max = x.max(axis=axis, keepdims=True)
    # Fully-masked rows have max == -inf; shift them to zero to avoid NaN.
    x_max = np.where(np.isfinite(x_max), x_max, 0.0)
    e = np.exp(x - x_max)
    denom = e.sum(axis=axis, keepdims=True)
    denom = np.where(denom == 0.0, 1.0, denom)
    return e / denom


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis`` (dtype-preserving)."""
    x = _as_float(x)
    x_max = x.max(axis=axis, keepdims=True)
    x_max = np.where(np.isfinite(x_max), x_max, 0.0)
    shifted = x - x_max
    log_denom = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted - log_denom


def softmax_backward(dprobs: np.ndarray, probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient of softmax given upstream gradient ``dprobs`` and output ``probs``."""
    inner = np.sum(dprobs * probs, axis=axis, keepdims=True)
    return probs * (dprobs - inner)


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximated Gaussian Error Linear Unit (dtype-preserving).

    Computed with an in-place operation chain; bit-identical to the textbook
    ``0.5 * x * (1 + tanh(c * (x + 0.044715 * x^3)))`` because multiplication
    is exactly commutative and scaling by 0.5 is exact.
    """
    x = _as_float(x)
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _GELU_C
    np.tanh(inner, out=inner)
    inner += 1.0
    inner *= x
    inner *= 0.5
    return inner


def gelu_backward(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of the tanh-approximated GeLU with respect to its input."""
    x = _as_float(x)
    u = _GELU_C * (x + 0.044715 * x**3)
    tanh_u = np.tanh(u)
    du_dx = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    dgelu = 0.5 * (1.0 + tanh_u) + 0.5 * x * (1.0 - tanh_u**2) * du_dx
    return dout * dgelu


def layer_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, dict]:
    """Layer normalization over the last dimension.

    Returns the normalized output and a cache consumed by
    :func:`layer_norm_backward`.
    """
    x = _as_float(x)
    d = x.shape[-1]
    # Hand-rolled mean/var: bit-identical to ndarray.mean/.var but without
    # their per-call dispatch overhead (the decode path normalizes (B, d)
    # vectors thousands of times per generation).
    mean = x.sum(axis=-1, keepdims=True) / d
    centered = x - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    out = gamma * x_hat + beta
    cache = {"x_hat": x_hat, "inv_std": inv_std, "gamma": gamma}
    return out, cache


def layer_norm_backward(
    dout: np.ndarray, cache: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`layer_norm`.

    Returns ``(dx, dgamma, dbeta)``.  ``dgamma`` and ``dbeta`` are summed over
    all leading dimensions.
    """
    x_hat = cache["x_hat"]
    inv_std = cache["inv_std"]
    gamma = cache["gamma"]
    d = x_hat.shape[-1]

    reduce_axes = tuple(range(dout.ndim - 1))
    dgamma = np.sum(dout * x_hat, axis=reduce_axes)
    dbeta = np.sum(dout, axis=reduce_axes)

    dx_hat = dout * gamma
    dx = (
        inv_std
        / d
        * (
            d * dx_hat
            - np.sum(dx_hat, axis=-1, keepdims=True)
            - x_hat * np.sum(dx_hat * x_hat, axis=-1, keepdims=True)
        )
    )
    return dx, dgamma, dbeta


def cross_entropy(
    logits: np.ndarray, targets: np.ndarray, ignore_index: int = -100
) -> tuple[float, np.ndarray]:
    """Mean token-level cross entropy and its gradient w.r.t. ``logits``.

    Parameters
    ----------
    logits:
        Array of shape ``(N, vocab)``.
    targets:
        Integer array of shape ``(N,)``.  Positions equal to ``ignore_index``
        contribute neither to the loss nor to the gradient.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D (N, vocab), got shape {logits.shape}")
    if targets.shape[0] != logits.shape[0]:
        raise ValueError("targets length must match logits rows")

    mask = targets != ignore_index
    n_valid = int(mask.sum())
    logp = log_softmax(logits, axis=-1)
    safe_targets = np.where(mask, targets, 0)
    picked = logp[np.arange(logits.shape[0]), safe_targets]
    loss = -float(np.sum(picked * mask)) / max(n_valid, 1)

    probs = np.exp(logp)
    dlogits = probs
    dlogits[np.arange(logits.shape[0]), safe_targets] -= 1.0
    dlogits *= mask[:, None] / max(n_valid, 1)
    return loss, dlogits

