"""Positional-encoding families used by the paper's model zoo.

The paper evaluates Keyformer across three positional-encoding mechanisms to
show the method is robust to how position is injected:

* **RoPE** (rotary position embeddings) — GPT-J.
* **ALiBi** (attention with linear biases) — MPT.
* **Learned absolute embeddings** — Cerebras-GPT (handled at the embedding
  layer; see :class:`repro.models.transformer.DecoderLM`).

RoPE and ALiBi act inside the attention computation, so this module exposes
stateless helpers used by both the training path and the incremental decoding
path.  All helpers accept arbitrary leading batch/head dimensions and accept
*per-head* position indices, which is required once KV-cache eviction makes
the retained token set differ between heads (Keyformer "original position"
mode, §4.4.2 of the paper).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "RopeTable",
    "get_rope_table",
    "rope_rotate",
    "rope_rotate_backward",
    "alibi_slopes",
    "alibi_bias_matrix",
    "alibi_bias_step",
]

_ROPE_BASE = 10000.0


def _rope_cos_sin(
    positions: np.ndarray, rope_dims: int, base: float = _ROPE_BASE
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``cos`` and ``sin`` tables of shape ``positions.shape + (rope_dims//2,)``."""
    if rope_dims % 2 != 0:
        raise ValueError(f"rope_dims must be even, got {rope_dims}")
    half = rope_dims // 2
    inv_freq = base ** (-np.arange(half, dtype=np.float64) / half)
    angles = np.asarray(positions, dtype=np.float64)[..., None] * inv_freq
    return np.cos(angles), np.sin(angles)


class RopeTable:
    """Precomputed cos/sin values for integer positions ``0..capacity-1``.

    The incremental decode path looks positions up here instead of evaluating
    ``cos``/``sin`` from scratch every step.  Values are bit-identical to
    :func:`_rope_cos_sin` because both compute ``f(position * inv_freq)`` in
    float64 with the same ``inv_freq`` vector.  The table grows geometrically
    on demand, so one shared instance serves arbitrarily long generations.
    """

    def __init__(self, rope_dims: int, base: float = _ROPE_BASE, initial_capacity: int = 2048):
        if rope_dims % 2 != 0:
            raise ValueError(f"rope_dims must be even, got {rope_dims}")
        self.rope_dims = rope_dims
        self.base = base
        # One ``(cos, sin, casts)`` tuple, so a concurrent reader never mixes
        # capacities; ``casts`` holds lazily built dtype-cast mirrors (e.g.
        # float32), so the decode path never casts cos/sin per call.
        empty = np.empty((0, rope_dims // 2))
        self._state: tuple[np.ndarray, np.ndarray, dict] = (empty, empty, {})
        self._tables(empty.dtype, initial_capacity)

    @property
    def capacity(self) -> int:
        return self._state[0].shape[0]

    def _tables(self, dtype: np.dtype, n_positions: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """cos/sin tables in ``dtype`` (cast once, bit-identical per element)
        for positions ``[0, n_positions)`` at least, read from one state."""
        cos, sin, casts = self._state
        if n_positions > cos.shape[0]:
            capacity = max(n_positions, 2 * cos.shape[0], 16)
            cos, sin = _rope_cos_sin(np.arange(capacity), self.rope_dims, self.base)
            casts = {}
            self._state = (cos, sin, casts)
        if dtype == cos.dtype:
            return cos, sin
        cached = casts.get(dtype)
        if cached is None:
            cached = casts[dtype] = (cos.astype(dtype), sin.astype(dtype))
        return cached

    def cos_sin(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(cos, sin)`` of shape ``positions.shape + (rope_dims//2,)``."""
        positions = np.asarray(positions)
        if positions.size == 0:
            half = self.rope_dims // 2
            return (
                np.empty(positions.shape + (half,)),
                np.empty(positions.shape + (half,)),
            )
        cos, sin = self._tables(np.dtype(np.float64), int(positions.max()) + 1)
        return cos[positions], sin[positions]

    def rotate(self, x: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Rotate ``x`` (``(..., d_head)``) at integer ``positions``.

        A lean decode-path variant of :func:`rope_rotate` — no dtype/shape
        validation, bit-identical arithmetic.  ``positions`` must broadcast
        against ``x.shape[:-1]`` and must be an integer array.
        """
        if self.rope_dims == 0 or positions.size == 0:
            return x.copy()
        cos, sin = self._tables(x.dtype, int(positions.max()) + 1)
        return self._apply(x, cos[positions], sin[positions])

    def rotate_uniform(self, x: np.ndarray, position: int) -> np.ndarray:
        """Rotate every vector of ``x`` (``(..., d_head)``) at one ``position``.

        The steady-state decode fast path: the query token (and each newly
        appended key) sits at a single scalar position, so the cos/sin rows
        are plain table rows instead of an advanced-indexing gather.
        Bit-identical to :meth:`rotate` at a uniform position.
        """
        if self.rope_dims == 0:
            return x.copy()
        cos, sin = self._tables(x.dtype, position + 1)
        return self._apply(x, cos[position], sin[position])

    def _apply(self, x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
        half = self.rope_dims // 2
        x1 = x[..., :half]
        x2 = x[..., half : self.rope_dims]
        out = x.copy()
        out[..., :half] = x1 * cos - x2 * sin
        out[..., half : self.rope_dims] = x1 * sin + x2 * cos
        return out


@lru_cache(maxsize=8)
def get_rope_table(rope_dims: int, base: float = _ROPE_BASE) -> RopeTable:
    """Process-wide shared :class:`RopeTable` for a given geometry."""
    return RopeTable(rope_dims, base)


def rope_rotate(
    x: np.ndarray,
    positions: np.ndarray,
    rope_dims: int | None = None,
    inverse: bool = False,
    table: RopeTable | None = None,
) -> np.ndarray:
    """Apply rotary position embedding to the trailing dimension of ``x``.

    Parameters
    ----------
    x:
        Array of shape ``(..., d_head)``.
    positions:
        Integer positions broadcastable to ``x.shape[:-1]``.  Passing per-head
        positions (e.g. ``(batch, heads, seq)``) is supported.
    rope_dims:
        Number of leading head dimensions to rotate (rotate-half layout).
        Defaults to the full head dimension.
    inverse:
        Apply the inverse rotation (used for the backward pass, since rotation
        is orthogonal).
    table:
        Optional precomputed :class:`RopeTable`; requires integer positions.
        Produces bit-identical results to the direct computation.
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    d_head = x.shape[-1]
    rope_dims = d_head if rope_dims is None else rope_dims
    if rope_dims > d_head:
        raise ValueError(f"rope_dims ({rope_dims}) exceeds head dim ({d_head})")
    if rope_dims == 0:
        return x.copy()

    positions = np.asarray(positions)
    if (
        table is not None
        and table.rope_dims == rope_dims
        and np.issubdtype(positions.dtype, np.integer)
    ):
        cos, sin = table.cos_sin(positions)
    else:
        cos, sin = _rope_cos_sin(positions, rope_dims)
    if x.dtype != cos.dtype:
        cos = cos.astype(x.dtype)
        sin = sin.astype(x.dtype)
    if inverse:
        sin = -sin

    half = rope_dims // 2
    x1 = x[..., :half]
    x2 = x[..., half:rope_dims]
    rotated_1 = x1 * cos - x2 * sin
    rotated_2 = x1 * sin + x2 * cos

    out = x.copy()
    out[..., :half] = rotated_1
    out[..., half:rope_dims] = rotated_2
    return out


def rope_rotate_backward(
    dout: np.ndarray, positions: np.ndarray, rope_dims: int | None = None
) -> np.ndarray:
    """Gradient of :func:`rope_rotate` w.r.t. its input (inverse rotation)."""
    return rope_rotate(dout, positions, rope_dims=rope_dims, inverse=True)


@lru_cache(maxsize=32)
def _alibi_slopes_cached(n_heads: int) -> tuple[float, ...]:
    if n_heads <= 0:
        raise ValueError("n_heads must be positive")

    def power_of_two_slopes(n: int) -> list[float]:
        start = 2.0 ** (-(2.0 ** -(np.log2(n) - 3)))
        return [start * (start**i) for i in range(n)]

    if np.log2(n_heads).is_integer():
        slopes = power_of_two_slopes(n_heads)
    else:
        closest = 2 ** int(np.floor(np.log2(n_heads)))
        slopes = power_of_two_slopes(closest)
        extra = power_of_two_slopes(2 * closest)[0::2][: n_heads - closest]
        slopes = slopes + extra
    return tuple(float(s) for s in slopes)


def alibi_slopes(n_heads: int) -> np.ndarray:
    """Per-head ALiBi slopes.

    Follows the reference construction from Press et al. (2021): for a head
    count that is a power of two the slopes are a geometric sequence starting
    at ``2^(-8/n)``; otherwise the sequence is extended with interpolated
    slopes exactly like the original implementation.  Slopes are memoized per
    head count; a fresh array is returned so callers may mutate it freely.
    """
    return np.asarray(_alibi_slopes_cached(n_heads), dtype=np.float64)


def alibi_bias_matrix(n_heads: int, seq_len: int) -> np.ndarray:
    """Full causal ALiBi bias of shape ``(n_heads, seq_len, seq_len)``.

    ``bias[h, i, j] = -slope_h * (i - j)`` for ``j <= i``; entries above the
    diagonal are left at zero (the causal mask removes them anyway).
    """
    slopes = alibi_slopes(n_heads)
    positions = np.arange(seq_len)
    distance = positions[:, None] - positions[None, :]
    distance = np.maximum(distance, 0)
    return -slopes[:, None, None] * distance[None, :, :]


def alibi_bias_step(
    n_heads: int, query_position: np.ndarray | int, key_positions: np.ndarray
) -> np.ndarray:
    """ALiBi bias for a single decoding step.

    Parameters
    ----------
    query_position:
        Scalar or array broadcastable against ``key_positions[..., 0]`` giving
        the (original or renumbered) position of the current query token.
    key_positions:
        Array of shape ``(..., n_heads, L)`` or ``(n_heads, L)`` with the
        positions of the cached keys.

    Returns
    -------
    Bias with the same shape as ``key_positions``; entry ``= -slope_h *
    max(query_position - key_position, 0)``.
    """
    key_positions = np.asarray(key_positions, dtype=np.float64)
    slopes = alibi_slopes(n_heads)
    distance = np.asarray(query_position, dtype=np.float64)[..., None, None] - key_positions
    distance = np.maximum(distance, 0.0)
    # Align the slope vector with the head axis (second to last).
    slope_shape = [1] * key_positions.ndim
    slope_shape[-2] = n_heads
    return -slopes.reshape(slope_shape) * distance
