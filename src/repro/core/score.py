"""Score functions used to identify key tokens.

Two families are implemented:

* :class:`AccumulatedAttentionScore` — the H2O-style score ``f_θ(acc attn)``
  that accumulates post-softmax attention probabilities over decoding steps
  (Eq. 2–3), optionally damped by a factor α (§2.3.3, Figure 5).
* :class:`KeyformerScore` — the paper's Gumbel-softmax score (Eq. 9): the
  unnormalized logits are perturbed with noise ζ drawn from a configurable
  distribution and normalized with a temperature τ that grows as tokens are
  discarded (Eq. 10).

Both maintain one accumulator per decoder layer (per head, per batch element)
or a single shared accumulator (Table 3 ablation).  Accumulators are kept in
*cache order*: index ``j`` of the accumulator corresponds to the ``j``-th
entry of the layer's KV cache, and :meth:`gather` must be called whenever the
cache evicts entries so the two stay aligned.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.distributions import NoiseDistribution, make_noise
from repro.core.temperature import ConstantTauSchedule, LinearTauSchedule, TauSchedule

__all__ = ["entropy", "EvictOne", "BaseScore", "AccumulatedAttentionScore", "KeyformerScore"]


#: Query rows scored at a time in the prompt phase: large enough that the
#: per-block Python overhead vanishes, small enough that a block's softmax
#: temporaries stay cache-resident at a few thousand keys.
_PROMPT_BLOCK_ROWS = 32


def _floating(x) -> np.ndarray:
    """``x`` as an array of its own floating dtype, or float64."""
    x = np.asarray(x)
    return x if np.issubdtype(x.dtype, np.floating) else x.astype(np.float64)


def entropy(probabilities: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shannon entropy ``H(p) = -Σ p log p`` along ``axis`` (natural log)."""
    p = np.asarray(probabilities, dtype=np.float64)
    safe = np.where(p > 0, p, 1.0)
    return -np.sum(p * np.log(safe), axis=axis)


class EvictOne:
    """The steady-state selection of a fixed-budget policy: keep all ``length``
    entries of every head but one.

    ``drop`` holds the evicted cache index per head, shape ``(..., heads)``.
    It stands for the ascending index array of shape ``(..., heads,
    length - 1)`` and answers ``shape``, ``[i]`` and ``np.asarray`` like it,
    but the score slabs and :meth:`repro.kvcache.paged.BlockPool.gather` move
    one tail per head straight from ``drop`` and never build the array.
    """

    __slots__ = ("drop", "length")

    def __init__(self, drop: np.ndarray, length: int):
        self.drop = drop
        self.length = length

    @property
    def shape(self) -> tuple[int, ...]:
        return self.drop.shape + (self.length - 1,)

    def __getitem__(self, index) -> "EvictOne":
        return EvictOne(self.drop[index], self.length)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        base = np.arange(self.length - 1)
        indices = base + (base >= self.drop[..., None])
        return indices if dtype is None else indices.astype(dtype, copy=False)


class BaseScore:
    """Common storage/gather logic for the score accumulators.

    Every layer's accumulator lives in one preallocated slab of shape
    ``(layers, B, H, capacity)`` with a live-length cursor per layer
    (mirroring the KV-cache slab layout), so a decode step updates, ranks and
    compacts all layers with one in-place operation each — no
    concatenate-growth and no per-layer dispatch on the decode hot path.  The
    slab dtype follows the contribution dtype, which is how the model's
    ``compute_dtype`` reaches the score accumulators.
    """

    #: History decay applied by :meth:`update` before each contribution.
    damping = 1.0

    def __init__(self, shared: bool = False):
        self.shared = shared
        self._stack: np.ndarray | None = None
        # Live length per stacked layer; -1 marks a layer not yet seeded.
        self._lens: list[int] = []
        # Flat row offsets for the gather kernel; dropped with the slab.
        self._row_offsets: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _key(self, layer_idx: int) -> int:
        return 0 if self.shared else layer_idx

    def _layers(self, layer_idx: int | None) -> slice:
        """Stacked-slab rows behind ``layer_idx`` (``None``: every layer)."""
        if layer_idx is None or self.shared:
            return slice(0, 1 if self.shared else len(self._lens))
        return slice(layer_idx, layer_idx + 1)

    def reset(self, n_layers: int = 0) -> None:
        """Drop all accumulated state (called at the start of each sequence).

        ``n_layers`` sizes the slab for that many layers up front; without
        it the slab grows a layer at a time as they are first seen.
        """
        self._stack = None
        self._lens = [-1] * (1 if self.shared and n_layers else n_layers)
        self._row_offsets = None

    def has(self, layer_idx: int) -> bool:
        key = self._key(layer_idx)
        return key < len(self._lens) and self._lens[key] >= 0

    def get(self, layer_idx: int | None) -> np.ndarray:
        """Current accumulator for ``layer_idx`` (shape ``(B, H, L)``), or of
        every layer stacked (``(layers, B, H, L)``) for ``None``.

        Returns a live view into the slab; it is valid until the next
        ``update``/``gather``/``reorder`` call.
        """
        if layer_idx is None:
            layers = self._layers(None)
            return self._stack[layers, ..., : self._common_len(layers)]
        if not self.has(layer_idx):
            raise KeyError(f"score for layer {layer_idx} not initialized")
        key = self._key(layer_idx)
        return self._stack[key, ..., : self._lens[key]]

    def set(self, layer_idx: int, scores: np.ndarray) -> None:
        scores = np.asarray(scores)
        key = self._key(layer_idx)
        if key < len(self._lens):
            self._lens[key] = -1
        self._add(slice(key, key + 1), scores[None])

    def _common_len(self, layers: slice) -> int:
        lens = self._lens[layers]
        if not lens or min(lens) < 0:
            raise KeyError(f"score layers {layers.start}..{layers.stop} not all initialized")
        if lens.count(lens[0]) != len(lens):
            raise ValueError(f"layers hold different score lengths {lens}")
        return lens[0]

    def _reserve(self, n_layers: int, lead: tuple[int, ...], length: int, dtype) -> None:
        """Make room for ``n_layers`` accumulators of ``length`` entries each
        (every layer shares the ``lead`` = (batch, heads) shape and dtype)."""
        stack, lens = self._stack, self._lens
        if (
            stack is not None
            and len(lens) >= n_layers
            and stack.shape[-1] >= length
            and stack.shape[1:-1] == lead
        ):
            return
        lens.extend([-1] * (n_layers - len(lens)))
        live = [key for key, n in enumerate(lens) if n >= 0]
        if not live:
            capacity = length
            dtype = dtype if np.issubdtype(dtype, np.floating) else np.float64
        elif stack.shape[1:-1] != lead:
            raise ValueError(
                f"score layers share one (batch, heads) shape: {stack.shape[1:-1]} != {lead}"
            )
        else:
            capacity = stack.shape[-1]
            if length > capacity:
                capacity = max(16, 2 * capacity, length)
            dtype = stack.dtype
        fresh = np.empty((len(lens),) + lead + (capacity,), dtype=dtype)
        for key in live:
            fresh[key, ..., : lens[key]] = stack[key, ..., : lens[key]]
        self._stack = fresh
        self._row_offsets = None

    def _add(self, layers: slice, contribution: np.ndarray, damping: float = 1.0) -> None:
        """Add ``contribution`` (shape ``(len(layers), B, H, L)``) to the
        accumulators of ``layers``, first decaying their history by
        ``damping`` and growing them with zero-initialized slots for newly
        appended cache entries."""
        length = contribution.shape[-1]
        self._reserve(layers.stop, contribution.shape[1:-1], length, contribution.dtype)
        lens = self._lens[layers]
        current = lens[0]
        if lens.count(current) != len(lens):
            raise ValueError(f"layers hold different score lengths {lens}")
        stack = self._stack
        if current < 0:
            stack[layers, ..., :length] = contribution
        else:
            if current > length:
                raise ValueError(
                    f"score length {current} exceeds contribution length {length}; "
                    "cache and score are out of sync"
                )
            if damping < 1.0:
                stack[layers, ..., :current] *= damping
            if current < length:
                stack[layers, ..., current:length] = 0.0
            stack[layers, ..., :length] += contribution
        self._lens[layers] = [length] * len(lens)

    def _add_step(self, layer_idx: int | None, contribution: np.ndarray) -> np.ndarray:
        """Accumulate one decoding step: ``(B, H, L)`` for one layer, or
        ``(layers, B, H, L)`` for a whole step when ``layer_idx`` is ``None``."""
        if layer_idx is not None:
            contribution = contribution[None]
        if self.shared:
            # One accumulator, fed layer after layer: ((s·α + c₀)·α + c₁)…
            for layer in range(contribution.shape[0]):
                self._add(slice(0, 1), contribution[layer : layer + 1], self.damping)
        else:
            first = layer_idx or 0
            self._add(slice(first, first + contribution.shape[0]), contribution, self.damping)
        return self.get(layer_idx)

    def gather(self, layer_idx: int | None, indices) -> None:
        """Keep only the accumulator entries selected by ``indices``: shape
        ``(B, H, K)`` for one layer, ``(layers, B, H, K)`` for every layer
        (``layer_idx`` ``None``), or the matching :class:`EvictOne`.

        ``indices`` is the policy's own selection; it is validated where it
        reaches the KV pages (:meth:`repro.kvcache.paged.BlockPool.gather`),
        not here.
        """
        if layer_idx is not None:
            if not self.has(layer_idx):
                return
            indices = indices[None]
        layers = self._layers(layer_idx)
        length = self._common_len(layers)
        stack = self._stack
        k = indices.shape[-1]
        if isinstance(indices, EvictOne):
            # Every row's tail moves down one slot (cheaper than building
            # and taking the index array the selection stands for).
            rows = stack[layers].reshape(-1, stack.shape[-1])
            for row, drop in zip(rows, indices.drop.reshape(-1).tolist()):
                row[drop:k] = row[drop + 1 : length]
        else:
            # Flattened row-gather (much cheaper than take_along_axis).
            indices = np.asarray(indices)
            capacity = stack.shape[-1]
            if self._row_offsets is None:
                n_rows = stack.size // capacity
                self._row_offsets = (np.arange(n_rows) * capacity)[:, None]
            rows_per_layer = stack[0].size // capacity
            offsets = self._row_offsets[
                layers.start * rows_per_layer : layers.stop * rows_per_layer
            ]
            gidx = (offsets + indices.reshape(offsets.shape[0], k)).reshape(-1)
            stack[layers, ..., :k] = stack.reshape(-1).take(gidx).reshape(indices.shape)
        self._lens[layers] = [k] * (layers.stop - layers.start)

    def reorder(self, batch_indices: np.ndarray) -> None:
        """Reorder the batch/beam dimension of every accumulator (beam search)."""
        if self._stack is not None:
            self._stack = self._stack.take(np.asarray(batch_indices, dtype=np.int64), axis=1)
            self._row_offsets = None


class AccumulatedAttentionScore(BaseScore):
    """H2O-style accumulated attention score with optional damping."""

    name = "accumulated-attention"

    def __init__(self, shared: bool = False, damping: float = 1.0, prompt_mode: str = "all"):
        super().__init__(shared=shared)
        if not (0.0 < damping <= 1.0):
            raise ValueError("damping must be in (0, 1]")
        self.damping = damping
        self.prompt_mode = prompt_mode

    def init_from_prompt(
        self,
        layer_idx: int,
        attn_probs: np.ndarray,
        attn_logits: np.ndarray | None = None,
        positions: np.ndarray | None = None,
    ) -> np.ndarray:
        """Accumulate the prompt-phase attention matrix ``(B, H, T, T)``."""
        if self.prompt_mode == "all":
            contribution = attn_probs.sum(axis=-2)
        else:
            contribution = attn_probs[..., -1, :]
        self._add(self._layers(layer_idx), contribution[None])
        return self.get(layer_idx)

    def update(
        self,
        layer_idx: int | None,
        logits: np.ndarray,
        probs: np.ndarray,
        positions: np.ndarray | None = None,
        step: int = 0,
    ) -> np.ndarray:
        """Accumulate one decoding step's attention probabilities: ``(B, H,
        L)`` for ``layer_idx``, or every layer's stacked ``(layers, B, H, L)``
        when ``layer_idx`` is ``None``."""
        return self._add_step(layer_idx, np.asarray(probs))


class KeyformerScore(BaseScore):
    """Keyformer's Gumbel-softmax score function (Eq. 9).

    Parameters
    ----------
    noise:
        A :class:`NoiseDistribution` instance or one of the names accepted by
        :func:`repro.core.distributions.make_noise`.
    tau_schedule:
        Temperature schedule; defaults to the paper's linear 1 → 2 schedule
        when ``total_steps`` is provided via :meth:`configure_schedule`.
    shared:
        Share one accumulator across layers (Table 3 ablation).
    max_positions:
        Length of the noise vector ζ indexed by original token position.
    resample:
        ``"per-step"`` (default) redraws ζ at every decoding step, as in the
        Gumbel-softmax reparameterization the paper builds on (Jang et al.,
        2016) — the noise then acts as a regularizer whose effect averages out
        over the accumulation.  ``"fixed"`` draws ζ once per sequence
        (a literal reading of Algorithm 1's initialization line); at the small
        scale of this reproduction a fixed draw permanently biases a few
        arbitrary positions and measurably hurts accuracy, so it is exposed
        only as an ablation knob.
    """

    name = "keyformer"

    def __init__(
        self,
        noise: NoiseDistribution | str = "gumbel",
        tau_schedule: TauSchedule | None = None,
        shared: bool = False,
        max_positions: int = 4096,
        seed: int = 0,
        prompt_mode: str = "all",
        damping: float = 1.0,
        resample: str = "per-step",
    ):
        super().__init__(shared=shared)
        if resample not in ("per-step", "fixed"):
            raise ValueError(f"resample must be 'per-step' or 'fixed', got {resample!r}")
        self.noise = make_noise(noise) if isinstance(noise, str) else noise
        self.tau_schedule = tau_schedule or ConstantTauSchedule(1.0)
        self.max_positions = max_positions
        self.seed = seed
        self.prompt_mode = prompt_mode
        self.damping = damping
        self.resample = resample
        self.rng = np.random.default_rng(seed)
        self.zeta = self.noise.sample(max_positions, self.rng)
        # Flat buffers the noisy softmax works in (see ``_noisy_softmax``).
        self._scratch: dict[str, np.ndarray] = {}

    def __getstate__(self) -> dict:
        # Copies (a serving row's policy is deep-copied into every step's
        # snapshot) and pickles leave the scratch behind; it refills on use.
        return {**self.__dict__, "_scratch": {}}

    # ------------------------------------------------------------------
    def configure_schedule(self, tau_init: float, tau_end: float, total_steps: int) -> None:
        """Install the dynamic τ schedule of Eq. 10 for a generation of
        ``total_steps`` tokens."""
        self.tau_schedule = LinearTauSchedule(tau_init, tau_end, total_steps)

    def reset(self, n_layers: int = 0) -> None:
        """Reset accumulators and re-sample the noise vector ζ."""
        super().reset(n_layers)
        self.rng = np.random.default_rng(self.seed)
        self.zeta = self.noise.sample(self.max_positions, self.rng)

    def _zeta_for(self, positions: np.ndarray) -> np.ndarray:
        """Fixed-mode noise values for the given original positions."""
        idx = np.clip(np.asarray(positions, dtype=np.int64), 0, self.max_positions - 1)
        return self.zeta[idx]

    def _scratch_array(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A C-contiguous ``shape`` array carved from the named flat buffer."""
        size = math.prod(shape)
        buf = self._scratch.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._scratch[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)

    def _noisy_softmax(
        self,
        logits: np.ndarray,
        positions: np.ndarray | None,
        tau: float,
        columns: int | None = None,
    ) -> np.ndarray:
        """:meth:`noisy_softmax` computed in place in this object's scratch
        (the result is valid until the next call).

        With ``columns`` set, every entry from that column on must be exactly
        ``-inf`` — exactly ``0`` in the result — and only the leading
        ``columns`` of each row are computed and returned.  The generator is
        still consumed for whole rows and the row sum still runs over a
        whole (zero-padded) row, so neither the noise stream nor one bit of
        the result depends on ``columns``.
        """
        shape, dtype = logits.shape, logits.dtype
        if columns is None:
            columns = shape[-1]
        clipped = columns < shape[-1]
        visible = shape[:-1] + (columns,)
        work = None
        if self.resample == "per-step":
            zeta = self._scratch_array("draw", shape, np.float64)
            self.noise.draw(zeta, self.rng)
            if clipped:
                drawn, zeta = zeta, self._scratch_array("noise", visible, np.float64)
                zeta[...] = drawn[..., :columns]
            self.noise.finish(zeta)
            if dtype == np.float64:
                work = zeta
        elif positions is None:
            zeta = self.zeta[:columns]
        else:
            zeta = self._zeta_for(positions)[..., :columns]
        if work is None:
            work = self._scratch_array("work", visible, dtype)
            np.copyto(work, zeta)  # the noise, in the logits' dtype
        # Masked entries are exactly -inf and the noise is finite, so
        # (-inf + zeta) / tau == -inf without an explicit isfinite mask.
        work += logits[..., :columns]
        work /= tau
        peak = work.max(axis=-1, keepdims=True)
        # A row with no finite peak (fully masked) is shifted by zero and
        # divided by one, as in ``tensor_ops.softmax``; decode rows always
        # see their own token, so one check stands in for both guards.
        masked = not np.isfinite(peak).all()
        if masked:
            peak = np.where(np.isfinite(peak), peak, 0.0)
        work -= peak
        np.exp(work, out=work)
        if clipped:
            # Pairwise summation splits a row by its length: pad, don't trim.
            padded = self._scratch_array("sum", shape, dtype)
            padded[..., :columns] = work
            padded[..., columns:] = 0.0
            denom = padded.sum(axis=-1, keepdims=True)
        else:
            denom = work.sum(axis=-1, keepdims=True)
        if masked:
            denom = np.where(denom == 0.0, 1.0, denom)
        work /= denom
        return work

    def noisy_softmax(
        self, logits: np.ndarray, positions: np.ndarray | None, tau: float
    ) -> np.ndarray:
        """``softmax((x + ζ)/τ)`` over the last axis, leaving ``-inf`` masked.

        In ``per-step`` mode the adjustment ζ is drawn fresh for every call
        (element-wise, as in the Gumbel-softmax reparameterization); in
        ``fixed`` mode token ``i`` always receives the same ζ_i, indexed by its
        original position.
        """
        logits = _floating(logits)
        return self._noisy_softmax(logits, positions, tau).copy()

    # ------------------------------------------------------------------
    def init_from_prompt(
        self,
        layer_idx: int,
        attn_probs: np.ndarray,
        attn_logits: np.ndarray | None = None,
        positions: np.ndarray | None = None,
    ) -> np.ndarray:
        """Prompt-phase accumulation using the unnormalized logits ``(B, H, T, T)``.

        The prompt phase uses τ(0) = τ_init (no tokens have been discarded
        yet), so with τ_init = 1 the noisy softmax is close to the standard
        softmax as described in §3.3.1.
        """
        if attn_logits is None:
            raise ValueError("KeyformerScore requires the unnormalized prompt logits")
        tau = self.tau_schedule(0)
        logits = _floating(attn_logits)
        n_queries, seq_len = logits.shape[-2:]
        pos = np.arange(seq_len) if positions is None else np.asarray(positions)
        # Streamed over blocks of query rows, so nothing of the logits' full
        # (B, H, T, T) size is ever allocated (the per-step noise alone was
        # four such float64 tensors).  Bit-identical to one whole-tensor
        # ``noisy_softmax(logits).sum(-2)`` / ``[..., -1, :]``: the generator
        # is consumed element by element in C order, the softmax is row-wise,
        # and ``sum`` over rows adds them one after another — a sequence the
        # running sum continues by entering each block as part of its first
        # row (float addition commutes; it does not associate, which is why
        # per-block partial sums would not do).
        lead = logits.shape[:-2]
        contribution = np.zeros(lead + (seq_len,), dtype=logits.dtype)
        for at in np.ndindex(*lead):
            rows, running = logits[at], contribution[at]
            for start in range(0, n_queries, _PROMPT_BLOCK_ROWS):
                block = rows[start : start + _PROMPT_BLOCK_ROWS]
                # Under a causal mask the block's last row sees the most
                # columns; the ones past it are skipped when (checked, not
                # assumed) every row of the block has them masked — they
                # would add exact zeros to the running sum.
                columns = min(start + len(block) + seq_len - n_queries, seq_len)
                if not (block[:, columns:] == -np.inf).all():
                    columns = seq_len
                noisy = self._noisy_softmax(block, pos, tau, columns)
                if self.prompt_mode != "all":
                    running[:columns] = noisy[-1]
                    running[columns:] = 0.0
                else:
                    if start:
                        noisy[0] += running[:columns]
                    running[:columns] = noisy.sum(axis=0)
        self._add(self._layers(layer_idx), contribution[None])
        return self.get(layer_idx)

    def update(
        self,
        layer_idx: int | None,
        logits: np.ndarray,
        probs: np.ndarray,
        positions: np.ndarray | None = None,
        step: int = 0,
    ) -> np.ndarray:
        """Decoding-step accumulation using the step's unnormalized logits:
        ``(B, H, L)`` for ``layer_idx``, or every layer's stacked ``(layers,
        B, H, L)`` when ``layer_idx`` is ``None`` — one noise draw (the same
        generator stream as a draw per layer) and one softmax for the step."""
        logits = _floating(logits)
        contribution = self._noisy_softmax(logits, positions, self.tau_schedule(step))
        return self._add_step(layer_idx, contribution)
