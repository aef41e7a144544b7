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

import numpy as np

from repro.core.distributions import NoiseDistribution, make_noise
from repro.core.temperature import ConstantTauSchedule, LinearTauSchedule, TauSchedule
from repro.models.tensor_ops import softmax

__all__ = ["entropy", "BaseScore", "AccumulatedAttentionScore", "KeyformerScore"]


#: Query rows scored at a time in the prompt phase: large enough that the
#: per-block Python overhead vanishes, small enough that a block's softmax
#: temporaries stay cache-resident at a few thousand keys.
_PROMPT_BLOCK_ROWS = 32


def entropy(probabilities: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shannon entropy ``H(p) = -Σ p log p`` along ``axis`` (natural log)."""
    p = np.asarray(probabilities, dtype=np.float64)
    safe = np.where(p > 0, p, 1.0)
    return -np.sum(p * np.log(safe), axis=axis)


class BaseScore:
    """Common storage/gather logic for per-layer score accumulators.

    Accumulators live in preallocated slabs of shape ``(B, H, capacity)``
    with a live-length cursor (mirroring the KV-cache slab layout), so the
    per-token score update is an in-place add and eviction is an in-place
    compaction — no concatenate-growth on the decode hot path.  The slab
    dtype follows the contribution dtype, which is how the model's
    ``compute_dtype`` reaches the score accumulators.
    """

    def __init__(self, shared: bool = False):
        self.shared = shared
        self._slabs: dict[int, np.ndarray] = {}
        self._lens: dict[int, int] = {}
        # Cached flat row offsets for the gather kernel, keyed like _slabs;
        # invalidated whenever a slab is reallocated or reordered.
        self._offsets: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _key(self, layer_idx: int) -> int:
        return 0 if self.shared else layer_idx

    def reset(self) -> None:
        """Drop all accumulated state (called at the start of each sequence)."""
        self._slabs = {}
        self._lens = {}
        self._offsets = {}

    def get(self, layer_idx: int) -> np.ndarray:
        """Current accumulator for ``layer_idx`` (shape ``(B, H, L)``).

        Returns a live view into the slab; it is valid until the next
        ``_accumulate``/``gather``/``reorder`` call for this layer.
        """
        key = self._key(layer_idx)
        if key not in self._slabs:
            raise KeyError(f"score for layer {layer_idx} not initialized")
        return self._slabs[key][..., : self._lens[key]]

    def has(self, layer_idx: int) -> bool:
        return self._key(layer_idx) in self._slabs

    def set(self, layer_idx: int, scores: np.ndarray) -> None:
        scores = np.asarray(scores)
        if not np.issubdtype(scores.dtype, np.floating):
            scores = scores.astype(np.float64)
        key = self._key(layer_idx)
        self._slabs[key] = scores.copy()
        self._lens[key] = scores.shape[-1]
        self._offsets.pop(key, None)

    def _grow(self, key: int, needed: int) -> None:
        slab = self._slabs[key]
        new_cap = max(16, 2 * slab.shape[-1], needed)
        fresh = np.empty(slab.shape[:-1] + (new_cap,), dtype=slab.dtype)
        fresh[..., : self._lens[key]] = slab[..., : self._lens[key]]
        self._slabs[key] = fresh
        self._offsets.pop(key, None)

    def _scale(self, layer_idx: int, factor: float) -> None:
        """Multiply the live accumulator in place (score damping)."""
        key = self._key(layer_idx)
        if key in self._slabs:
            self._slabs[key][..., : self._lens[key]] *= factor

    def _accumulate(self, layer_idx: int, contribution: np.ndarray) -> np.ndarray:
        """Add ``contribution`` (shape ``(B, H, L)``), growing the accumulator
        with zero-initialized slots for newly appended cache entries."""
        contribution = np.asarray(contribution)
        key = self._key(layer_idx)
        length = contribution.shape[-1]
        if key not in self._slabs:
            dtype = (
                contribution.dtype
                if np.issubdtype(contribution.dtype, np.floating)
                else np.float64
            )
            self._slabs[key] = contribution.astype(dtype, copy=True)
            self._lens[key] = length
            return self.get(layer_idx)
        current_len = self._lens[key]
        if current_len > length:
            raise ValueError(
                f"score length {current_len} exceeds contribution length {length}; "
                "cache and score are out of sync"
            )
        if length > self._slabs[key].shape[-1]:
            self._grow(key, length)
        if current_len < length:
            self._slabs[key][..., current_len:length] = 0.0
            self._lens[key] = length
        self._slabs[key][..., :length] += contribution
        return self.get(layer_idx)

    def gather(self, layer_idx: int, indices: np.ndarray) -> None:
        """Keep only the accumulator entries selected by ``indices`` (B, H, K).

        Compacts the slab in place through one flat row-gather.  ``indices``
        is the policy's own selection; it is validated where it reaches the
        KV pages (:meth:`repro.kvcache.paged.BlockPool.gather`), not here.
        """
        key = self._key(layer_idx)
        if key not in self._slabs:
            return
        indices = np.asarray(indices)
        k = indices.shape[-1]
        slab = self._slabs[key]
        n_rows = int(np.prod(slab.shape[:-1]))
        offsets = self._offsets.get(key)
        if offsets is None:
            offsets = (np.arange(n_rows) * slab.shape[-1])[:, None]
            self._offsets[key] = offsets
        # Flattened row-gather (much cheaper than take_along_axis per step).
        gidx = (offsets + indices.reshape(n_rows, k)).reshape(-1)
        slab[..., :k] = slab.reshape(-1).take(gidx).reshape(slab.shape[:-1] + (k,))
        self._lens[key] = k

    def reorder(self, batch_indices: np.ndarray) -> None:
        """Reorder the batch/beam dimension of every accumulator (beam search)."""
        batch_indices = np.asarray(batch_indices, dtype=np.int64)
        for key, slab in self._slabs.items():
            self._slabs[key] = slab[batch_indices]
        self._offsets = {}


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
        return self._accumulate(layer_idx, contribution)

    def update(
        self,
        layer_idx: int,
        logits: np.ndarray,
        probs: np.ndarray,
        positions: np.ndarray | None = None,
        step: int = 0,
    ) -> np.ndarray:
        """Accumulate one decoding step's attention probabilities ``(B, H, L)``."""
        if self.damping < 1.0:
            self._scale(layer_idx, self.damping)
        return self._accumulate(layer_idx, probs)


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
        self._last_resample_step: int | None = None

    # ------------------------------------------------------------------
    def configure_schedule(self, tau_init: float, tau_end: float, total_steps: int) -> None:
        """Install the dynamic τ schedule of Eq. 10 for a generation of
        ``total_steps`` tokens."""
        self.tau_schedule = LinearTauSchedule(tau_init, tau_end, total_steps)

    def reset(self) -> None:
        """Reset accumulators and re-sample the noise vector ζ."""
        super().reset()
        self.rng = np.random.default_rng(self.seed)
        self.zeta = self.noise.sample(self.max_positions, self.rng)
        self._last_resample_step = None

    def _zeta_for(self, positions: np.ndarray) -> np.ndarray:
        """Fixed-mode noise values for the given original positions."""
        idx = np.clip(np.asarray(positions, dtype=np.int64), 0, self.max_positions - 1)
        return self.zeta[idx]

    def noisy_softmax(
        self, logits: np.ndarray, positions: np.ndarray | None, tau: float
    ) -> np.ndarray:
        """``softmax((x + ζ)/τ)`` over the last axis, leaving ``-inf`` masked.

        In ``per-step`` mode the adjustment ζ is drawn fresh for every call
        (element-wise, as in the Gumbel-softmax reparameterization); in
        ``fixed`` mode token ``i`` always receives the same ζ_i, indexed by its
        original position.
        """
        logits = np.asarray(logits)
        if not np.issubdtype(logits.dtype, np.floating):
            logits = logits.astype(np.float64)
        if self.resample == "per-step":
            zeta = self.noise.sample(logits.size, self.rng).reshape(logits.shape)
        elif positions is None:
            zeta = self.zeta[: logits.shape[-1]]
        else:
            zeta = self._zeta_for(positions)
        zeta = np.asarray(zeta, dtype=logits.dtype)
        # Masked entries are exactly -inf and the noise is finite, so
        # (-inf + zeta) / tau == -inf without an explicit isfinite mask.
        adjusted = logits + zeta
        adjusted /= tau
        return softmax(adjusted, axis=-1)

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
        logits = np.asarray(attn_logits)
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
        scored = []
        for at in np.ndindex(*lead):
            rows = logits[at]
            running = None
            for start in range(0, n_queries, _PROMPT_BLOCK_ROWS):
                noisy = self.noisy_softmax(rows[start : start + _PROMPT_BLOCK_ROWS], pos, tau)
                if self.prompt_mode != "all":
                    running = noisy[-1]
                else:
                    if running is not None:
                        noisy[0] += running
                    running = noisy.sum(axis=0)
            scored.append(running)
        contribution = np.stack(scored).reshape(lead + (seq_len,))
        return self._accumulate(layer_idx, contribution)

    def update(
        self,
        layer_idx: int,
        logits: np.ndarray,
        probs: np.ndarray,
        positions: np.ndarray | None = None,
        step: int = 0,
    ) -> np.ndarray:
        """Decoding-step accumulation using the step's unnormalized logits."""
        tau = self.tau_schedule(step)
        if self.damping < 1.0:
            self._scale(layer_idx, self.damping)
        contribution = self.noisy_softmax(logits, positions, tau)
        return self._accumulate(layer_idx, contribution)
