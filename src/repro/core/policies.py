"""KV-cache eviction policies: full, window, key-only, H2O, sinks.

A policy decides which cache entries each decoder layer keeps.  The
:class:`repro.kvcache.manager.CacheManager` drives policies through three
hooks:

``setup``
    called once per sequence with the geometry (layers, heads, batch, prompt
    length, generation length); the policy resolves its budget here.
``prompt_scorer``
    called once per layer by the prompt pass (after ``setup``); a score
    policy returns the :class:`~repro.core.score.PromptScorer` it feeds.
``initial_selection``
    called once per layer right after the prompt phase; returns the indices
    to keep (or ``None`` to keep all).
``step_selection``
    called once per layer per generated token with that step's attention
    logits/probabilities; returns the indices to keep (or ``None``).  A
    policy with ``stacked_steps`` set is instead called once per generated
    token, after the last layer, with every layer's tensors stacked — no
    layer's eviction is read again before the next token, so the score
    policies run one pass per step instead of one per layer.

Indices are returned in ascending cache order with shape
``(batch, heads, k)``, so chronological ordering inside the cache is
preserved; a fixed-budget policy's steady state — one entry evicted per head
— is returned as an :class:`EvictOne` instead.  Policies that keep internal
per-token state (the score accumulators) gather that state themselves before
returning.
"""

from __future__ import annotations

from abc import ABC

import numpy as np

from repro.core.config import CachePolicyConfig
from repro.core.score import AccumulatedAttentionScore, BaseScore, EvictOne, PromptScorer

__all__ = [
    "EvictOne",
    "EvictionPolicy",
    "FullAttentionPolicy",
    "WindowAttentionPolicy",
    "KeyAttentionPolicy",
    "H2OPolicy",
    "StreamingLLMPolicy",
    "evict_one_selection",
    "mixed_topk_selection",
]


def evict_one_selection(scores: np.ndarray, budget: int, recent_window: int) -> EvictOne | None:
    """:func:`mixed_topk_selection` for the steady state of decoding, or
    ``None`` where only the general construction will do.

    One token was appended over ``budget``, so exactly one old entry goes: the
    top ``budget - recent_window`` of one more old entries are everything but
    the minimum.  Answered only when that minimum is strict in every row: on
    an exact tie ``argmin`` and ``argpartition`` may evict different
    duplicates, and bit-parity with the general construction matters more
    than the shortcut.
    """
    length = scores.shape[-1]
    recent_window = int(min(max(recent_window, 0), budget))
    if length != budget + 1 or recent_window == budget:
        return None
    old_region = scores[..., : length - recent_window]
    min_vals = old_region.min(axis=-1, keepdims=True)
    if np.count_nonzero(old_region == min_vals) != min_vals.size:
        return None
    return EvictOne(old_region.argmin(axis=-1), length)


def mixed_topk_selection(scores: np.ndarray, budget: int, recent_window: int) -> np.ndarray:
    """Select ``budget`` indices: the last ``recent_window`` plus the top-scoring rest.

    Implements the paper's ``S_key ∪ S_w`` construction (Algorithm 1):
    ``S_w`` is the most recent ``recent_window`` cache entries and ``S_key``
    are the ``budget - recent_window`` highest-scoring entries among the
    remaining (older) ones.  Returned indices are sorted ascending.

    Parameters
    ----------
    scores:
        Array of shape ``(..., L)`` with one score per cache entry.
    budget:
        Total number of entries to keep (``k``).
    recent_window:
        Number of most recent entries always kept (``w``).
    """
    length = scores.shape[-1]
    if budget >= length:
        idx = np.arange(length)
        return np.broadcast_to(idx, scores.shape[:-1] + (length,)).copy()
    recent_window = int(min(max(recent_window, 0), budget))
    n_key = budget - recent_window

    recent_idx = np.arange(length - recent_window, length)
    recent_idx = np.broadcast_to(recent_idx, scores.shape[:-1] + (recent_window,))

    if n_key > 0:
        old_region = scores[..., : length - recent_window]
        if old_region.shape[-1] < n_key:
            # Not enough old entries: take them all plus extra recent ones.
            extra = n_key - old_region.shape[-1]
            key_idx = np.arange(old_region.shape[-1])
            key_idx = np.broadcast_to(key_idx, scores.shape[:-1] + (old_region.shape[-1],))
            pad_idx = np.arange(length - recent_window - extra, length - recent_window)
            pad_idx = np.broadcast_to(pad_idx, scores.shape[:-1] + (extra,))
            key_idx = np.concatenate([key_idx, pad_idx], axis=-1)
        else:
            top = np.argpartition(-old_region, n_key - 1, axis=-1)[..., :n_key]
            key_idx = top
        selected = np.concatenate([key_idx, recent_idx], axis=-1)
    else:
        selected = recent_idx

    return np.sort(selected, axis=-1)


class EvictionPolicy(ABC):
    """Base class holding budget bookkeeping common to every policy."""

    name = "abstract"
    #: When true the manager applies one selection (computed at the last
    #: layer's observation) to every layer — used by shared score functions.
    shared_selection = False
    #: When true :meth:`prompt_scorer` reads the *values* of the prompt's
    #: attention, so the serving engine must run a full prompt forward and
    #: cannot reuse a cached prefix for this request.  Nor does the engine
    #: register such a prompt for others to reuse: a registry pin would keep
    #: the whole prompt resident beside the few tokens the row keeps.
    #: Shape-only policies (full, window, sinks) leave this
    #: False and both map and register prefixes.
    needs_prompt_attention = False
    #: When true the cache manager collects every layer's step tensors and
    #: calls ``step_selection(None, ...)`` once per generated token with them
    #: stacked ``(layers, B, H, L)``, instead of once per layer.
    stacked_steps = False
    #: When true ``step_selection`` reads ``key_positions``; otherwise the
    #: manager passes ``None`` and never materializes them (a page-gather
    #: copy per row on fragmented tables, a pass through tier-0 under offload).
    needs_key_positions = False

    def __init__(self, config: CachePolicyConfig | None = None):
        self.config = config or CachePolicyConfig()
        self.n_layers = 0
        self.n_heads = 0
        self.batch_size = 0
        self.prompt_len = 0
        self.max_new_tokens = 0
        self.budget = 0
        self.recent_window = 0

    # ------------------------------------------------------------------
    def setup(
        self,
        n_layers: int,
        n_heads: int,
        batch_size: int,
        prompt_len: int,
        max_new_tokens: int,
    ) -> None:
        """Resolve the budget for a new sequence and reset internal state."""
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.batch_size = batch_size
        self.prompt_len = prompt_len
        self.max_new_tokens = max_new_tokens
        self.budget = self.config.resolve_budget(prompt_len)
        self.recent_window = self.config.resolve_recent_window(self.budget)

    # ------------------------------------------------------------------
    def prompt_scorer(self, layer_idx: int, n_rows: int, width: int) -> PromptScorer | None:
        """The scorer of ``layer_idx``'s prompt attention, ``n_rows`` query
        rows over ``width`` keys; ``None`` when the values are not read."""
        return None

    def initial_selection(self, layer_idx: int) -> np.ndarray | None:
        """Indices to keep of the ``prompt_len`` prompt entries after the
        prompt phase; ``None`` keeps everything."""
        return None

    def step_selection(
        self,
        layer_idx: int | None,
        logits: np.ndarray,
        probs: np.ndarray,
        key_positions: np.ndarray | None,
        step: int,
    ) -> np.ndarray | EvictOne | None:
        """Indices to keep after a decoding step; ``None`` keeps everything.

        ``key_positions`` is ``None`` unless the policy sets
        ``needs_key_positions``.  With ``stacked_steps`` the manager passes
        ``layer_idx=None`` and ``(layers, B, H, L)`` tensors, and applies
        ``selection[layer]`` to each layer (``selection[0]`` to all of them
        under ``shared_selection``).
        """
        return None

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Human-readable summary used in experiment reports."""
        return {
            "policy": self.name,
            "budget": self.budget,
            "recent_window": self.recent_window,
            "kv_fraction": self.config.kv_fraction,
        }


class FullAttentionPolicy(EvictionPolicy):
    """Keep every token — the paper's accuracy gold standard."""

    name = "full"

    def setup(self, n_layers, n_heads, batch_size, prompt_len, max_new_tokens) -> None:
        super().setup(n_layers, n_heads, batch_size, prompt_len, max_new_tokens)
        # Full attention ignores the configured fraction: the budget is the
        # whole sequence.
        self.budget = prompt_len + max_new_tokens
        self.recent_window = self.budget


class WindowAttentionPolicy(EvictionPolicy):
    """Keep only the most recent ``budget`` tokens (sliding window)."""

    name = "window"

    def __init__(self, config: CachePolicyConfig | None = None):
        super().__init__(config)
        # The suffix selection depends only on the geometry, which is
        # constant in steady-state decoding (length == budget + 1 every
        # step) — memoize it instead of rebuilding the index array per layer
        # per step.  Consumers treat selections as read-only.
        self._selection_cache: tuple[tuple[int, int, int], np.ndarray] | None = None

    def setup(self, n_layers, n_heads, batch_size, prompt_len, max_new_tokens) -> None:
        super().setup(n_layers, n_heads, batch_size, prompt_len, max_new_tokens)
        self._selection_cache = None

    def _window_selection(self, b: int, h: int, length: int) -> np.ndarray:
        key = (b, h, length)
        if self._selection_cache is not None and self._selection_cache[0] == key:
            return self._selection_cache[1]
        idx = np.arange(length - self.budget, length)
        selection = np.broadcast_to(idx, (b, h, self.budget)).copy()
        self._selection_cache = (key, selection)
        return selection

    def initial_selection(self, layer_idx):
        if self.prompt_len <= self.budget:
            return None
        return self._window_selection(self.batch_size, self.n_heads, self.prompt_len)

    def step_selection(self, layer_idx, logits, probs, key_positions, step):
        b, h, length = logits.shape
        if length <= self.budget:
            return None
        return self._window_selection(b, h, length)


class _ScoreBasedPolicy(EvictionPolicy):
    """Shared logic for policies that rank tokens by an accumulated score."""

    needs_prompt_attention = True
    stacked_steps = True

    def __init__(self, config: CachePolicyConfig | None = None, damping: float = 1.0):
        super().__init__(config)
        self.damping = damping
        self.score = self._make_score()

    def _make_score(self) -> BaseScore:
        return AccumulatedAttentionScore(
            shared=False, damping=self.damping, prompt_mode=self.config.prompt_mode
        )

    def setup(self, n_layers, n_heads, batch_size, prompt_len, max_new_tokens) -> None:
        super().setup(n_layers, n_heads, batch_size, prompt_len, max_new_tokens)
        self.score.reset(n_layers)

    def _select(self, layer_idx: int | None):
        """Rank ``layer_idx``'s scores (every layer's, stacked, for ``None``),
        cut the accumulators to the selection and return it."""
        scores = self.score.get(layer_idx)
        recent = self._recent_for_selection()
        selection = evict_one_selection(scores, self.budget, recent)
        if selection is None:
            selection = mixed_topk_selection(scores, self.budget, recent)
        self.score.gather(layer_idx, selection)
        return selection

    def prompt_scorer(self, layer_idx, n_rows, width):
        return self.score.prompt_scorer(layer_idx, n_rows, width)

    def initial_selection(self, layer_idx):
        """Prompt-phase reduction from ``n`` to ``k`` tokens (Algorithm 1,
        step 1), ranked by the scores the prompt pass accumulated."""
        if self.score.get(layer_idx).shape[-1] <= self.budget:
            return None
        if self.shared_selection and layer_idx < self.n_layers - 1:
            return None
        return self._select(layer_idx)

    def step_selection(self, layer_idx, logits, probs, key_positions, step):
        """Token-generation-phase reduction keeping the cache at ``k`` tokens:
        the whole step's for ``layer_idx`` ``None`` (tensors and selection
        stacked, layers leading), else that layer's."""
        self.score.update(layer_idx, logits, probs, positions=key_positions, step=step)
        if logits.shape[-1] <= self.budget:
            return None
        if self.shared_selection and layer_idx is not None and layer_idx < self.n_layers - 1:
            return None
        return self._select(layer_idx)

    def _recent_for_selection(self) -> int:
        return self.recent_window


class H2OPolicy(_ScoreBasedPolicy):
    """Heavy-Hitter Oracle: recent window + top accumulated-attention tokens.

    Follows Zhang et al. (2023): the budget is split between a recent window
    and "heavy hitter" tokens ranked by accumulated post-softmax attention.
    The default split is 50/50, matching the H2O paper, but the recent ratio
    is configurable through :class:`CachePolicyConfig`.
    """

    name = "h2o"

    def __init__(self, config: CachePolicyConfig | None = None, damping: float = 1.0):
        if config is None:
            config = CachePolicyConfig(recent_ratio=0.5)
        super().__init__(config, damping=damping)


class KeyAttentionPolicy(_ScoreBasedPolicy):
    """Pure key-token attention: top-``budget`` scored tokens, no recent window.

    This is the "Key Attention" baseline of Figure 3c, demonstrating that key
    tokens alone (without a recent window) are not sufficient.
    """

    name = "key-only"

    def _recent_for_selection(self) -> int:
        return 0


class StreamingLLMPolicy(EvictionPolicy):
    """StreamingLLM attention sinks: first ``n_sinks`` tokens + recent window."""

    name = "streaming-llm"

    def __init__(self, config: CachePolicyConfig | None = None, n_sinks: int = 4):
        super().__init__(config)
        if n_sinks < 0:
            raise ValueError("n_sinks must be non-negative")
        self.n_sinks = n_sinks

    def _sink_selection(self, length: int, shape_prefix: tuple[int, ...]) -> np.ndarray | None:
        if length <= self.budget:
            return None
        n_sinks = min(self.n_sinks, self.budget)
        n_recent = self.budget - n_sinks
        idx = np.concatenate(
            [np.arange(n_sinks), np.arange(length - n_recent, length)]
        )
        idx = np.unique(idx)
        if idx.size < self.budget:
            extra = np.setdiff1d(np.arange(length), idx)[: self.budget - idx.size]
            idx = np.sort(np.concatenate([idx, extra]))
        return np.broadcast_to(idx, shape_prefix + (idx.size,)).copy()

    def initial_selection(self, layer_idx):
        return self._sink_selection(self.prompt_len, (self.batch_size, self.n_heads))

    def step_selection(self, layer_idx, logits, probs, key_positions, step):
        b, h, length = logits.shape
        return self._sink_selection(length, (b, h))
