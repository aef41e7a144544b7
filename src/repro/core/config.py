"""Configuration dataclasses for KV-cache eviction policies."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CachePolicyConfig", "KeyformerConfig"]

VALID_POSITIONAL_MODES = ("original", "new")
VALID_PROMPT_MODES = ("all", "last")


@dataclass
class CachePolicyConfig:
    """Budget configuration shared by every eviction policy.

    Attributes
    ----------
    kv_fraction:
        KV-cache budget as a fraction of the prompt length (the paper's
        "X % KV cache").  Ignored when ``kv_budget`` is set.
    kv_budget:
        Absolute number of retained tokens; overrides ``kv_fraction``.
    recent_ratio:
        Fraction of the budget reserved for the most recent tokens (the
        paper's recent window ``w``); the remainder holds key tokens.
    min_budget:
        Lower bound on the retained token count so tiny prompts never reduce
        to an empty cache.
    positional_mode:
        ``"original"`` keeps each token's original position for RoPE/ALiBi
        (Keyformer (Org Pos) in Table 3); ``"new"`` renumbers retained tokens
        contiguously (Keyformer (New Pos)).
    prompt_mode:
        How scores accumulate during the prompt phase: ``"all"`` sums the
        score over every prompt query row (H2O style), ``"last"`` uses only
        the final prompt row.
    seed:
        Seed for stochastic components (the Keyformer noise).
    """

    kv_fraction: float = 0.5
    kv_budget: int | None = None
    recent_ratio: float = 0.25
    min_budget: int = 4
    positional_mode: str = "original"
    prompt_mode: str = "all"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kv_budget is None and not (0.0 < self.kv_fraction <= 1.0):
            raise ValueError(f"kv_fraction must be in (0, 1], got {self.kv_fraction}")
        if self.kv_budget is not None and self.kv_budget <= 0:
            raise ValueError("kv_budget must be positive when provided")
        if not (0.0 <= self.recent_ratio <= 1.0):
            raise ValueError("recent_ratio must be in [0, 1]")
        if self.positional_mode not in VALID_POSITIONAL_MODES:
            raise ValueError(
                f"positional_mode must be one of {VALID_POSITIONAL_MODES}, "
                f"got {self.positional_mode!r}"
            )
        if self.prompt_mode not in VALID_PROMPT_MODES:
            raise ValueError(
                f"prompt_mode must be one of {VALID_PROMPT_MODES}, got {self.prompt_mode!r}"
            )
        if self.min_budget < 1:
            raise ValueError("min_budget must be at least 1")

    def resolve_budget(self, prompt_len: int) -> int:
        """Number of KV entries retained for a prompt of ``prompt_len`` tokens."""
        if prompt_len <= 0:
            raise ValueError("prompt_len must be positive")
        if self.kv_budget is not None:
            budget = self.kv_budget
        else:
            budget = int(round(self.kv_fraction * prompt_len))
        return int(min(max(budget, self.min_budget), prompt_len))

    def resolve_recent_window(self, budget: int) -> int:
        """Size ``w`` of the recent window inside a budget of ``budget`` tokens."""
        if budget <= 0:
            raise ValueError("budget must be positive")
        w = int(round(self.recent_ratio * budget))
        return int(min(max(w, 1), budget))


@dataclass
class KeyformerConfig(CachePolicyConfig):
    """Keyformer-specific configuration on top of the shared budget settings.

    Attributes
    ----------
    tau_init, tau_end:
        Start and end of the temperature range; the paper finds
        ``τ_init = 1`` and ``τ_end = 2`` optimal (Appendix A.8).
    static_tau:
        If set, use this constant temperature instead of the dynamic schedule
        (Figure 16 ablation).
    noise:
        Logit-adjustment distribution: ``"gumbel"`` (default), ``"gaussian"``,
        ``"constant"`` or ``"none"`` (Table 4 ablation).
    noise_mu, noise_sigma:
        Location/scale of the adjustment distribution; defaults match the
        paper's standard Gumbel (μ = 0.5772, σ = 1.2825).
    noise_resample:
        ``"per-step"`` redraws ζ at every decoding step (Gumbel-softmax
        practice, the default); ``"fixed"`` draws ζ once per sequence.
    shared_score:
        Share a single score function across decoder layers instead of the
        default per-layer score (Table 3 ablation).
    score_damping:
        Optional damping factor α multiplying the accumulated score at each
        decoding step (§2.3.3 / Figure 5); ``1.0`` disables damping.
    """

    tau_init: float = 1.0
    tau_end: float = 2.0
    static_tau: float | None = None
    noise: str = "gumbel"
    noise_mu: float = 0.5772
    noise_sigma: float = 1.2825
    noise_resample: str = "per-step"
    shared_score: bool = False
    score_damping: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.tau_init <= 0 or self.tau_end <= 0:
            raise ValueError("temperatures must be positive")
        if self.static_tau is not None and self.static_tau <= 0:
            raise ValueError("static_tau must be positive when provided")
        if self.noise not in ("gumbel", "gaussian", "constant", "none"):
            raise ValueError(f"unknown noise distribution {self.noise!r}")
        if self.noise_resample not in ("per-step", "fixed"):
            raise ValueError(
                f"noise_resample must be 'per-step' or 'fixed', got {self.noise_resample!r}"
            )
        if not (0.0 < self.score_damping <= 1.0):
            raise ValueError("score_damping must be in (0, 1]")
