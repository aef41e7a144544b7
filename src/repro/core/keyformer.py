"""The Keyformer eviction policy (Algorithm 1 of the paper).

Keyformer keeps a *mixed* cache of the ``w`` most recent tokens plus the
``k − w`` highest-scoring *key tokens*, where the score is the accumulated
Gumbel-softmax of the unnormalized attention logits (Eq. 9) with a dynamic
temperature that rises from ``τ_init`` to ``τ_end`` over the generation
(Eq. 10).  The noise distribution, temperature schedule, per-layer vs shared
score accumulation and positional handling are all configurable so that the
paper's ablations (Tables 3–4, Figures 5, 12, 16) map directly onto
constructor arguments.
"""

from __future__ import annotations

from repro.core.config import KeyformerConfig
from repro.core.distributions import make_noise
from repro.core.policies import _ScoreBasedPolicy
from repro.core.score import KeyformerScore
from repro.core.temperature import ConstantTauSchedule, LinearTauSchedule

__all__ = ["KeyformerPolicy"]


class KeyformerPolicy(_ScoreBasedPolicy):
    """Mixed recent-window + key-token eviction driven by a Gumbel-softmax score.

    The Gumbel score accumulator is seeded from the prompt attention logits
    (``needs_prompt_attention``), so prefix sharing cannot skip the prompt
    forward pass.
    """

    name = "keyformer"

    def __init__(self, config: KeyformerConfig | None = None):
        config = config or KeyformerConfig()
        super().__init__(config, damping=config.score_damping)
        self.config: KeyformerConfig = config
        self.shared_selection = config.shared_score

    def _make_score(self) -> KeyformerScore:
        config = self.config
        return KeyformerScore(
            noise=make_noise(config.noise, mu=config.noise_mu, sigma=config.noise_sigma),
            shared=config.shared_score,
            seed=config.seed,
            prompt_mode=config.prompt_mode,
            damping=config.score_damping,
            resample=config.noise_resample,
        )

    @property
    def needs_key_positions(self) -> bool:
        """Only fixed-per-sequence noise is indexed by original position."""
        return self.score.resample == "fixed"

    # ------------------------------------------------------------------
    def setup(self, n_layers, n_heads, batch_size, prompt_len, max_new_tokens) -> None:
        self.score.max_positions = max(prompt_len + max_new_tokens + 1, 16)
        super().setup(n_layers, n_heads, batch_size, prompt_len, max_new_tokens)
        if self.config.static_tau is not None:
            self.score.tau_schedule = ConstantTauSchedule(self.config.static_tau)
        else:
            self.score.tau_schedule = LinearTauSchedule(
                self.config.tau_init,
                self.config.tau_end,
                max(max_new_tokens, 1),
            )

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        summary = super().describe()
        summary.update(
            {
                "noise": self.config.noise,
                "tau_init": self.config.tau_init,
                "tau_end": self.config.tau_end,
                "static_tau": self.config.static_tau,
                "shared_score": self.config.shared_score,
                "positional_mode": self.config.positional_mode,
            }
        )
        return summary
