"""Keyformer core: score functions, noise distributions and eviction policies.

This subpackage is the paper's primary contribution.  It implements:

* the logit-adjustment noise distributions (Gumbel, Gaussian, constant, none)
  used to regularize the score function (§3.1–3.2, Table 4);
* the dynamic temperature schedule τ (Eq. 10, Figure 16);
* the accumulated score functions — H2O-style accumulated attention and the
  Keyformer Gumbel-softmax score (Eq. 9);
* the KV-cache eviction policies compared in the paper: full attention,
  window attention, key-token-only attention, H2O,
  StreamingLLM attention sinks, and Keyformer itself (Algorithm 1).
"""

from repro.core.config import CachePolicyConfig, KeyformerConfig
from repro.core.distributions import (
    GumbelNoise,
    GaussianNoise,
    ConstantAdjustment,
    NoAdjustment,
    make_noise,
    NOISE_DISTRIBUTIONS,
)
from repro.core.temperature import ConstantTauSchedule, LinearTauSchedule
from repro.core.score import AccumulatedAttentionScore, KeyformerScore, entropy
from repro.core.policies import (
    EvictionPolicy,
    FullAttentionPolicy,
    WindowAttentionPolicy,
    KeyAttentionPolicy,
    H2OPolicy,
    StreamingLLMPolicy,
)
from repro.core.keyformer import KeyformerPolicy
from repro.core.registry import POLICIES, make_policy

__all__ = [
    "CachePolicyConfig",
    "KeyformerConfig",
    "GumbelNoise",
    "GaussianNoise",
    "ConstantAdjustment",
    "NoAdjustment",
    "make_noise",
    "NOISE_DISTRIBUTIONS",
    "ConstantTauSchedule",
    "LinearTauSchedule",
    "AccumulatedAttentionScore",
    "KeyformerScore",
    "entropy",
    "EvictionPolicy",
    "FullAttentionPolicy",
    "WindowAttentionPolicy",
    "KeyAttentionPolicy",
    "H2OPolicy",
    "StreamingLLMPolicy",
    "KeyformerPolicy",
    "POLICIES",
    "make_policy",
]
