"""Pure-NumPy decoder-only transformer substrate.

This subpackage implements the model substrate that the paper's evaluation
depends on: a trainable autoregressive transformer with the three positional
encoding families used by the paper's model zoo (RoPE for GPT-J, learned
absolute positions for Cerebras-GPT, ALiBi for MPT), a full-sequence training
path (forward + backward) and an incremental decoding path that exposes the
per-head attention probabilities and unnormalized logits required by the
KV-cache eviction policies in :mod:`repro.core`.
"""

from repro.models.config import ModelConfig
from repro.models.transformer import DecoderLM
from repro.models.model_zoo import (
    MODEL_ZOO,
    get_model_config,
    load_or_train,
)

__all__ = [
    "ModelConfig",
    "DecoderLM",
    "MODEL_ZOO",
    "get_model_config",
    "load_or_train",
]
