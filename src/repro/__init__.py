"""Keyformer reproduction: KV-cache reduction through key-token selection.

Public API overview
-------------------
* :mod:`repro.core` — Keyformer and baseline KV-cache eviction policies.
* :mod:`repro.kvcache` — KV-cache storage and the cache manager.
* :mod:`repro.models` — pure-NumPy decoder-only transformer (RoPE/ALiBi/learned).
* :mod:`repro.training` — Adam trainer for the mini model zoo.
* :mod:`repro.tokenizer` / :mod:`repro.data` — tokenizers and synthetic corpora.
* :mod:`repro.generation` — generator, beam search, task pipelines.
* :mod:`repro.metrics` — ROUGE, accuracy, attention statistics.
* :mod:`repro.perfmodel` — analytical A100-class latency/throughput model.
* :mod:`repro.experiments` — one runner per paper table/figure.
"""

from repro.core import (
    CachePolicyConfig,
    KeyformerConfig,
    KeyformerPolicy,
    FullAttentionPolicy,
    WindowAttentionPolicy,
    H2OPolicy,
    StreamingLLMPolicy,
    make_policy,
    POLICIES,
)
from repro.models import ModelConfig, DecoderLM, MODEL_ZOO, build_model, load_or_train
from repro.models.config import GenerationConfig
from repro.generation import Generator, BeamSearch, SummarizationPipeline, ConversationPipeline
from repro.kvcache import CacheManager

__version__ = "1.0.0"

__all__ = [
    "CachePolicyConfig",
    "KeyformerConfig",
    "KeyformerPolicy",
    "FullAttentionPolicy",
    "WindowAttentionPolicy",
    "H2OPolicy",
    "StreamingLLMPolicy",
    "make_policy",
    "POLICIES",
    "ModelConfig",
    "GenerationConfig",
    "DecoderLM",
    "MODEL_ZOO",
    "build_model",
    "load_or_train",
    "Generator",
    "BeamSearch",
    "SummarizationPipeline",
    "ConversationPipeline",
    "CacheManager",
    "__version__",
]
