"""Autoregressive generation on top of the NumPy substrate with pluggable KV-cache policies."""

from repro.generation.sampler import GreedySampler
from repro.generation.generator import Generator, GenerationResult
from repro.generation.beam import BeamSearch, BeamSearchResult
from repro.generation.pipeline import (
    GenerationEvaluator,
    SummarizationPipeline,
    ConversationPipeline,
    FewShotEvaluator,
)

__all__ = [
    "GreedySampler",
    "Generator",
    "GenerationResult",
    "BeamSearch",
    "BeamSearchResult",
    "GenerationEvaluator",
    "SummarizationPipeline",
    "ConversationPipeline",
    "FewShotEvaluator",
]
