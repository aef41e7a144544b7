"""Evaluation metrics: ROUGE, multiple-choice accuracy, attention statistics."""

from repro.metrics.rouge import RougeScore, rouge_n, rouge_l, rouge_all, aggregate_rouge
from repro.metrics.accuracy import multiple_choice_accuracy
from repro.metrics.attention_stats import (
    attention_sparsity,
    attention_score_cdf,
    cumulative_attention_mass,
    head_sparsity_by_threshold,
)

__all__ = [
    "RougeScore",
    "rouge_n",
    "rouge_l",
    "rouge_all",
    "aggregate_rouge",
    "multiple_choice_accuracy",
    "attention_sparsity",
    "attention_score_cdf",
    "cumulative_attention_mass",
    "head_sparsity_by_threshold",
]
