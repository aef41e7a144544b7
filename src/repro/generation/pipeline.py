"""Task pipelines: summarization/conversation generation and few-shot scoring.

These wrap :class:`~repro.generation.generator.Generator` into the evaluation
protocols used by the paper: generate a summary/response for each prompt and
report ROUGE (Figures 7, 8, 13, Tables 3–4), or score multiple-choice options
by log-likelihood and report accuracy (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.policies import EvictionPolicy, FullAttentionPolicy
from repro.metrics.accuracy import multiple_choice_accuracy, pick_option
from repro.metrics.rouge import aggregate_rouge
from repro.models.config import GenerationConfig
from repro.models.transformer import DecoderLM
from repro.tokenizer.word import WordTokenizer
from repro.generation.generator import Generator

__all__ = [
    "EvaluationReport",
    "GenerationEvaluator",
    "SummarizationPipeline",
    "ConversationPipeline",
    "FewShotEvaluator",
]


@dataclass
class EvaluationReport:
    """ROUGE report plus cache statistics for one policy/dataset combination."""

    policy: dict
    rouge: dict[str, float]
    candidates: list[str] = field(default_factory=list)
    references: list[str] = field(default_factory=list)
    mean_cache_length: float = 0.0
    peak_cache_length: int = 0
    n_examples: int = 0


class GenerationEvaluator:
    """Generate continuations for (prompt, reference) pairs and score with ROUGE."""

    def __init__(self, model: DecoderLM, tokenizer: WordTokenizer):
        self.model = model
        self.tokenizer = tokenizer

    def evaluate(
        self,
        eval_prompts: Sequence[tuple[list[int], str]],
        policy: EvictionPolicy | None = None,
        max_new_tokens: int = 32,
        positional_mode: str | None = None,
        limit: int | None = None,
    ) -> EvaluationReport:
        """Run generation over ``eval_prompts`` under ``policy`` and report ROUGE."""
        policy = policy or FullAttentionPolicy()
        generator = Generator(self.model, policy, positional_mode=positional_mode)
        config = GenerationConfig(
            max_new_tokens=max_new_tokens,
            eos_token_id=self.tokenizer.vocab.eos_id,
        )

        candidates: list[str] = []
        references: list[str] = []
        cache_lengths: list[float] = []
        peaks: list[int] = []
        for prompt_ids, reference in eval_prompts[: limit or len(eval_prompts)]:
            result = generator.generate(np.asarray(prompt_ids), config)
            candidates.append(self.tokenizer.decode(result.sequences[0]))
            references.append(reference)
            cache_lengths.append(result.cache_stats.mean_cache_length())
            peaks.append(result.cache_stats.peak_cache_length())

        rouge = aggregate_rouge(candidates, references)
        return EvaluationReport(
            policy=policy.describe(),
            rouge=rouge,
            candidates=candidates,
            references=references,
            mean_cache_length=float(np.mean(cache_lengths)) if cache_lengths else 0.0,
            peak_cache_length=int(max(peaks)) if peaks else 0,
            n_examples=len(candidates),
        )


class SummarizationPipeline(GenerationEvaluator):
    """Summarization evaluation (CNN/DailyMail and GovReport analogues)."""

    def evaluate_dataset(
        self,
        dataset,
        policy: EvictionPolicy | None = None,
        max_new_tokens: int | None = None,
        limit: int | None = None,
        positional_mode: str | None = None,
    ) -> EvaluationReport:
        """Evaluate a :class:`~repro.data.summarization.SummarizationDataset`."""
        prompts = dataset.to_eval_prompts(self.tokenizer, limit=limit)
        if max_new_tokens is None:
            max_new_tokens = int(max(dataset.summary_lengths(self.tokenizer)) + 2)
        return self.evaluate(
            prompts,
            policy=policy,
            max_new_tokens=max_new_tokens,
            positional_mode=positional_mode,
            limit=limit,
        )


class ConversationPipeline(GenerationEvaluator):
    """Dialogue-response evaluation (SODA analogue)."""

    def evaluate_dataset(
        self,
        dataset,
        policy: EvictionPolicy | None = None,
        max_new_tokens: int = 16,
        limit: int | None = None,
        positional_mode: str | None = None,
    ) -> EvaluationReport:
        """Evaluate a :class:`~repro.data.conversation.ConversationDataset`."""
        prompts = dataset.to_eval_prompts(self.tokenizer, limit=limit)
        return self.evaluate(
            prompts,
            policy=policy,
            max_new_tokens=max_new_tokens,
            positional_mode=positional_mode,
            limit=limit,
        )


@dataclass
class FewShotReport:
    """Accuracy report for one few-shot task under one policy."""

    task: str
    n_shots: int
    accuracy: float
    policy: dict
    n_items: int


class FewShotEvaluator:
    """Log-likelihood multiple-choice evaluation (lm-eval-harness protocol)."""

    def __init__(self, model: DecoderLM, tokenizer: WordTokenizer):
        self.model = model
        self.tokenizer = tokenizer

    def evaluate_items(
        self,
        items: Sequence[dict],
        policy: EvictionPolicy | None = None,
        normalize_by_length: bool = True,
    ) -> FewShotReport:
        """Score each item's options and report accuracy.

        ``items`` follow the format produced by
        :meth:`repro.data.fewshot.FewShotTask.evaluation_items`.
        """
        if not items:
            raise ValueError("items must be non-empty")
        policy = policy or FullAttentionPolicy()
        generator = Generator(self.model, policy)

        predictions: list[int] = []
        answers: list[int] = []
        for item in items:
            scores = [
                generator.score_continuation(item["prompt_ids"], option_ids)
                for option_ids in item["option_ids"]
            ]
            lengths = [len(o) for o in item["option_ids"]] if normalize_by_length else None
            predictions.append(pick_option(scores, lengths))
            answers.append(item["answer_index"])

        return FewShotReport(
            task=items[0].get("task", "unknown"),
            n_shots=items[0].get("n_shots", 0),
            accuracy=multiple_choice_accuracy(predictions, answers),
            policy=policy.describe(),
            n_items=len(items),
        )
