"""Tests for the task pipelines (summarization, conversation, few-shot)."""

import pytest

from repro.core.registry import make_policy
from repro.data.registry import make_dataset
from repro.generation.pipeline import (
    ConversationPipeline,
    FewShotEvaluator,
    GenerationEvaluator,
    SummarizationPipeline,
)
from repro.models.transformer import DecoderLM
from tests.conftest import tiny_config


@pytest.fixture
def pipeline_model(tokenizer):
    config = tiny_config("alibi", vocab_size=tokenizer.vocab_size)
    return DecoderLM(config, seed=0)


class TestGenerationEvaluator:
    def test_report_structure(self, pipeline_model, tokenizer, small_summarization):
        evaluator = SummarizationPipeline(pipeline_model, tokenizer)
        report = evaluator.evaluate_dataset(
            small_summarization, policy=make_policy("window", kv_fraction=0.5), limit=2,
            max_new_tokens=6,
        )
        assert report.n_examples == 2
        assert set(report.rouge) == {"rouge1", "rouge2", "rougeL"}
        assert all(0.0 <= v <= 100.0 for v in report.rouge.values())
        assert len(report.candidates) == len(report.references) == 2
        assert report.policy["policy"] == "window"
        assert report.mean_cache_length > 0

    def test_conversation_pipeline(self, pipeline_model, tokenizer, small_conversation):
        evaluator = ConversationPipeline(pipeline_model, tokenizer)
        report = evaluator.evaluate_dataset(
            small_conversation, policy=make_policy("h2o", kv_fraction=0.5), limit=2,
            max_new_tokens=6,
        )
        assert report.n_examples == 2

    def test_full_policy_used_by_default(self, pipeline_model, tokenizer, small_summarization):
        evaluator = GenerationEvaluator(pipeline_model, tokenizer)
        prompts = small_summarization.to_eval_prompts(tokenizer, limit=1)
        report = evaluator.evaluate(prompts, max_new_tokens=4)
        assert report.policy["policy"] == "full"


class TestFewShotEvaluator:
    def test_accuracy_bounds_and_structure(self, pipeline_model, tokenizer, world):
        task = make_dataset("copa-synthetic", world=world, n_examples=10, seed=5)
        items = task.evaluation_items(tokenizer, n_shots=0, limit=4)
        evaluator = FewShotEvaluator(pipeline_model, tokenizer)
        report = evaluator.evaluate_items(items, policy=make_policy("keyformer", kv_fraction=0.5))
        assert 0.0 <= report.accuracy <= 100.0
        assert report.n_items == 4
        assert report.task == "copa-synthetic"

    def test_empty_items_rejected(self, pipeline_model, tokenizer):
        evaluator = FewShotEvaluator(pipeline_model, tokenizer)
        with pytest.raises(ValueError):
            evaluator.evaluate_items([])

    def test_rigged_model_scores_perfectly(self, tokenizer, world, rng):
        """An oracle that always prefers the correct option token must get 100%."""

        class OracleGenerator:
            def __init__(self, answers):
                self.answers = answers
                self.calls = 0

            def score_continuation(self, prompt_ids, option_ids):
                # Give the correct option of the current item the best score.
                item_index = self.calls // 2
                option_index = self.calls % 2
                self.calls += 1
                return 0.0 if option_index == self.answers[item_index] else -10.0

        task = make_dataset("piqa-synthetic", world=world, n_examples=8, seed=3)
        items = task.evaluation_items(tokenizer, n_shots=0, limit=4)
        evaluator = FewShotEvaluator(None, tokenizer)
        oracle = OracleGenerator([item["answer_index"] for item in items])

        # Monkeypatch the internal generator factory via a tiny shim.
        import repro.generation.pipeline as pipeline_module

        original = pipeline_module.Generator
        pipeline_module.Generator = lambda model, policy: oracle
        try:
            report = evaluator.evaluate_items(items, normalize_by_length=False)
        finally:
            pipeline_module.Generator = original
        assert report.accuracy == 100.0
