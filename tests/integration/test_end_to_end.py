"""End-to-end integration tests: data → training → generation → metrics.

These tests use the briefly-trained tiny model from ``conftest`` and exercise
the same code path as the paper's evaluation: prompt processing with a cache
policy, token generation with per-step eviction, and ROUGE scoring.
"""

import pytest

from repro.core.registry import POLICIES, make_policy
from repro.generation.generator import Generator
from repro.generation.pipeline import SummarizationPipeline
from repro.models.config import GenerationConfig


class TestPolicyEquivalences:
    def test_keyformer_with_full_budget_matches_full_attention(
        self, trained_tiny_model, tokenizer, small_summarization
    ):
        """With kv_fraction = 1.0 no token is ever evicted, so Keyformer must
        generate exactly what full attention generates."""
        prompt_ids, _ = small_summarization.to_eval_prompts(tokenizer, limit=1)[0]
        config = GenerationConfig(max_new_tokens=8, eos_token_id=tokenizer.vocab.eos_id)
        full = Generator(trained_tiny_model, make_policy("full")).generate(prompt_ids, config)
        keyformer = Generator(
            trained_tiny_model, make_policy("keyformer", kv_fraction=1.0)
        ).generate(prompt_ids, config)
        assert full.sequences[0] == keyformer.sequences[0]

    def test_h2o_with_full_budget_matches_full_attention(
        self, trained_tiny_model, tokenizer, small_summarization
    ):
        prompt_ids, _ = small_summarization.to_eval_prompts(tokenizer, limit=1)[0]
        config = GenerationConfig(max_new_tokens=8, eos_token_id=tokenizer.vocab.eos_id)
        full = Generator(trained_tiny_model, make_policy("full")).generate(prompt_ids, config)
        h2o = Generator(trained_tiny_model, make_policy("h2o", kv_fraction=1.0)).generate(
            prompt_ids, config
        )
        assert full.sequences[0] == h2o.sequences[0]


class TestAllPoliciesEndToEnd:
    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_generation_under_every_policy(
        self, policy_name, trained_tiny_model, tokenizer, small_summarization
    ):
        prompt_ids, reference = small_summarization.to_eval_prompts(tokenizer, limit=1)[0]
        policy = make_policy(policy_name, kv_fraction=0.5)
        generator = Generator(trained_tiny_model, policy)
        result = generator.generate(
            prompt_ids, GenerationConfig(max_new_tokens=10, eos_token_id=tokenizer.vocab.eos_id)
        )
        text = tokenizer.decode(result.sequences[0])
        assert isinstance(text, str)
        assert result.cache_stats.n_steps >= 0
        if policy_name != "full":
            budget = policy.config.resolve_budget(len(prompt_ids))
            assert result.cache_stats.peak_cache_length() <= budget + 1

    def test_trained_model_reproduces_fact_structure(
        self, trained_tiny_model, tokenizer, small_summarization
    ):
        """The briefly trained model should emit summary-like text (entity /
        relation tokens), demonstrating the synthetic task is learnable."""
        pipeline = SummarizationPipeline(trained_tiny_model, tokenizer)
        report = pipeline.evaluate_dataset(small_summarization, limit=4)
        assert report.rouge["rouge1"] > 5.0

    def test_reduced_cache_quality_ordering_is_sane(
        self, trained_tiny_model, tokenizer, small_summarization
    ):
        """Mixed key+recent policies must not be catastrophically worse than
        full attention at a 70% budget (weak, non-flaky form of Figure 7)."""
        pipeline = SummarizationPipeline(trained_tiny_model, tokenizer)
        full = pipeline.evaluate_dataset(small_summarization, limit=4)
        keyformer = pipeline.evaluate_dataset(
            small_summarization, policy=make_policy("keyformer", kv_fraction=0.7), limit=4
        )
        h2o = pipeline.evaluate_dataset(
            small_summarization, policy=make_policy("h2o", kv_fraction=0.7), limit=4
        )
        assert keyformer.rouge["rouge1"] >= 0.3 * full.rouge["rouge1"]
        assert h2o.rouge["rouge1"] >= 0.3 * full.rouge["rouge1"]

    def test_cache_budget_respected_across_long_generation(
        self, trained_tiny_model, tokenizer, small_summarization
    ):
        prompt_ids, _ = small_summarization.to_eval_prompts(tokenizer, limit=1)[0]
        policy = make_policy("keyformer", kv_fraction=0.3)
        generator = Generator(trained_tiny_model, policy)
        result = generator.generate(prompt_ids, GenerationConfig(max_new_tokens=30))
        budget = policy.config.resolve_budget(len(prompt_ids))
        assert result.cache_stats.peak_cache_length() == budget + 1
        assert result.cache_stats.total_evicted > 0

    def test_fewshot_scoring_end_to_end(self, trained_tiny_model, tokenizer, world):
        from repro.data.fewshot import FewShotConfig, make_fewshot_task
        from repro.generation.pipeline import FewShotEvaluator

        task = make_fewshot_task("copa-synthetic", world, FewShotConfig(n_examples=10, seed=2))
        items = task.evaluation_items(tokenizer, n_shots=2, limit=3)
        evaluator = FewShotEvaluator(trained_tiny_model, tokenizer)
        report = evaluator.evaluate_items(items, policy=make_policy("keyformer", kv_fraction=0.5))
        assert report.n_shots == 2
        assert 0.0 <= report.accuracy <= 100.0
