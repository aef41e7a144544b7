"""Tests for the conversation dataset and the few-shot MCQ tasks."""

import numpy as np
import pytest

from repro.data.conversation import ConversationConfig, ConversationDataset
from repro.data.fewshot import FEWSHOT_TASKS, FewShotConfig, FewShotTask, make_fewshot_task
from repro.data.registry import DATASETS, build_shared_tokenizer, make_dataset
from repro.data.summarization import IGNORE_INDEX
from repro.data.world import SyntheticWorld


class TestConversation:
    @pytest.fixture(scope="class")
    def dataset(self):
        return ConversationDataset(SyntheticWorld(seed=0), ConversationConfig(n_examples=8, seed=2))

    def test_response_restates_a_persona_fact(self, dataset):
        for example in dataset.examples:
            assert example.response in [f.sentence() for f in example.facts]
            assert example.response.split()[0] in example.question

    def test_question_comes_after_dialogue(self, dataset):
        for example in dataset.examples:
            assert example.prompt_text().endswith(example.question)

    def test_training_pairs_mask_prompt(self, dataset, tokenizer):
        max_len = dataset.max_sequence_length(tokenizer)
        pairs = dataset.to_training_pairs(tokenizer, max_len)
        for (inputs, targets), example in zip(pairs, dataset.examples):
            active = targets[targets != IGNORE_INDEX]
            expected = tokenizer.encode(example.response) + [tokenizer.vocab.eos_id]
            np.testing.assert_array_equal(active, expected[: len(active)])

    def test_eval_prompts(self, dataset, tokenizer):
        prompts = dataset.to_eval_prompts(tokenizer, limit=2)
        assert len(prompts) == 2
        assert prompts[0][0][-1] == tokenizer.vocab.sep_id

    def test_eval_prompts_limit_beyond_dataset_rejected(self, dataset, tokenizer):
        assert len(dataset.to_eval_prompts(tokenizer, limit=8)) == 8
        with pytest.raises(ValueError, match="limit 64 exceeds the dataset's 8 examples"):
            dataset.to_eval_prompts(tokenizer, limit=64)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ConversationConfig(n_examples=0)


class TestFewShot:
    def test_all_four_tasks_exist(self):
        assert len(FEWSHOT_TASKS) == 4
        assert {
            "copa-synthetic",
            "piqa-synthetic",
            "openbookqa-synthetic",
            "winogrande-synthetic",
        } == set(
            FEWSHOT_TASKS
        )

    @pytest.mark.parametrize("task_name", FEWSHOT_TASKS)
    def test_examples_well_formed(self, task_name, world):
        task = make_fewshot_task(task_name, world, FewShotConfig(n_examples=8, seed=1))
        for example in task.examples:
            assert len(example.options) == 2
            assert 0 <= example.answer_index < 2
            correct = example.options[example.answer_index]
            target = [f for f in example.facts if f.value == correct]
            assert target, "correct option must be a fact value from the context"
            assert target[0].sentence() in example.context

    def test_unknown_task_rejected(self, world):
        with pytest.raises(KeyError):
            FewShotTask("hellaswag", world)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FewShotConfig(n_options=1)

    def test_evaluation_items_structure(self, world, tokenizer):
        task = make_fewshot_task("copa-synthetic", world, FewShotConfig(n_examples=12, seed=0))
        items = task.evaluation_items(tokenizer, n_shots=0, limit=5)
        assert len(items) == 5
        for item in items:
            assert item["prompt_ids"][0] == tokenizer.vocab.bos_id
            assert len(item["option_ids"]) == 2
            assert all(len(ids) >= 1 for ids in item["option_ids"])

    def test_fewshot_prompts_longer_than_zero_shot(self, world, tokenizer):
        task = make_fewshot_task("piqa-synthetic", world, FewShotConfig(n_examples=16, seed=0))
        zero = task.evaluation_items(tokenizer, n_shots=0, limit=3)
        five = task.evaluation_items(tokenizer, n_shots=5, limit=3)
        assert len(five[0]["prompt_ids"]) > 2 * len(zero[0]["prompt_ids"])

    def test_exemplars_do_not_overlap_queries(self, world):
        task = make_fewshot_task(
            "winogrande-synthetic", world, FewShotConfig(n_examples=10, seed=0)
        )
        exemplars = task.examples[-3:]
        prompt = task.build_prompt(task.examples[0], 3, exemplars)
        assert task.examples[0].prompt_text() in prompt
        for exemplar in exemplars:
            assert exemplar.render_with_answer() in prompt

    def test_too_many_shots_rejected(self, world, tokenizer):
        task = make_fewshot_task("copa-synthetic", world, FewShotConfig(n_examples=4, seed=0))
        with pytest.raises(ValueError):
            task.evaluation_items(tokenizer, n_shots=4, limit=2)


class TestRegistry:
    def test_registry_contains_all_datasets(self):
        assert set(("cnn_dailymail", "govreport", "soda")).issubset(set(DATASETS))

    @pytest.mark.parametrize("name", ["cnn_dailymail", "govreport", "soda", "copa-synthetic"])
    def test_make_dataset(self, name, world):
        dataset = make_dataset(name, world=world, n_examples=4, seed=9)
        assert len(dataset) == 4

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            make_dataset("wikitext")

    def test_shared_tokenizer_covers_all_datasets(self, world):
        tokenizer = build_shared_tokenizer(world)
        unk = tokenizer.vocab.unk_id
        for name in ("cnn_dailymail", "govreport", "soda"):
            dataset = make_dataset(name, world=world, n_examples=3, seed=11)
            for text in dataset.corpus_text():
                assert unk not in tokenizer.encode(text), f"OOV token in {name}"
