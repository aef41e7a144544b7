"""Tests for the synthetic summarization datasets."""

import numpy as np
import pytest

from repro.data.summarization import IGNORE_INDEX, SummarizationConfig, SummarizationDataset
from repro.data.world import SyntheticWorld


@pytest.fixture(scope="module")
def dataset():
    return SummarizationDataset(SyntheticWorld(seed=0), SummarizationConfig(n_examples=10, seed=1))


class TestGeneration:
    def test_deterministic(self):
        world = SyntheticWorld(seed=0)
        a = SummarizationDataset(world, SummarizationConfig(n_examples=5, seed=2))
        b = SummarizationDataset(SyntheticWorld(seed=0), SummarizationConfig(n_examples=5, seed=2))
        assert [ex.document for ex in a.examples] == [ex.document for ex in b.examples]

    def test_summary_is_fact_sentences(self, dataset):
        for example in dataset.examples:
            assert example.summary == " ".join(f.sentence() for f in example.facts)

    def test_documents_contain_facts_and_filler(self, dataset):
        for example in dataset.examples:
            assert all(f.sentence() in example.document for f in example.facts)
            assert len(example.document.split()) > len(example.summary.split())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SummarizationConfig(n_examples=0)
        with pytest.raises(ValueError):
            SummarizationConfig(n_facts=(3, 2))

    def test_govreport_preset_is_longer(self):
        world = SyntheticWorld(seed=0)
        short = SummarizationDataset(world, SummarizationConfig.cnn_dailymail_mini(n_examples=4))
        long = SummarizationDataset(world, SummarizationConfig.govreport_mini(n_examples=4))
        mean_short = np.mean([len(ex.document.split()) for ex in short.examples])
        mean_long = np.mean([len(ex.document.split()) for ex in long.examples])
        assert mean_long > 2 * mean_short

    def test_len_and_getitem(self, dataset):
        assert len(dataset) == 10
        assert dataset[0].document


class TestTokenization:
    def test_training_pairs_alignment(self, dataset, tokenizer):
        max_len = dataset.max_sequence_length(tokenizer)
        pairs = dataset.to_training_pairs(tokenizer, max_len)
        assert len(pairs) == len(dataset)
        for (inputs, targets), example in zip(pairs, dataset.examples):
            assert inputs.shape == (max_len,) and targets.shape == (max_len,)
            doc_len = len(tokenizer.encode(example.document)) + 2  # bos + sep
            # Targets before the separator (minus one) must be masked.
            assert np.all(targets[: doc_len - 1] == IGNORE_INDEX)
            # The active targets reproduce the summary token sequence + eos.
            active = targets[targets != IGNORE_INDEX]
            expected = tokenizer.encode(example.summary) + [tokenizer.vocab.eos_id]
            np.testing.assert_array_equal(active, expected[: len(active)])
            # Teacher forcing: input[t+1] equals target[t] for active positions.
            for t in np.nonzero(targets != IGNORE_INDEX)[0][:-1]:
                assert inputs[t + 1] == targets[t]

    def test_eval_prompts_end_with_separator(self, dataset, tokenizer):
        prompts = dataset.to_eval_prompts(tokenizer, limit=3)
        assert len(prompts) == 3
        for prompt_ids, reference in prompts:
            assert prompt_ids[0] == tokenizer.vocab.bos_id
            assert prompt_ids[-1] == tokenizer.vocab.sep_id
            assert isinstance(reference, str) and reference

    def test_eval_prompts_limit_beyond_dataset_rejected(self, dataset, tokenizer):
        n = len(dataset)
        assert len(dataset.to_eval_prompts(tokenizer, limit=n)) == n
        assert len(dataset.to_eval_prompts(tokenizer)) == n
        with pytest.raises(ValueError, match=f"limit {n + 1} exceeds the dataset's {n} examples"):
            dataset.to_eval_prompts(tokenizer, limit=n + 1)

    def test_summary_lengths(self, dataset, tokenizer):
        lengths = dataset.summary_lengths(tokenizer)
        assert len(lengths) == len(dataset)
        assert all(length > 1 for length in lengths)

    def test_truncation_respects_max_len(self, dataset, tokenizer):
        pairs = dataset.to_training_pairs(tokenizer, 32)
        assert all(inputs.shape == (32,) for inputs, _ in pairs)
