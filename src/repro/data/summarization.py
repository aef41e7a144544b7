"""Synthetic summarization datasets (CNN/DailyMail and GovReport analogues).

Each example is a *document* (fact sentences buried in filler) and a
*reference summary* (the facts, in order of appearance).  The training format
is ``<bos> document <sep> summary <eos>`` with the loss masked on the document
part; the evaluation format is the prompt ``<bos> document <sep>`` from which
the model must generate the summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.world import Fact, SyntheticWorld
from repro.tokenizer.word import WordTokenizer

__all__ = ["SummarizationConfig", "SummarizationExample", "SummarizationDataset"]

IGNORE_INDEX = -100


@dataclass
class SummarizationConfig:
    """Parameters controlling document/summary sizes.

    The default configuration mimics CNN/DailyMail at mini scale; the
    ``long_document`` preset mimics GovReport (longer documents, more facts)
    and is used for the long-context experiment (Figure 8).
    """

    n_examples: int = 64
    n_facts: tuple[int, int] = (2, 4)
    n_filler_sentences: tuple[int, int] = (6, 10)
    filler_sentence_length: int = 8
    seed: int = 0
    name: str = "synthetic-cnndm"

    def __post_init__(self) -> None:
        if self.n_examples <= 0:
            raise ValueError("n_examples must be positive")
        if self.n_facts[0] > self.n_facts[1] or self.n_facts[0] <= 0:
            raise ValueError("n_facts must be a non-empty (low, high) range")
        if self.n_filler_sentences[0] > self.n_filler_sentences[1]:
            raise ValueError("n_filler_sentences must be a (low, high) range")

    @classmethod
    def cnn_dailymail_mini(cls, n_examples: int = 64, seed: int = 0) -> "SummarizationConfig":
        """Standard-length summarization preset (CNN/DailyMail analogue)."""
        return cls(n_examples=n_examples, seed=seed, name="synthetic-cnndm")

    @classmethod
    def govreport_mini(cls, n_examples: int = 32, seed: int = 0) -> "SummarizationConfig":
        """Long-document preset (GovReport analogue) for Figure 8."""
        return cls(
            n_examples=n_examples,
            n_facts=(4, 7),
            n_filler_sentences=(22, 30),
            filler_sentence_length=9,
            seed=seed,
            name="synthetic-govreport",
        )


@dataclass
class SummarizationExample:
    """A single document/summary pair with its underlying facts."""

    document: str
    summary: str
    facts: list[Fact] = field(default_factory=list)


class SummarizationDataset:
    """Deterministic collection of synthetic summarization examples."""

    def __init__(self, world: SyntheticWorld, config: SummarizationConfig | None = None):
        self.world = world
        self.config = config or SummarizationConfig()
        self.examples: list[SummarizationExample] = self._generate()

    # ------------------------------------------------------------------
    def _generate(self) -> list[SummarizationExample]:
        rng = np.random.default_rng(self.config.seed)
        examples = []
        for _ in range(self.config.n_examples):
            n_facts = int(rng.integers(self.config.n_facts[0], self.config.n_facts[1] + 1))
            n_filler = int(
                rng.integers(
                    self.config.n_filler_sentences[0], self.config.n_filler_sentences[1] + 1
                )
            )
            facts = self.world.sample_facts(n_facts, rng)
            document = self.world.compose_document(
                facts,
                n_filler,
                rng,
                sentence_length=self.config.filler_sentence_length,
            )
            summary = " ".join(fact.sentence() for fact in facts)
            examples.append(SummarizationExample(document, summary, facts))
        return examples

    def __len__(self) -> int:
        return len(self.examples)

    def __getitem__(self, idx: int) -> SummarizationExample:
        return self.examples[idx]

    # ------------------------------------------------------------------
    def corpus_text(self) -> list[str]:
        """All raw text (for tokenizer fitting)."""
        return [ex.document + " " + ex.summary for ex in self.examples]

    def max_sequence_length(self, tokenizer: WordTokenizer) -> int:
        """Longest ``<bos> doc <sep> summary <eos>`` sequence in the dataset."""
        longest = 0
        for ex in self.examples:
            n = (
                len(tokenizer.encode(ex.document))
                + len(tokenizer.encode(ex.summary))
                + 3  # bos, sep, eos
            )
            longest = max(longest, n)
        return longest

    def to_training_pairs(
        self, tokenizer: WordTokenizer, max_len: int
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Render examples as fixed-length (input_ids, target_ids) pairs.

        ``target_ids[t]`` is the token the model should predict after seeing
        ``input_ids[:t+1]``; document positions and padding are masked with
        ``IGNORE_INDEX`` so only the summary is learned.
        """
        pairs = []
        for ex in self.examples:
            doc_ids = [tokenizer.vocab.bos_id] + tokenizer.encode(ex.document) + [
                tokenizer.vocab.sep_id
            ]
            sum_ids = tokenizer.encode(ex.summary) + [tokenizer.vocab.eos_id]
            full = doc_ids + sum_ids
            full = full[:max_len]
            inputs = np.full(max_len, tokenizer.vocab.pad_id, dtype=np.int64)
            inputs[: len(full)] = full

            targets = np.full(max_len, IGNORE_INDEX, dtype=np.int64)
            # Predict summary tokens: position t predicts token t+1, so targets
            # are active from the <sep> position through the second-to-last
            # summary token.
            start = len(doc_ids) - 1
            end = min(len(full) - 1, max_len - 1)
            for t in range(start, end):
                targets[t] = full[t + 1]
            pairs.append((inputs, targets))
        return pairs

    def to_eval_prompts(
        self, tokenizer: WordTokenizer, limit: int | None = None
    ) -> list[tuple[list[int], str]]:
        """Render examples as (prompt_ids, reference_summary) for generation.

        ``limit`` takes the first examples; asking for more than the dataset
        holds is a ``ValueError``, not a silently smaller evaluation.
        """
        if limit is not None and limit > len(self.examples):
            raise ValueError(
                f"limit {limit} exceeds the dataset's {len(self.examples)} examples"
            )
        prompts = []
        for ex in self.examples[: limit or len(self.examples)]:
            prompt = (
                [tokenizer.vocab.bos_id]
                + tokenizer.encode(ex.document)
                + [tokenizer.vocab.sep_id]
            )
            prompts.append((prompt, ex.summary))
        return prompts

    def summary_lengths(self, tokenizer: WordTokenizer) -> list[int]:
        """Token length of each reference summary (plus EOS)."""
        return [len(tokenizer.encode(ex.summary)) + 1 for ex in self.examples]
