"""Synthetic multi-turn conversation dataset (SODA analogue).

Each example is a dialogue in which persona facts are stated in the opening
turns, several filler turns follow, and the final user turn asks about one of
the persona facts.  The reference response restates the fact — so, exactly as
in the summarization task, producing the reference requires attending to
tokens far outside a recent window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.world import Fact, SyntheticWorld
from repro.data.summarization import IGNORE_INDEX
from repro.tokenizer.word import WordTokenizer

__all__ = ["ConversationConfig", "ConversationExample", "ConversationDataset"]


@dataclass
class ConversationConfig:
    """Parameters of the synthetic dialogue generator."""

    n_examples: int = 64
    n_persona_facts: tuple[int, int] = (2, 3)
    n_filler_turns: tuple[int, int] = (4, 8)
    filler_sentence_length: int = 7
    seed: int = 0
    name: str = "synthetic-soda"

    def __post_init__(self) -> None:
        if self.n_examples <= 0:
            raise ValueError("n_examples must be positive")


@dataclass
class ConversationExample:
    """A dialogue prompt and its reference response."""

    dialogue: str
    question: str
    response: str
    facts: list[Fact] = field(default_factory=list)

    def prompt_text(self) -> str:
        """The text the model conditions on (dialogue plus final question)."""
        return f"{self.dialogue} {self.question}"


class ConversationDataset:
    """Deterministic collection of synthetic dialogues."""

    def __init__(self, world: SyntheticWorld, config: ConversationConfig | None = None):
        self.world = world
        self.config = config or ConversationConfig()
        self.examples: list[ConversationExample] = self._generate()

    # ------------------------------------------------------------------
    def _generate(self) -> list[ConversationExample]:
        rng = np.random.default_rng(self.config.seed)
        cfg = self.config
        examples = []
        for _ in range(cfg.n_examples):
            n_facts = int(rng.integers(cfg.n_persona_facts[0], cfg.n_persona_facts[1] + 1))
            n_filler = int(rng.integers(cfg.n_filler_turns[0], cfg.n_filler_turns[1] + 1))
            facts = self.world.sample_facts(n_facts, rng)

            turns = [f"{fact.entity} said that {fact.sentence()}" for fact in facts]
            turns += self.world.filler_text(n_filler, rng, cfg.filler_sentence_length)
            target_fact = facts[int(rng.integers(0, len(facts)))]
            # The closing question names only the entity, so answering requires
            # recalling the relation *and* value stated in the opening turns —
            # a recency-only cache cannot reconstruct the reply.
            question = f"question : {target_fact.entity} ?"
            response = target_fact.sentence()
            examples.append(
                ConversationExample(
                    dialogue=" ".join(turns),
                    question=question,
                    response=response,
                    facts=facts,
                )
            )
        return examples

    def __len__(self) -> int:
        return len(self.examples)

    def __getitem__(self, idx: int) -> ConversationExample:
        return self.examples[idx]

    # ------------------------------------------------------------------
    def corpus_text(self) -> list[str]:
        return [ex.prompt_text() + " " + ex.response for ex in self.examples]

    def max_sequence_length(self, tokenizer: WordTokenizer) -> int:
        longest = 0
        for ex in self.examples:
            n = (
                len(tokenizer.encode(ex.prompt_text()))
                + len(tokenizer.encode(ex.response))
                + 3
            )
            longest = max(longest, n)
        return longest

    def to_training_pairs(
        self, tokenizer: WordTokenizer, max_len: int
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Fixed-length training pairs; loss active only on the response."""
        pairs = []
        for ex in self.examples:
            prompt_ids = (
                [tokenizer.vocab.bos_id]
                + tokenizer.encode(ex.prompt_text())
                + [tokenizer.vocab.sep_id]
            )
            response_ids = tokenizer.encode(ex.response) + [tokenizer.vocab.eos_id]
            full = (prompt_ids + response_ids)[:max_len]
            inputs = np.full(max_len, tokenizer.vocab.pad_id, dtype=np.int64)
            inputs[: len(full)] = full
            targets = np.full(max_len, IGNORE_INDEX, dtype=np.int64)
            start = len(prompt_ids) - 1
            end = min(len(full) - 1, max_len - 1)
            for t in range(start, end):
                targets[t] = full[t + 1]
            pairs.append((inputs, targets))
        return pairs

    def to_eval_prompts(
        self, tokenizer: WordTokenizer, limit: int | None = None
    ) -> list[tuple[list[int], str]]:
        """(prompt_ids, reference_response) pairs for generation evaluation.

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
                + tokenizer.encode(ex.prompt_text())
                + [tokenizer.vocab.sep_id]
            )
            prompts.append((prompt, ex.response))
        return prompts
