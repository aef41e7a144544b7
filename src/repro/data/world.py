"""Closed-vocabulary synthetic world from which all datasets are generated.

The world defines a set of entities, relations and values plus a pool of
filler words.  Every dataset (summarization, conversation, few-shot QA) embeds
*facts* — ``(entity, relation, value)`` triples rendered as short sentences —
inside longer filler text.  Reference outputs are derived from the facts, so a
model can only produce them by attending back to the fact tokens, which makes
the fact tokens the "key tokens" in the paper's sense.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Fact", "SyntheticWorld"]

_ENTITIES = [
    "alice", "bob", "carol", "david", "erin", "frank", "grace", "henry",
    "irene", "jack", "karen", "leo", "mona", "nate", "olga", "peter",
    "quinn", "rosa", "sam", "tina", "ursula", "victor", "wendy", "xavier",
]

_RELATIONS = {
    "likes": ["music", "chess", "coffee", "hiking", "poetry", "cycling", "painting", "tennis"],
    "visited": ["paris", "tokyo", "cairo", "oslo", "lima", "delhi", "rome", "sydney"],
    "studies": ["physics", "history", "biology", "law", "economics", "geology", "math", "art"],
    "owns": ["boat", "piano", "telescope", "garden", "bakery", "drone", "library", "farm"],
    "works": ["hospital", "school", "museum", "bank", "theater", "airport", "factory", "studio"],
}

_FILLER_WORDS = [
    "the", "report", "meanwhile", "later", "committee", "noted", "weather",
    "remained", "calm", "during", "afternoon", "people", "gathered", "near",
    "market", "street", "traffic", "moved", "slowly", "past", "old", "bridge",
    "officials", "discussed", "various", "routine", "matters", "without",
    "reaching", "any", "conclusion", "local", "residents", "continued",
    "their", "usual", "activities", "throughout", "day", "several", "minor",
    "events", "took", "place", "around", "town", "nothing", "unusual",
    "happened", "again", "morning", "evening", "quiet", "crowd", "small",
]


@dataclass(frozen=True)
class Fact:
    """A single (entity, relation, value) triple."""

    entity: str
    relation: str
    value: str

    def sentence(self) -> str:
        """Render the fact as a short declarative sentence."""
        return f"{self.entity} {self.relation} {self.value} ."


class SyntheticWorld:
    """Deterministic generator of facts and filler text.

    Parameters
    ----------
    seed:
        Seed of the internal random generator; two worlds built with the same
        seed generate identical content.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.entities = list(_ENTITIES)
        self.relations = {k: list(v) for k, v in _RELATIONS.items()}
        self.filler_words = list(_FILLER_WORDS)

    # ------------------------------------------------------------------
    def full_vocabulary_text(self) -> str:
        """A text covering every word the world can emit (for tokenizer fitting)."""
        parts = list(self.entities) + list(self.relations.keys()) + self.filler_words
        for values in self.relations.values():
            parts.extend(values)
        parts.extend(
            ["what", "?", ".", ":", "summary", "document", "question", "answer",
             "said", "that", "is", "true", "false", "because", "so", "then",
             "dialogue", "reply", "choice", "best", "person", "thing"]
        )
        return " ".join(parts)

    # ------------------------------------------------------------------
    def sample_fact(
        self, rng: np.random.Generator | None = None, exclude: set[str] | None = None
    ) -> Fact:
        """Sample a random fact; ``exclude`` avoids re-using entities."""
        rng = rng or self.rng
        exclude = exclude or set()
        candidates = [e for e in self.entities if e not in exclude] or self.entities
        entity = str(rng.choice(candidates))
        relation = str(rng.choice(list(self.relations.keys())))
        value = str(rng.choice(self.relations[relation]))
        return Fact(entity, relation, value)

    def sample_facts(self, n: int, rng: np.random.Generator | None = None) -> list[Fact]:
        """Sample ``n`` facts about distinct entities."""
        rng = rng or self.rng
        used: set[str] = set()
        facts = []
        for _ in range(n):
            fact = self.sample_fact(rng, exclude=used)
            used.add(fact.entity)
            facts.append(fact)
        return facts

    def distractor_value(self, fact: Fact, rng: np.random.Generator | None = None) -> str:
        """Return a value from the same relation that differs from the fact's value."""
        rng = rng or self.rng
        options = [v for v in self.relations[fact.relation] if v != fact.value]
        return str(rng.choice(options))

    def filler_sentence(self, rng: np.random.Generator | None = None, length: int = 8) -> str:
        """A sentence of filler words carrying no fact content."""
        rng = rng or self.rng
        words = rng.choice(self.filler_words, size=length, replace=True)
        return " ".join(str(w) for w in words) + " ."

    def filler_text(
        self, n_sentences: int, rng: np.random.Generator | None = None, sentence_length: int = 8
    ) -> list[str]:
        """A list of filler sentences."""
        rng = rng or self.rng
        return [self.filler_sentence(rng, length=sentence_length) for _ in range(n_sentences)]

    # ------------------------------------------------------------------
    def compose_document(
        self,
        facts: Sequence[Fact],
        n_filler_sentences: int,
        rng: np.random.Generator | None = None,
        sentence_length: int = 8,
        keep_facts_early: bool = True,
    ) -> str:
        """Interleave fact sentences with filler sentences into a document.

        When ``keep_facts_early`` is true the facts are placed in the first
        two thirds of the document, guaranteeing they fall outside a recent
        window of realistic size — the situation where Keyformer's key-token
        retention matters most.
        """
        rng = rng or self.rng
        filler = self.filler_text(n_filler_sentences, rng, sentence_length)
        total_slots = len(facts) + len(filler)
        if keep_facts_early:
            upper = max(int(total_slots * 2 / 3), len(facts))
            fact_slots = sorted(rng.choice(upper, size=len(facts), replace=False).tolist())
        else:
            fact_slots = sorted(rng.choice(total_slots, size=len(facts), replace=False).tolist())

        sentences: list[str] = []
        fact_iter = iter(facts)
        filler_iter = iter(filler)
        fact_slot_set = set(fact_slots)
        for slot in range(total_slots):
            if slot in fact_slot_set:
                sentences.append(next(fact_iter).sentence())
            else:
                try:
                    sentences.append(next(filler_iter))
                except StopIteration:
                    sentences.append(next(fact_iter).sentence())
        return " ".join(sentences)
