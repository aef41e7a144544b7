"""Tests for the synthetic world generator."""

from repro.data.world import Fact, SyntheticWorld


class TestFact:
    def test_sentence(self):
        fact = Fact("alice", "likes", "chess")
        assert fact.sentence() == "alice likes chess ."


class TestSyntheticWorld:
    def test_deterministic_given_seed(self):
        a = SyntheticWorld(seed=3).sample_facts(5)
        b = SyntheticWorld(seed=3).sample_facts(5)
        assert a == b

    def test_different_seeds_differ(self):
        a = SyntheticWorld(seed=1).sample_facts(10)
        b = SyntheticWorld(seed=2).sample_facts(10)
        assert a != b

    def test_sample_facts_distinct_entities(self):
        facts = SyntheticWorld(seed=0).sample_facts(8)
        entities = [f.entity for f in facts]
        assert len(set(entities)) == len(entities)

    def test_facts_use_known_vocabulary(self):
        world = SyntheticWorld(seed=0)
        fact = world.sample_fact()
        assert fact.entity in world.entities
        assert fact.relation in world.relations
        assert fact.value in world.relations[fact.relation]

    def test_distractor_differs_from_value(self):
        world = SyntheticWorld(seed=0)
        for _ in range(20):
            fact = world.sample_fact()
            assert world.distractor_value(fact) != fact.value

    def test_filler_sentence_has_requested_length(self):
        world = SyntheticWorld(seed=0)
        sentence = world.filler_sentence(length=5)
        assert len(sentence.split()) == 6  # 5 words + final period

    def test_compose_document_contains_all_facts(self):
        world = SyntheticWorld(seed=0)
        facts = world.sample_facts(3)
        document = world.compose_document(facts, n_filler_sentences=6)
        for fact in facts:
            assert fact.sentence() in document

    def test_compose_document_facts_early(self):
        world = SyntheticWorld(seed=0)
        facts = world.sample_facts(2)
        document = world.compose_document(facts, n_filler_sentences=12, keep_facts_early=True)
        for fact in facts:
            position = document.index(fact.sentence())
            assert position < len(document) * 0.75

    def test_full_vocabulary_covers_generated_text(self):
        world = SyntheticWorld(seed=0)
        vocab_words = set(world.full_vocabulary_text().split())
        facts = world.sample_facts(5)
        document = world.compose_document(facts, 5)
        for token in document.replace(".", " .").split():
            assert token in vocab_words
