"""Tests for vocabulary and the word-level tokenizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tokenizer.vocab import SpecialTokens, Vocabulary
from repro.tokenizer.word import WordTokenizer

words = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=6), min_size=1, max_size=12
)


class TestVocabulary:
    def test_special_ids_are_stable(self):
        vocab = Vocabulary(["zebra", "apple"])
        assert vocab.pad_id == 0
        assert vocab.bos_id == 1
        assert vocab.eos_id == 2
        assert vocab.unk_id == 3
        assert vocab.sep_id == 4

    def test_add_idempotent(self):
        vocab = Vocabulary()
        first = vocab.add("hello")
        second = vocab.add("hello")
        assert first == second

    def test_unknown_token_maps_to_unk(self):
        vocab = Vocabulary(["known"])
        assert vocab.token_to_id("unknown-token") == vocab.unk_id

    def test_decode_skips_specials(self):
        vocab = Vocabulary(["a", "b"])
        ids = [
            vocab.bos_id,
            vocab.token_to_id("a"),
            vocab.sep_id,
            vocab.token_to_id("b"),
            vocab.eos_id,
        ]
        assert vocab.decode_ids(ids) == ["a", "b"]
        assert len(vocab.decode_ids(ids, skip_special=False)) == 5

    def test_out_of_range_id(self):
        with pytest.raises(IndexError):
            Vocabulary().id_to_token(999)

    def test_contains_and_len(self):
        vocab = Vocabulary(["x"])
        assert "x" in vocab and "y" not in vocab
        assert len(vocab) == 6  # 5 specials + 1

    def test_encode_tokens_maps_unknowns_to_unk(self):
        vocab = Vocabulary(["a", "b"])
        assert vocab.encode_tokens(["b", "zzz", "a"]) == [6, vocab.unk_id, 5]
        assert vocab.decode_ids(vocab.encode_tokens(["a", "b"])) == ["a", "b"]

    def test_renamed_specials_keep_their_ids(self):
        specials = SpecialTokens(pad="[PAD]", bos="[CLS]", eos="[END]", unk="[UNK]", sep="[SEP]")
        vocab = Vocabulary(["x"], specials=specials)
        assert [vocab.id_to_token(i) for i in range(5)] == list(specials.as_tuple())
        assert (vocab.pad_id, vocab.bos_id, vocab.eos_id, vocab.unk_id, vocab.sep_id) == tuple(
            range(5)
        )
        assert vocab.token_to_id("<unk>") == vocab.unk_id  # the default names are plain tokens


class TestWordTokenizer:
    def test_round_trip(self):
        tokenizer = WordTokenizer.from_corpus(["alice likes chess . bob visited paris ."])
        text = "alice likes chess ."
        assert tokenizer.decode(tokenizer.encode(text)) == text

    def test_punctuation_separated(self):
        assert WordTokenizer.word_split("hello, world!") == ["hello", ",", "world", "!"]

    def test_lowercasing(self):
        tokenizer = WordTokenizer.from_corpus(["Alice"])
        assert tokenizer.encode("ALICE") == tokenizer.encode("alice")

    def test_bos_eos_flags(self):
        tokenizer = WordTokenizer.from_corpus(["a b"])
        ids = tokenizer.encode("a b", add_bos=True, add_eos=True)
        assert ids[0] == tokenizer.vocab.bos_id and ids[-1] == tokenizer.vocab.eos_id

    def test_oov_maps_to_unk(self):
        tokenizer = WordTokenizer.from_corpus(["a b c"])
        assert tokenizer.encode("zzz") == [tokenizer.vocab.unk_id]

    def test_max_vocab_limits_size(self):
        tokenizer = WordTokenizer.from_corpus(["a b c d e f g h"], max_vocab=3)
        assert tokenizer.vocab_size == 5 + 3

    def test_frequency_ordering_deterministic(self):
        a = WordTokenizer.from_corpus(["x y y z z z"])
        b = WordTokenizer.from_corpus(["z z z y y x"])
        assert a.vocab_size == b.vocab_size
        assert [a.vocab.id_to_token(i) for i in range(a.vocab_size)] == [
            b.vocab.id_to_token(i) for i in range(b.vocab_size)
        ]

    @given(words)
    @settings(max_examples=30, deadline=None)
    def test_property_round_trip(self, tokens):
        text = " ".join(tokens)
        tokenizer = WordTokenizer.from_corpus([text])
        assert tokenizer.decode(tokenizer.encode(text)) == text.lower()
