"""Tokenization substrate: vocabulary and the word-level tokenizer."""

from repro.tokenizer.vocab import Vocabulary, SpecialTokens
from repro.tokenizer.word import WordTokenizer

__all__ = ["Vocabulary", "SpecialTokens", "WordTokenizer"]
