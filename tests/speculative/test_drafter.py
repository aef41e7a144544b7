"""Unit tests for the speculation config and the n-gram lookup drafter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.speculative import NgramDrafter, SpeculationConfig


class TestSpeculationConfig:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            SpeculationConfig(k=0)

    def test_rejects_zero_ngram_min(self):
        with pytest.raises(ValueError):
            SpeculationConfig(ngram_min=0)

    def test_rejects_bad_ngram_bounds(self):
        with pytest.raises(ValueError):
            SpeculationConfig(ngram_min=2, ngram_max=1)


class TestNgramDrafter:
    def test_periodic_history_drafts_full_block(self):
        drafter = NgramDrafter(np.array([1, 2, 3, 1, 2, 3, 1, 2]), SpeculationConfig())
        assert drafter.draft(5) == [3, 1, 2, 3, 1]

    def test_period_one_history(self):
        # The latest match sits flush against the end of history — the
        # rolling lookup must keep drafting instead of stopping at one token.
        drafter = NgramDrafter(np.full(16, 7), SpeculationConfig())
        assert drafter.draft(4) == [7, 7, 7, 7]

    def test_no_recurring_ngram_drafts_nothing(self):
        drafter = NgramDrafter(np.arange(10), SpeculationConfig())
        assert drafter.draft(4) == []

    def test_draft_stops_at_eos(self):
        drafter = NgramDrafter(np.array([1, 2, 9, 5, 1, 2]), SpeculationConfig())
        assert drafter.draft(4, eos_token_id=9) == [9]

    def test_note_committed_extends_history(self):
        drafter = NgramDrafter(np.array([4, 5]), SpeculationConfig())
        drafter.note_committed([6, 4, 5])
        assert drafter.draft(2) == [6, 4]

    def test_prefers_longest_matching_ngram(self):
        # Suffix [1, 2]: the 2-gram match (-> 8) must beat the 1-gram
        # match of the bare 2 (-> 9).
        history = np.array([1, 2, 8, 3, 2, 9, 1, 2])
        drafter = NgramDrafter(history, SpeculationConfig(ngram_max=3, ngram_min=1))
        assert drafter.draft(1) == [8]
