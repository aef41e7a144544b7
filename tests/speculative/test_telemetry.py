"""Speculation counters: derived rates, merging and the summary round trip."""

from __future__ import annotations

import pytest

from repro.speculative.telemetry import SpeculationStats


def test_empty_stats_report_zero_rates():
    stats = SpeculationStats()
    assert stats.acceptance_rate == 0.0
    assert stats.tokens_per_round == 0.0


@pytest.mark.parametrize(
    "accepted, committed",
    [(0, 4), (16, 20), (6, 10)],
    ids=["nothing-accepted", "everything-accepted", "partial"],
)
def test_rates_of_four_rounds_of_four_drafts(accepted, committed):
    """Every round commits its accepted drafts plus one target token, so
    tokens per round runs from 1 (no draft accepted) to ``k + 1``."""
    stats = SpeculationStats(rounds=4, drafted=16, accepted=accepted, committed=committed)
    assert stats.acceptance_rate == accepted / 16
    assert stats.tokens_per_round == committed / 4
    assert 1.0 <= stats.tokens_per_round <= 4 + 1


def test_merge_accumulates_every_counter():
    total = SpeculationStats(rounds=2, drafted=8, accepted=3, committed=5, rolled_back=5)
    total.merge(SpeculationStats(rounds=1, drafted=4, accepted=4, committed=5, rolled_back=0))
    assert total == SpeculationStats(
        rounds=3, drafted=12, accepted=7, committed=10, rolled_back=5
    )
    assert total.acceptance_rate == pytest.approx(7 / 12)


def test_summary_round_trips_through_from_summary():
    stats = SpeculationStats(rounds=3, drafted=9, accepted=3, committed=6, rolled_back=6)
    summary = stats.summary()
    assert summary["acceptance_rate"] == 0.3333
    assert summary["tokens_per_round"] == 2.0
    assert SpeculationStats.from_summary(summary) == stats


def test_from_summary_defaults_missing_counters_to_zero():
    assert SpeculationStats.from_summary({"rounds": 2}) == SpeculationStats(rounds=2)
