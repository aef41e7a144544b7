"""One draft-then-verify round: acceptance, rollback accounting, clamping.

``run_round`` is driven against a scripted verify target whose greedy chain
is fixed up front, so each test pins exactly which drafts are accepted, how
many appended tokens the target is told to roll back, and what the drafter's
history and the round statistics take away from the round.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.tensor_ops import log_softmax
from repro.speculative import NgramDrafter, SpeculationConfig
from repro.speculative.decoder import run_round
from repro.speculative.telemetry import SpeculationStats

VOCAB = 16


class ScriptedTarget:
    """A verify target whose argmax after the ``i``-th input is
    ``chain[i]``; records every ``commit`` call."""

    def __init__(self, chain, fail: bool = False):
        self.chain = list(chain)
        self.fail = fail
        self.verified: list[list[int]] = []
        self.commits: list[tuple[int, int]] = []

    def verify(self, tokens: np.ndarray) -> np.ndarray:
        self.verified.append([int(t) for t in tokens])
        if self.fail:
            raise RuntimeError("verify failed")
        logits = np.random.default_rng(len(tokens)).normal(size=(len(tokens), VOCAB))
        for i in range(len(tokens)):
            logits[i, self.chain[i]] = logits[i].max() + 1.0
        return logits

    def commit(self, n_committed: int, n_appended: int) -> None:
        self.commits.append((n_committed, n_appended))


def _periodic_drafter():
    """History ``1 2 3 1 2 3 1 2``: drafts continue ``3 1 2 3 ...``."""
    return NgramDrafter(np.array([1, 2, 3, 1, 2, 3, 1, 2]), SpeculationConfig())


def _round(target, drafter, *, k=4, remaining=100, eos=None, stats=None):
    stats = stats if stats is not None else SpeculationStats()
    commits = run_round(target, drafter, 2, k, remaining, eos, stats)
    return commits, stats


class TestRunRound:
    def test_rejected_tail_rolls_back(self):
        drafter = _periodic_drafter()
        target = ScriptedTarget([3, 1, 5, 0, 0])  # accepts [3, 1], then 5
        commits, stats = _round(target, drafter)
        assert target.verified == [[2, 3, 1, 2, 3]]
        assert [token for token, _ in commits] == [3, 1, 5]
        # Five appended (last token + four drafts), three committed.
        assert target.commits == [(3, 5)]
        assert (stats.drafted, stats.accepted, stats.committed) == (4, 2, 3)
        assert stats.rolled_back == 2
        assert drafter._history[8:] == [3, 1, 5]

    def test_full_acceptance_commits_the_bonus_token(self):
        drafter = _periodic_drafter()
        target = ScriptedTarget([3, 1, 2, 3, 7])
        commits, stats = _round(target, drafter)
        assert [token for token, _ in commits] == [3, 1, 2, 3, 7]
        assert target.commits == [(5, 5)]
        assert (stats.accepted, stats.rolled_back) == (4, 0)

    def test_first_draft_rejected_commits_the_correction_only(self):
        drafter = _periodic_drafter()
        target = ScriptedTarget([9, 1, 2, 3, 1])
        commits, stats = _round(target, drafter)
        assert [token for token, _ in commits] == [9]
        assert target.commits == [(1, 5)]
        assert (stats.accepted, stats.rolled_back) == (0, 4)

    def test_empty_draft_is_a_plain_decode_step(self):
        drafter = NgramDrafter(np.arange(8), SpeculationConfig())
        target = ScriptedTarget([11])
        commits, stats = _round(target, drafter)
        assert target.verified == [[2]]
        assert [token for token, _ in commits] == [11]
        assert target.commits == [(1, 1)]
        assert (stats.rounds, stats.drafted, stats.committed) == (1, 0, 1)

    @pytest.mark.parametrize("remaining", [1, 2, 3])
    def test_remaining_budget_clamps_the_draft(self, remaining):
        """A fully accepted round never overshoots the token budget: the
        draft is cut to ``remaining - 1`` so the bonus token still fits."""
        drafter = _periodic_drafter()
        target = ScriptedTarget([3, 1, 2, 3, 1])
        commits, stats = _round(target, drafter, remaining=remaining)
        assert len(target.verified[0]) == remaining
        assert len(commits) == remaining
        assert target.commits == [(remaining, remaining)]
        assert stats.drafted == remaining - 1

    def test_eos_ends_the_committed_block(self):
        drafter = _periodic_drafter()
        target = ScriptedTarget([3, 1, 2, 3, 1])
        commits, stats = _round(target, drafter, eos=1)
        # The drafter stops drafting at eos, and the commits end there.
        assert target.verified == [[2, 3, 1]]
        assert [token for token, _ in commits] == [3, 1]
        assert target.commits == [(2, 3)]
        assert drafter._history[8:] == [3, 1]

    def test_log_probs_come_from_the_verify_logits(self):
        drafter = _periodic_drafter()
        target = ScriptedTarget([3, 1, 5, 0, 0])
        commits, _ = _round(target, drafter)
        logits = target.verify(np.array(target.verified[0]))
        logprobs = log_softmax(logits, axis=-1)
        assert [lp for _, lp in commits] == [
            float(logprobs[i, token]) for i, (token, _) in enumerate(commits)
        ]

    def test_failed_verify_changes_nothing(self):
        """A round that dies in its verify pass commits nothing: the drafter's
        history and the statistics stay at the round's start, so the retried
        round drafts the same block."""
        drafter = _periodic_drafter()
        stats = SpeculationStats()
        with pytest.raises(RuntimeError, match="verify failed"):
            _round(ScriptedTarget([], fail=True), drafter, stats=stats)
        assert drafter._history == [1, 2, 3, 1, 2, 3, 1, 2]
        assert (stats.rounds, stats.drafted, stats.committed) == (0, 0, 0)
        retry = ScriptedTarget([3, 1, 5, 0, 0])
        _round(retry, drafter, stats=stats)
        assert retry.verified == [[2, 3, 1, 2, 3]]
