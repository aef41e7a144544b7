"""Acceptance-rate telemetry for the speculative decode loop."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SpeculationStats"]


@dataclass
class SpeculationStats:
    """Counters of one speculative generation (or one serving request).

    ``acceptance_rate`` is the headline number: the fraction of drafted
    tokens the target model agreed with.
    """

    #: Verify rounds executed (one target pass each).
    rounds: int = 0
    #: Draft tokens proposed across all rounds.
    drafted: int = 0
    #: Draft tokens the verify pass accepted.
    accepted: int = 0
    #: Tokens committed to the output (accepted drafts + corrections/bonuses).
    committed: int = 0
    #: Draft tokens rolled back out of the target cache (truncated KV).
    rolled_back: int = 0

    @property
    def acceptance_rate(self) -> float:
        """Fraction of drafted tokens accepted (0.0 when nothing was drafted)."""
        if self.drafted == 0:
            return 0.0
        return self.accepted / self.drafted

    @property
    def tokens_per_round(self) -> float:
        """Average tokens committed per verify pass (>= 1.0)."""
        if self.rounds == 0:
            return 0.0
        return self.committed / self.rounds

    def merge(self, other: "SpeculationStats") -> None:
        """Accumulate another request's counters into this one."""
        self.rounds += other.rounds
        self.drafted += other.drafted
        self.accepted += other.accepted
        self.committed += other.committed
        self.rolled_back += other.rolled_back

    @classmethod
    def from_summary(cls, summary: dict) -> "SpeculationStats":
        """Rebuild counters from a :meth:`summary` dict (derived rates dropped)."""
        return cls(
            rounds=summary.get("rounds", 0),
            drafted=summary.get("drafted", 0),
            accepted=summary.get("accepted", 0),
            committed=summary.get("committed", 0),
            rolled_back=summary.get("rolled_back", 0),
        )

    def summary(self) -> dict:
        """JSON-friendly snapshot (used by demos and benchmark reports)."""
        return {
            "rounds": self.rounds,
            "drafted": self.drafted,
            "accepted": self.accepted,
            "committed": self.committed,
            "rolled_back": self.rolled_back,
            "acceptance_rate": round(self.acceptance_rate, 4),
            "tokens_per_round": round(self.tokens_per_round, 4),
        }
