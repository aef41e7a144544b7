"""Analytical step-cost model for the serving harness.

The load harness (``tools/run_load.py``, ``repro.serving.workload``) replays
traces in **virtual step-time**: real wall-clock would make every latency
percentile machine-dependent and every CI gate flaky, so instead each engine
step is charged an analytical cost of what it computed.  The cost model is
deliberately affine — the same shape the roofline model
(:mod:`repro.perfmodel.latency`) predicts for a batched step once memory and
compute overlap:

``step_cost = fixed + per_prefill_token * prefill_tokens
                    + per_decode_row * decode_rows``

* ``fixed`` — kernel-launch / scheduling overhead every step pays.
* ``per_prefill_token`` — the compute-bound prompt-processing term; a step
  that prefills a 512-token prompt costs 512 of these, which is exactly the
  stall every co-resident decode row experiences.  Chunked prefill caps this
  term per step at the chunk budget.
* ``per_decode_row`` — the memory-bound per-sequence decode term (weights +
  KV stream per row).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StepCostModel"]


@dataclass(frozen=True)
class StepCostModel:
    """Affine virtual-time cost of one engine step.

    Defaults make one decode row cost 1 virtual-time unit above the fixed
    term and a prefill token one tenth of that — the ~10× compute-bound vs.
    memory-bound gap the roofline model predicts for short prompts on
    A100-class hardware.  Absolute units are arbitrary (virtual time); only
    ratios matter for percentile comparisons.
    """

    fixed: float = 0.5
    per_prefill_token: float = 0.1
    per_decode_row: float = 1.0

    def __post_init__(self):
        if self.fixed < 0 or self.per_prefill_token < 0 or self.per_decode_row < 0:
            raise ValueError("cost coefficients must be non-negative")
        if self.fixed == 0 and self.per_prefill_token == 0 and self.per_decode_row == 0:
            raise ValueError("at least one cost coefficient must be positive")

    def step_cost(self, prefill_tokens: int, decode_rows: int) -> float:
        """Virtual-time cost of a step that prefilled ``prefill_tokens``
        prompt tokens and decoded ``decode_rows`` sequence rows."""
        return (
            self.fixed
            + self.per_prefill_token * prefill_tokens
            + self.per_decode_row * decode_rows
        )

