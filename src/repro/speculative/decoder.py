"""The draft-then-verify round and its ``Generator``-compatible facade.

The serving engine's speculation mode is the one driver of these rounds;
:class:`SpeculativeGenerator` runs a single prompt through it.

One **round** of speculative decoding:

1. the n-gram drafter proposes ``k`` candidate tokens after the last
   committed one;
2. the target model scores the last committed token *and* every draft in a
   single :meth:`~repro.models.transformer.DecoderLM.decode_step_batch` pass
   over ``k + 1`` virtual rows of the one sequence
   (:class:`~repro.kvcache.verify.VerifyView`) — appending all ``k + 1`` KV
   entries to its paged cache optimistically;
3. greedy acceptance keeps the longest draft prefix whose tokens equal the
   target's own argmax chain, then commits one more token straight from the
   verify logits (the correction after a mismatch, or the bonus token after a
   full acceptance);
4. the rejected tail's KV is rolled back (``commit_verify_row`` truncates the
   row's page tables — accepted drafts keep the verify pass's KV instead of being
   recomputed), and the drafter's history takes the committed tokens.

Because the verify logits are bit-identical (float64) to what sequential
decoding would have produced, greedy speculative decoding emits **exactly**
the tokens and log-probabilities of vanilla greedy decoding under the
full-attention policy, whatever the drafter proposes — pinned by
``tests/golden/test_golden_speculative.py`` against the seed fixtures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.generation.generator import GenerationResult, Generator
from repro.generation.sampler import GreedySampler
from repro.models.config import GenerationConfig
from repro.models.tensor_ops import log_softmax
from repro.models.transformer import DecoderLM
from repro.speculative.config import SpeculationConfig
from repro.speculative.drafter import NgramDrafter
from repro.speculative.telemetry import SpeculationStats

if TYPE_CHECKING:
    from repro.kvcache.batch import BatchedCacheManager

__all__ = [
    "SpeculativeGenerator",
    "BatchedRowVerifyTarget",
    "run_round",
]


class BatchedRowVerifyTarget:
    """Verify-side adapter over one row of the serving engine's batched cache.

    Any mid-pass exception — :class:`~repro.kvcache.paged.PoolExhausted`
    under memory pressure, or an injected verify/allocation fault — leaves
    earlier layers with the block already appended; the adapter unwinds those
    partial appends (via the manager's shared ``unwind_row`` helper) before
    re-raising, so the engine can preempt-and-retry or quarantine with the
    row's cache intact.
    """

    def __init__(
        self,
        model: DecoderLM,
        manager: "BatchedCacheManager",
        row: int,
        faults=None,
        request_id: int | None = None,
    ):
        self.model = model
        self.manager = manager
        self.row = row
        self.faults = faults
        self.request_id = request_id

    def verify(self, tokens: np.ndarray) -> np.ndarray:
        """Score ``tokens`` against row ``row``'s page tables."""
        manager = self.manager
        if self.faults is not None:
            self.faults.check("verify", self.request_id)
        start = manager.current_position[self.row]
        positions = np.arange(start, start + len(tokens))
        views = manager.row_verify_views(self.row)
        lengths_before = manager.row_lengths(self.row)
        try:
            return self.model.decode_step_batch(tokens, positions, views)
        except Exception:
            # Revert both the pages and the append accounting — a retried
            # round will count these tokens again.
            manager.unwind_row(self.row, lengths_before)
            raise

    def commit(self, n_committed: int, n_appended: int) -> None:
        """Roll back the rejected tail and advance the row's counters."""
        self.manager.commit_verify_row(self.row, n_committed, n_appended)


def run_round(
    target: BatchedRowVerifyTarget,
    drafter: NgramDrafter,
    last_token: int,
    max_draft: int,
    remaining: int,
    eos_token_id: int | None,
    stats: SpeculationStats,
) -> list[tuple[int, float]]:
    """Execute one draft-then-verify round; returns committed ``(token,
    log-probability)`` pairs in order.

    ``remaining`` is the number of tokens the sequence may still emit; the
    draft length is clamped so a fully accepted round never overshoots the
    budget.  The degenerate ``remaining == 1`` round drafts nothing and the
    verify pass collapses to a (bit-identical) single decode step.
    """
    k = min(max_draft, remaining - 1)
    draft = drafter.draft(k, eos_token_id)
    inputs = np.asarray([int(last_token)] + list(draft), dtype=np.int64)
    verify_logits = target.verify(inputs)
    greedy = np.argmax(verify_logits, axis=-1)
    n_accepted = 0
    while n_accepted < len(draft) and int(greedy[n_accepted]) == draft[n_accepted]:
        n_accepted += 1
    logprobs = log_softmax(verify_logits, axis=-1)
    commits = [
        (draft[i], float(logprobs[i, draft[i]])) for i in range(n_accepted)
    ]
    commits.append(
        (int(greedy[n_accepted]), float(logprobs[n_accepted, greedy[n_accepted]]))
    )
    commits = commits[:remaining]
    if eos_token_id is not None:
        for i, (token, _) in enumerate(commits):
            if token == eos_token_id:
                commits = commits[: i + 1]
                break
    target.commit(len(commits), len(inputs))
    drafter.note_committed([token for token, _ in commits])
    stats.rounds += 1
    stats.drafted += len(draft)
    stats.accepted += n_accepted
    stats.committed += len(commits)
    stats.rolled_back += len(inputs) - len(commits)
    return commits


class SpeculativeGenerator:
    """Greedy generation through speculative decoding (``Generator``-shaped).

    A thin facade over the serving engine's speculation mode, exactly as
    :class:`~repro.serving.engine.BatchedGenerator` is over its vanilla mode:
    the one prompt becomes the engine's only request, so solo speculative
    decoding is the batch-of-one case of the one draft-then-verify driver.

    The target always runs the full-attention policy, and the output is
    bit-identical to ``Generator(model, FullAttentionPolicy()).generate`` at
    float64 for every speculation configuration.  The returned result
    carries a ``speculation`` summary (rounds, acceptance rate, rollbacks).
    """

    def __init__(
        self,
        model: DecoderLM,
        speculation: SpeculationConfig | None = None,
        positional_mode: str | None = None,
    ):
        self.model = model
        self.speculation = speculation or SpeculationConfig()
        self.positional_mode = positional_mode

    def _engine(self):
        """A fresh engine in speculation mode with the full-attention target."""
        # Imported here: the engine imports this module for ``run_round``.
        from repro.serving.engine import ContinuousBatchingEngine

        return ContinuousBatchingEngine(
            self.model,
            speculation=self.speculation,
            positional_mode=self.positional_mode,
        )

    def generate(
        self, prompt_ids, config: GenerationConfig | None = None
    ) -> GenerationResult:
        """Generate greedily with draft-then-verify speculation.

        Output-compatible with :meth:`Generator.generate` under the
        full-attention policy: same tokens, same float64 log-probabilities —
        only the number of target passes differs.
        """
        prompt = Generator._as_batch(prompt_ids)
        if prompt.shape[0] != 1:
            raise ValueError(
                "speculative decoding runs one sequence at a time; use the "
                "serving engine's speculation mode for concurrent requests"
            )
        engine = self._engine()
        state = engine.submit(prompt[0], config, sampler=GreedySampler())
        engine.run()
        return state.result()
