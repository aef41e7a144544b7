"""The draft-then-verify decode loop and its ``Generator``-compatible facade.

One **round** of speculative decoding:

1. the drafter proposes ``k`` candidate tokens after the last committed one;
2. the target model scores the last committed token *and* every draft in a
   single :meth:`~repro.models.transformer.DecoderLM.decode_step_batch` pass
   over ``k + 1`` virtual rows of the one sequence
   (:class:`~repro.kvcache.verify.VerifyView`) — appending all ``k + 1`` KV
   entries to its paged cache optimistically;
3. greedy acceptance keeps the longest draft prefix whose tokens equal the
   target's own argmax chain, then commits one more token straight from the
   verify logits (the correction after a mismatch, or the bonus token after a
   full acceptance);
4. the rejected tail's KV is rolled back (``commit_verify`` truncates the
   page tables — accepted drafts keep the verify pass's KV instead of being
   recomputed), and the drafter reconciles via snapshot restore/catch-up.

Because the verify logits are bit-identical (float64) to what sequential
decoding would have produced, greedy speculative decoding emits **exactly**
the tokens and log-probabilities of vanilla greedy decoding under the
full-attention policy, for every drafter — pinned by
``tests/golden/test_golden_speculative.py`` against the seed fixtures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.policies import FullAttentionPolicy
from repro.generation.generator import GenerationResult, Generator
from repro.kvcache.manager import CacheManager
from repro.kvcache.paged import PagedKVStore
from repro.models.config import GenerationConfig
from repro.models.tensor_ops import log_softmax
from repro.models.transformer import DecoderLM
from repro.speculative.config import SpeculationConfig
from repro.speculative.drafter import (
    Drafter,
    NgramDrafter,
    PolicyDrafter,
    make_drafter_policy,
)
from repro.speculative.telemetry import SpeculationStats

if TYPE_CHECKING:
    from repro.kvcache.batch import BatchedCacheManager

__all__ = [
    "SpeculativeGenerator",
    "SoloVerifyTarget",
    "BatchedRowVerifyTarget",
    "run_round",
]


class SoloVerifyTarget:
    """Verify-side adapter over a single-sequence :class:`CacheManager`."""

    def __init__(self, model: DecoderLM, manager: CacheManager):
        self.model = model
        self.manager = manager

    def verify(self, tokens: np.ndarray) -> np.ndarray:
        """Score ``tokens`` in one multi-query pass; returns ``(S, vocab)``."""
        start = self.manager.current_position
        positions = np.arange(start, start + len(tokens))
        return self.model.decode_step_batch(tokens, positions, self.manager.verify_views())

    def commit(self, n_committed: int, n_appended: int) -> None:
        """Roll back the rejected tail and advance by the committed count."""
        self.manager.commit_verify(n_committed, n_appended)


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
    target,
    drafter: Drafter,
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
    draft = drafter.draft(int(last_token), k, eos_token_id)
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
    drafter.accept(int(last_token), list(draft), n_accepted)
    drafter.note_committed([token for token, _ in commits])
    stats.rounds += 1
    stats.drafted += len(draft)
    stats.accepted += n_accepted
    stats.committed += len(commits)
    stats.rolled_back += len(inputs) - len(commits)
    # Keep the model-pass counter live (not just at teardown) so aggregate
    # telemetry polled mid-run reflects the drafting cost already paid.
    stats.draft_steps = drafter.draft_steps
    return commits


class SpeculativeGenerator:
    """Greedy generation through speculative decoding (``Generator``-shaped).

    The target always runs the full-attention policy — the whole point is
    that the *drafter* carries the sparse cache — and the output is
    bit-identical to ``Generator(model, FullAttentionPolicy()).generate`` at
    float64, for every drafter configuration.  The returned result carries a
    ``speculation`` summary (rounds, acceptance rate, rollbacks).

    For self-drafting, target and drafter hold separate page tables over one
    shared :class:`~repro.kvcache.paged.PagedKVStore`: the drafter maps the
    target's prompt pages at seed time and copy-on-writes away as its policy
    evicts.
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
        if self.speculation.drafter_model is not None:
            drafter_config = self.speculation.drafter_model.config
            if drafter_config.vocab_size != model.config.vocab_size:
                raise ValueError(
                    "drafter model must share the target's vocabulary "
                    f"({drafter_config.vocab_size} != {model.config.vocab_size})"
                )

    # ------------------------------------------------------------------
    def _prepare(self, prompt_ids, config: GenerationConfig | None):
        """Prompt phase: seed target + drafter; returns the decode session."""
        config = config or GenerationConfig()
        prompt = Generator._as_batch(prompt_ids)
        if prompt.shape[0] != 1:
            raise ValueError(
                "speculative decoding runs one sequence at a time; use the "
                "serving engine's speculation mode for concurrent requests"
            )
        model_config = self.model.config
        spec = self.speculation
        self_drafting = spec.drafter != "ngram" and spec.drafter_model is None
        drafter_policy = None if spec.drafter == "ngram" else make_drafter_policy(spec)
        # The target keeps every token; only a self-drafting score policy
        # reads the (shared) prompt attention.
        logits, prompt_kv, prompt_attn, prompt_scores = self.model.forward_suffix(
            prompt,
            store_attention=self_drafting and drafter_policy.needs_prompt_attention,
        )
        store = None
        if self_drafting:
            # One store, two owners: target and drafter page tables share
            # these pools (and, transiently, the physical prompt pages).
            store = PagedKVStore(
                model_config.n_layers,
                model_config.n_heads,
                model_config.d_head,
                dtype=model_config.np_dtype,
                rope_dims=model_config.rope_dims
                if model_config.positional == "rope"
                else 0,
                growable=True,
            )
        target_manager = CacheManager(
            FullAttentionPolicy(),
            n_layers=model_config.n_layers,
            n_heads=model_config.n_heads,
            d_head=model_config.d_head,
            positional_mode=self.positional_mode,
            dtype=model_config.np_dtype,
            rope_dims=model_config.rope_dims if model_config.positional == "rope" else 0,
            store=store,
        )
        target_manager.initialize_from_prompt(
            prompt_kv, prompt_attn, prompt_scores, config.max_new_tokens
        )

        if spec.drafter == "ngram":
            drafter: Drafter = NgramDrafter(prompt[0], spec)
        elif spec.drafter_model is not None:
            drafter = PolicyDrafter.seed_from_prompt(
                spec.drafter_model,
                drafter_policy,
                prompt,
                config.max_new_tokens,
                positional_mode=self.positional_mode,
            )
        else:
            drafter = PolicyDrafter.seed_mapped(
                self.model,
                drafter_policy,
                store,
                [cache.tables for cache in target_manager.caches],
                prompt_attn,
                prompt_scores,
                config.max_new_tokens,
                positional_mode=self.positional_mode,
            )
        return {
            "config": config,
            "prompt_len": prompt.shape[1],
            "next_logits": logits[:, -1, :],
            "target": SoloVerifyTarget(self.model, target_manager),
            "manager": target_manager,
            "drafter": drafter,
        }

    def _run(self, session: dict) -> GenerationResult:
        """Token-generation phase: verify rounds until EOS or the budget."""
        config: GenerationConfig = session["config"]
        target: SoloVerifyTarget = session["target"]
        manager: CacheManager = session["manager"]
        drafter: Drafter = session["drafter"]
        stats = SpeculationStats()

        next_logits = session["next_logits"]
        first = int(np.argmax(next_logits, axis=-1)[0])
        first_logprob = float(log_softmax(next_logits, axis=-1)[0, first])
        sequence = [first]
        total_logprob = first_logprob
        drafter.note_committed([first])
        eos = config.eos_token_id
        finished = eos is not None and first == eos

        while not finished and len(sequence) < config.max_new_tokens:
            remaining = config.max_new_tokens - len(sequence)
            commits = run_round(
                target, drafter, sequence[-1], self.speculation.k, remaining, eos, stats
            )
            for token, logprob in commits:
                sequence.append(token)
                total_logprob += logprob
            finished = eos is not None and sequence[-1] == eos
        stats.draft_steps = drafter.draft_steps
        drafter.release()

        return GenerationResult(
            sequences=[sequence],
            prompt_lengths=[session["prompt_len"]],
            cache_stats=manager.stats,
            policy={
                "policy": "speculative",
                "target": manager.policy.describe(),
                "k": self.speculation.k,
                **drafter.describe(),
            },
            n_steps=manager.generation_step,
            log_probs=[total_logprob],
            speculation=stats.summary(),
        )

    # ------------------------------------------------------------------
    def generate(
        self, prompt_ids, config: GenerationConfig | None = None
    ) -> GenerationResult:
        """Generate greedily with draft-then-verify speculation.

        Output-compatible with :meth:`Generator.generate` under the
        full-attention policy: same tokens, same float64 log-probabilities —
        only the number of target passes differs.
        """
        return self._run(self._prepare(prompt_ids, config))
