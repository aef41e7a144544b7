"""Drafters: cheap proposers of candidate continuations for verification.

A drafter proposes ``k`` tokens per round; the target model verifies them in
one batched pass (see :mod:`repro.speculative.decoder`).  Because greedy
verification recomputes the target's own logits exactly, a drafter can never
change *what* is generated — only the acceptance rate, and with it the
throughput.  Two families are provided:

:class:`PolicyDrafter`
    A model pass over a policy-reduced KV cache.  Self-drafting runs the
    *target's own weights* under a sparse eviction policy (window, Keyformer,
    H2O, ...) so each draft step attends over a budget-sized cache; its page
    tables live in the same :class:`~repro.kvcache.paged.BlockPool` as the
    target's, seeded by *mapping* the target's prompt pages (refcount bump +
    copy-on-write) instead of copying them.  Alternatively a smaller model
    drafts with its own cache.

:class:`NgramDrafter`
    Prompt-lookup decoding: propose the continuation of the most recent
    matching suffix n-gram in the already-committed context.  No model pass
    at all — drafting is free, so the speedup is bounded only by how
    repetitive the target's output is.

Rollback discipline: a :class:`PolicyDrafter` snapshots its page tables
(:meth:`LayerKVCache.fork_tables` — a refcount bump, not a copy) and policy
state before consuming each *unverified* draft token.  After verification it
restores the snapshot matching the accepted prefix, so rejected-token pages
flow back through the pool's existing refcount/free-list machinery.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.config import CachePolicyConfig
from repro.core.policies import EvictionPolicy, WindowAttentionPolicy
from repro.kvcache.manager import CacheManager
from repro.speculative.config import SpeculationConfig

if TYPE_CHECKING:
    from repro.kvcache.paged import PagedKVStore, PageTable
    from repro.models.transformer import DecoderLM

__all__ = ["Drafter", "PolicyDrafter", "NgramDrafter", "make_drafter_policy"]


def make_drafter_policy(config: SpeculationConfig) -> EvictionPolicy:
    """Instantiate the drafter's eviction policy from a speculation config."""
    if config.drafter_policy_factory is not None:
        return config.drafter_policy_factory()
    return WindowAttentionPolicy(CachePolicyConfig(kv_fraction=config.kv_fraction))


class Drafter(ABC):
    """Interface the speculative decode loop drives a drafter through."""

    #: Model passes spent drafting (including catch-up); 0 for model-free drafters.
    draft_steps: int = 0

    @abstractmethod
    def draft(
        self, last_token: int, k: int, eos_token_id: int | None = None
    ) -> list[int]:
        """Propose up to ``k`` tokens following ``last_token``.

        May return fewer (e.g. when the drafter itself produces EOS, or an
        n-gram match runs dry).  Called once per verify round; the loop
        reconciles afterwards through :meth:`accept` and
        :meth:`note_committed`.
        """

    def accept(self, last_token: int, draft_tokens: list[int], n_accepted: int) -> None:
        """Reconcile internal state after ``n_accepted`` drafts were verified."""

    def abort_round(self) -> None:
        """Rewind to the state at the last :meth:`draft` call (verify failed)."""

    def note_committed(self, tokens: Sequence[int]) -> None:
        """Observe tokens entering the committed sequence (context drafters)."""

    def release(self) -> None:
        """Free any cache pages the drafter holds (teardown / preemption)."""

    def live_tables(self, store: "PagedKVStore | None" = None) -> list[list["PageTable"]]:
        """Per-layer page tables this drafter holds in ``store``.

        Used by pool-integrity audits to account for every live page
        reference.  Model-free drafters hold none; a :class:`PolicyDrafter`
        whose cache lives in a *different* store also reports none for a
        foreign ``store``.
        """
        return []

    def describe(self) -> dict:
        """Human-readable summary for results and telemetry."""
        return {"drafter": type(self).__name__}


class _DraftSnapshot:
    """One rewind point of a :class:`PolicyDrafter` (tables + policy + counters)."""

    __slots__ = ("tables", "policy", "position", "step")

    def __init__(self, tables, policy, position, step):
        self.tables = tables
        self.policy = policy
        self.position = position
        self.step = step


class PolicyDrafter(Drafter):
    """Drafts with a model pass over a policy-reduced KV cache.

    Parameters
    ----------
    model:
        The drafting model — the target itself (self-drafting) or a smaller
        one with the same vocabulary.
    manager:
        A seeded single-sequence :class:`CacheManager` carrying the drafter's
        eviction policy (see :meth:`seed_mapped` / :meth:`seed_from_prompt`).
    """

    def __init__(self, model: "DecoderLM", manager: CacheManager):
        self.model = model
        self.manager = manager
        self._views = manager.layer_views()
        self._catchup: list[int] = []
        self._round_catchup: list[int] = []
        self._snaps: list[_DraftSnapshot] = []
        self._round_start: _DraftSnapshot | None = None
        self.draft_steps = 0

    # ------------------------------------------------------------------
    # seeding
    # ------------------------------------------------------------------
    @classmethod
    def seed_mapped(
        cls,
        model: "DecoderLM",
        policy: EvictionPolicy,
        store: "PagedKVStore",
        target_tables: list[list["PageTable"]],
        prompt_attn: list[np.ndarray],
        prompt_logits: list[np.ndarray],
        max_new_tokens: int,
        positional_mode: str | None = None,
    ) -> "PolicyDrafter":
        """Self-drafting seed: map the target's prompt pages, copy nothing.

        The drafter's page tables clone the target's (refcount bump in the
        shared store); its prompt-phase eviction then copy-on-writes into
        private pages.  ``prompt_attn``/``prompt_logits`` come from the
        target's own prompt forward — the weights are shared, so they are
        the drafter's prompt attention too.
        """
        config = model.config
        manager = CacheManager(
            policy,
            n_layers=config.n_layers,
            n_heads=config.n_heads,
            d_head=config.d_head,
            positional_mode=positional_mode,
            dtype=config.np_dtype,
            rope_dims=config.rope_dims if config.positional == "rope" else 0,
            store=store,
        )
        manager.initialize_mapped(target_tables, prompt_attn, prompt_logits, max_new_tokens)
        return cls(model, manager)

    @classmethod
    def seed_from_prompt(
        cls,
        model: "DecoderLM",
        policy: EvictionPolicy,
        prompt_ids: np.ndarray,
        max_new_tokens: int,
        positional_mode: str | None = None,
    ) -> "PolicyDrafter":
        """Separate-model seed: run the drafter model's own prompt forward."""
        config = model.config
        prompt = np.asarray(prompt_ids, dtype=np.int64)
        if prompt.ndim == 1:
            prompt = prompt[None, :]
        model.forward(prompt, store_attention=True)
        prompt_kv, prompt_attn, prompt_scores = model.take_prompt_tensors()
        manager = CacheManager(
            policy,
            n_layers=config.n_layers,
            n_heads=config.n_heads,
            d_head=config.d_head,
            positional_mode=positional_mode,
            dtype=config.np_dtype,
            rope_dims=config.rope_dims if config.positional == "rope" else 0,
        )
        manager.initialize_from_prompt(prompt_kv, prompt_attn, prompt_scores, max_new_tokens)
        return cls(model, manager)

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def _snapshot(self) -> _DraftSnapshot:
        mgr = self.manager
        return _DraftSnapshot(
            [cache.fork_tables() for cache in mgr.caches],
            copy.deepcopy(mgr.policy),
            mgr.current_position,
            mgr.generation_step,
        )

    def _restore(self, snap: _DraftSnapshot) -> None:
        mgr = self.manager
        for cache, tables in zip(mgr.caches, snap.tables):
            cache.restore_tables(tables)
        mgr.policy = snap.policy
        mgr.current_position = snap.position
        mgr.generation_step = snap.step
        mgr._qpos_array = None
        mgr._step_lengths = []

    def _discard(self, snaps: list[_DraftSnapshot]) -> None:
        for snap in snaps:
            for cache, tables in zip(self.manager.caches, snap.tables):
                cache.discard_tables(tables)

    def _consume(self, token: int) -> int:
        """Feed one token through the drafter; return its greedy successor."""
        logits = self.model.decode_step(
            np.asarray([token]), self.manager.current_position, self._views
        )
        self.manager.advance()
        self.draft_steps += 1
        return int(np.argmax(logits))

    # ------------------------------------------------------------------
    # Drafter interface
    # ------------------------------------------------------------------
    def draft(self, last_token: int, k: int, eos_token_id: int | None = None) -> list[int]:
        """Greedily decode up to ``k`` tokens after ``last_token``."""
        # The round-start snapshot is taken *before* catch-up so that
        # abort_round (a verify/draft pass hitting PoolExhausted under fixed
        # pools) can rewind even a half-applied catch-up.
        self._round_start = self._snapshot()
        self._round_catchup = list(self._catchup)
        # Catch-up: consume committed tokens the previous round accepted in
        # full (their KV never needs rolling back, so no per-token snapshots).
        for token in self._catchup:
            self._consume(token)
        self._catchup = []
        self._snaps = []
        tokens: list[int] = []
        token = int(last_token)
        for j in range(k):
            if j > 0:
                # Snapshot before consuming an *unverified* draft token; the
                # first input (the committed last_token) never rolls back.
                self._snaps.append(self._snapshot())
            token = self._consume(token)
            tokens.append(token)
            if eos_token_id is not None and token == eos_token_id:
                break
        return tokens

    def accept(self, last_token: int, draft_tokens: list[int], n_accepted: int) -> None:
        """Rewind to the accepted prefix (or queue catch-up on full acceptance)."""
        consumed = len(draft_tokens)  # inputs fed: last_token + drafts[:-1]
        needed = n_accepted + 1  # must have consumed last_token + accepted drafts
        if needed > consumed:
            # Full acceptance: the final draft's KV was never computed by the
            # drafter — consume it (and, in the k == 0 corner, last_token) at
            # the start of the next round.
            seq = [int(last_token)] + [int(t) for t in draft_tokens[:n_accepted]]
            self._catchup = seq[consumed:]
            self._discard(self._snaps)
        elif needed == consumed:
            self._discard(self._snaps)
        else:
            # Partial acceptance: rewind to the state just before the first
            # rejected draft token was consumed.
            keep = self._snaps[needed - 1]
            self._restore(keep)
            self._discard(self._snaps[: needed - 1] + self._snaps[needed:])
        if self._round_start is not None:
            self._discard([self._round_start])
        self._snaps = []
        self._round_start = None

    def abort_round(self) -> None:
        """Restore the state at the last ``draft`` call (failed verify pass)."""
        if self._round_start is not None:
            self._restore(self._round_start)
            self._discard(self._snaps)
            self._catchup = list(self._round_catchup)
            self._snaps = []
            self._round_start = None

    def release(self) -> None:
        """Free every page the drafter (and its live snapshots) holds."""
        self._discard(self._snaps)
        if self._round_start is not None:
            self._discard([self._round_start])
        self._snaps = []
        self._round_start = None
        self.manager.release()

    def live_tables(self, store: "PagedKVStore | None" = None) -> list[list["PageTable"]]:
        """Per-layer tables of the live cache plus every un-discarded snapshot.

        Reports nothing when ``store`` is given and this drafter's cache
        lives elsewhere (a separate drafter model stores pages in its own
        pools, which the serving store's audit must not count).
        """
        mgr = self.manager
        if not mgr.caches:
            return []
        if store is not None and mgr.caches[0].pool is not store.pools[0]:
            return []
        per_layer = [list(cache.tables) for cache in mgr.caches]
        snapshots = list(self._snaps)
        if self._round_start is not None:
            snapshots.append(self._round_start)
        for snap in snapshots:
            for layer, tables in enumerate(snap.tables):
                per_layer[layer].extend(tables)
        return per_layer

    def describe(self) -> dict:
        """Summary of the drafting policy for results/telemetry."""
        return {"drafter": "policy", "policy": self.manager.policy.describe()}


class NgramDrafter(Drafter):
    """Prompt-lookup drafting: copy the continuation of a repeated n-gram.

    The committed context (prompt + generated tokens) is scanned for the most
    recent earlier occurrence of its own suffix n-gram (longest first,
    ``ngram_max`` down to ``ngram_min``); the tokens that followed that
    occurrence become the draft.  Generation that revisits context — looping
    continuations, quoted spans, structured output — verifies in blocks, and
    a miss costs nothing but a normal decode step.
    """

    def __init__(self, prompt_ids: np.ndarray, config: SpeculationConfig):
        self._history = [int(t) for t in np.asarray(prompt_ids).reshape(-1)]
        self.ngram_max = config.ngram_max
        self.ngram_min = config.ngram_min
        self.draft_steps = 0

    def note_committed(self, tokens: Sequence[int]) -> None:
        """Extend the lookup history with freshly committed tokens."""
        self._history.extend(int(t) for t in tokens)

    def draft(self, last_token: int, k: int, eos_token_id: int | None = None) -> list[int]:
        """Propose up to ``k`` tokens by rolling n-gram lookups forward."""
        if k <= 0:
            return []
        # Roll the lookup forward one token at a time over a virtual history
        # (committed context + draft so far): each step proposes the token
        # that followed the most recent earlier occurrence of the current
        # suffix n-gram.  Rolling — rather than copying a block after one
        # match — keeps drafting through periodic content whose latest match
        # sits flush against the end of the history.
        virtual = np.empty(len(self._history) + k, dtype=np.int64)
        virtual[: len(self._history)] = self._history
        n = len(self._history)
        draft: list[int] = []
        for _ in range(k):
            token = self._lookup_next(virtual[:n])
            if token is None:
                break
            draft.append(token)
            virtual[n] = token
            n += 1
            if eos_token_id is not None and token == eos_token_id:
                break
        return draft

    def _lookup_next(self, history: np.ndarray) -> int | None:
        """Token following the most recent earlier occurrence of the longest
        matching suffix n-gram, or ``None`` when no n-gram recurs."""
        n = history.size
        for m in range(min(self.ngram_max, n - 1), self.ngram_min - 1, -1):
            pattern = history[n - m :]
            windows = np.lib.stride_tricks.sliding_window_view(history, m)
            matches = np.flatnonzero((windows[: n - m] == pattern).all(axis=1))
            if matches.size:
                return int(history[int(matches[-1]) + m])
        return None

    def describe(self) -> dict:
        """Summary of the lookup configuration for results/telemetry."""
        return {
            "drafter": "ngram",
            "ngram_max": self.ngram_max,
            "ngram_min": self.ngram_min,
        }
