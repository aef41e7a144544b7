"""Continuous-batching serving engine over the paged KV-cache store.

The engine runs many generation requests concurrently by executing **one
batched forward pass per decoding step** over a ragged batch of sequences,
admitting queued requests and retiring finished ones *between* steps — the
standard continuous-batching (in-flight batching) discipline of modern LLM
serving systems, built here on the repo's NumPy substrate.

Execution model
---------------
* **Prefill** — an admitted request's prompt runs through the inference
  prompt pass :meth:`DecoderLM.forward_suffix`, its KV tensors are written
  into pages of the shared :class:`BatchedCacheManager` store, and its
  eviction policy performs the prompt-phase reduction.  When **prefix
  sharing** is enabled and the prompt starts with a page-aligned chunk chain
  already resident in the :class:`~repro.kvcache.paged.PrefixRegistry`, the
  engine *maps* those pages (a refcount bump) and runs only the prompt
  suffix — prefill compute drops from O(T²) to O(S·T) for a prompt of
  length T sharing all but S tokens.
* **Decode** — every engine step advances all running requests by one token
  through :meth:`DecoderLM.decode_step_batch`: dense layers run batched over
  the ``(R, d_model)`` hidden rows while attention is ragged (each sequence
  attends over its own page table, padded to the batch maximum).
* **Scheduling** — a :class:`PagedScheduler` admits requests against the
  pool's *actual free pages* (with a watermark of headroom) instead of
  worst-case token budgets.  When a fixed-size pool runs dry mid-decode the
  engine **preempts** the newest-admitted running request: its pages are
  freed, its state reset, and it re-enters the head of the queue to be
  re-prefilled later — FCFS completion order is preserved because older
  requests are never the victim.

Bit-exactness invariant
-----------------------
At float64 every request's output — token sequence, log-probabilities and
cache statistics — is **bit-identical** to running that request alone through
``Generator.generate``.  This holds because every shared computation is
row-independent, all cross-request state (eviction policies, score
accumulators, sampler RNGs, KV pages) is kept per request, copy-on-write
shields mapped prefix pages from neighbours, and a preempted request restarts
from scratch with freshly reset policy and sampler state.  Consequently batch
composition, admission order, preemption and retirement timing can never
change *what* any request generates — only *when*.  Prefix sharing and
chunked prefill compute a prompt in pieces: bit-exact under the
chunked-prefill contract of ``docs/serving.md``, ulp-close outside it.
At float32 the engine switches to fully batched BLAS projections and masked
padded attention (the documented inference tolerance mode) for throughput.

Fault tolerance
---------------
The engine optionally runs with a request-lifecycle fault-tolerance layer
(see ``docs/robustness.md``): a deterministic
:class:`~repro.serving.faults.FaultInjector` exercises the failure paths, an
exception in one row's step is **quarantined** — only that row retires
(:attr:`FinishReason.ERROR`) or is retried through the preempt-and-restart
machinery with deterministic step-based backoff, while the surviving rows
replay the step bit-exactly from copy-on-write snapshots — and per-request
step-count deadlines (:attr:`FinishReason.TIMEOUT`) and an
:class:`~repro.serving.faults.EngineWatchdog` bound how long anything can go
wrong quietly.  :meth:`ContinuousBatchingEngine.check_invariants` audits the
paged store's refcounts against every live page-table reference.
"""

from __future__ import annotations

import dataclasses
import traceback as _traceback
from typing import Callable, Sequence

import numpy as np

from repro.core.policies import EvictionPolicy, FullAttentionPolicy
from repro.generation.generator import GenerationResult, Generator
from repro.generation.sampler import GreedySampler, Sampler, sample_rows
from repro.kvcache.batch import BatchedCacheManager
from repro.kvcache.paged import (
    KVStoreConfig,
    PoolExhausted,
    PoolIntegrityError,
    PrefixMatch,
)
from repro.serving.faults import EngineWatchdog, FaultInjector
from repro.kvcache.stats import CacheStats
from repro.models.config import GenerationConfig
from repro.models.positional import get_rope_table
from repro.models.tensor_ops import log_softmax
from repro.models.transformer import DecoderLM
from repro.serving.request import FinishReason, Request, RequestState, RequestStatus
from repro.serving.scheduler import FCFSScheduler, PagedScheduler
from repro.speculative.config import SpeculationConfig
from repro.speculative.decoder import BatchedRowVerifyTarget, run_round
from repro.speculative.drafter import NgramDrafter
from repro.speculative.telemetry import SpeculationStats

__all__ = ["EngineConfig", "ContinuousBatchingEngine", "BatchedGenerator"]


@dataclasses.dataclass(frozen=True)
class EngineConfig(KVStoreConfig):
    """Every serving knob, declared and validated once: the store's fields
    plus the engine's own.  Frozen and picklable; no value changes *what* a
    request generates at float64, only when and at what memory cost.
    ``docs/serving.md`` has the knob table."""

    #: ``"original"``/``"new"``; ``None`` adopts the first admitted policy's mode.
    positional_mode: str | None = None
    #: Rows of the default :class:`PagedScheduler`'s running batch.
    max_batch_size: int = 8
    #: Worst-case token cap of the default scheduler.
    max_total_tokens: int | None = None
    #: Chunked prefill: at most this many prompt tokens per step, so decode
    #: rows interleave (stored on the scheduler; ``None`` disables).
    prefill_chunk_tokens: int | None = None
    #: Map resident prompt-prefix pages instead of recomputing them.
    enable_prefix_sharing: bool = True
    #: Decode by draft-then-verify rounds (greedy full-attention requests only).
    speculation: SpeculationConfig | None = None
    #: Row quarantine on/off; ``None`` = on exactly when ``faults`` is given.
    fault_tolerant: bool | None = None
    #: Restarts a quarantined request gets before ``FinishReason.ERROR``.
    max_retries: int = 0
    #: Retry ``r`` waits ``retry_backoff_steps * 2**r`` engine steps.
    retry_backoff_steps: int = 4
    #: Default end-to-end step deadline (``FinishReason.TIMEOUT``).
    deadline_steps: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.prefill_chunk_tokens is not None and self.prefill_chunk_tokens < 2:
            raise ValueError("prefill_chunk_tokens must be >= 2 (or None)")
        for knob in ("max_retries", "retry_backoff_steps"):
            if getattr(self, knob) < 0:
                raise ValueError(f"{knob} must be non-negative")
        if self.deadline_steps is not None and self.deadline_steps <= 0:
            raise ValueError("deadline_steps must be positive (or None)")

    def build_scheduler(self, scheduler_cls: type[FCFSScheduler] = PagedScheduler):
        """A fresh ``scheduler_cls`` sized by this config."""
        return scheduler_cls(
            self.max_batch_size,
            self.max_total_tokens,
            prefill_chunk_tokens=self.prefill_chunk_tokens,
        )


#: ``_prefill`` outcomes: the admission loop dispatches on these.
_PREFILL_JOINED = 1  # the request is running (truthy, for callers that gate on it)
_PREFILL_BLOCKED = 0  # pool could not fund the join; a victim was preempted
_PREFILL_FAILED_RETRY = 2  # quarantined fault; requeued with retry backoff
_PREFILL_FAILED_FINAL = 3  # quarantined fault; retired with FinishReason.ERROR
_PREFILL_CHUNKED = 4  # first chunk ran; the request joins after its last chunk


class _PendingPrefill:
    """An admitted prompt on its way into the batch: a prefix source and a
    chunk plan.

    The prefix source is a registry match, whose mapped pages supply rows
    ``[0, match.length)``, or nothing.  The plan is ``chunk_tokens`` rows per
    chunk, or the whole remaining prompt when ``None``.  Every chunk runs
    through :meth:`DecoderLM.forward_suffix` over :attr:`prefix_kv`; no pool
    pages are touched until :meth:`ContinuousBatchingEngine._join`, so
    abandoning a pending prefill (abort, deadline, quarantined fault) never
    leaks pool state — the accumulated arrays are simply garbage-collected.
    """

    __slots__ = ("state", "match", "chunk_tokens", "done", "prefix_kv", "kv", "next_row")

    def __init__(
        self, state: RequestState, match: PrefixMatch | None, chunk_tokens: int | None
    ):
        self.state = state
        self.match = match
        self.chunk_tokens = chunk_tokens
        #: Prompt rows available so far (mapped or computed).
        self.done = 0 if match is None else match.length
        #: Per-layer attention-form ``(keys, values)`` of rows ``[0, done)``
        #: that the next chunk attends over (keys RoPE-rotated at their
        #: positions); ``None`` while empty.
        self.prefix_kv: list | None = None
        #: Per-layer raw ``(k, v)`` of the computed rows — the join input.
        self.kv: list | None = None
        #: Last-token logits of the final chunk (the first-token sample).
        self.next_row: np.ndarray | None = None

    @property
    def complete(self) -> bool:
        """Whether every prompt row has been computed."""
        return self.next_row is not None

    def next_chunk(self) -> int:
        """Size of the next chunk: the budget, except that the final chunk
        absorbs a would-be 1-token remainder (``forward_suffix`` needs >= 2
        rows after a prefix, which keeps a chunk off BLAS gemv).  A chunk's
        rows equal the whole forward's bit for bit only from 16 rows on at
        the benchmark geometry, so a final chunk of 2–15 rows is ulp-close.
        """
        remaining = self.state.request.prompt_len - self.done
        if self.chunk_tokens is None or remaining <= self.chunk_tokens + 1:
            return remaining
        return self.chunk_tokens


def _extend(kv: list | None, more: list) -> list:
    """Per-layer ``(keys, values)`` of ``kv`` followed by ``more`` along the
    token axis (``more`` itself when ``kv`` is ``None``)."""
    if kv is None:
        return more
    return [
        (np.concatenate([k, k2], axis=2), np.concatenate([v, v2], axis=2))
        for (k, v), (k2, v2) in zip(kv, more)
    ]


class ContinuousBatchingEngine:
    """Schedules and executes a stream of generation requests as one batch.

    Every serving / KV-store knob is a field of :class:`EngineConfig`
    (declared, documented and validated there; knob table in
    ``docs/serving.md``) and arrives either as ``config=`` or as keyword
    arguments naming the same fields — one construction path, so an unknown
    keyword is a ``TypeError`` naming it.  Live objects are ordinary arguments:

    Parameters
    ----------
    model:
        The decoder LM shared by all requests.
    policy_factory:
        Zero-argument callable producing a fresh :class:`EvictionPolicy` for
        each request (per-request instances keep policy state isolated).
        Defaults to full attention.
    scheduler:
        Admission scheduler; defaults to a :class:`PagedScheduler` built from
        the config's ``max_batch_size`` / ``max_total_tokens`` /
        ``prefill_chunk_tokens``.  An explicitly passed scheduler keeps its
        own batch and token limits and adopts a configured
        ``prefill_chunk_tokens``; a
        :class:`~repro.serving.slo.PriorityScheduler` additionally enables
        priority-tier admission and priority preemption.
    faults:
        Optional :class:`~repro.serving.faults.FaultInjector` whose seeded
        schedule fires :class:`~repro.serving.faults.InjectedFault` at the
        page-allocation, prefill, decode, verify, draft and spill-transfer
        (``spill_io``, under KV offload) injection points.  Installing one
        turns fault tolerance on unless ``fault_tolerant=False``.
    watchdog:
        ``True`` (default) installs an
        :class:`~repro.serving.faults.EngineWatchdog` with default patience;
        pass an instance to tune it, or ``False``/``None`` to disable.  It
        only observes steps that had work, so polling an idle engine never
        trips it.
    """

    def __init__(
        self,
        model: DecoderLM,
        policy_factory: Callable[[], EvictionPolicy] | None = None,
        scheduler: FCFSScheduler | None = None,
        faults: FaultInjector | None = None,
        watchdog: EngineWatchdog | bool | None = True,
        config: EngineConfig | None = None,
        **knobs,
    ):
        self.model = model
        self.policy_factory = policy_factory or FullAttentionPolicy
        self.config = config = EngineConfig.of(config, **knobs)
        # Explicit ``is None`` check: schedulers define ``__len__``, so an
        # *empty* caller-supplied scheduler is falsy and ``scheduler or ...``
        # would silently replace it with the default.
        self.scheduler = (
            scheduler if scheduler is not None else config.build_scheduler()
        )
        if config.prefill_chunk_tokens is not None:
            # An explicitly passed scheduler adopts the engine-level knob.
            self.scheduler.prefill_chunk_tokens = config.prefill_chunk_tokens
        self.faults = faults
        #: Whether the quarantine machinery is on (the knob, resolved).
        self.fault_tolerant = (
            faults is not None
            if config.fault_tolerant is None
            else bool(config.fault_tolerant)
        )
        if watchdog is True:
            self.watchdog: EngineWatchdog | None = EngineWatchdog()
        elif watchdog is False or watchdog is None:
            self.watchdog = None
        else:
            self.watchdog = watchdog
        #: Engine steps executed — the clock deadlines and backoff run on.
        self.step_count = 0
        #: Tokens committed to request outputs (watchdog progress signal).
        self.n_tokens_recorded = 0
        #: Faults quarantined (injected or organic), counting each retry.
        self.n_faults = 0
        #: Automatic retries granted after quarantined faults.
        self.n_retries = 0
        #: Requests retired with :attr:`FinishReason.TIMEOUT`.
        self.n_timeouts = 0
        #: Per-layer pool pages / tier-0 frames the budgets resolve to
        #: (``None``: growable pools / no offload).
        self._n_pages, self.tier0_pages = config.resolve_pages(model.config)
        #: Token capacity of the fixed pool (``None`` while growable): the
        #: configured token budget, or what the byte budget's pages hold.
        self.max_pool_tokens = (
            config.max_pool_tokens
            if config.max_pool_bytes is None
            else self._n_pages * config.page_size
        )
        #: Per-request drafter + telemetry, keyed by request id (spec mode).
        self._spec: dict[int, tuple[NgramDrafter, SpeculationStats]] = {}
        #: Draft/verify work paid by requests that were later preempted or
        #: aborted — preemption resets a request's own counters (the rerun
        #: repeats the work), but the cost was still paid and the aggregate
        #: telemetry must not hide it.
        self._spec_discarded = SpeculationStats()
        self._manager: BatchedCacheManager | None = None
        self._layer_views: list | None = None
        #: Running requests, index == KV-cache row (persistent batch).
        self._states: list[RequestState] = []
        #: Latest logits, one row per running request (aligned with _states).
        self._next_logits: np.ndarray | None = None
        self._finished: list[RequestState] = []
        self._next_id = 0
        self._admit_seq = 0
        #: Prompt tokens submitted for prefill vs actually run through the
        #: model — the gap is the prefix-sharing saving.
        self.prefill_prompt_tokens = 0
        self.prefill_computed_tokens = 0
        #: Preemptions performed (requests bumped back to the queue).
        self.n_preemptions = 0
        #: The at-most-one in-flight chunked prefill (``prefill_chunk_tokens``).
        self._chunked: _PendingPrefill | None = None
        #: Prompt chunks executed through the chunked-prefill path.
        self.n_prefill_chunks = 0
        #: Work done by the most recent :meth:`step` — the load harness feeds
        #: these into a :class:`~repro.perfmodel.serving.StepCostModel` to run
        #: traces in deterministic virtual time (``docs/workloads.md``).
        self.last_step_prefill_tokens = 0
        self.last_step_decode_rows = 0
        self._decode_rows_step = 0
        #: Shared RoPE table for rotating a chunk's keys at their original
        #: positions (bit-identical to the rotation inside
        #: ``attend_prefill``); ``None`` for non-RoPE models.
        self._rope_chunk_table = (
            get_rope_table(model.config.rope_dims) if model.config.rope_dims else None
        )

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        prompt_ids,
        config: GenerationConfig | None = None,
        sampler: Sampler | None = None,
        policy: EvictionPolicy | None = None,
        deadline_steps: int | None = None,
        priority: int = 0,
    ) -> RequestState:
        """Queue one request; returns its state handle (results after finish).

        ``deadline_steps`` overrides the engine default for this request.
        Without a ``sampler`` the request decodes greedily.
        ``priority`` is the request's SLO tier (higher = more urgent); it
        only matters under a :class:`~repro.serving.slo.PriorityScheduler`
        and never affects what the request generates.
        """
        config = config or GenerationConfig()
        request = Request.from_config(
            self._next_id, prompt_ids, config, priority=int(priority)
        )
        # A lone request must be able to grow to its worst case (plus one
        # page of slack, plus the transient draft block in speculation mode)
        # inside the fixed pool, or it could exhaust the pool mid-decode with
        # nothing left to preempt.
        worst_case = request.token_budget + self.config.page_size
        if self.config.speculation is not None:
            worst_case += self.config.speculation.k + 1
        if self.max_pool_tokens is not None and worst_case > self.max_pool_tokens:
            raise ValueError(
                f"request needs up to {request.token_budget} tokens but the "
                f"fixed pool holds only {self.max_pool_tokens} — raise "
                "max_pool_tokens or shorten prompt/max_new_tokens"
            )
        self._next_id += 1
        sampler = sampler or GreedySampler()
        policy = policy or self.policy_factory()
        if self.config.speculation is not None:
            if not isinstance(sampler, GreedySampler):
                raise ValueError(
                    "speculative serving verifies greedily; submit greedy "
                    "requests or disable speculation"
                )
            if not isinstance(policy, FullAttentionPolicy):
                raise ValueError(
                    "speculative serving verifies against full attention; "
                    "submit full-attention requests or disable speculation"
                )
        state = RequestState(
            request=request,
            sampler=sampler,
            policy=policy,
            deadline_steps=(
                deadline_steps if deadline_steps is not None else self.config.deadline_steps
            ),
            submitted_step=self.step_count,
        )
        self.scheduler.submit(state)
        return state

    def abort(self, request_id: int) -> bool:
        """Cancel a request wherever it currently lives.

        A queued request leaves the scheduler; a running one retires
        immediately with its pages freed.  Either way it finishes with
        :attr:`FinishReason.ABORTED` and an empty/partial token list.
        Returns ``False`` when the id is unknown or already finished.
        """
        state = self.scheduler.cancel(request_id)
        if state is not None:
            self._finish_unjoined(state, FinishReason.ABORTED)
            return True
        if self._chunked is not None and self._chunked.state.request_id == request_id:
            # Mid-chunked-prefill: no pages were allocated yet, so dropping
            # the accumulator is the whole cleanup.
            state = self._chunked.state
            self._chunked = None
            self._finish_unjoined(state, FinishReason.ABORTED)
            return True
        for row, running in enumerate(self._states):
            if running.request_id == request_id:
                self._retire(row, FinishReason.ABORTED)
                return True
        return False

    @property
    def n_running(self) -> int:
        """Requests currently decoding in the batch."""
        return len(self._states)

    @property
    def n_queued(self) -> int:
        """Requests waiting for admission."""
        return len(self.scheduler)

    @property
    def has_work(self) -> bool:
        """True while any request is running, queued or mid-chunked-prefill."""
        return (
            bool(self._states)
            or bool(len(self.scheduler))
            or self._chunked is not None
        )

    def pool_usage(self) -> dict:
        """Current page-pool utilization (empty before the first prefill)."""
        if self._manager is None:
            return {}
        return self._manager.pool_usage()

    @property
    def prefill_savings(self) -> float:
        """Prompt tokens submitted / prompt tokens actually computed.

        1.0 without sharing; e.g. 3.0 means two thirds of all prompt tokens
        were served from mapped pages instead of being recomputed.
        """
        if self.prefill_computed_tokens == 0:
            return 1.0
        return self.prefill_prompt_tokens / self.prefill_computed_tokens

    def step_virtual_cost(self, cost_model) -> float:
        """Virtual-time cost of the most recent :meth:`step`.

        The front-end half of the pluggable replay protocol
        (:func:`~repro.serving.workload.replay_trace`): after each step the
        harness asks the engine what the step cost under a
        :class:`~repro.perfmodel.serving.StepCostModel`.  A multi-replica
        front-end overrides this with the *maximum* over its replicas'
        per-step costs (they run in parallel on real hardware); the solo
        engine simply prices its own prefill tokens and decode rows.
        """
        return cost_model.step_cost(
            self.last_step_prefill_tokens, self.last_step_decode_rows
        )

    # ------------------------------------------------------------------
    # engine loop
    # ------------------------------------------------------------------
    def step(self) -> list[RequestState]:
        """Advance the batch by one decoding step.

        Order of operations (the continuous-batching contract): record the
        previous step's sampled tokens and retire finished requests, admit
        queued requests into the freed capacity (prefill + first token),
        then run one batched decode step for everything still running —
        preempting back to the queue first if the page pool cannot fund the
        step's appends.  Returns the requests that finished during this step.

        With ``speculation`` configured the decode half becomes one
        draft-then-verify round per running request (rows advance by 1 to
        ``k + 1`` tokens); admission, preemption and FCFS semantics are
        unchanged.

        Each call also advances the fault-tolerance clock: the step counter
        ticks, expired deadlines retire (:attr:`FinishReason.TIMEOUT`), and
        the watchdog observes progress (only on steps that had work, so
        polling an idle engine never trips it).
        """
        n_done = len(self._finished)
        had_work = self.has_work
        tokens_before = self.n_tokens_recorded
        prefill_before = self.prefill_computed_tokens
        preempts_before = self.n_preemptions
        self._decode_rows_step = 0
        self.step_count += 1
        self._expire_deadlines()
        if self.config.speculation is not None:
            self._step_speculative()
        else:
            self._step_vanilla()
        finished = self._finished[n_done:]
        self.last_step_prefill_tokens = self.prefill_computed_tokens - prefill_before
        self.last_step_decode_rows = self._decode_rows_step
        if self.watchdog is not None and had_work:
            # A chunked prefill advances the prompt without recording tokens,
            # so prefill progress counts as progress too.
            self.watchdog.observe(
                bool(finished)
                or self.n_tokens_recorded > tokens_before
                or self.prefill_computed_tokens > prefill_before,
                self.n_preemptions - preempts_before,
            )
        return finished

    def _step_vanilla(self) -> None:
        """The non-speculative step body: record, admit, decode."""
        self._record_rows(range(len(self._states)))
        joined = self._admit_and_prefill()
        if joined:
            # Identify rows by state (a failed admission may have preempted
            # and therefore moved rows): record each joined request's first
            # sampled token.
            members = set(map(id, joined))
            self._record_rows(
                [row for row, st in enumerate(self._states) if id(st) in members]
            )
        self._decode()

    def run(self) -> list[RequestState]:
        """Run until the queue and the batch are both empty; returns all
        requests finished during this call, in completion order."""
        n_done = len(self._finished)
        while self.has_work:
            self.step()
        return self._finished[n_done:]

    # ------------------------------------------------------------------
    # fault tolerance: deadlines, retries, quarantine
    # ------------------------------------------------------------------
    def _finish_unjoined(self, state: RequestState, reason: FinishReason) -> None:
        """Finish a request that never held a cache row (queued-abort,
        queued-timeout, final prefill failure) — nothing to release."""
        state.status = RequestStatus.FINISHED
        state.finish_reason = reason
        state.pending_token = None
        state.finished_step = self.step_count
        state.cache_stats = CacheStats()
        self._finished.append(state)

    def _deadline_exceeded(self, state: RequestState) -> bool:
        if state.deadline_steps is None:
            return False
        return self.step_count - state.submitted_step > state.deadline_steps

    def _expire_deadlines(self) -> None:
        """Retire every request past its step-count deadline.

        The clock is end-to-end from submission: queue wait, preemptions and
        retry backoff all count against it, so a deadline bounds total
        latency rather than active compute.
        """
        expired = [
            row
            for row, state in enumerate(self._states)
            if self._deadline_exceeded(state)
        ]
        # Highest row first: each retirement moves the last row into the
        # freed slot, which never disturbs a lower expired row.
        for row in sorted(expired, reverse=True):
            self.n_timeouts += 1
            self._retire(row, FinishReason.TIMEOUT)
        for state in list(self.scheduler.pending):
            if self._deadline_exceeded(state):
                self.scheduler.cancel(state.request_id)
                self.n_timeouts += 1
                self._finish_unjoined(state, FinishReason.TIMEOUT)
        if self._chunked is not None and self._deadline_exceeded(self._chunked.state):
            state = self._chunked.state
            self._chunked = None  # no pages held mid-chunking; nothing to free
            self.n_timeouts += 1
            self._finish_unjoined(state, FinishReason.TIMEOUT)

    def _record_fault(self, state: RequestState, exc: BaseException) -> None:
        """Stamp the fault's message and traceback onto the request state."""
        self.n_faults += 1
        state.error = f"{type(exc).__name__}: {exc}"
        state.error_traceback = "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        )

    def _backoff(self, state: RequestState) -> int:
        """Deterministic exponential step-count backoff for the next retry."""
        return self.config.retry_backoff_steps * (2 ** state.retries)

    def _fault_row_of(self, exc: BaseException) -> int | None:
        """Attribute an exception to a running row, if possible.

        Low-level code tags exceptions with ``fault_row`` (a batch row index)
        via :func:`~repro.kvcache.paged.tag_fault_row`; injected faults carry
        the ``request_id`` they fired for.  Returns ``None`` when neither
        resolves — the caller must re-raise rather than guess.
        """
        row = getattr(exc, "fault_row", None)
        if row is not None and 0 <= row < len(self._states):
            return int(row)
        request_id = getattr(exc, "request_id", None)
        if request_id is not None:
            for row, state in enumerate(self._states):
                if state.request_id == request_id:
                    return row
        return None

    def _quarantine_row(self, row: int, exc: BaseException) -> None:
        """Retire (or retry) one faulted running row; the batch continues.

        With retry budget left the row goes back through the
        preempt-and-restart machinery — pages freed, generation state reset,
        requeued behind its backoff window — so its eventual output is
        bit-identical to a fault-free run.  Otherwise it retires with
        :attr:`FinishReason.ERROR` carrying the fault's message + traceback.
        """
        state = self._states[row]
        self._record_fault(state, exc)
        if state.retries < self.config.max_retries:
            self.n_retries += 1
            self._release_spec(state)
            self._manager.release_row(row)
            self._drop_row(row)
            state.reset_for_retry(self.step_count + self._backoff(state))
            self.scheduler.requeue(state)
        else:
            self._retire(row, FinishReason.ERROR)

    def _n_admission_slots(self) -> int:
        """Batch slots spoken for: running rows + the in-flight chunked
        prefill (its row exists only after the final chunk joins)."""
        return len(self._states) + (1 if self._chunked is not None else 0)

    def _tokens_in_flight(self) -> int:
        """Worst-case token budgets of running rows + the chunked prefill."""
        total = sum(st.request.token_budget for st in self._states)
        if self._chunked is not None:
            total += self._chunked.state.request.token_budget
        return total

    def _chunked_reserved_pages(self) -> int:
        """Pages the in-flight chunked prefill will claim at its join —
        reserved at admission time so concurrent admissions cannot spend
        the same free pages twice (the kvcache admission accounting for
        chunked prefill)."""
        if self._chunked is None or self._manager is None:
            return 0
        return self._manager.store.pages_for_tokens(
            self._chunked.state.request.prompt_len + 1
        )

    def _admit_queued(self, admitted_already: list[RequestState]) -> list[RequestState]:
        """One scheduler admission pass with full in-flight accounting."""
        reserved = self._chunked_reserved_pages()
        if self._manager is not None:
            # Earlier admissions this step have not joined yet; their prompt
            # pages are promised but unallocated, exactly like the chunked
            # prefill's.
            reserved += sum(
                self._manager.store.pages_for_tokens(st.request.prompt_len + 1)
                for st in admitted_already
            )
        return self.scheduler.admit(
            self._n_admission_slots() + len(admitted_already),
            self._tokens_in_flight()
            + sum(st.request.token_budget for st in admitted_already),
            store=self._manager.store if self._manager is not None else None,
            registry=self._manager.registry if self._manager is not None else None,
            now_step=self.step_count,
            reserved_pages=reserved,
        )

    def _preempt_for_priority(self, admitted: list[RequestState]) -> None:
        """Preempt running lower-priority requests for a blocked
        higher-priority queue head, extending ``admitted`` in place.

        Only runs when the scheduler opts in (``priority_preemption``,
        :class:`~repro.serving.slo.PriorityScheduler`).  Each iteration
        preempts exactly one victim — the lowest-priority, newest-admitted
        running request — then retries admission; the loop ends when the
        head is admitted, out-prioritized, or there is nothing left to
        preempt.  Preemption restarts regenerate bit-identically, so this
        trades the victims' completion time for the head's, never output.
        """
        while len(self.scheduler) and self._states:
            head = self.scheduler.pending[0]
            if head.retry_at > self.step_count:
                break
            if not any(
                st.request.priority < head.request.priority for st in self._states
            ):
                break
            self._preempt_victim()
            admitted.extend(self._admit_queued(admitted))

    def _admit_and_prefill(self) -> list[RequestState]:
        """Advance the chunked prefill, admit queued requests, prefill them.

        Builds the store before the first admission so memory-aware
        admission sees real page counts from the very first request.  A
        failed join (the pool could not be funded; a victim was preempted)
        requeues the failing request and every younger admission behind it,
        in order — letting the younger ones jump in would break the
        head-of-line FCFS contract.  When nothing is running, nothing could
        join and the queue is non-empty, the pool is as free as it will ever
        get and the head request can never fit, so this raises
        :class:`PoolExhausted`.  Returns the requests that joined.
        """
        joined: list[RequestState] = []
        if self._chunked is not None:
            completed = self._advance_chunked()
            if completed is not None:
                joined.append(completed)
        if self._manager is None and len(self.scheduler):
            self._build_manager(self.scheduler.pending[0].policy)
        admitted = self._admit_queued([])
        if getattr(self.scheduler, "priority_preemption", False):
            self._preempt_for_priority(admitted)
        for i, state in enumerate(admitted):
            outcome = self._prefill(state)
            if outcome == _PREFILL_JOINED:
                joined.append(state)
                continue
            if outcome == _PREFILL_CHUNKED:
                continue  # first chunk ran; the join happens in a later step
            if outcome == _PREFILL_FAILED_FINAL:
                continue  # retired with ERROR; younger admissions may proceed
            if outcome == _PREFILL_FAILED_RETRY:
                # The failing request is already requeued (with backoff);
                # younger admissions go back behind it in arrival order.
                self.scheduler.requeue_many(admitted[i + 1 :])
            else:  # _PREFILL_BLOCKED: pool could not fund the join
                self.scheduler.requeue_many(admitted[i:])
            break
        if (
            not self._states
            and self._chunked is None
            and not joined
            and not admitted
            and len(self.scheduler)
        ):
            head = self.scheduler.pending[0]
            if head.retry_at <= self.step_count:
                raise PoolExhausted(
                    f"request {head.request_id} (prompt {head.request.prompt_len} "
                    f"tokens) cannot be admitted even into an idle pool — raise "
                    "max_pool_tokens or lower the scheduler watermark"
                )
        return joined

    # ------------------------------------------------------------------
    # speculative stepping
    # ------------------------------------------------------------------
    def _step_speculative(self) -> None:
        """One engine step in speculation mode.

        Admission and prefill are shared with the vanilla path; the decode
        half runs one draft-then-verify round per running request instead of
        one batched token.  Rows are processed newest-first so that a
        retirement's persistent-batch move (last row into the freed slot)
        only ever touches rows already handled this step.
        """
        joined_ids = set(map(id, self._admit_and_prefill()))
        # Record each joined request's first sampled token (vanilla defers
        # this to the next step's bookkeeping; speculation records inline).
        for row in range(len(self._states) - 1, -1, -1):
            state = self._states[row]
            if id(state) in joined_ids:
                joined_ids.discard(id(state))
                # The drafter must see the first token too, or every later
                # n-gram lookup spans a history with a hole at the
                # prompt/generation seam.
                drafter, _ = self._spec[state.request_id]
                drafter.note_committed([state.pending_token])
                self._spec_commit(row, [(state.pending_token, state.pending_logprob)])
        processed: set[int] = set()
        for row in range(len(self._states) - 1, -1, -1):
            if row >= len(self._states):
                continue  # preemption shrank the batch mid-sweep
            state = self._states[row]
            if id(state) in processed:
                continue
            processed.add(id(state))
            self._spec_round(row)

    def _spec_round(self, row: int) -> None:
        """One draft-then-verify round for one running row.

        Under fixed pools the round first preempts newest-admitted rows until
        the store can fund the transient draft block; a mid-round
        ``PoolExhausted`` (the watermark under-estimated) preempts — the row
        simply retries next step, so pressure changes *when* it finishes,
        never *what* it emits.  A lone request's ``PoolExhausted`` propagates:
        :meth:`submit` only accepts requests whose worst case, draft block
        included, fits the pool alone.
        """
        state = self._states[row]
        drafter, stats = self._spec[state.request_id]
        store = self._manager.store
        if not store.growable:
            need = store.pages_for_tokens(self.config.speculation.k + 1) + 1
            while store.min_free_pages() < need and len(self._states) > 1:
                self._preempt_victim()
                if all(st is not state for st in self._states):
                    return  # this row was the preemption victim
            row = next(i for i, st in enumerate(self._states) if st is state)
        remaining = state.request.max_new_tokens - len(state.tokens)
        target = BatchedRowVerifyTarget(
            self.model,
            self._manager,
            row,
            faults=self.faults,
            request_id=state.request_id,
        )
        try:
            if self.faults is not None:
                self.faults.check("draft", state.request_id)
            commits = run_round(
                target,
                drafter,
                state.tokens[-1],
                self.config.speculation.k,
                remaining,
                state.request.eos_token_id,
                stats,
            )
        except PoolExhausted:
            if len(self._states) == 1:
                raise
            self._preempt_victim()
            return
        except Exception as exc:
            if not self.fault_tolerant:
                raise
            # Quarantine: the verify adapter already unwound its partial
            # appends, and a drafter only changes when a round commits; retire
            # or retry this row alone — the other rows are untouched (rounds
            # are strictly row-at-a-time).
            self._quarantine_row(row, exc)
            return
        # One draft-then-verify round ≈ one decode-row unit in the step-cost
        # model (the verify pass is a single ragged forward for this row).
        self._decode_rows_step += 1
        self._spec_commit(row, commits)

    def _spec_commit(self, row: int, commits: list[tuple[int, float]]) -> bool:
        """Record committed ``(token, logprob)`` pairs; retire on EOS/budget.

        Returns ``True`` when the row retired.  ``run_round`` already clips
        the commits at EOS and at the remaining budget, so the checks here
        fire on the final committed token only.
        """
        state = self._states[row]
        self.n_tokens_recorded += len(commits)
        if commits and state.first_token_step is None:
            state.first_token_step = self.step_count
        finish: FinishReason | None = None
        for token, logprob in commits:
            state.tokens.append(int(token))
            state.total_logprob += logprob
            eos = state.request.eos_token_id
            if eos is not None and token == eos:
                finish = FinishReason.EOS
                break
            if len(state.tokens) >= state.request.max_new_tokens:
                finish = FinishReason.LENGTH
                break
        if finish is not None:
            self._retire(row, finish)
            return True
        return False

    @property
    def speculation_stats(self) -> SpeculationStats:
        """Aggregate draft/verify telemetry over finished *and* running
        requests (spec mode; zeros otherwise)."""
        total = SpeculationStats()
        total.merge(self._spec_discarded)
        for state in self._finished:
            if state.speculation:
                total.merge(SpeculationStats.from_summary(state.speculation))
        for _, stats in self._spec.values():
            total.merge(stats)
        return total

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def _prefill(self, state: RequestState) -> int:
        """Prompt phase for one admitted request + row join + first-token
        sampling.  Returns one of the ``_PREFILL_*`` outcome codes:
        ``_PREFILL_JOINED`` (truthy) on success, ``_PREFILL_BLOCKED`` when
        the pool could not fund the join (a victim was preempted; the caller
        requeues the request), or — under fault tolerance — the two
        quarantine outcomes ``_PREFILL_FAILED_RETRY`` /
        ``_PREFILL_FAILED_FINAL``.

        The prompt becomes a :class:`_PendingPrefill`: a registered prefix
        of it, when resident, is mapped instead of recomputed, and a long
        unshared prompt under a chunk budget runs its first chunk now and
        joins in a later step (see the module's bit-exactness notes).
        """
        if self._manager is None:
            self._build_manager(state.policy)
        mode = self.config.positional_mode or state.policy.config.positional_mode
        if mode != self._manager.positional_mode:
            raise ValueError(
                f"request {state.request_id} uses positional mode {mode!r} but the "
                f"batch runs in {self._manager.positional_mode!r} — one engine "
                "serves one positional mode"
            )

        prompt = state.request.prompt_ids
        prompt_len = state.request.prompt_len
        # Set up once per prompt pass, never at the join: a join retried
        # after ``PoolExhausted`` keeps what the pass scored.
        manager = self._manager
        state.policy.setup(
            manager.n_layers, manager.n_heads, 1, prompt_len, state.request.max_new_tokens
        )
        match = None
        if self.config.enable_prefix_sharing and not state.policy.needs_prompt_attention:
            # Recompute at least the last two tokens: a one-row suffix would
            # run BLAS gemv.  (Bit-equal rows need >= 16 here and a prefix
            # registered at this prompt's length; otherwise ulp-close.)
            match = self._manager.registry.match(prompt[0], max_tokens=prompt_len - 2)

        try:
            if self.faults is not None:
                self.faults.check("prefill", state.request_id)
            chunked = match is None and self._should_chunk(state)
            pending = _PendingPrefill(
                state, match, self.scheduler.prefill_chunk_tokens if chunked else None
            )
            if match is not None:
                pending.prefix_kv = self._manager.prefix_tensors(match)
            if chunked:
                # Spread the prompt over this and the following steps —
                # decode rows (and other admissions) interleave in between.
                self._chunked = pending
                self._run_chunk(pending)
                return _PREFILL_CHUNKED
            self._run_chunk(pending, [state.policy])
            row = self._join(pending)
            if self.config.speculation is not None:
                self._spec[state.request_id] = (
                    NgramDrafter(prompt[0], self.config.speculation),
                    SpeculationStats(),
                )
        except PoolExhausted:
            # The watermark under-estimated (e.g. concurrent COW growth).
            # Free pages by preempting the newest running request; the caller
            # requeues this request (and any younger admissions) so the next
            # step retries in arrival order.
            if not self._states:
                raise  # nothing to preempt — the pool simply cannot fit it
            self._preempt_victim()
            return _PREFILL_BLOCKED
        except Exception as exc:
            # ``join`` unwinds its own pages on failure, so the store is
            # clean here; quarantine the request alone (running rows are
            # untouched by a prefill).
            if self._chunked is not None and self._chunked.state is state:
                self._chunked = None
            if not self.fault_tolerant:
                raise
            return self._prefill_failure(state, exc)
        self.prefill_prompt_tokens += prompt_len
        self.prefill_computed_tokens += prompt_len - (0 if match is None else match.length)
        self._complete_join(state, row, pending.next_row)
        return _PREFILL_JOINED

    def _complete_join(self, state: RequestState, row: int, next_row: np.ndarray) -> None:
        """Post-join bookkeeping shared by every prefill path: sample the
        first token from the prompt's final logits and append the request to
        the running batch."""
        assert row == len(self._states), "engine rows out of sync with cache rows"
        if self.config.speculation is not None:
            # Speculation records tokens inline (rows advance unevenly), so
            # no per-row logits are carried between steps — keep the pending
            # token's log-probability on the state instead.
            state.pending_token = int(state.sampler(next_row)[0])
            state.pending_logprob = float(
                log_softmax(next_row, axis=-1)[0, state.pending_token]
            )
            self._states.append(state)
        else:
            if self._next_logits is None or not self._states:
                self._next_logits = next_row
            else:
                self._next_logits = np.concatenate([self._next_logits, next_row])
            self._states.append(state)
            state.pending_token = int(state.sampler(next_row)[0])
        state.status = RequestStatus.RUNNING
        state.admitted_seq = self._admit_seq
        self._admit_seq += 1

    # ------------------------------------------------------------------
    # chunked prefill
    # ------------------------------------------------------------------
    def _should_chunk(self, state: RequestState) -> bool:
        """Whether this admitted request's prefill should be chunked.

        Requires a chunk budget on the scheduler, no other chunked prefill
        in flight (one at a time keeps the accounting simple; a second long
        prompt simply prefills unchunked), a prompt long enough that
        chunking actually splits it (> budget + 1, so no 1-token tail), a
        policy that never reads prompt attention values (a score policy
        needs the whole prompt's attention, and chunks are not scored chunk
        by chunk yet), and non-speculative mode (the draft/verify loop has
        its own step structure).  The caller additionally requires no resident shared
        prefix — a mapped prefix already makes prefill cheap, and chunking
        across an LRU-reclaimable mapping would race the registry.
        """
        budget = getattr(self.scheduler, "prefill_chunk_tokens", None)
        return (
            budget is not None
            and self._chunked is None
            and self.config.speculation is None
            and not state.policy.needs_prompt_attention
            and state.request.prompt_len > budget + 1
        )

    def _run_chunk(self, pending: _PendingPrefill, scorers: list = ()) -> None:
        """Compute the pending prompt's next chunk and fold it in.

        Every chunk is rows ``[start, end)`` of the prompt through
        :meth:`DecoderLM.forward_suffix` over the prefix so far, at the
        prompt's full width, scoring the prompt into ``scorers`` (the row's
        policy).  Only when another chunk follows are its keys
        rotated into attention form and appended to that prefix.  No pool
        pages are touched here.
        """
        state = pending.state
        prompt_len = state.request.prompt_len
        start = pending.done
        end = start + pending.next_chunk()
        logits, chunk_kv = self.model.forward_suffix(
            state.request.prompt_ids[:, start:end],
            pending.prefix_kv,
            start,
            prompt_len=prompt_len,
            scorers=scorers,
        )
        pending.kv = _extend(pending.kv, chunk_kv)
        pending.done = end
        if end < prompt_len:
            table = self._rope_chunk_table
            positions = np.arange(start, end)
            pending.prefix_kv = _extend(pending.prefix_kv, [
                (k if table is None else table.rotate(k, positions), v)
                for k, v in chunk_kv
            ])
        else:
            pending.next_row = logits[:, -1, :]
        if pending.chunk_tokens is not None:
            # A chunked prompt is never mapped, so both sharing counters
            # advance together, chunk by chunk, and mid-flight aborts keep
            # the prefill_savings ratio consistent.
            self.n_prefill_chunks += 1
            self.prefill_prompt_tokens += end - start
            self.prefill_computed_tokens += end - start

    def _advance_chunked(self) -> RequestState | None:
        """Run the in-flight chunked prefill's next chunk (or its join).

        Returns the request's state when it joined the batch this step,
        ``None`` otherwise.  A ``PoolExhausted`` at the join preempts a
        victim and retries the join next step (the accumulated chunks are
        kept — no recompute); any other exception drops the accumulator and
        goes through the ordinary prefill quarantine machinery.
        """
        pending = self._chunked
        state = pending.state
        try:
            if self.faults is not None:
                self.faults.check("prefill", state.request_id)
            if not pending.complete:
                self._run_chunk(pending)
                if not pending.complete:
                    return None
            row = self._join(pending)
        except PoolExhausted:
            if not self._states:
                self._chunked = None
                raise  # nothing to preempt — the pool simply cannot fit it
            self._preempt_victim()
            return None
        except Exception as exc:
            self._chunked = None
            if not self.fault_tolerant:
                raise
            self._prefill_failure(state, exc)
            return None
        self._chunked = None
        self._complete_join(state, row, pending.next_row)
        return state

    def _join(self, pending: _PendingPrefill) -> int:
        """Join a fully computed prompt into the paged store; returns its row.

        The computed rows' raw KV is bit-identical to a whole prompt
        forward's; mapped prefix pages join by reference.  The prompt
        registers in the prefix registry, so every prompt — chunked or
        shared — seeds future sharing, except a prompt-attention row's
        (see :meth:`_register_ids`).
        """
        state = pending.state
        return self._manager.join(
            pending.kv,
            state.policy,
            shared_prefix=pending.match,
            prompt_token_ids=self._register_ids(state),
        )

    def _prefill_failure(self, state: RequestState, exc: BaseException) -> int:
        """Quarantine a faulted prefill: retry with backoff or retire with
        :attr:`FinishReason.ERROR`.  The request never joined a row, so
        there is nothing to tear down."""
        self._record_fault(state, exc)
        if state.retries < self.config.max_retries:
            self.n_retries += 1
            state.reset_for_retry(self.step_count + self._backoff(state))
            self.scheduler.requeue(state)
            return _PREFILL_FAILED_RETRY
        self._finish_unjoined(state, FinishReason.ERROR)
        return _PREFILL_FAILED_FINAL

    def _register_ids(self, state: RequestState) -> np.ndarray | None:
        """Prompt ids to register in the prefix registry (None registers
        nothing).

        A prompt-attention row (Keyformer, H2O) registers nothing: it never
        maps a prefix itself, and a pin would keep its whole prompt resident
        beside the few tokens the row keeps.  The cost: in a mixed-policy
        engine a full-attention request recomputes such a prompt instead of
        mapping it.
        """
        if not self.config.enable_prefix_sharing or state.policy.needs_prompt_attention:
            return None
        return state.request.prompt_ids[0]

    def _record_rows(self, rows) -> None:
        """Record each row's pending token (the previous sample), accumulate
        its log-probability, and retire rows that hit EOS or the budget."""
        rows = list(rows)
        if not rows:
            return
        if len(rows) == len(self._states):
            row_logits = self._next_logits
        else:
            row_logits = self._next_logits[np.asarray(rows)]
        logprobs = log_softmax(row_logits, axis=-1)
        self.n_tokens_recorded += len(rows)
        finishing: list[tuple[int, FinishReason]] = []
        for i, row in enumerate(rows):
            state = self._states[row]
            token = state.pending_token
            if state.first_token_step is None:
                state.first_token_step = self.step_count
            state.total_logprob += float(logprobs[i, token])
            state.tokens.append(token)
            eos = state.request.eos_token_id
            if eos is not None and token == eos:
                finishing.append((row, FinishReason.EOS))
            elif state.step == state.request.max_new_tokens - 1:
                finishing.append((row, FinishReason.LENGTH))
            else:
                state.step += 1
        # Retire from the highest row down so persistent-batch moves (last row
        # into the freed slot) never disturb a lower row still to be retired.
        for row, reason in sorted(finishing, reverse=True):
            self._retire(row, reason)

    def _drop_row(self, row: int) -> RequestState:
        """Remove ``row`` from the running set (persistent-batch move)."""
        state = self._states[row]
        last = len(self._states) - 1
        if row != last:
            self._states[row] = self._states[last]
            if self._next_logits is not None:
                self._next_logits[row] = self._next_logits[last]
        self._states.pop()
        if self._next_logits is not None:
            self._next_logits = self._next_logits[:last]
        return state

    def _release_spec(self, state: RequestState, record: bool = False) -> None:
        """Tear down a request's drafter (retire/preempt/abort in spec mode)."""
        spec = self._spec.pop(state.request_id, None)
        if spec is None:
            return
        drafter, stats = spec
        if record:
            state.speculation = stats.summary()
            state.speculation_policy = {
                "policy": "speculative",
                "target": state.policy.describe(),
                "k": self.config.speculation.k,
                "drafter": drafter.describe(),
            }
        else:
            self._spec_discarded.merge(stats)

    def _retire(self, row: int, reason: FinishReason) -> None:
        state = self._states[row]
        state.finish_reason = reason
        state.status = RequestStatus.FINISHED
        state.pending_token = None
        state.finished_step = self.step_count
        state.n_steps = self._manager.generation_step[row]
        self._release_spec(state, record=True)
        state.cache_stats = self._manager.retire(row)
        self._drop_row(row)
        self._finished.append(state)

    def _preempt_victim(self) -> None:
        """Bump the preemption victim back to the queue.

        The victim is the lowest-priority running request, newest-admitted
        among ties — with uniform priorities (every non-priority scheduler)
        this is exactly the historical newest-first rule, preserving FCFS
        completion semantics: an older request is never sacrificed for a
        younger one of the same tier.  Its pages return to the pool
        immediately; on re-admission it re-prefills and regenerates from
        scratch (deterministically, so the final output is unchanged).
        """
        row = min(
            range(len(self._states)),
            key=lambda r: (
                self._states[r].request.priority,
                -self._states[r].admitted_seq,
            ),
        )
        self._release_spec(self._states[row])
        self._manager.release_row(row)
        state = self._drop_row(row)
        state.reset_for_requeue()
        self.scheduler.requeue(state)
        self.n_preemptions += 1

    def _ensure_decode_capacity(self) -> None:
        """Preempt until the page pools can fund this step's appends."""
        if self._manager is None or self._manager.store.growable:
            return
        while len(self._states) > 1 and self._manager.append_pages_shortfall() > 0:
            self._preempt_victim()

    def _prefetch_decode(self) -> None:
        """Batch-restore spilled pages of scheduled rows before a decode step.

        With tiered offload enabled (``tier0_budget``), the pages each running
        row will read this step are restored in one bulk pass per layer
        instead of demand-faulting one page at a time inside the forward —
        same bytes, fewer arena round-trips.  No-op without offload.

        Prefetch is *best-effort*: a transfer fault here mutates nothing
        (``spill_io`` fires before any pool or arena state changes), so
        under fault tolerance it degrades to demand restore inside the
        decode step rather than failing the batch.
        """
        if self.tier0_pages is None or self._manager is None:
            return
        try:
            self._manager.prefetch_decode()
        except Exception:
            if not self.fault_tolerant:
                raise

    def _decode(self) -> None:
        """One batched decode step + per-request sampling of the next token.

        Under fault tolerance the step runs against per-row copy-on-write
        snapshots: an exception restores every row to its pre-step pages
        (unwinding partial appends in already-processed layers), quarantines
        the faulted row alone, and replays the step for the survivors —
        whose tokens and log-probabilities are therefore bit-identical to a
        fault-free run (the batched math is row-independent, and sampler
        state only advances after a successful forward).
        """
        if not self._states:
            return
        if not self.fault_tolerant:
            self._ensure_decode_capacity()
            if self._states:
                self._prefetch_decode()
                self._decode_step_once()
            return
        while self._states:
            self._ensure_decode_capacity()
            if not self._states:
                return
            self._prefetch_decode()
            snapshots = [
                self._manager.snapshot_row(row) for row in range(len(self._states))
            ]
            try:
                self._decode_step_once(check_faults=True)
            except Exception as exc:
                # Restore every row first: partial appends from the failed
                # pass vanish and the pristine pre-step pages come back.
                for row in range(len(self._states) - 1, -1, -1):
                    self._manager.restore_row(row, snapshots[row])
                if isinstance(exc, PoolExhausted):
                    # Snapshots share all pages, so every append goes through
                    # copy-on-write and the capacity check undercounts; treat
                    # a mid-step exhaustion as ordinary pressure.
                    if len(self._states) > 1:
                        self._preempt_victim()
                        continue
                    raise
                row = self._fault_row_of(exc)
                if row is None:
                    raise  # not attributable to one row — not quarantinable
                self._quarantine_row(row, exc)
                continue
            for snapshot in snapshots:
                self._manager.discard_row_snapshot(snapshot)
            return

    def _decode_step_once(self, check_faults: bool = False) -> None:
        """The raw batched decode pass + sampling (one attempt, no recovery)."""
        if check_faults and self.faults is not None:
            for state in self._states:
                self.faults.check("decode", state.request_id)
        tokens = np.asarray([st.pending_token for st in self._states], dtype=np.int64)
        positions = self._manager.query_positions()
        self._next_logits = self.model.decode_step_batch(
            tokens, positions, self._layer_views
        )
        self._decode_rows_step += len(self._states)
        self._manager.advance()
        sampled = sample_rows([st.sampler for st in self._states], self._next_logits)
        for row, state in enumerate(self._states):
            state.pending_token = int(sampled[row])

    def _build_manager(self, first_policy: EvictionPolicy) -> None:
        config = self.model.config
        mode = self.config.positional_mode or first_policy.config.positional_mode
        self._manager = BatchedCacheManager(
            n_layers=config.n_layers,
            n_heads=config.n_heads,
            d_head=config.d_head,
            max_batch=self.scheduler.max_batch_size,
            positional_mode=mode,
            dtype=config.np_dtype,
            rope_dims=config.rope_dims,
            n_pages=self._n_pages,
            tier0_pages=self.tier0_pages,
            config=self.config,
        )
        self._layer_views = self._manager.layer_views()
        if self.faults is not None:
            # Wire the page-allocation injection point straight into the
            # pools: every alloc (join, decode append, COW, verify block)
            # consults the injector before mutating pool state.
            hook = self.faults.hook("page_alloc")
            spill_hook = self.faults.hook("spill_io")
            for pool in self._manager.store.pools:
                pool.fault_hook = hook
                if hasattr(pool, "spill_hook"):
                    # Tiered pools additionally consult the injector before
                    # every spill/restore transfer (pre-mutation, so a fired
                    # fault leaves pool and arena state untouched).
                    pool.spill_hook = spill_hook

    # ------------------------------------------------------------------
    # auditing & telemetry
    # ------------------------------------------------------------------
    def check_invariants(self, strict: bool = True) -> list[str]:
        """Audit the paged store against every live page-table reference.

        Collects the page tables of all running rows and registry-pinned
        prefix chunks, and verifies pool refcounts, free-list consistency and
        quantization-parameter agreement via
        :meth:`BatchedCacheManager.check_invariants`.  Returns the list of
        violation descriptions; with ``strict`` (default) a non-empty list
        raises :class:`~repro.kvcache.paged.PoolIntegrityError` instead.
        """
        if self._manager is None:
            return []
        violations = self._manager.check_invariants()
        if strict and violations:
            raise PoolIntegrityError(
                f"{len(violations)} pool-integrity violation(s):\n  "
                + "\n  ".join(violations)
            )
        return violations

    def fault_telemetry(self) -> dict:
        """Fault-tolerance counters (all zero when the layer is idle)."""
        return {
            "steps": self.step_count,
            "tokens_recorded": self.n_tokens_recorded,
            "faults": self.n_faults,
            "retries": self.n_retries,
            "timeouts": self.n_timeouts,
            "preemptions": self.n_preemptions,
            "faults_fired": len(self.faults.fired) if self.faults is not None else 0,
        }


def _merge_results(results: Sequence[GenerationResult]) -> GenerationResult:
    """Fold per-request results into one ``Generator``-shaped result.

    Sequences/log-probs keep submission order.  Cache counters are summed
    across requests; per-step length traces are kept from the first request
    (per-request traces remain available on each request's own result).
    """
    if len(results) == 1:
        return results[0]
    first = results[0].cache_stats
    merged_stats = CacheStats(
        n_layers=first.n_layers,
        n_heads=first.n_heads,
        d_head=first.d_head,
        batch_size=len(results),
        prompt_len=first.prompt_len,
        lengths_per_step=[list(step) for step in first.lengths_per_step],
        total_appended=sum(r.cache_stats.total_appended for r in results),
        total_evicted=sum(r.cache_stats.total_evicted for r in results),
    )
    return GenerationResult(
        sequences=[r.sequences[0] for r in results],
        prompt_lengths=[r.prompt_lengths[0] for r in results],
        cache_stats=merged_stats,
        policy=results[0].policy,
        n_steps=max(r.n_steps for r in results),
        log_probs=[r.log_probs[0] for r in results],
    )


class BatchedGenerator:
    """``Generator``-compatible facade over the continuous-batching engine.

    Existing pipelines call ``generate(prompt_ids, config, sampler)`` and get
    a :class:`GenerationResult` back; under the hood every sequence becomes
    an independent request decoded in one continuous batch.  For a single
    sequence the result is field-for-field identical to
    :meth:`Generator.generate` at float64.

    Unlike :class:`Generator` (one policy instance, one sequence at a time),
    concurrent requests need isolated policy state — so this takes a
    ``policy_factory`` producing a fresh policy per request.
    """

    def __init__(
        self,
        model: DecoderLM,
        policy_factory: Callable[[], EvictionPolicy] | None = None,
        config: EngineConfig | None = None,
        **knobs,
    ):
        self.model = model
        self.policy_factory = policy_factory or FullAttentionPolicy
        self.config = EngineConfig.of(config, **knobs)

    def _engine(self) -> ContinuousBatchingEngine:
        return ContinuousBatchingEngine(
            self.model, policy_factory=self.policy_factory, config=self.config
        )

    # ------------------------------------------------------------------
    def generate(
        self,
        prompt_ids,
        config: GenerationConfig | None = None,
        sampler: Sampler | None = None,
    ) -> GenerationResult:
        """Drop-in ``Generator.generate``: 1-D prompt → one request; a 2-D
        prompt batch → one request per row, decoded together.

        An explicitly passed ``sampler`` is shared by every row — fine for
        the (stateless) greedy sampler; stochastic multi-row workloads should
        omit it so each request gets its own seeded sampler.
        """
        prompts = Generator._as_batch(prompt_ids)
        if prompts.shape[0] == 0:
            raise ValueError("prompt batch must contain at least one sequence")
        results = self.generate_batch(list(prompts), config, sampler=sampler)
        return _merge_results(results)

    def generate_batch(
        self,
        prompts: Sequence,
        config: GenerationConfig | Sequence[GenerationConfig] | None = None,
        sampler: Sampler | None = None,
    ) -> list[GenerationResult]:
        """Generate for many prompts as one continuous batch.

        ``config`` may be one shared :class:`GenerationConfig` or one per
        prompt.  Results come back in submission order.
        """
        if len(prompts) == 0:
            return []
        if config is None or isinstance(config, GenerationConfig):
            configs = [config] * len(prompts)
        else:
            configs = list(config)
            if len(configs) != len(prompts):
                raise ValueError(
                    f"got {len(configs)} configs for {len(prompts)} prompts"
                )
        engine = self._engine()
        states = [
            engine.submit(prompt, cfg, sampler=sampler)
            for prompt, cfg in zip(prompts, configs)
        ]
        engine.run()
        return [state.result() for state in states]
