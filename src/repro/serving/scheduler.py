"""Admission scheduling for the continuous-batching engine.

The scheduler decides *when* a queued request joins the running batch; the
engine decides *how* the batch executes.  Two schedulers are provided:

:class:`FCFSScheduler`
    Strict first-come-first-served admission under two static budgets:

    ``max_batch_size``
        Upper bound on concurrently decoding sequences — the width of the
        persistent batch.

    ``max_total_tokens``
        Upper bound on the sum of worst-case sequence lengths
        (``prompt_len + max_new_tokens``) across running requests.  This is
        the historical *worst-case reservation* discipline: admission never
        has to evict or preempt, but memory reserved for tokens that are
        never generated (or that an eviction policy immediately frees) is
        dead capacity.

:class:`PagedScheduler`
    Memory-aware admission against the paged KV store's **actual free
    pages**.  A request is admitted when its prompt pages fit the tightest
    layer pool with a watermark of headroom to spare (counting pages the
    prefix registry could reclaim); growth during decoding is paid for by
    preempting the newest running request back to the queue when the pool
    runs dry (the engine drives that part).  Because an eviction policy that
    holds a 128-token budget only ever occupies 128 tokens of pages, paged
    admission packs far more concurrent requests into the same memory than
    the worst-case token budget allows.

Admission is head-of-line blocking by design in both: if the oldest queued
request does not fit, nothing behind it is admitted either.  Skipping ahead
would improve utilization slightly but makes admission latency unpredictable
under load.  :meth:`FCFSScheduler.admit` pops every request that fits; the
engine keeps only the head and requeues the rest in arrival order, so one
request joins per engine step (each prompt pass is its own forward, and a
step that ran several would hold every first token back until its last).
Because batched execution is bit-exact per sequence, admission order (and
preemption) affects *when* a request finishes, never *what* it generates
(the property tests pin this invariant).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.serving.request import RequestState

if TYPE_CHECKING:
    from repro.kvcache.paged import PagedKVStore, PrefixRegistry

__all__ = ["FCFSScheduler", "PagedScheduler"]


class FCFSScheduler:
    """Strict first-come-first-served admission with batch and token budgets.

    ``prefill_chunk_tokens`` is the scheduler's **chunked-prefill budget**:
    when set, the engine splits any prompt longer than the budget into chunks
    of at most this many tokens and runs *one chunk per engine step* instead
    of prefilling the whole prompt in a single step — running decode rows
    (and other admissions) interleave between chunks, which is what caps the
    tail latency a long prompt can inflict on its neighbours.  It lives on
    the scheduler because it is an admission-shaping knob: it trades one
    request's time-to-first-token for everyone else's step-time bound.
    ``None`` (default) disables chunking; the floor is 2 tokens (the
    bit-stability floor of the chunked projections).
    """

    def __init__(
        self,
        max_batch_size: int = 8,
        max_total_tokens: int | None = None,
        prefill_chunk_tokens: int | None = None,
    ):
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_total_tokens is not None and max_total_tokens <= 0:
            raise ValueError("max_total_tokens must be positive (or None)")
        if prefill_chunk_tokens is not None and prefill_chunk_tokens < 2:
            raise ValueError("prefill_chunk_tokens must be >= 2 (or None)")
        self.max_batch_size = max_batch_size
        self.max_total_tokens = max_total_tokens
        self.prefill_chunk_tokens = prefill_chunk_tokens
        self._queue: deque[RequestState] = deque()

    # ------------------------------------------------------------------
    def submit(self, state: RequestState) -> None:
        """Queue a request for admission.

        Raises if the request can never fit the token budget — admitting it
        would deadlock the queue behind it.
        """
        cost = state.request.token_budget
        if self.max_total_tokens is not None and cost > self.max_total_tokens:
            raise ValueError(
                f"request {state.request_id} needs {cost} tokens, exceeding the "
                f"engine's max_total_tokens budget of {self.max_total_tokens}"
            )
        self._enqueue(state)

    def _enqueue(self, state: RequestState) -> None:
        """Insert a validated new submission (FCFS: append in arrival order).

        Subclasses override this (and :meth:`requeue`) to keep the queue in a
        different admission order — see
        :class:`~repro.serving.slo.PriorityScheduler`.
        """
        self._queue.append(state)

    def requeue(self, state: RequestState) -> None:
        """Put a preempted request back into the queue, in arrival order.

        The queue is kept sorted by ``request_id`` (ids are monotonic at
        submission), so a requeued request slots in ahead of every younger
        entry but *behind* any older one — FCFS completion semantics survive
        interleaved preemption and failed-admission requeues.  A plain
        ``appendleft`` inverted priority when a preemption victim (old) and a
        request whose prefill failed (young) were requeued in the same step.
        """
        at = 0
        for queued in self._queue:
            if queued.request_id < state.request_id:
                at += 1
            else:
                break
        self._queue.insert(at, state)

    def requeue_many(self, states: list[RequestState]) -> None:
        """Requeue several requests, preserving arrival order (see
        :meth:`requeue`)."""
        for state in states:
            self.requeue(state)

    def cancel(self, request_id: int) -> RequestState | None:
        """Remove a queued request; returns its state (or ``None`` if absent)."""
        for state in self._queue:
            if state.request_id == request_id:
                self._queue.remove(state)
                return state
        return None

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def pending(self) -> tuple[RequestState, ...]:
        """Queued requests in admission order (read-only snapshot)."""
        return tuple(self._queue)

    # ------------------------------------------------------------------
    def _fits(self, state: RequestState, tokens_in_flight: int) -> bool:
        cost = state.request.token_budget
        return (
            self.max_total_tokens is None
            or tokens_in_flight + cost <= self.max_total_tokens
        )

    def admit(
        self,
        n_running: int,
        tokens_in_flight: int,
        store: "PagedKVStore | None" = None,
        registry: "PrefixRegistry | None" = None,
        now_step: int = 0,
        reserved_pages: int = 0,
    ) -> list[RequestState]:
        """Pop every queued request that fits the current budgets, in order.

        Parameters
        ----------
        n_running:
            Number of sequences currently decoding in the batch — the engine
            also counts an in-flight chunked prefill here, so its eventual
            row cannot be double-booked.
        tokens_in_flight:
            Sum of ``token_budget`` over those sequences.
        store, registry:
            Accepted (and ignored) so the engine can drive either scheduler
            through one call signature; :class:`PagedScheduler` uses them.
        now_step:
            The engine's current step counter; a head request still inside
            its retry-backoff window (``retry_at > now_step``) blocks the
            line until the window elapses (head-of-line blocking, like every
            other admission rule).
        reserved_pages:
            Pages already promised to work that has not allocated them yet —
            an in-flight chunked prefill's prompt, or earlier admissions in
            this engine step.  Token-budget admission ignores it
            (``tokens_in_flight`` already carries the reservation);
            :class:`PagedScheduler` subtracts it from the free-page count.
        """
        admitted: list[RequestState] = []
        while self._queue:
            head = self._queue[0]
            if n_running + len(admitted) >= self.max_batch_size:
                break
            if head.retry_at > now_step:
                break
            if not self._fits(head, tokens_in_flight):
                break
            admitted.append(self._queue.popleft())
            tokens_in_flight += head.request.token_budget
        return admitted


class PagedScheduler(FCFSScheduler):
    """FCFS admission against the paged store's actual free pages.

    Parameters
    ----------
    watermark:
        Fraction of each layer pool kept free at admission time (default
        10%).  The watermark is the buffer that running sequences grow into;
        a larger value admits less aggressively but preempts less often.
    max_total_tokens:
        Optional worst-case token budget kept as a *secondary* cap (useful
        for latency SLOs); ``None`` disables it and admission is purely
        memory-aware.
    """

    def __init__(
        self,
        max_batch_size: int = 8,
        max_total_tokens: int | None = None,
        watermark: float = 0.1,
        prefill_chunk_tokens: int | None = None,
    ):
        super().__init__(
            max_batch_size, max_total_tokens, prefill_chunk_tokens=prefill_chunk_tokens
        )
        if not 0.0 <= watermark < 1.0:
            raise ValueError("watermark must be in [0, 1)")
        self.watermark = watermark

    def admit(
        self,
        n_running: int,
        tokens_in_flight: int,
        store: "PagedKVStore | None" = None,
        registry: "PrefixRegistry | None" = None,
        now_step: int = 0,
        reserved_pages: int = 0,
    ) -> list[RequestState]:
        """Pop queued requests whose prompt pages fit the tightest layer
        pool above the watermark (see the class docstring); falls back to
        the token-budget rule while the store is still growable.

        ``reserved_pages`` counts pages promised but not yet allocated (an
        in-flight chunked prefill joins only after its last chunk), so
        admission cannot spend the same free pages twice."""
        admitted: list[RequestState] = []
        # Pages already claimed by the caller's reservation (e.g. an
        # in-flight chunked prefill) plus earlier admissions this call.
        reserved = reserved_pages
        while self._queue:
            head = self._queue[0]
            if n_running + len(admitted) >= self.max_batch_size:
                break
            if head.retry_at > now_step:
                break
            if not self._fits(head, tokens_in_flight):
                break
            if store is not None:
                tier0 = store.tier0_frames()
                if tier0 is not None:
                    # Tiered offload: admission is capped by tier-0 *frames*,
                    # not logical pages — every running row needs at least
                    # its append page resident each decode step, so bound
                    # the row count by the frame budget (with watermark
                    # headroom).  Applies even to growable stores: growth
                    # buys spillable capacity, never residency.
                    frame_headroom = max(int(self.watermark * tier0), 1)
                    if n_running + len(admitted) + 1 + frame_headroom > tier0:
                        break
            if store is not None and not store.growable:
                # Admit against actual free pages in the tightest layer pool:
                # the prompt (plus one decode slot) must fit above the
                # watermark, counting pages the prefix registry could free.
                needed = store.pages_for_tokens(head.request.prompt_len + 1)
                reclaimable = registry.reclaimable_pages() if registry is not None else 0
                per_pool = min(
                    pool.free_pages + min(reclaimable, pool.n_pages)
                    for pool in store.pools
                )
                headroom = max(int(self.watermark * store.pools[0].n_pages), 1)
                if reserved + needed + headroom > per_pool:
                    break
                reserved += needed
            admitted.append(self._queue.popleft())
            tokens_in_flight += head.request.token_budget
        return admitted
