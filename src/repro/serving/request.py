"""Request model for the continuous-batching serving engine.

A :class:`Request` is the immutable description of one generation job — the
prompt, the decoding budget and the SLO tier.  The engine wraps
it in a :class:`RequestState` that tracks the mutable per-request machinery:
lifecycle status, the request's sampler and its own eviction-policy instance
(per-request instances are what make batched execution bit-identical to solo
execution — policy score accumulators never mix between requests), generated
tokens and accumulated log-probability.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.generation.generator import GenerationResult
from repro.models.config import GenerationConfig

if TYPE_CHECKING:
    from repro.core.policies import EvictionPolicy
    from repro.generation.sampler import Sampler
    from repro.kvcache.stats import CacheStats

__all__ = ["Request", "RequestState", "RequestStatus", "FinishReason"]


class RequestStatus(enum.Enum):
    """Lifecycle of a request inside the engine."""

    QUEUED = "queued"  # submitted, waiting for admission
    RUNNING = "running"  # prefilled, decoding in the batch
    FINISHED = "finished"  # retired (EOS or token budget)


class FinishReason(enum.Enum):
    """Why a request retired from the batch.

    ``EOS`` and ``LENGTH`` are the normal completions.  The rest form the
    error taxonomy of the fault-tolerance layer (``docs/robustness.md``):
    ``ABORTED`` is a client cancellation, ``ERROR`` a quarantined exception
    (message and traceback preserved on the state), and ``TIMEOUT`` a missed
    step-count deadline.
    """

    EOS = "eos"  # sampled the end-of-sequence token
    LENGTH = "length"  # reached max_new_tokens
    ABORTED = "aborted"  # cancelled by the client before finishing
    ERROR = "error"  # quarantined after an unrecovered exception in its row
    TIMEOUT = "timeout"  # exceeded its step-count deadline


@dataclass(frozen=True)
class Request:
    """One generation job submitted to the serving engine."""

    request_id: int
    prompt_ids: np.ndarray  # shape (1, T), int64
    max_new_tokens: int = 32
    eos_token_id: int | None = None
    #: SLO tier — higher values are more urgent.  Priority affects *when* a
    #: request is admitted (and which running request a
    #: :class:`~repro.serving.slo.PriorityScheduler` preempts under
    #: pressure), never *what* it generates: the bit-exactness contract is
    #: priority-blind.  The plain FCFS/paged schedulers ignore it.
    priority: int = 0

    @property
    def prompt_len(self) -> int:
        """Number of prompt tokens."""
        return int(self.prompt_ids.shape[1])

    @property
    def token_budget(self) -> int:
        """Worst-case sequence length — the unit of the scheduler's token budget."""
        return self.prompt_len + self.max_new_tokens

    @classmethod
    def from_config(
        cls,
        request_id: int,
        prompt_ids,
        config: GenerationConfig | None = None,
        priority: int = 0,
    ) -> "Request":
        """Build a request from a prompt and a :class:`GenerationConfig`."""
        config = config or GenerationConfig()
        prompt = np.asarray(prompt_ids, dtype=np.int64)
        if prompt.ndim == 1:
            prompt = prompt[None, :]
        if prompt.ndim != 2 or prompt.shape[0] != 1:
            raise ValueError(
                f"a request holds exactly one sequence; got prompt shape {prompt.shape}"
            )
        if prompt.shape[1] == 0:
            raise ValueError("prompt must contain at least one token")
        return cls(
            request_id=request_id,
            prompt_ids=prompt,
            max_new_tokens=config.max_new_tokens,
            eos_token_id=config.eos_token_id,
            priority=priority,
        )


@dataclass
class RequestState:
    """Mutable engine-side state of one request."""

    request: Request
    sampler: "Sampler"
    policy: "EvictionPolicy"
    status: RequestStatus = RequestStatus.QUEUED
    tokens: list[int] = field(default_factory=list)
    total_logprob: float = 0.0
    #: Index of the current iteration of the (replicated) generation loop.
    step: int = 0
    #: Token sampled from the latest logits, not yet recorded in ``tokens``.
    pending_token: int | None = None
    finish_reason: FinishReason | None = None
    cache_stats: "CacheStats | None" = None
    n_steps: int = 0
    #: Times this request was preempted back to the queue (pages reclaimed).
    preemptions: int = 0
    #: Engine-internal admission sequence number (newest admitted is the
    #: preemption victim, preserving FCFS completion order).
    admitted_seq: int = -1
    #: Log-probability of :attr:`pending_token` (speculation mode records
    #: tokens inline instead of deferring to the next engine step).
    pending_logprob: float = 0.0
    #: Draft/verify telemetry when the engine ran this request speculatively.
    speculation: dict = field(default_factory=dict)
    #: What ran it speculatively — target policy, draft length and drafter —
    #: reported as the result's ``policy`` (empty for vanilla requests).
    speculation_policy: dict = field(default_factory=dict)
    #: Step-count deadline: the request times out once the engine has run
    #: this many steps since submission (``None`` = no deadline).  The clock
    #: is end-to-end — preemptions and retries do not reset it.
    deadline_steps: int | None = None
    #: Engine step counter value at submission (deadline epoch).
    submitted_step: int = 0
    #: Automatic retries consumed after quarantined transient faults.
    retries: int = 0
    #: Engine step before which the scheduler must not re-admit this request
    #: (deterministic exponential backoff between retries).
    retry_at: int = 0
    #: Message of the last quarantined exception (``FinishReason.ERROR``
    #: keeps the final one; retries overwrite it on each new fault).
    error: str | None = None
    #: Full traceback text of the last quarantined exception.
    error_traceback: str | None = None
    #: Engine step at which the first output token was *recorded* — the
    #: numerator of TTFT once the load harness maps steps to virtual time.
    #: Preemption discards generated tokens, so the stamp tracks the first
    #: token of the final (successful) run; see ``docs/workloads.md``.
    first_token_step: int | None = None
    #: Engine step at which the request finished (any :class:`FinishReason`).
    finished_step: int | None = None

    @property
    def request_id(self) -> int:
        """The wrapped request's id."""
        return self.request.request_id

    @property
    def finished(self) -> bool:
        """True once the request retired (EOS, budget or abort)."""
        return self.status is RequestStatus.FINISHED

    @property
    def policy_description(self) -> dict:
        """The result's ``policy``: the speculative summary when the engine
        ran this request speculatively, else its eviction policy's own."""
        return self.speculation_policy or self.policy.describe()

    def _reset_generation(self) -> None:
        """Discard all generated state so the request restarts from scratch.

        The eviction policy is re-``setup`` at join and the sampler is
        reused as-is (it must be stateless, as
        :class:`~repro.generation.sampler.GreedySampler` is), so the rerun is
        bit-identical to an uninterrupted run — a restart can change *when* a
        request finishes, never *what* it generates.
        """
        self.tokens.clear()
        self.total_logprob = 0.0
        self.step = 0
        self.pending_token = None
        self.pending_logprob = 0.0
        self.speculation = {}
        self.speculation_policy = {}
        self.status = RequestStatus.QUEUED
        self.cache_stats = None
        self.n_steps = 0
        self.admitted_seq = -1
        self.first_token_step = None

    def reset_for_requeue(self) -> None:
        """Return to the queued state after preemption."""
        self._reset_generation()
        self.preemptions += 1

    def reset_for_retry(self, retry_at: int) -> None:
        """Return to the queued state after a quarantined transient fault.

        Same restart as :meth:`reset_for_requeue` but counted as a retry
        (not a preemption), with re-admission blocked until engine step
        ``retry_at`` — the deterministic backoff window.
        """
        self._reset_generation()
        self.retries += 1
        self.retry_at = retry_at

    def result(self) -> GenerationResult:
        """The finished request's output in :class:`GenerationResult` form.

        Field-for-field identical to what ``Generator.generate`` returns for
        the same request run alone (the golden-equivalence tests pin this).
        """
        if not self.finished:
            raise RuntimeError(f"request {self.request_id} has not finished")
        return GenerationResult(
            sequences=[list(self.tokens)],
            prompt_lengths=[self.request.prompt_len],
            cache_stats=self.cache_stats,
            policy=self.policy_description,
            n_steps=self.n_steps,
            log_probs=[float(self.total_logprob)],
            speculation=dict(self.speculation),
        )
