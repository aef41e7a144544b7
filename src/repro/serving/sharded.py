"""Multi-replica sharded serving with a prefix-affinity router.

One :class:`~repro.serving.engine.ContinuousBatchingEngine` is a single
synchronous loop — its throughput is capped by one process no matter how
much hardware sits underneath.  This module spreads requests across ``N``
engine **replicas**, each running in its own ``multiprocessing`` worker with
its own model weights and BlockPools, behind a :class:`ShardedEngine`
front-end that preserves every correctness contract of the solo engine:

Routing — :class:`PrefixAffinityRouter`
    Spreading shared-prefix traffic uniformly over ``N`` replicas dilutes
    the :class:`~repro.kvcache.paged.PrefixRegistry` hit rate ``N`` ways
    (every replica pays its own cold prefill of the same prefix).  The
    router instead computes a **process-stable digest** of the prompt's
    leading page-aligned chunks — the same chained
    :func:`~repro.kvcache.paged.chunk_digest` the registry keys chunks by —
    and picks a replica by rendezvous (highest-random-weight) hashing, so
    same-prefix requests concentrate on the replica that already holds the
    prefix.  Prompts shorter than one page (no full chunk) and affinity
    targets that are overloaded fall back to the least-loaded replica.

Worker protocol
    Each worker owns one engine and speaks a small message protocol over a
    pipe: ``submit`` (queue a request, returns the replica-local id),
    ``step`` (advance one batch step; the reply streams **incremental token
    deltas** for running requests and retirement payloads — tokens, f64
    log-probs, finish reason, cache stats — for finished ones), ``abort``,
    ``stats`` and ``shutdown``.  An ``inline`` backend runs the identical
    server code in-process for deterministic tests and virtual-time replay.

Bit-exactness contract
    Routing may change *scheduling*, never *output*: every request's tokens
    and float64 log-probs are identical to running that request on a solo
    engine, because each replica is a full engine whose batching is already
    bit-exact and the router only decides which engine a request joins.
    Replica death re-routes its in-flight requests to surviving replicas,
    where the deterministic restart machinery (the same contract preemption
    relies on) reproduces their outputs bit-exactly.

See ``docs/sharding.md`` for the affinity contract, telemetry aggregation
and reproduction commands.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.core.registry import make_policy
from repro.generation.generator import GenerationResult
from repro.kvcache.paged import DEFAULT_PAGE_SIZE, chunk_digest
from repro.models.config import GenerationConfig, ModelConfig
from repro.models.transformer import DecoderLM
from repro.serving.engine import ContinuousBatchingEngine, EngineConfig
from repro.serving.request import FinishReason, Request, RequestStatus
from repro.serving.scheduler import PagedScheduler
from repro.serving.slo import PriorityScheduler

if TYPE_CHECKING:
    from repro.perfmodel.serving import StepCostModel
    from repro.serving.request import RequestState

__all__ = [
    "ReplicaSpec",
    "ReplicaDead",
    "PrefixAffinityRouter",
    "ShardedRequest",
    "ShardedEngine",
]


#: Scheduler kinds a :class:`ReplicaSpec` can name.
_SCHEDULERS = {"paged": PagedScheduler, "priority": PriorityScheduler}


class ReplicaDead(RuntimeError):
    """A replica worker died (pipe closed or process gone)."""


@dataclass(frozen=True, init=False)
class ReplicaSpec:
    """Picklable recipe for one engine replica.

    Every worker rebuilds its model and engine from this spec — seeded
    weights (:class:`~repro.models.transformer.DecoderLM` is deterministic
    in ``(config, seed)``), a policy *name* resolved through
    :func:`~repro.core.registry.make_policy`, a scheduler *kind*
    (``"paged"`` / ``"priority"``) and the engine's
    :class:`~repro.serving.engine.EngineConfig` — so all replicas are
    bit-identical engines and any replica can reproduce any request's
    output.  That is what makes re-routing after a replica death safe.

    Like the engine it describes, the spec takes its knobs as ``config=``
    or as keywords naming :class:`EngineConfig` fields, so a replica is
    configurable exactly like the engine it wraps.
    """

    model_config: ModelConfig
    model_seed: int
    policy: str
    policy_kwargs: Mapping
    scheduler: str
    config: EngineConfig

    def __init__(
        self,
        model_config: ModelConfig,
        model_seed: int = 0,
        policy: str = "full",
        policy_kwargs: Mapping | None = None,
        scheduler: str = "paged",
        config: EngineConfig | None = None,
        **knobs,
    ):
        if scheduler not in _SCHEDULERS:
            raise ValueError(f"unknown scheduler {scheduler!r}")
        for name, value in (
            ("model_config", model_config),
            ("model_seed", model_seed),
            ("policy", policy),
            ("policy_kwargs", dict(policy_kwargs or {})),
            ("scheduler", scheduler),
            ("config", EngineConfig.of(config, **knobs)),
        ):
            object.__setattr__(self, name, value)

    def build_engine(self) -> ContinuousBatchingEngine:
        """Construct the replica's engine (called inside the worker)."""
        kwargs = dict(self.policy_kwargs)
        return ContinuousBatchingEngine(
            DecoderLM(self.model_config, seed=self.model_seed),
            policy_factory=lambda: make_policy(self.policy, **kwargs),
            scheduler=self.config.build_scheduler(_SCHEDULERS[self.scheduler]),
            config=self.config,
        )


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
class PrefixAffinityRouter:
    """Rendezvous-hash prompts onto replicas by their leading prefix chunks.

    The routing key is the chained :func:`~repro.kvcache.paged.chunk_digest`
    of the prompt's first ``route_chunks`` full page-aligned chunks — byte
    for byte the key the replica's own :class:`PrefixRegistry` will index
    those chunks under, and stable across processes and ``PYTHONHASHSEED``
    values.  Replica choice is rendezvous (highest-random-weight) hashing:
    every replica's weight is ``blake2b(key || replica_index)`` and the
    highest weight wins, so each key has a deterministic owner, keys spread
    uniformly, and when a replica dies its keys fall to their second-choice
    replica without disturbing anyone else's assignment.

    Fallbacks: prompts with no full chunk (shorter than one page) go to the
    least-loaded replica, as does any prompt whose affinity target already
    carries ``spill_load`` or more in-flight requests (``None`` disables
    spilling — affinity always wins).
    """

    def __init__(
        self,
        n_replicas: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        route_chunks: int = 1,
        spill_load: int | None = None,
    ):
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        if route_chunks < 1:
            raise ValueError("route_chunks must be >= 1")
        if spill_load is not None and spill_load < 1:
            raise ValueError("spill_load must be >= 1 (or None)")
        self.n_replicas = n_replicas
        self.page_size = page_size
        self.route_chunks = route_chunks
        self.spill_load = spill_load
        #: Requests routed by prefix affinity.
        self.n_affinity = 0
        #: Requests with no full page-aligned chunk (least-loaded fallback).
        self.n_no_prefix = 0
        #: Requests spilled off an overloaded affinity target.
        self.n_spilled = 0
        #: Requests routed to each replica (all paths).
        self.per_replica = [0] * n_replicas

    def prefix_key(self, prompt_ids) -> bytes | None:
        """Chained digest of the prompt's leading full chunks (or ``None``).

        ``None`` means the prompt is shorter than one page — there is no
        chunk the registry could ever share, hence nothing to be affine to.
        """
        arr = np.asarray(prompt_ids, dtype=np.int64).reshape(-1)
        ps = self.page_size
        n_full = min(self.route_chunks, len(arr) // ps)
        if n_full == 0:
            return None
        digest: bytes | None = None
        for i in range(n_full):
            digest = chunk_digest(arr[i * ps : (i + 1) * ps], digest)
        return digest

    @staticmethod
    def _weight(key: bytes, replica: int) -> bytes:
        """Rendezvous weight of ``replica`` for routing key ``key``."""
        h = hashlib.blake2b(digest_size=8)
        h.update(key)
        h.update(replica.to_bytes(4, "little"))
        return h.digest()

    def route(
        self,
        prompt_ids,
        loads: Sequence[int],
        alive: Sequence[int] | None = None,
    ) -> int:
        """Pick the replica for one prompt given per-replica in-flight loads.

        ``alive`` restricts the candidates (defaults to every replica); a
        dead replica's keys automatically fall to their next-highest
        rendezvous weight among the survivors.
        """
        candidates = list(alive) if alive is not None else list(range(len(loads)))
        if not candidates:
            raise ReplicaDead("no live replicas to route to")
        key = self.prefix_key(prompt_ids)
        if key is not None:
            target = max(candidates, key=lambda i: self._weight(key, i))
            if self.spill_load is None or loads[target] < self.spill_load:
                self.n_affinity += 1
                self.per_replica[target] += 1
                return target
            self.n_spilled += 1
        else:
            self.n_no_prefix += 1
        target = min(candidates, key=lambda i: (loads[i], i))
        self.per_replica[target] += 1
        return target

    def telemetry(self) -> dict:
        """Routing counters (affinity / fallback / spill / per-replica)."""
        return {
            "n_affinity": self.n_affinity,
            "n_no_prefix": self.n_no_prefix,
            "n_spilled": self.n_spilled,
            "per_replica": list(self.per_replica),
        }


# ----------------------------------------------------------------------
# replica server (shared by the process worker and the inline backend)
# ----------------------------------------------------------------------
class _ReplicaServer:
    """One replica's message handlers: an engine plus delta bookkeeping.

    The same object backs both deployment modes — ``_replica_main`` drives
    it from a pipe inside a worker process, ``_InlineReplica`` calls it
    directly — so tests of the inline backend exercise the exact server
    code the multiprocessing path runs.
    """

    def __init__(self, spec: ReplicaSpec):
        self.engine = spec.build_engine()
        #: Live request states by replica-local id.
        self._handles: dict[int, "RequestState"] = {}
        #: Tokens already streamed to the front-end, per local id.
        self._sent: dict[int, int] = {}

    def handle(self, msg: tuple):
        """Dispatch one protocol message ``(command, *args)``."""
        return getattr(self, f"_cmd_{msg[0]}")(*msg[1:])

    def _counters(self) -> dict:
        """Cumulative engine counters the front-end aggregates."""
        e = self.engine
        return {
            "steps": e.step_count,
            "n_preemptions": e.n_preemptions,
            "n_prefill_chunks": e.n_prefill_chunks,
            "prefill_prompt_tokens": e.prefill_prompt_tokens,
            "prefill_computed_tokens": e.prefill_computed_tokens,
        }

    @staticmethod
    def _retire_payload(state: "RequestState") -> dict:
        """Retirement message for one finished request (the full result)."""
        return {
            "local_id": state.request_id,
            "tokens": list(state.tokens),
            "total_logprob": float(state.total_logprob),
            "finish_reason": state.finish_reason,
            "n_steps": state.n_steps,
            "retries": state.retries,
            "preemptions": state.preemptions,
            "error": state.error,
            "cache_stats": state.cache_stats,
            "policy": state.policy.describe(),
            "speculation": dict(state.speculation),
        }

    def _cmd_submit(self, prompt, config, priority, deadline_steps) -> dict:
        """Queue one request; reply carries the replica-local id (and the
        retirement payload immediately when the engine shed it)."""
        state = self.engine.submit(
            prompt, config, deadline_steps=deadline_steps, priority=priority
        )
        lid = state.request_id
        if state.finished:  # shed at admission
            return {"local_id": lid, "finished": self._retire_payload(state)}
        self._handles[lid] = state
        self._sent[lid] = 0
        return {"local_id": lid, "finished": None}

    def _cmd_step(self) -> dict:
        """One engine step; reply streams token deltas and retirements.

        ``restarted`` lists requests whose token list shrank since the last
        step (preemption or retry restarted them from scratch) — the
        front-end resets its copy before applying the fresh delta, so the
        stream converges on exactly the engine's final token list.
        """
        finished = self.engine.step()
        deltas: dict[int, list[int]] = {}
        restarted: list[int] = []
        for lid, state in self._handles.items():
            n = self._sent[lid]
            if len(state.tokens) < n:
                restarted.append(lid)
                n = 0
            if len(state.tokens) > n:
                deltas[lid] = list(state.tokens[n:])
            self._sent[lid] = len(state.tokens)
        retired = []
        for state in finished:
            retired.append(self._retire_payload(state))
            self._handles.pop(state.request_id, None)
            self._sent.pop(state.request_id, None)
        return {
            "deltas": deltas,
            "restarted": restarted,
            "finished": retired,
            "prefill_tokens": self.engine.last_step_prefill_tokens,
            "decode_rows": self.engine.last_step_decode_rows,
            "counters": self._counters(),
        }

    def _cmd_abort(self, local_id: int) -> dict:
        """Cancel one request; reply carries its retirement payload."""
        ok = self.engine.abort(local_id)
        state = self._handles.pop(local_id, None)
        self._sent.pop(local_id, None)
        payload = None
        if state is not None and state.finished:
            payload = self._retire_payload(state)
        return {"aborted": bool(ok), "finished": payload}

    def _cmd_stats(self) -> dict:
        """Telemetry snapshot: pools, prefix savings, faults, queue depths."""
        e = self.engine
        return {
            "pool_usage": e.pool_usage(),
            "prefill_savings": e.prefill_savings,
            "fault_telemetry": e.fault_telemetry(),
            "n_running": e.n_running,
            "n_queued": e.n_queued,
            "counters": self._counters(),
        }


def _replica_main(conn, spec: ReplicaSpec) -> None:
    """Worker-process entry point: serve protocol messages until shutdown.

    Handler exceptions are sent back as ``("error", exc)`` and the worker
    keeps serving (a bad submit must not take down a replica); only a
    closed pipe or an explicit ``shutdown`` message ends the loop.
    """
    server = _ReplicaServer(spec)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "shutdown":
            conn.send(("ok", None))
            break
        try:
            conn.send(("ok", server.handle(msg)))
        except Exception as exc:  # noqa: BLE001 — relayed to the front-end
            try:
                conn.send(("error", exc))
            except Exception:
                conn.send(("error", RuntimeError(f"{type(exc).__name__}: {exc}")))
    conn.close()


class _ProcessReplica:
    """A replica living in its own ``multiprocessing`` worker.

    ``post``/``wait`` split the request/response round-trip so the
    front-end can post ``step`` to every replica before collecting any
    reply — that overlap is where multi-core parallelism comes from.
    """

    def __init__(self, spec: ReplicaSpec, ctx):
        parent, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_replica_main, args=(child, spec), daemon=True
        )
        self.process.start()
        child.close()
        self.conn = parent
        self.alive = True

    def _died(self) -> None:
        self.alive = False
        try:
            self.conn.close()
        except OSError:
            pass
        raise ReplicaDead("replica worker died")

    def post(self, msg: tuple) -> None:
        """Send one message without waiting for the reply."""
        if not self.alive:
            raise ReplicaDead("replica is not alive")
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError):
            self._died()

    def wait(self):
        """Collect the reply to the last posted message."""
        if not self.alive:
            raise ReplicaDead("replica is not alive")
        try:
            status, payload = self.conn.recv()
        except (EOFError, OSError):
            self._died()
        if status == "error":
            raise payload if isinstance(payload, BaseException) else RuntimeError(payload)
        return payload

    def call(self, msg: tuple):
        """One synchronous round-trip."""
        self.post(msg)
        return self.wait()

    def kill(self) -> None:
        """Hard-kill the worker (chaos hook; death shows up on next use)."""
        self.alive = False
        self.process.terminate()
        self.process.join(timeout=5)
        try:
            self.conn.close()
        except OSError:
            pass

    def shutdown(self, timeout: float = 5.0) -> None:
        """Graceful stop: ask nicely, then join, then terminate."""
        if self.alive:
            try:
                self.call(("shutdown",))
            except (ReplicaDead, RuntimeError):
                pass
            self.alive = False
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout)


class _InlineReplica:
    """The same replica server called in-process (tests, virtual replay).

    Deterministic and dependency-free: no pipes, no pickling, but byte-for
    byte the same server code — the bit-exactness suites run against this
    backend and the multiprocessing tests only have to show transport
    equivalence.
    """

    def __init__(self, spec: ReplicaSpec, ctx=None):
        self.server = _ReplicaServer(spec)
        self.alive = True
        self._reply = None

    def post(self, msg: tuple) -> None:
        """Handle the message immediately; stash the reply for :meth:`wait`."""
        if not self.alive:
            raise ReplicaDead("replica is not alive")
        self._reply = self.server.handle(msg)

    def wait(self):
        """Return the stashed reply."""
        if not self.alive:
            raise ReplicaDead("replica is not alive")
        reply, self._reply = self._reply, None
        return reply

    def call(self, msg: tuple):
        """One synchronous round-trip."""
        self.post(msg)
        return self.wait()

    def kill(self) -> None:
        """Mark the replica dead (chaos hook)."""
        self.alive = False

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop serving."""
        self.alive = False


# ----------------------------------------------------------------------
# front-end
# ----------------------------------------------------------------------
class ShardedRequest:
    """Front-end handle for one sharded request.

    Duck-types the :class:`~repro.serving.request.RequestState` surface the
    latency/SLO layer reads (``request``, ``tokens``, ``finish_reason``,
    ``first_token_step``/``finished_step`` stamps, :meth:`result`), with
    tokens streamed in incrementally as replica steps report deltas.  Step
    stamps are in *front-end* steps — the clock
    :func:`~repro.serving.workload.replay_trace` maps to virtual time.
    """

    __slots__ = (
        "request",
        "config",
        "replica",
        "local_id",
        "status",
        "tokens",
        "total_logprob",
        "finish_reason",
        "first_token_step",
        "finished_step",
        "n_steps",
        "retries",
        "preemptions",
        "error",
        "cache_stats",
        "policy_description",
        "speculation",
        "deadline_steps",
    )

    def __init__(
        self,
        request: Request,
        config: GenerationConfig,
        deadline_steps: int | None = None,
    ):
        self.request = request
        self.config = config
        self.deadline_steps = deadline_steps
        self.replica: int | None = None
        self.local_id: int | None = None
        self.status = RequestStatus.QUEUED
        self.tokens: list[int] = []
        self.total_logprob = 0.0
        self.finish_reason: FinishReason | None = None
        self.first_token_step: int | None = None
        self.finished_step: int | None = None
        self.n_steps = 0
        self.retries = 0
        self.preemptions = 0
        self.error: str | None = None
        self.cache_stats = None
        self.policy_description: str | None = None
        self.speculation: dict = {}

    @property
    def request_id(self) -> int:
        """The front-end (global) request id."""
        return self.request.request_id

    @property
    def finished(self) -> bool:
        """True once the request retired on its replica."""
        return self.status is RequestStatus.FINISHED

    def result(self) -> GenerationResult:
        """The finished request's output, shaped like ``Generator.generate``.

        Field-for-field identical to the solo engine's
        :meth:`~repro.serving.request.RequestState.result` for the same
        request — the sharded bit-exactness suites pin this.
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


class ShardedEngine:
    """Front-end spreading requests across ``n_replicas`` engine replicas.

    Implements the same replay protocol as a solo engine (``submit`` /
    ``step`` / ``abort`` / ``has_work`` / ``step_virtual_cost`` and the
    aggregate prefill/preemption counters), so
    :func:`~repro.serving.workload.replay_trace` and ``tools/run_load.py``
    drive it unchanged.  Each ``step()`` posts one step to every replica
    that has work and then collects the replies — with the ``process``
    backend the replicas compute concurrently, which is the throughput
    story; with the ``inline`` backend everything runs in-process, which is
    the determinism story (both produce bit-identical outputs).

    ``step_virtual_cost`` prices a super-step as the **maximum** of the
    stepped replicas' :class:`~repro.perfmodel.serving.StepCostModel` costs
    (plus ``router_overhead``): parallel replicas advance the wall clock by
    the slowest one.  With one replica and zero overhead this reduces
    exactly to the solo engine's cost — the N=1 report byte-identity the
    smoke harness asserts.

    A dead replica (crashed worker) is detected on the next interaction;
    its in-flight requests restart on surviving replicas via the same
    deterministic restart contract preemption uses, so outputs stay
    bit-exact and ``retries`` counts the re-route.
    """

    def __init__(
        self,
        spec: ReplicaSpec,
        n_replicas: int,
        router: PrefixAffinityRouter | None = None,
        backend: str = "process",
        start_method: str | None = None,
        router_overhead: float = 0.0,
    ):
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if backend not in ("process", "inline"):
            raise ValueError(f"unknown backend {backend!r}")
        if router is not None and router.n_replicas != n_replicas:
            raise ValueError("router.n_replicas must match n_replicas")
        if router_overhead < 0:
            raise ValueError("router_overhead must be non-negative")
        self.spec = spec
        self.n_replicas = n_replicas
        self.backend = backend
        self.router = router or PrefixAffinityRouter(
            n_replicas, page_size=spec.config.page_size
        )
        self.router_overhead = float(router_overhead)
        replica_cls: Callable = _InlineReplica
        ctx = None
        if backend == "process":
            replica_cls = _ProcessReplica
            ctx = mp.get_context(start_method) if start_method else mp.get_context()
        self._replicas = [replica_cls(spec, ctx) for _ in range(n_replicas)]
        #: Live handles by global request id.
        self._handles: dict[int, ShardedRequest] = {}
        #: (replica, local id) -> global id, for delta/retirement dispatch.
        self._local_to_global: dict[tuple[int, int], int] = {}
        #: In-flight (submitted, unfinished) requests per replica.
        self._loads = [0] * n_replicas
        #: Latest cumulative engine counters per replica (frozen at death).
        self._replica_counters = [
            {
                "steps": 0,
                "n_preemptions": 0,
                "n_prefill_chunks": 0,
                "prefill_prompt_tokens": 0,
                "prefill_computed_tokens": 0,
            }
            for _ in range(n_replicas)
        ]
        self._next_id = 0
        #: Front-end super-steps executed (the replay clock).
        self.step_count = 0
        #: (prefill_tokens, decode_rows) per replica stepped last super-step.
        self._last_step_work: list[tuple[int, int]] = []
        #: Work totals of the most recent super-step, summed over replicas.
        self.last_step_prefill_tokens = 0
        self.last_step_decode_rows = 0
        #: Cumulative decode rows across all replicas and steps.
        self.decode_rows_total = 0
        #: Replicas lost to worker death.
        self.n_replica_failures = 0
        self._closed = False

    # ------------------------------------------------------------------
    # submission / routing
    # ------------------------------------------------------------------
    def _alive(self) -> list[int]:
        return [i for i, r in enumerate(self._replicas) if r.alive]

    def submit(
        self,
        prompt_ids,
        config: GenerationConfig | None = None,
        priority: int = 0,
        deadline_steps: int | None = None,
    ) -> ShardedRequest:
        """Route one request to a replica; returns its front-end handle.

        Same contract as the solo engine's ``submit``: the handle may come
        back already finished (``FinishReason.SHED``) when the target
        replica refuses it at admission.
        """
        config = config or GenerationConfig()
        request = Request.from_config(
            self._next_id, prompt_ids, config, priority=int(priority)
        )
        self._next_id += 1
        handle = ShardedRequest(request, config, deadline_steps=deadline_steps)
        self._dispatch(handle)
        return handle

    def _dispatch(self, handle: ShardedRequest) -> None:
        """Route + submit one handle (also the re-route path after death)."""
        target = self.router.route(
            handle.request.prompt_ids, loads=self._loads, alive=self._alive()
        )
        prompt = handle.request.prompt_ids[0].tolist()
        try:
            reply = self._replicas[target].call(
                ("submit", prompt, handle.config, handle.request.priority,
                 handle.deadline_steps)
            )
        except ReplicaDead:
            self._on_replica_death(target)
            self._dispatch(handle)
            return
        handle.replica = target
        handle.local_id = reply["local_id"]
        if reply["finished"] is not None:  # shed at admission
            self._finalize(handle, reply["finished"])
            return
        handle.status = RequestStatus.QUEUED
        self._handles[handle.request_id] = handle
        self._local_to_global[(target, reply["local_id"])] = handle.request_id
        self._loads[target] += 1

    def _finalize(self, handle: ShardedRequest, retired: dict) -> None:
        """Apply a retirement payload to its handle (front-end step stamps)."""
        handle.status = RequestStatus.FINISHED
        handle.tokens = list(retired["tokens"])
        handle.total_logprob = retired["total_logprob"]
        handle.finish_reason = retired["finish_reason"]
        handle.n_steps = retired["n_steps"]
        handle.retries += retired["retries"]
        handle.preemptions = retired["preemptions"]
        handle.error = retired["error"]
        handle.cache_stats = retired["cache_stats"]
        handle.policy_description = retired["policy"]
        handle.speculation = retired["speculation"]
        handle.finished_step = self.step_count
        if handle.first_token_step is None and handle.tokens:
            handle.first_token_step = self.step_count

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self) -> list[ShardedRequest]:
        """Advance every busy replica by one step (one front-end super-step).

        Posts ``step`` to all busy replicas before collecting any reply, so
        process-backend replicas compute concurrently.  Returns the handles
        that finished during this super-step, stamped with the front-end
        step counter.
        """
        self.step_count += 1
        self._last_step_work = []
        self.last_step_prefill_tokens = 0
        self.last_step_decode_rows = 0
        finished: list[ShardedRequest] = []
        targets = [i for i in self._alive() if self._loads[i] > 0]
        posted, dead = [], []
        for i in targets:
            try:
                self._replicas[i].post(("step",))
                posted.append(i)
            except ReplicaDead:
                dead.append(i)
        for i in posted:
            try:
                payload = self._replicas[i].wait()
            except ReplicaDead:
                dead.append(i)
                continue
            self._apply_step_payload(i, payload, finished)
        for i in dead:
            self._on_replica_death(i)
        return finished

    def _apply_step_payload(
        self, replica: int, payload: dict, finished: list[ShardedRequest]
    ) -> None:
        """Fold one replica's step reply into front-end state."""
        for lid in payload["restarted"]:
            gid = self._local_to_global.get((replica, lid))
            if gid is None:
                continue
            handle = self._handles[gid]
            handle.tokens = []
            handle.first_token_step = None
        for lid in sorted(payload["deltas"]):
            gid = self._local_to_global.get((replica, lid))
            if gid is None:
                continue
            handle = self._handles[gid]
            handle.status = RequestStatus.RUNNING
            handle.tokens.extend(payload["deltas"][lid])
            if handle.first_token_step is None:
                handle.first_token_step = self.step_count
        for retired in payload["finished"]:
            gid = self._local_to_global.pop((replica, retired["local_id"]), None)
            if gid is None:
                continue
            handle = self._handles.pop(gid)
            self._finalize(handle, retired)
            self._loads[replica] -= 1
            finished.append(handle)
        self._last_step_work.append(
            (payload["prefill_tokens"], payload["decode_rows"])
        )
        self.last_step_prefill_tokens += payload["prefill_tokens"]
        self.last_step_decode_rows += payload["decode_rows"]
        self.decode_rows_total += payload["decode_rows"]
        self._replica_counters[replica] = payload["counters"]

    def step_virtual_cost(self, cost_model: "StepCostModel") -> float:
        """Virtual-time cost of the last super-step: max over replicas.

        Replicas run in parallel on real hardware, so the clock advances by
        the slowest replica's step cost, plus the fixed ``router_overhead``
        the front-end charges per super-step.
        """
        if not self._last_step_work:
            return self.router_overhead
        return self.router_overhead + max(
            cost_model.step_cost(p, d) for p, d in self._last_step_work
        )

    # ------------------------------------------------------------------
    # replica death
    # ------------------------------------------------------------------
    def kill_replica(self, replica: int) -> None:
        """Chaos hook: hard-kill one replica and re-route its requests."""
        self._replicas[replica].kill()
        self._on_replica_death(replica)

    def _on_replica_death(self, replica: int) -> None:
        """Re-route a dead replica's in-flight requests to the survivors.

        Each victim restarts from scratch on its new replica — the same
        deterministic restart contract preemption relies on, so the rerun's
        tokens and log-probs are bit-identical; ``retries`` counts the
        re-route and the first-token stamp tracks the successful run.
        """
        rep = self._replicas[replica]
        if rep.alive:
            rep.kill()
        self.n_replica_failures += 1
        victims = sorted(
            gid for (r, _lid), gid in self._local_to_global.items() if r == replica
        )
        for gid in victims:
            handle = self._handles[gid]
            self._local_to_global.pop((replica, handle.local_id), None)
        self._loads[replica] = 0
        if not self._alive():
            raise ReplicaDead("all replicas are dead")
        for gid in victims:
            handle = self._handles.pop(gid)
            handle.tokens = []
            handle.first_token_step = None
            handle.status = RequestStatus.QUEUED
            handle.retries += 1
            self._dispatch(handle)

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def abort(self, request_id: int) -> bool:
        """Cancel a request wherever it lives (queued or in flight).

        Mirrors the solo engine: the handle finishes with
        ``FinishReason.ABORTED`` and its partial tokens.  Returns ``False``
        for unknown or already-finished ids.
        """
        handle = self._handles.get(request_id)
        if handle is None or handle.finished:
            return False
        replica, lid = handle.replica, handle.local_id
        try:
            reply = self._replicas[replica].call(("abort", lid))
        except ReplicaDead:
            self._on_replica_death(replica)
            return self.abort(request_id)
        if reply["finished"] is not None:
            self._local_to_global.pop((replica, lid), None)
            self._handles.pop(request_id, None)
            self._loads[replica] -= 1
            self._finalize(handle, reply["finished"])
        return bool(reply["aborted"])

    @property
    def has_work(self) -> bool:
        """True while any live replica holds an in-flight request."""
        return any(self._loads[i] > 0 for i in self._alive())

    @property
    def n_in_flight(self) -> int:
        """Submitted, unfinished requests across all replicas."""
        return sum(self._loads)

    # Aggregate counters: the replay stats snapshot reads these.
    @property
    def n_preemptions(self) -> int:
        """Preemptions summed over replicas."""
        return sum(c["n_preemptions"] for c in self._replica_counters)

    @property
    def n_prefill_chunks(self) -> int:
        """Prefill chunks summed over replicas."""
        return sum(c["n_prefill_chunks"] for c in self._replica_counters)

    @property
    def prefill_prompt_tokens(self) -> int:
        """Prompt tokens submitted for prefill, summed over replicas."""
        return sum(c["prefill_prompt_tokens"] for c in self._replica_counters)

    @property
    def prefill_computed_tokens(self) -> int:
        """Prompt tokens actually computed, summed over replicas."""
        return sum(c["prefill_computed_tokens"] for c in self._replica_counters)

    @property
    def prefill_savings(self) -> float:
        """Aggregate submitted/computed prompt-token ratio (1.0 = no sharing)."""
        computed = self.prefill_computed_tokens
        if computed == 0:
            return 1.0
        return self.prefill_prompt_tokens / computed

    def stats(self) -> dict:
        """One aggregated telemetry view across router and replicas.

        Live replicas are queried for pools/prefix-savings/fault counters;
        dead ones report their last-known cumulative counters with
        ``alive: false``.
        """
        replicas = []
        for i, rep in enumerate(self._replicas):
            if rep.alive:
                try:
                    snap = rep.call(("stats",))
                except ReplicaDead:
                    self._on_replica_death(i)
                    snap = None
            else:
                snap = None
            if snap is None:
                replicas.append(
                    {"alive": False, "counters": dict(self._replica_counters[i])}
                )
            else:
                self._replica_counters[i] = snap["counters"]
                replicas.append({"alive": True, **snap})
        return {
            "n_replicas": self.n_replicas,
            "backend": self.backend,
            "loads": list(self._loads),
            "n_in_flight": self.n_in_flight,
            "n_replica_failures": self.n_replica_failures,
            "steps": self.step_count,
            "prefill_savings": self.prefill_savings,
            "prefill_prompt_tokens": self.prefill_prompt_tokens,
            "prefill_computed_tokens": self.prefill_computed_tokens,
            "n_preemptions": self.n_preemptions,
            "n_prefill_chunks": self.n_prefill_chunks,
            "router": self.router.telemetry(),
            "replicas": replicas,
        }

    def drain(self) -> list[ShardedRequest]:
        """Step until every in-flight request finished; returns them all."""
        finished: list[ShardedRequest] = []
        while self.has_work:
            finished.extend(self.step())
        return finished

    def shutdown(self) -> None:
        """Gracefully stop every replica worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for rep in self._replicas:
            rep.shutdown()

    def __enter__(self) -> "ShardedEngine":
        """Context-manager entry (workers already started)."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: shut every worker down."""
        self.shutdown()

    def __del__(self):  # noqa: D105 — best-effort cleanup
        try:
            self.shutdown()
        except Exception:
            pass
