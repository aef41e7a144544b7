"""Continuous-batching serving: request model, schedulers, batched engine.

Requests decode together over the paged KV store with prefix sharing and
memory-aware (page-granular) admission; see ``docs/serving.md`` for the
request lifecycle, scheduler budgets, preemption and the batching
bit-exactness invariants, ``docs/robustness.md`` for the fault-tolerance
layer (fault injection, row quarantine, deadlines/retries, pool auditing),
``docs/workloads.md`` for the trace-driven load harness, SLO tiers and
latency-percentile telemetry, ``docs/sharding.md`` for multi-replica
sharded serving behind the prefix-affinity router, and ``docs/kvcache.md``
for the storage layer.
"""

from repro.serving.engine import BatchedGenerator, ContinuousBatchingEngine, EngineConfig
from repro.serving.faults import (
    EngineWatchdog,
    FaultInjector,
    InjectedFault,
    LivelockError,
)
from repro.serving.request import FinishReason, Request, RequestState, RequestStatus
from repro.serving.scheduler import FCFSScheduler, PagedScheduler
from repro.serving.sharded import (
    PrefixAffinityRouter,
    ReplicaDead,
    ReplicaSpec,
    ShardedEngine,
    ShardedRequest,
)
from repro.serving.slo import (
    TIER_BATCH,
    TIER_INTERACTIVE,
    TIER_STANDARD,
    LatencyRecord,
    LatencyReport,
    PriorityScheduler,
    SLOSpec,
    SLOTarget,
)
from repro.serving.workload import (
    ReplayResult,
    Trace,
    TraceEvent,
    WorkloadConfig,
    generate_trace,
    replay_trace,
)

__all__ = [
    "BatchedGenerator",
    "ContinuousBatchingEngine",
    "EngineConfig",
    "EngineWatchdog",
    "FCFSScheduler",
    "FaultInjector",
    "FinishReason",
    "InjectedFault",
    "LatencyRecord",
    "LatencyReport",
    "LivelockError",
    "PagedScheduler",
    "PrefixAffinityRouter",
    "PriorityScheduler",
    "ReplayResult",
    "ReplicaDead",
    "ReplicaSpec",
    "Request",
    "RequestState",
    "RequestStatus",
    "SLOSpec",
    "ShardedEngine",
    "ShardedRequest",
    "SLOTarget",
    "TIER_BATCH",
    "TIER_INTERACTIVE",
    "TIER_STANDARD",
    "Trace",
    "TraceEvent",
    "WorkloadConfig",
    "generate_trace",
    "replay_trace",
]
