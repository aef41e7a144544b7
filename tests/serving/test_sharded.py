"""Sharded serving: router contracts, bit-exactness, death, abort, replay.

The sharded front-end's headline guarantee mirrors the solo engine's: for
every request the tokens, float64 log-probabilities and finish reason are
identical to what one solo engine produces, no matter how requests are
spread over replicas, which backend carries them, or whether a replica dies
mid-flight.  These tests pin that guarantee across all four policy
families, plus the routing layer's own contracts — process-stable digests,
deterministic rendezvous ownership, fallback on death, spill on overload —
and the N=1 reduction where the sharded replay report must be
byte-identical to the single-engine report.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.kvcache import chunk_digest
from repro.models.config import GenerationConfig, ModelConfig
from repro.models.transformer import DecoderLM
from repro.serving import ContinuousBatchingEngine, EngineConfig, FinishReason
from repro.serving.sharded import (
    PrefixAffinityRouter,
    ReplicaDead,
    ReplicaSpec,
    ShardedEngine,
)
from repro.serving.workload import WorkloadConfig, generate_trace, replay_trace
from repro.perfmodel.serving import StepCostModel
from repro.speculative import SpeculationConfig

VOCAB = 96
PAGE = 16

_MODEL_CONFIG = ModelConfig(
    vocab_size=VOCAB,
    d_model=32,
    n_layers=2,
    n_heads=4,
    d_ff=64,
    max_seq_len=256,
    positional="rope",
)

_RNG = np.random.default_rng(11)
#: Mixed prompts: two shared 2-page prefixes (3 requests each), one
#: sub-page prompt (no routable chunk), assorted singletons.
_PREFIX_A = _RNG.integers(0, VOCAB, size=2 * PAGE).astype(np.int64)
_PREFIX_B = _RNG.integers(0, VOCAB, size=2 * PAGE).astype(np.int64)
_PROMPTS = [
    np.concatenate([_PREFIX_A, _RNG.integers(0, VOCAB, size=n).astype(np.int64)])
    for n in (5, 9, 13)
]
_PROMPTS += [
    np.concatenate([_PREFIX_B, _RNG.integers(0, VOCAB, size=n).astype(np.int64)])
    for n in (4, 11, 7)
]
_PROMPTS += [
    _RNG.integers(0, VOCAB, size=7).astype(np.int64),  # sub-page: no chunk
    _RNG.integers(0, VOCAB, size=37).astype(np.int64),
    _RNG.integers(0, VOCAB, size=52).astype(np.int64),
]
_CONFIG = GenerationConfig(max_new_tokens=8)

_POLICIES = {
    "full": {},
    "window": {"kv_fraction": 0.5},
    "h2o": {"kv_fraction": 0.5, "recent_ratio": 0.5},
    "keyformer": {"kv_fraction": 0.5},
}


def _spec(policy="full", **overrides):
    kwargs = dict(
        model_config=_MODEL_CONFIG,
        model_seed=0,
        policy=policy,
        policy_kwargs=_POLICIES[policy],
        max_batch_size=4,
        page_size=PAGE,
    )
    kwargs.update(overrides)
    return ReplicaSpec(**kwargs)


def _solo_results(policy="full", prompts=_PROMPTS):
    """Reference outputs: every prompt through one solo batched engine."""
    engine = _spec(policy).build_engine()
    states = [engine.submit(p, _CONFIG) for p in prompts]
    while engine.has_work:
        engine.step()
    return states


def _assert_results_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert list(g.tokens) == list(w.tokens)
        assert g.total_logprob == w.total_logprob  # exact float64 equality
        assert g.finish_reason == w.finish_reason
        assert g.result().sequences == w.result().sequences
        assert g.result().log_probs == w.result().log_probs


# ----------------------------------------------------------------------
# digest stability
# ----------------------------------------------------------------------
def test_chunk_digest_stable_across_processes_and_hashseed():
    """The routing digest must not depend on the process or PYTHONHASHSEED."""
    tokens = list(range(PAGE))
    parent = chunk_digest(tokens)
    chained = chunk_digest(tokens[::-1], parent)
    script = (
        "from repro.kvcache import chunk_digest;"
        f"p = chunk_digest({tokens!r});"
        f"print(p.hex(), chunk_digest({tokens[::-1]!r}, p).hex())"
    )
    for hashseed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.split()
        assert out == [parent.hex(), chained.hex()]


def test_chunk_digest_is_chained_and_type_insensitive():
    tokens = _RNG.integers(0, VOCAB, size=PAGE)
    assert chunk_digest(tokens) == chunk_digest(list(int(t) for t in tokens))
    assert chunk_digest(tokens, chunk_digest(tokens)) != chunk_digest(tokens)


# ----------------------------------------------------------------------
# router contracts
# ----------------------------------------------------------------------
def test_router_deterministic_and_affine():
    router = PrefixAffinityRouter(4, page_size=PAGE)
    loads = [0, 0, 0, 0]
    first = router.route(_PROMPTS[0], loads)
    # Same leading chunk -> same replica, independent of suffix and loads.
    for p in _PROMPTS[1:3]:
        assert router.route(p, [5, 5, 5, 5]) == first
    fresh = PrefixAffinityRouter(4, page_size=PAGE)
    assert fresh.route(_PROMPTS[0], loads) == first
    assert router.n_affinity == 3


def test_router_spreads_distinct_prefixes():
    """Rendezvous hashing should not pile distinct keys onto one replica."""
    router = PrefixAffinityRouter(4, page_size=PAGE)
    rng = np.random.default_rng(3)
    owners = {
        router.route(rng.integers(0, VOCAB, size=PAGE), [0, 0, 0, 0])
        for _ in range(64)
    }
    assert owners == {0, 1, 2, 3}


def test_router_death_fallback_is_minimal():
    """Killing one replica moves only its keys; survivors keep theirs."""
    router = PrefixAffinityRouter(4, page_size=PAGE)
    rng = np.random.default_rng(5)
    prompts = [rng.integers(0, VOCAB, size=PAGE) for _ in range(48)]
    loads = [0, 0, 0, 0]
    before = [router.route(p, loads) for p in prompts]
    dead = before[0]
    alive = [i for i in range(4) if i != dead]
    after = [router.route(p, loads, alive=alive) for p in prompts]
    for b, a in zip(before, after):
        if b == dead:
            assert a != dead
        else:
            assert a == b


def test_router_short_and_empty_prompts_fall_back_to_least_loaded():
    router = PrefixAffinityRouter(3, page_size=PAGE)
    assert router.route(np.arange(PAGE - 1), [2, 0, 1]) == 1
    assert router.route([], [2, 0, 1]) == 1
    assert router.route([], [0, 0, 0]) == 0  # index tie-break
    assert router.n_no_prefix == 3
    assert router.n_affinity == 0


def test_router_spill_on_overload():
    router = PrefixAffinityRouter(2, page_size=PAGE, spill_load=2)
    prompt = _PROMPTS[0]
    target = router.route(prompt, [0, 0])
    other = 1 - target
    loads = [0, 0]
    loads[target] = 2  # at the spill threshold
    assert router.route(prompt, loads) == other
    assert router.n_spilled == 1
    # Below threshold affinity still wins even when the other is idle.
    loads[target] = 1
    assert router.route(prompt, loads) == target


def test_router_no_live_replicas_raises():
    router = PrefixAffinityRouter(2, page_size=PAGE)
    with pytest.raises(ReplicaDead):
        router.route(_PROMPTS[0], [0, 0], alive=[])


def test_router_validation():
    with pytest.raises(ValueError):
        PrefixAffinityRouter(0)
    with pytest.raises(ValueError):
        PrefixAffinityRouter(2, route_chunks=0)
    with pytest.raises(ValueError):
        PrefixAffinityRouter(2, spill_load=0)


# ----------------------------------------------------------------------
# bit-exactness vs the solo engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", list(_POLICIES))
def test_sharded_matches_solo_engine_all_policies(policy):
    """N=3 inline sharding reproduces the solo engine's outputs exactly."""
    want = _solo_results(policy)
    with ShardedEngine(_spec(policy), 3, backend="inline") as eng:
        handles = [eng.submit(p, _CONFIG) for p in _PROMPTS]
        eng.drain()
        _assert_results_equal(handles, want)
        stats = eng.stats()
    assert stats["n_replica_failures"] == 0
    assert sum(stats["router"]["per_replica"]) == len(_PROMPTS)
    assert all(r["alive"] for r in stats["replicas"])


def test_sharded_process_backend_matches_inline():
    """The multiprocessing transport changes nothing about the outputs."""
    prompts = _PROMPTS[:5]
    with ShardedEngine(_spec(), 2, backend="inline") as eng:
        want = [eng.submit(p, _CONFIG) for p in prompts]
        eng.drain()
        inline_routes = [h.replica for h in want]
    with ShardedEngine(_spec(), 2, backend="process") as eng:
        handles = [eng.submit(p, _CONFIG) for p in prompts]
        eng.drain()
        _assert_results_equal(handles, want)
        assert [h.replica for h in handles] == inline_routes


# ----------------------------------------------------------------------
# a replica is configurable exactly like the engine it wraps
# ----------------------------------------------------------------------
def _tight_tier0_budget(frames=3):
    """A tier-0 byte budget funding ``frames`` frames per layer pool."""
    return frames * EngineConfig(page_size=PAGE).tier0_frame_bytes(_MODEL_CONFIG)


@pytest.mark.parametrize(
    "knobs",
    [
        lambda: dict(tier0_budget=_tight_tier0_budget(), spill_backend="mmap"),
        lambda: dict(speculation=SpeculationConfig(k=3)),
    ],
    ids=["tier0_budget", "speculation"],
)
def test_n1_sharded_with_engine_only_knobs_matches_single_engine(knobs):
    """``tier0_budget`` / ``speculation`` reach the replica's engine (the
    hand-copied spec fields used to drop them) and N=1 sharded serving
    reproduces the directly built engine bit for bit."""
    spec = _spec(**knobs())
    assert spec.build_engine().config == spec.config
    solo = ContinuousBatchingEngine(
        DecoderLM(_MODEL_CONFIG, seed=0), config=spec.config
    )
    want = [solo.submit(p, _CONFIG) for p in _PROMPTS]
    solo.run()
    with ShardedEngine(spec, 1, backend="inline") as eng:
        handles = [eng.submit(p, _CONFIG) for p in _PROMPTS]
        eng.drain()
        _assert_results_equal(handles, want)
    if spec.config.tier0_budget is not None:
        tier = solo.pool_usage()["tier"]
        assert tier["tier0_frames"] == 3 and tier["spills"] > 0
    else:
        assert solo.speculation_stats.rounds > 0


def test_spec_config_survives_the_process_boundary():
    """The spec (model recipe + frozen ``EngineConfig``) pickles round-trip,
    and process-backed replicas built from it serve like inline ones."""
    spec = _spec(
        tier0_budget=_tight_tier0_budget(),
        speculation=SpeculationConfig(k=2),
        max_retries=2,
        shed_queue_depth=64,
    )
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec and clone.config == spec.config
    prompts = _PROMPTS[:4]
    with ShardedEngine(spec, 1, backend="inline") as eng:
        want = [eng.submit(p, _CONFIG) for p in prompts]
        eng.drain()
    with ShardedEngine(spec, 1, backend="process") as eng:
        handles = [eng.submit(p, _CONFIG) for p in prompts]
        eng.drain()
        _assert_results_equal(handles, want)


# ----------------------------------------------------------------------
# replica death
# ----------------------------------------------------------------------
def test_replica_death_reroutes_and_stays_bit_exact():
    want = _solo_results()
    with ShardedEngine(_spec(), 3, backend="inline") as eng:
        handles = [eng.submit(p, _CONFIG) for p in _PROMPTS]
        for _ in range(3):
            eng.step()
        victim = next(h.replica for h in handles if not h.finished)
        n_victims = sum(
            1 for h in handles if not h.finished and h.replica == victim
        )
        assert n_victims > 0
        eng.kill_replica(victim)
        eng.drain()
        _assert_results_equal(handles, want)
        # Victims restarted elsewhere, counted as retries, and every
        # finish reason survived the re-route.
        assert sum(h.retries for h in handles) >= n_victims
        assert all(h.replica != victim for h in handles if h.retries)
        stats = eng.stats()
    assert stats["n_replica_failures"] == 1
    assert stats["replicas"][victim]["alive"] is False
    assert {h.finish_reason for h in handles} <= {
        FinishReason.LENGTH,
        FinishReason.EOS,
    }


def test_all_replicas_dead_raises():
    with ShardedEngine(_spec(), 2, backend="inline") as eng:
        eng.submit(_PROMPTS[0], _CONFIG)
        eng.kill_replica(0)
        with pytest.raises(ReplicaDead):
            eng.kill_replica(1)


# ----------------------------------------------------------------------
# abort
# ----------------------------------------------------------------------
def test_abort_queued_and_in_flight():
    spec = _spec(max_batch_size=1)  # force a queue behind a long request
    long_cfg = GenerationConfig(max_new_tokens=32)
    with ShardedEngine(spec, 1, backend="inline") as eng:
        running = eng.submit(_PROMPTS[0], long_cfg)
        queued = eng.submit(_PROMPTS[1], long_cfg)
        for _ in range(4):
            eng.step()
        assert not running.finished and not queued.finished
        # Queued victim: never scheduled, aborts with no tokens.
        assert eng.abort(queued.request_id)
        assert queued.finished
        assert queued.finish_reason is FinishReason.ABORTED
        assert queued.tokens == []
        # In-flight victim: keeps the tokens it already produced.
        assert eng.abort(running.request_id)
        assert running.finish_reason is FinishReason.ABORTED
        assert len(running.tokens) > 0
        # Unknown / already-finished ids are a no-op.
        assert not eng.abort(running.request_id)
        assert not eng.abort(10_000)
        assert not eng.has_work


# ----------------------------------------------------------------------
# trace-level determinism and the N=1 reduction
# ----------------------------------------------------------------------
_TRACE_CONFIG = WorkloadConfig(
    n_requests=12,
    vocab_size=VOCAB,
    mean_interarrival=2.0,
    n_prefixes=2,
    prefix_share_prob=0.7,
    prefix_len_pages=1,
    suffix_len_range=(2, 8),
    prompt_len_range=(4, 24),
    output_len_choices=(4,),
    output_len_weights=(1.0,),
)


def test_routing_deterministic_given_trace_seed_n():
    trace = generate_trace(_TRACE_CONFIG, seed=9)
    assert trace == generate_trace(_TRACE_CONFIG, seed=9)

    def assignment():
        router = PrefixAffinityRouter(4, page_size=PAGE)
        return [
            router.route(np.asarray(e.prompt_ids), [0, 0, 0, 0])
            for e in trace.events
        ]

    assert assignment() == assignment()


def test_sharded_n1_replay_report_byte_identical_to_solo():
    """With one replica and zero overhead the front-end is transparent."""
    trace = generate_trace(_TRACE_CONFIG, seed=9)
    cost = StepCostModel()
    solo = replay_trace(_spec().build_engine(), trace, cost)
    with ShardedEngine(_spec(), 1, backend="inline") as eng:
        sharded = replay_trace(eng, trace, cost)
    assert json.dumps(sharded.report.to_dict(), sort_keys=True) == json.dumps(
        solo.report.to_dict(), sort_keys=True
    )
    assert sharded.makespan == solo.makespan
    assert sharded.engine_stats == solo.engine_stats


def test_replay_makespan_shrinks_with_replicas():
    """The same shared-prefix trace replays through 1, 2 and 4 replicas
    (inline backend, spill-balanced router) in virtual step-time: the
    makespan falls monotonically and four replicas are at least 2x one."""
    trace = generate_trace(
        WorkloadConfig(
            n_requests=32,
            vocab_size=64,
            mean_interarrival=0.3,
            n_prefixes=4,
            prefix_share_prob=0.8,
            prefix_len_pages=2,
            suffix_len_range=(4, 12),
            prompt_len_range=(8, 40),
            output_len_choices=(12,),
            output_len_weights=(1.0,),
        ),
        seed=5,
    )
    spec = ReplicaSpec(
        model_config=ModelConfig(
            vocab_size=64,
            d_model=32,
            n_layers=2,
            n_heads=4,
            d_ff=64,
            max_seq_len=256,
            positional="rope",
        ),
        max_batch_size=4,
    )
    makespan = {}
    for n in (1, 2, 4):
        router = PrefixAffinityRouter(n, spill_load=4)
        with ShardedEngine(spec, n, router=router, backend="inline") as eng:
            makespan[n] = replay_trace(eng, trace, StepCostModel()).makespan
    assert makespan[1] > makespan[2] > makespan[4]
    assert makespan[1] / makespan[4] >= 2.0
