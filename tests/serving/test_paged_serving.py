"""Serving tests for the paged engine: prefix sharing, memory-aware admission,
preemption and abort — all under the engine's bit-exactness invariant."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import CachePolicyConfig, KeyformerConfig
from repro.core.keyformer import KeyformerPolicy
from repro.core.policies import FullAttentionPolicy, H2OPolicy, WindowAttentionPolicy
from repro.generation.generator import Generator
from repro.generation.sampler import GreedySampler, Sampler
from repro.kvcache.batch import BatchedCacheManager
from repro.kvcache.paged import PoolExhausted
from repro.models.config import GenerationConfig, ModelConfig
from repro.models.transformer import DecoderLM
from repro.serving.engine import BatchedGenerator, ContinuousBatchingEngine, EngineConfig
from repro.serving.request import FinishReason, Request, RequestStatus
from repro.serving.scheduler import PagedScheduler
from repro.serving.sharded import ReplicaSpec
from repro.speculative import SpeculationConfig

VOCAB = 96


def make_model(**overrides) -> DecoderLM:
    config = dict(
        vocab_size=VOCAB,
        d_model=32,
        n_layers=2,
        n_heads=4,
        d_ff=64,
        max_seq_len=512,
        positional="rope",
    )
    config.update(overrides)
    return DecoderLM(ModelConfig(**config), seed=0)


def window_factory():
    return WindowAttentionPolicy(CachePolicyConfig(kv_budget=48))


def shared_prompts(rng, n=4, prefix_len=80, suffix_len=12):
    prefix = rng.integers(0, VOCAB, size=prefix_len)
    return [
        np.concatenate([prefix, rng.integers(0, VOCAB, size=suffix_len)]).astype(
            np.int64
        )
        for _ in range(n)
    ]


def solo(model, factory, prompt, config):
    return Generator(model, factory()).generate(prompt, config, sampler=GreedySampler())


class TestPrefixSharing:
    @pytest.mark.parametrize("positional", ["rope", "alibi", "learned"])
    def test_shared_prefix_outputs_bit_identical(self, positional):
        model = make_model(positional=positional)
        rng = np.random.default_rng(1)
        prompts = shared_prompts(rng)
        config = GenerationConfig(max_new_tokens=8)
        engine = ContinuousBatchingEngine(
            model, policy_factory=window_factory, max_batch_size=4
        )
        states = [engine.submit(p, config, sampler=GreedySampler()) for p in prompts]
        engine.run()
        for state, prompt in zip(states, prompts):
            reference = solo(model, window_factory, prompt, config)
            assert state.tokens == reference.sequences[0]
            assert state.result().log_probs == reference.log_probs
            assert (
                state.cache_stats.lengths_per_step
                == reference.cache_stats.lengths_per_step
            )
        # The 80-token common prefix (5 pages) was mapped, not recomputed.
        assert engine.prefill_savings > 2.0
        assert engine.prefill_computed_tokens < engine.prefill_prompt_tokens

    def test_sequential_requests_share_after_retirement(self):
        """Registered prefixes outlive the request that seeded them."""
        model = make_model()
        rng = np.random.default_rng(2)
        prompts = shared_prompts(rng, n=2)
        config = GenerationConfig(max_new_tokens=4)
        engine = ContinuousBatchingEngine(
            model, policy_factory=window_factory, max_batch_size=1
        )
        first = engine.submit(prompts[0], config, sampler=GreedySampler())
        engine.run()
        second = engine.submit(prompts[1], config, sampler=GreedySampler())
        engine.run()
        assert engine.prefill_computed_tokens < engine.prefill_prompt_tokens
        for state, prompt in zip((first, second), prompts):
            assert state.tokens == solo(model, window_factory, prompt, config).sequences[0]

    def test_identical_prompts_map_same_pages(self):
        model = make_model()
        rng = np.random.default_rng(3)
        prompt = rng.integers(0, VOCAB, size=64).astype(np.int64)
        config = GenerationConfig(max_new_tokens=4)
        engine = ContinuousBatchingEngine(
            model, policy_factory=FullAttentionPolicy, max_batch_size=2
        )
        states = [engine.submit(prompt, config, sampler=GreedySampler()) for _ in range(2)]
        engine.step()
        usage = engine.pool_usage()
        assert usage["pages_shared"] > 0
        engine.run()
        assert states[0].tokens == states[1].tokens

    def test_score_policies_bypass_sharing(self):
        """Keyformer consumes prompt attention, so its requests must prefill
        fully even when a matching prefix is resident — and stay bit-exact."""
        model = make_model()
        rng = np.random.default_rng(4)
        prompts = shared_prompts(rng, n=2)
        config = GenerationConfig(max_new_tokens=6)

        def factory():
            return KeyformerPolicy(KeyformerConfig(kv_fraction=0.5))

        engine = ContinuousBatchingEngine(model, policy_factory=factory, max_batch_size=2)
        states = [engine.submit(p, config, sampler=GreedySampler()) for p in prompts]
        engine.run()
        assert engine.prefill_computed_tokens == engine.prefill_prompt_tokens
        for state, prompt in zip(states, prompts):
            assert state.tokens == solo(model, factory, prompt, config).sequences[0]

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: KeyformerPolicy(KeyformerConfig(kv_fraction=0.5)),
            lambda: H2OPolicy(CachePolicyConfig(kv_fraction=0.5, recent_ratio=0.5)),
        ],
        ids=["keyformer", "h2o"],
    )
    def test_score_policies_pin_nothing(self, factory):
        """A prompt-attention row registers no prefix: after every step the
        pool holds exactly the pages of the live rows' tables."""
        model = make_model()
        rng = np.random.default_rng(6)
        prompts = shared_prompts(rng, n=4) + shared_prompts(rng, n=2, prefix_len=64)
        config = GenerationConfig(max_new_tokens=6)
        engine = ContinuousBatchingEngine(model, policy_factory=factory, max_batch_size=2)
        for p in prompts:
            engine.submit(p, config, sampler=GreedySampler())
        while engine.has_work:
            engine.step()
            usage = engine.pool_usage()
            manager = engine._manager
            held = sum(
                len(table.pages)
                for cache in manager.caches
                for table in cache.tables[: manager.n_active]
            )
            assert usage["registry_chunks"] == 0
            assert usage["pages_used"] == held
        assert engine.pool_usage()["pages_used"] == 0

    def test_full_request_recomputes_a_keyformer_prompt(self):
        """In a mixed engine a full-attention request cannot map the prompt
        of a Keyformer request that ran before it: nothing was registered."""
        model = make_model()
        rng = np.random.default_rng(7)
        prompt = rng.integers(0, VOCAB, size=96).astype(np.int64)  # 6 whole pages
        config = GenerationConfig(max_new_tokens=6)
        engine = ContinuousBatchingEngine(
            model,
            policy_factory=lambda: KeyformerPolicy(KeyformerConfig(kv_fraction=0.5)),
            max_batch_size=2,
        )
        engine.submit(prompt, config, sampler=GreedySampler())
        engine.run()
        full = engine.submit(
            prompt, config, sampler=GreedySampler(), policy=FullAttentionPolicy()
        )
        engine.run()
        assert engine.prefill_computed_tokens == engine.prefill_prompt_tokens
        reference = solo(model, FullAttentionPolicy, prompt, config)
        assert full.tokens == reference.sequences[0]
        assert full.result().log_probs == reference.log_probs

    def test_sharing_disabled_flag(self):
        model = make_model()
        rng = np.random.default_rng(5)
        prompts = shared_prompts(rng, n=2)
        config = GenerationConfig(max_new_tokens=4)
        engine = ContinuousBatchingEngine(
            model,
            policy_factory=window_factory,
            max_batch_size=2,
            enable_prefix_sharing=False,
        )
        for p in prompts:
            engine.submit(p, config, sampler=GreedySampler())
        engine.run()
        assert engine.prefill_savings == 1.0


class TestPreemption:
    def test_pool_pressure_preempts_and_stays_bit_exact(self):
        model = make_model()
        rng = np.random.default_rng(6)
        prompts = [rng.integers(0, VOCAB, size=n).astype(np.int64) for n in (60, 55, 70, 50)]
        config = GenerationConfig(max_new_tokens=24)
        engine = ContinuousBatchingEngine(
            model,
            policy_factory=FullAttentionPolicy,
            max_batch_size=4,
            max_pool_tokens=256,
            enable_prefix_sharing=False,
        )
        states = [engine.submit(p, config, sampler=GreedySampler()) for p in prompts]
        engine.run()
        assert engine.n_preemptions > 0
        for state, prompt in zip(states, prompts):
            reference = solo(model, FullAttentionPolicy, prompt, config)
            assert state.tokens == reference.sequences[0]
            assert state.result().log_probs == reference.log_probs

    def _preempting_engine(self, model):
        return ContinuousBatchingEngine(
            model,
            policy_factory=FullAttentionPolicy,
            max_batch_size=4,
            max_pool_tokens=256,
            enable_prefix_sharing=False,
        )

    def _prompts(self):
        rng = np.random.default_rng(6)
        return [rng.integers(0, VOCAB, size=n).astype(np.int64) for n in (60, 55, 70, 50)]

    def test_default_sampler_is_greedy_and_survives_preemption(self):
        """Without a sampler a request decodes greedily, and a preempted
        request restarts with the very same (stateless) sampler object."""
        model = make_model()
        prompts = self._prompts()
        config = GenerationConfig(max_new_tokens=24)
        engine = self._preempting_engine(model)
        states = [engine.submit(p, config) for p in prompts]
        samplers = [state.sampler for state in states]
        assert all(type(sampler) is GreedySampler for sampler in samplers)
        engine.run()
        assert any(state.preemptions for state in states)
        assert all(state.sampler is sampler for state, sampler in zip(states, samplers))
        for state, prompt in zip(states, prompts):
            reference = solo(model, FullAttentionPolicy, prompt, config)
            assert state.tokens == reference.sequences[0]
            assert state.result().log_probs == reference.log_probs

    def test_caller_sampler_decides_every_row_across_preemption(self):
        """A caller's own stateless sampler picks that row's tokens, restarts
        included: the output is what ``Generator`` samples with it alone."""

        class Lowest(Sampler):
            def __call__(self, logits):
                return np.argmin(np.atleast_2d(logits), axis=-1).astype(np.int64)

        model = make_model()
        prompts = self._prompts()
        config = GenerationConfig(max_new_tokens=24)
        engine = self._preempting_engine(model)
        states = [engine.submit(p, config, sampler=Lowest()) for p in prompts]
        engine.run()
        assert any(state.preemptions for state in states)
        for state, prompt in zip(states, prompts):
            want = Generator(model, FullAttentionPolicy()).generate(
                prompt, config, sampler=Lowest()
            )
            assert state.tokens == want.sequences[0]
            assert state.result().log_probs == want.log_probs

    def test_preemption_preserves_fcfs_completion_order(self):
        """Older requests are never the victim: with equal budgets they finish
        no later than the requests admitted after them."""
        model = make_model()
        rng = np.random.default_rng(7)
        prompts = [rng.integers(0, VOCAB, size=48).astype(np.int64) for _ in range(4)]
        config = GenerationConfig(max_new_tokens=40)
        engine = ContinuousBatchingEngine(
            model,
            policy_factory=FullAttentionPolicy,
            max_batch_size=4,
            max_pool_tokens=144,
            enable_prefix_sharing=False,
        )
        states = [engine.submit(p, config, sampler=GreedySampler()) for p in prompts]
        finished = engine.run()
        assert engine.n_preemptions > 0
        finish_order = [s.request_id for s in finished]
        assert finish_order == sorted(finish_order)
        for state, prompt in zip(states, prompts):
            assert state.tokens == solo(model, FullAttentionPolicy, prompt, config).sequences[0]

    def test_oversized_request_rejected_at_submit(self):
        """A request whose worst case can never fit the fixed pool would
        exhaust it mid-decode with nothing to preempt — reject it up front."""
        model = make_model()
        rng = np.random.default_rng(8)
        engine = ContinuousBatchingEngine(
            model,
            policy_factory=FullAttentionPolicy,
            max_batch_size=2,
            max_pool_tokens=64,
        )
        with pytest.raises(ValueError, match="fixed pool"):
            engine.submit(
                rng.integers(0, VOCAB, size=200).astype(np.int64),
                GenerationConfig(max_new_tokens=4),
            )

    def test_watermark_blocked_request_raises_instead_of_spinning(self):
        """Fits the pool in the worst case, but never clears the admission
        watermark: the engine must raise, not spin forever."""
        model = make_model(max_seq_len=1024)
        rng = np.random.default_rng(8)
        engine = ContinuousBatchingEngine(
            model,
            policy_factory=FullAttentionPolicy,
            max_batch_size=2,
            max_pool_tokens=640,  # 40 pages; watermark headroom = 4 pages
        )
        engine.submit(
            rng.integers(0, VOCAB, size=600).astype(np.int64),
            GenerationConfig(max_new_tokens=8),
        )
        with pytest.raises(PoolExhausted, match="cannot be admitted"):
            engine.run()


class TestAbort:
    def _engine_and_states(self, max_batch=2):
        model = make_model()
        rng = np.random.default_rng(9)
        prompts = [rng.integers(0, VOCAB, size=n).astype(np.int64) for n in (40, 35, 45, 30)]
        engine = ContinuousBatchingEngine(
            model, policy_factory=FullAttentionPolicy, max_batch_size=max_batch
        )
        config = GenerationConfig(max_new_tokens=12)
        states = [engine.submit(p, config, sampler=GreedySampler()) for p in prompts]
        return model, engine, states, prompts, config

    def test_abort_queued_request(self):
        _, engine, states, _, _ = self._engine_and_states()
        engine.step()  # admits the first two; 2 and 3 stay queued
        assert engine.abort(states[3].request_id)
        assert states[3].status is RequestStatus.FINISHED
        assert states[3].finish_reason is FinishReason.ABORTED
        assert states[3].tokens == []
        assert engine.n_queued == 1
        engine.run()
        assert all(s.finished for s in states)

    def test_abort_running_request_frees_pages(self):
        _, engine, states, _, _ = self._engine_and_states()
        engine.step()
        used_before = engine.pool_usage()["pages_used"]
        assert engine.abort(states[0].request_id)
        assert states[0].finish_reason is FinishReason.ABORTED
        assert engine.pool_usage()["pages_used"] < used_before
        engine.run()

    def test_abort_unknown_or_finished_returns_false(self):
        _, engine, states, _, _ = self._engine_and_states()
        engine.run()
        assert not engine.abort(states[0].request_id)
        assert not engine.abort(999)

    def test_abort_does_not_disturb_survivors(self):
        model, engine, states, prompts, config = self._engine_and_states()
        engine.step()
        engine.abort(states[0].request_id)
        engine.run()
        for idx in (1, 2, 3):
            reference = solo(model, FullAttentionPolicy, prompts[idx], config)
            assert states[idx].tokens == reference.sequences[0]

    def test_scheduler_cancel_removes_from_queue(self):
        scheduler = PagedScheduler(max_batch_size=2)
        _, engine, states, _, _ = self._engine_and_states()
        for state in states:
            scheduler.submit(state)
        assert scheduler.cancel(states[1].request_id) is states[1]
        assert scheduler.cancel(123) is None
        assert [s.request_id for s in scheduler.pending] == [0, 2, 3]


class TestPagedScheduler:
    def test_admits_against_free_pages_not_token_budget(self):
        """Window-policy requests only occupy their budget, so paged admission
        packs more concurrent requests than worst-case token accounting."""
        model = make_model()
        rng = np.random.default_rng(10)
        prompts = [rng.integers(0, VOCAB, size=64).astype(np.int64) for _ in range(3)]
        config = GenerationConfig(max_new_tokens=8)
        engine = ContinuousBatchingEngine(
            model,
            policy_factory=window_factory,
            max_batch_size=3,
            max_pool_tokens=320,
            enable_prefix_sharing=False,
        )
        states = [engine.submit(p, config, sampler=GreedySampler()) for p in prompts]
        engine.step()
        # Worst-case accounting (3 × 72 = 216 tokens = 15 pages + watermark)
        # would block the third request in a 20-page pool; memory-aware
        # admission runs all three because evicted prompt pages come back.
        assert engine.n_running == 3
        engine.run()
        for state, prompt in zip(states, prompts):
            assert state.tokens == solo(model, window_factory, prompt, config).sequences[0]

    def test_watermark_validation(self):
        with pytest.raises(ValueError, match="watermark"):
            PagedScheduler(max_batch_size=2, watermark=1.5)


# ----------------------------------------------------------------------
# the single knob declaration: EngineConfig behind every front-end
# ----------------------------------------------------------------------
_KNOB_MODEL = make_model()

#: The three keyword front-ends of one ``EngineConfig`` — each returns the
#: config it ended up with.
FRONT_ENDS = {
    "engine": lambda **knobs: ContinuousBatchingEngine(_KNOB_MODEL, **knobs).config,
    "generator": lambda **knobs: BatchedGenerator(_KNOB_MODEL, **knobs).config,
    "replica_spec": lambda **knobs: ReplicaSpec(_KNOB_MODEL.config, **knobs).config,
}

#: A non-default value for every ``EngineConfig`` field.
NON_DEFAULT_KNOBS = dict(
    page_size=8,
    max_pool_tokens=4096,
    kv_dtype="int8",
    admission_policy="wtinylfu",
    tier0_budget=1_000_000,
    spill_backend="mmap",
    positional_mode="original",
    max_batch_size=3,
    max_total_tokens=2048,
    prefill_chunk_tokens=32,
    enable_prefix_sharing=False,
    speculation=SpeculationConfig(k=2),
    fault_tolerant=True,
    max_retries=2,
    retry_backoff_steps=1,
    deadline_steps=500,
)

#: (knobs, message) — every combination the one ``__post_init__`` rejects.
INVALID_KNOBS = [
    (dict(max_pool_tokens=64, max_pool_bytes=1 << 20), "either max_pool_tokens or max_pool_bytes"),
    (dict(spill_backend="mmap"), "spill_backend requires tier0_budget"),
    (dict(tier0_budget=1 << 20, spill_backend="tape"), "unknown spill_backend 'tape'"),
    (dict(admission_policy="fifo"), "unknown admission_policy 'fifo'"),
    (dict(kv_dtype="fp4"), "unknown kv_dtype 'fp4'"),
    (dict(prefill_chunk_tokens=1), "prefill_chunk_tokens must be >= 2"),
    (dict(max_retries=-1), "max_retries must be non-negative"),
    (dict(retry_backoff_steps=-1), "retry_backoff_steps must be non-negative"),
    (dict(deadline_steps=0), "deadline_steps must be positive"),
    (dict(tier0_budget=0), "tier0_budget must be positive"),
]


@pytest.mark.parametrize("front_end", FRONT_ENDS.values(), ids=FRONT_ENDS.keys())
class TestEngineConfig:
    def test_every_field_is_a_keyword_of_every_front_end(self, front_end):
        fields = {f.name for f in dataclasses.fields(EngineConfig)}
        # max_pool_bytes excludes max_pool_tokens; it gets its own pass below.
        assert set(NON_DEFAULT_KNOBS) == fields - {"max_pool_bytes"}
        assert front_end(**NON_DEFAULT_KNOBS) == EngineConfig(**NON_DEFAULT_KNOBS)
        assert front_end(max_pool_bytes=1 << 20).max_pool_bytes == 1 << 20
        assert front_end() == EngineConfig()

    def test_config_and_keywords_are_one_path(self, front_end):
        base = EngineConfig(max_batch_size=3, kv_dtype="int8")
        assert front_end(config=base) == base
        assert front_end(config=base, kv_dtype=None) == EngineConfig(max_batch_size=3)
        with pytest.raises(ValueError, match="spill_backend requires"):
            front_end(config=base, spill_backend="mmap")

    def test_misspelt_knob_is_a_type_error_naming_it(self, front_end):
        with pytest.raises(TypeError, match="max_batchsize"):
            front_end(max_batchsize=4)
        with pytest.raises(TypeError, match="tier0_pages"):
            front_end(config=EngineConfig(), tier0_pages=4)

    @pytest.mark.parametrize("knobs, message", INVALID_KNOBS, ids=[m for _, m in INVALID_KNOBS])
    def test_invalid_knobs_rejected_with_one_message(self, front_end, knobs, message):
        with pytest.raises(ValueError, match=message):
            front_end(**knobs)


def _parent_conversions(model_config, page_size, kv_dtype, max_pool_bytes, tier0_budget):
    """The two inline bytes→pages conversions ``ContinuousBatchingEngine``
    carried before ``resolve_pages`` (kept here as the reference), written
    out: ``max_pool_bytes`` over a page of two K/V slabs plus int64
    positions, ``tier0_budget`` over three key-sized slabs plus positions
    (the RoPE price tier-0 budgets keep)."""
    h, d = model_config.n_heads, model_config.d_head

    def page_bytes(slabs):
        if kv_dtype is None:
            itemsize = np.dtype(model_config.np_dtype).itemsize
            layer_bytes = page_size * h * (slabs * d * itemsize + 8)
        else:  # int8 codes, plus float32 (scale, zero, lo, hi) rows per stream
            layer_bytes = page_size * h * (slabs * d + 8) + slabs * h * 4 * 4
        return model_config.n_layers * layer_bytes

    n_pages = max(int(max_pool_bytes // page_bytes(2)), 1)
    tier0_pages = max(int(tier0_budget // page_bytes(3)), 2)
    return n_pages, tier0_pages


#: (workload, compute dtype, max_seq_len, tier-0 byte budget) of the five
#: BENCHMARK.json workloads (``benchmarks/e2e/e2e_workloads.py``); only
#: ``serve_offload_tight`` sets a budget, the others borrow it for the check.
E2E_GEOMETRIES = [
    ("solo_full_long", "float32", 2048, None),
    ("solo_keyformer_long", "float32", 2048, None),
    ("serve_shared_mix", "float64", 512, None),
    ("serve_keyformer_long", "float64", 1024, None),
    ("serve_offload_tight", "float64", 512, 15_500_000),
]


@pytest.mark.parametrize("kv_dtype", [None, "int8"])
@pytest.mark.parametrize(
    "name, dtype, max_seq_len, budget", E2E_GEOMETRIES, ids=[g[0] for g in E2E_GEOMETRIES]
)
def test_resolve_pages_equals_parent_conversions(name, dtype, max_seq_len, budget, kv_dtype):
    model_config = ModelConfig(
        vocab_size=256, d_model=128, n_layers=4, n_heads=8, d_ff=512,
        positional="rope", max_seq_len=max_seq_len, compute_dtype=dtype,
    )
    assert EngineConfig(tier0_budget=budget).resolve_pages(model_config) == (
        None,
        77 if budget else None,
    )
    budget = budget or 15_500_000
    want = _parent_conversions(model_config, 16, kv_dtype, budget, budget)
    config = EngineConfig(kv_dtype=kv_dtype, max_pool_bytes=budget, tier0_budget=budget)
    assert config.resolve_pages(model_config) == want
    # Token budgets round up to whole pages and need no model geometry.
    assert EngineConfig(max_pool_tokens=100).resolve_pages() == (7, None)
    engine = ContinuousBatchingEngine(DecoderLM(model_config, seed=0), config=config)
    assert (engine.max_pool_tokens, engine.tier0_pages) == (want[0] * 16, want[1])


def test_tier0_budget_funds_at_least_two_frames():
    """Copy-on-write holds a source and a destination page resident, so a
    budget below two frames still buys two per layer."""
    model_config = ModelConfig(
        vocab_size=256, d_model=128, n_layers=4, n_heads=8, d_ff=512, positional="rope"
    )
    assert EngineConfig(tier0_budget=1).resolve_pages(model_config) == (None, 2)


@pytest.mark.parametrize("knob", ["max_pool_bytes", "tier0_budget"])
def test_byte_budget_without_model_geometry_is_a_value_error(knob):
    """A byte budget is priced by the model's page geometry: a manager built
    from a config alone says so instead of dereferencing a missing model
    config, and pre-resolved pages need no pricing."""
    with pytest.raises(ValueError, match="byte budgets .* need the model's geometry"):
        BatchedCacheManager(2, 4, 8, 2, dtype="float32", **{knob: 1_000_000})
    with pytest.raises(ValueError, match="pass n_pages/tier0_pages"):
        EngineConfig(**{knob: 1_000_000}).resolve_pages()
    manager = BatchedCacheManager(
        2, 4, 8, 2, dtype="float32", n_pages=8, tier0_pages=4, **{knob: 1_000_000}
    )
    assert manager.store.pools[0].n_pages == 8


@pytest.mark.parametrize(
    "knobs",
    [
        {"max_pool_bytes": 1_000_000, "tier0_pages": 4},
        {"max_pool_tokens": 64, "tier0_pages": 4},
        {"tier0_budget": 1_000_000, "n_pages": 8},
    ],
    ids=["max_pool_bytes", "max_pool_tokens", "tier0_budget"],
)
def test_budget_beside_one_resolved_page_count_is_a_value_error(knobs):
    """A budget whose page count is left unresolved while the other count is
    given would build a pool without it; the manager refuses instead."""
    with pytest.raises(ValueError, match="would be dropped"):
        BatchedCacheManager(2, 4, 8, 2, dtype="float32", **knobs)


@pytest.mark.parametrize("kv_dtype", [None, "int8"])
@pytest.mark.parametrize("mode", ["original", "new"])
def test_byte_budget_buys_the_pages_the_built_store_holds(mode, kv_dtype):
    """A byte budget is divided by what the built pools hold per page, so the
    store spends it: a renumbered-mode RoPE pool stores raw keys and an
    original-mode one rotated keys, one key slab either way."""
    model = make_model()
    budget = 400_000
    config = EngineConfig(positional_mode=mode, kv_dtype=kv_dtype, max_pool_bytes=budget)
    engine = ContinuousBatchingEngine(model, window_factory, config=config)
    engine.submit(np.arange(8), GenerationConfig(max_new_tokens=1), sampler=GreedySampler())
    engine.step()
    store = engine._manager.store
    assert [pool.rope_dims > 0 for pool in store.pools] == [mode == "original"] * 2
    n_pages, _ = config.resolve_pages(model.config)
    assert n_pages == budget // sum(pool.page_nbytes() for pool in store.pools)
    assert all(pool.n_pages == n_pages for pool in store.pools)
    assert store.nbytes() <= budget


def test_finish_reasons_are_the_ones_the_engine_produces():
    """Normal completions plus the fault layer's abort, error and timeout."""
    assert [r.value for r in FinishReason] == ["eos", "length", "aborted", "error", "timeout"]


def test_request_carries_no_sampling_knobs():
    fields = {f.name for f in dataclasses.fields(Request)}
    assert fields == {"request_id", "prompt_ids", "max_new_tokens", "eos_token_id", "priority"}
