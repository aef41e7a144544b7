"""Tests for the analytical A100 performance model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel.hardware import A100_40GB, A100_80GB, HardwareSpec
from repro.perfmodel.latency import AttentionPolicyOverhead, LatencyBreakdown, LatencyModel
from repro.perfmodel.memory import (
    CEREBRAS_GPT_6_7B,
    GPT_J_6B,
    MPT_7B,
    MemoryModel,
    PerfModelSpec,
)
from repro.perfmodel.throughput import ThroughputModel, ThroughputResult

SPECS = [MPT_7B, GPT_J_6B, CEREBRAS_GPT_6_7B]


class TestHardwareSpec:
    def test_a100_constants(self):
        assert A100_80GB.hbm_capacity_gb == 80.0
        assert A100_80GB.effective_bandwidth_bytes < A100_80GB.hbm_bandwidth_gbps * 1e9

    def test_validation(self):
        with pytest.raises(ValueError):
            HardwareSpec("bad", hbm_bandwidth_gbps=0, peak_fp16_tflops=1, hbm_capacity_gb=1)
        with pytest.raises(ValueError):
            HardwareSpec("bad", 100, 100, 10, memory_efficiency=1.5)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"peak_fp16_tflops": 0},
            {"memory_efficiency": 0.0},
            {"compute_efficiency": 0.0},
            {"compute_efficiency": 1.01},
        ],
        ids=["zero-flops", "zero-memory-eff", "zero-compute-eff", "compute-eff-above-one"],
    )
    def test_rejects_out_of_range_knobs(self, knobs):
        fields = dict(name="bad", hbm_bandwidth_gbps=100, peak_fp16_tflops=100, hbm_capacity_gb=10)
        fields.update(knobs)
        with pytest.raises(ValueError):
            HardwareSpec(**fields)

    def test_effective_rates_apply_the_efficiencies(self):
        assert A100_80GB.effective_flops == pytest.approx(312e12 * 0.5)
        assert A100_80GB.effective_bandwidth_bytes == pytest.approx(2039e9 * 0.8)
        assert A100_80GB.capacity_bytes == 80e9
        assert A100_40GB.capacity_bytes == 40e9


class TestPerfModelSpec:
    @pytest.mark.parametrize("spec", SPECS, ids=[s.name for s in SPECS])
    def test_paper_models_are_six_to_seven_billion_parameters(self, spec):
        assert spec.d_head * spec.n_heads == spec.d_model
        d, ff = spec.d_model, spec.d_ff
        expected = spec.n_layers * (4 * d * d + 2 * d * ff) + spec.vocab_size * d
        assert spec.n_parameters() == expected
        assert 5.5e9 < spec.n_parameters() < 7e9

    def test_rejects_nonpositive_dtype_bytes(self):
        with pytest.raises(ValueError, match="dtype_bytes"):
            PerfModelSpec("bad", 2, 64, 4, 128, 100, dtype_bytes=0)


class TestMemoryModel:
    def test_mpt_7b_model_size(self):
        memory = MemoryModel(MPT_7B)
        # ~6.7B parameters in fp16 ≈ 13 GB, matching Figure 1b.
        assert 12e9 < memory.model_bytes() < 15e9

    def test_kv_bytes_per_token(self):
        memory = MemoryModel(MPT_7B)
        # 2 (K and V) * 32 layers * 4096 dims * 2 bytes = 0.5 MiB per token.
        assert memory.kv_bytes_per_token() == 2 * 32 * 4096 * 2

    def test_kv_cache_scales_linearly(self):
        memory = MemoryModel(MPT_7B)
        assert memory.kv_cache_bytes(2000) == pytest.approx(2 * memory.kv_cache_bytes(1000))
        assert memory.kv_cache_bytes(1000, batch_size=2) == pytest.approx(
            2 * memory.kv_cache_bytes(1000)
        )

    def test_fits_and_max_batch(self):
        memory = MemoryModel(MPT_7B)
        assert memory.fits(A100_80GB.capacity_bytes, seq_len=2048, batch_size=1, beam_size=4)
        assert not memory.fits(A100_80GB.capacity_bytes, seq_len=8192, batch_size=8, beam_size=4)
        assert memory.max_batch_size(A100_80GB.capacity_bytes, 2048, beam_size=4) >= 1

    def test_paper_oom_configuration(self):
        """Table 1: 4096+4096 with batch 2, beam 4 and full cache does not fit."""
        memory = MemoryModel(MPT_7B)
        assert not memory.fits(A100_80GB.capacity_bytes, 8192, batch_size=2, beam_size=4)
        # With a 50% cache (2048 retained tokens) it fits again.
        assert memory.fits(A100_80GB.capacity_bytes, 2049, batch_size=2, beam_size=4)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PerfModelSpec("bad", 2, 100, 3, 100, 100)

    def test_beam_search_holds_a_second_cache_copy(self):
        memory = MemoryModel(MPT_7B)
        assert memory.kv_working_multiplier(beam_size=4) == 2.0
        assert memory.kv_working_multiplier(beam_size=1) == 1.2

    def test_activation_bytes_linear_in_batch_and_length(self):
        memory = MemoryModel(MPT_7B)
        one = memory.activation_bytes(1, 100)
        assert one == 8 * 100 * 4096 * 2
        assert memory.activation_bytes(2, 100) == 2 * one
        assert memory.activation_bytes(1, 200) == 2 * one

    @pytest.mark.parametrize("seq_len", [1000, 4096], ids=["short", "activations-capped"])
    def test_fits_is_weights_plus_working_cache_plus_activations(self, seq_len):
        """The boundary sits exactly at the sum; activations stop growing at
        2048 tokens."""
        memory = MemoryModel(MPT_7B)
        batch, beam = 3, 2
        total = (
            memory.model_bytes()
            + memory.kv_cache_bytes(seq_len, batch, beam) * memory.kv_working_multiplier(beam)
            + memory.activation_bytes(batch, min(seq_len, 2048))
        )
        assert memory.fits(total, seq_len, batch, beam)
        assert not memory.fits(total - 1, seq_len, batch, beam)

    def test_max_batch_size_is_the_largest_that_fits(self):
        memory = MemoryModel(MPT_7B)
        capacity = A100_80GB.capacity_bytes
        batch = memory.max_batch_size(capacity, 4096, beam_size=4)
        assert memory.fits(capacity, 4096, batch, beam_size=4)
        assert not memory.fits(capacity, 4096, batch + 1, beam_size=4)

    def test_max_batch_size_zero_when_weights_alone_overflow(self):
        memory = MemoryModel(MPT_7B)
        assert memory.max_batch_size(memory.model_bytes() / 2, 128) == 0

    def test_max_batch_size_stops_at_limit(self):
        assert MemoryModel(MPT_7B).max_batch_size(1e18, 128, limit=8) == 8


class TestLatencyModel:
    def test_latency_grows_superlinearly_with_sequence(self):
        model = LatencyModel(MPT_7B)
        short = model.generation_latency(256, 256, 1, 4, 1.0)
        long = model.generation_latency(4096, 4096, 1, 4, 1.0)
        assert long > 16 * short  # more than linear in total tokens

    def test_kv_movement_fraction_grows_with_sequence(self):
        model = LatencyModel(MPT_7B)
        frac_short = model.generation_breakdown(256, 256, 1, 4, 1.0).kv_movement_fraction
        frac_long = model.generation_breakdown(4096, 4096, 1, 4, 1.0).kv_movement_fraction
        assert frac_long > frac_short
        assert 0.0 < frac_long < 1.0

    def test_reduced_cache_is_faster(self):
        model = LatencyModel(MPT_7B)
        full = model.generation_latency(2048, 2048, 1, 4, 1.0)
        reduced = model.generation_latency(2048, 2048, 1, 4, 0.5)
        assert reduced < full

    def test_speedup_in_paper_range(self):
        """~2x latency speedup at 50% cache for 4k sequences (Figure 9)."""
        model = LatencyModel(MPT_7B)
        speedup = model.speedup_vs_full(
            4096, 4096, 0.5, 1, 4, AttentionPolicyOverhead.keyformer()
        )
        assert 1.5 < speedup < 2.6

    def test_keyformer_speedup_exceeds_h2o_at_iso_accuracy(self):
        model = LatencyModel(MPT_7B)
        keyformer = model.speedup_vs_full(
            2048, 2048, 0.5, 1, 4, AttentionPolicyOverhead.keyformer()
        )
        h2o = model.speedup_vs_full(2048, 2048, 0.9, 1, 4, AttentionPolicyOverhead.h2o())
        assert keyformer > h2o > 1.0

    def test_score_overhead_increases_latency(self):
        model = LatencyModel(MPT_7B)
        without = model.generation_latency(1024, 1024, 1, 4, 0.5)
        with_overhead = model.generation_latency(
            1024, 1024, 1, 4, 0.5, AttentionPolicyOverhead.keyformer()
        )
        assert with_overhead > without
        # ... but the overhead must be small relative to the savings.
        full = model.generation_latency(1024, 1024, 1, 4, 1.0)
        assert with_overhead < full

    def test_invalid_kv_fraction(self):
        with pytest.raises(ValueError):
            LatencyModel(MPT_7B).generation_latency(100, 10, kv_fraction=0.0)

    def test_prompt_latency_compute_bound_scaling(self):
        model = LatencyModel(MPT_7B)
        assert model.prompt_latency(4096) > 2 * model.prompt_latency(1024)

    @given(st.integers(128, 4096), st.floats(0.1, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_property_latency_positive_and_monotone_in_fraction(self, prompt, fraction):
        model = LatencyModel(GPT_J_6B)
        reduced = model.generation_latency(prompt, 64, 1, 1, fraction)
        full = model.generation_latency(prompt, 64, 1, 1, 1.0)
        assert 0 < reduced <= full * 1.0001

    def test_decode_flops_split_into_dense_and_attention(self):
        model = LatencyModel(MPT_7B)
        dense = 2.0 * MPT_7B.n_parameters() * 3
        for kv_len in (0, 1000, 4096):
            attention = model.attention_step_flops(kv_len, batch_size=3)
            assert attention == 4.0 * 32 * 4096 * kv_len * 3
            assert model.decode_step_flops(kv_len, batch_size=3) == pytest.approx(dense + attention)

    def test_prompt_attention_flops_are_quadratic(self):
        model = LatencyModel(MPT_7B)

        def attention(prompt_len):
            return model.prompt_flops(prompt_len) - 2.0 * MPT_7B.n_parameters() * prompt_len

        assert attention(1024) == pytest.approx(4.0 * 32 * 4096 * 1024**2)
        assert attention(2048) == pytest.approx(4 * attention(1024))

    def test_greedy_breakdown_counts_every_decode_step(self):
        model = LatencyModel(MPT_7B)
        breakdown = model.generation_breakdown(512, 100)
        bandwidth = A100_80GB.effective_bandwidth_bytes
        assert breakdown.n_decode_steps == 100
        assert breakdown.step_overhead_time == pytest.approx(100 * A100_80GB.kernel_launch_overhead_s)
        assert breakdown.weight_data_movement_time == pytest.approx(
            100 * model.memory.model_bytes() / bandwidth
        )
        assert breakdown.score_overhead_time == 0.0
        assert breakdown.prompt_time == model.prompt_latency(512)

    @pytest.mark.parametrize(
        "kv_fraction, cached_tokens",
        [(1.0, 50 * 1000 + sum(range(50))), (0.5, 50 * 500)],
        ids=["full-cache-grows", "reduced-cache-constant"],
    )
    def test_kv_traffic_streams_the_cached_tokens(self, kv_fraction, cached_tokens):
        model = LatencyModel(MPT_7B)
        breakdown = model.generation_breakdown(1000, 50, kv_fraction=kv_fraction)
        expected = (
            model.memory.kv_bytes_per_token() * cached_tokens / A100_80GB.effective_bandwidth_bytes
        )
        assert breakdown.kv_data_movement_time == pytest.approx(expected)

    def test_beam_reorder_triples_kv_traffic(self):
        """One read plus the re-order's read and write, at the same number of
        sequences in flight."""
        model = LatencyModel(MPT_7B)
        beams = model.generation_breakdown(1024, 64, batch_size=1, beam_size=4)
        batch = model.generation_breakdown(1024, 64, batch_size=4, beam_size=1)
        assert beams.kv_data_movement_time == pytest.approx(3 * batch.kv_data_movement_time)
        assert beams.compute_time == pytest.approx(batch.compute_time)

    def test_policy_score_overhead_is_per_cached_token(self):
        model = LatencyModel(MPT_7B)
        keyformer = AttentionPolicyOverhead.keyformer()
        breakdown = model.generation_breakdown(
            1000, 20, batch_size=2, kv_fraction=0.5, policy_overhead=keyformer
        )
        per_step = (
            keyformer.flops_per_cached_token * 500 * 32 * 2 / A100_80GB.effective_flops
            + keyformer.fixed_seconds
        )
        assert breakdown.score_overhead_time == pytest.approx(20 * per_step)
        none = AttentionPolicyOverhead.none()
        assert none.flops_per_cached_token == none.fixed_seconds == 0.0
        assert keyformer.flops_per_cached_token > AttentionPolicyOverhead.h2o().flops_per_cached_token


class TestLatencyBreakdown:
    def test_decode_overlaps_memory_with_compute(self):
        breakdown = LatencyBreakdown(
            prompt_time=1.0,
            kv_data_movement_time=2.0,
            weight_data_movement_time=3.0,
            compute_time=4.0,
            score_overhead_time=0.5,
            step_overhead_time=0.25,
        )
        assert breakdown.decode_time == pytest.approx(5.0 + 0.75)
        assert breakdown.total_time == pytest.approx(6.75)
        assert breakdown.kv_movement_fraction == pytest.approx(2.0 / 6.75)
        breakdown.compute_time = 7.0
        assert breakdown.decode_time == pytest.approx(7.0 + 0.75)

    def test_empty_breakdown_has_no_kv_fraction(self):
        assert LatencyBreakdown().kv_movement_fraction == 0.0


class TestThroughputModel:
    def test_throughput_improves_with_cache_reduction(self):
        model = ThroughputModel(MPT_7B)
        full = model.evaluate(2048, 2048, 1, 4, 1.0)
        keyformer = model.evaluate(2048, 2048, 1, 4, 0.5, AttentionPolicyOverhead.keyformer())
        assert keyformer.tokens_per_second > full.tokens_per_second
        assert 1.3 < keyformer.tokens_per_second / full.tokens_per_second < 2.2

    def test_table1_oom_pattern(self):
        model = ThroughputModel(MPT_7B)
        full_bs2 = model.evaluate(4096, 4096, 2, 4, 1.0)
        keyformer_bs2 = model.evaluate(4096, 4096, 2, 4, 0.5, AttentionPolicyOverhead.keyformer())
        assert full_bs2.oom
        assert not keyformer_bs2.oom
        assert full_bs2.formatted() == "OOM"

    def test_bigger_batch_raises_throughput_when_it_fits(self):
        model = ThroughputModel(MPT_7B)
        bs1 = model.evaluate(4096, 4096, 1, 4, 0.5, AttentionPolicyOverhead.keyformer())
        bs2 = model.evaluate(4096, 4096, 2, 4, 0.5, AttentionPolicyOverhead.keyformer())
        assert bs2.tokens_per_second > bs1.tokens_per_second

    def test_max_feasible_batch_larger_with_reduction(self):
        model = ThroughputModel(MPT_7B)
        assert model.max_feasible_batch(4096, 4096, 0.5) > model.max_feasible_batch(4096, 4096, 1.0)

    def test_smaller_gpu_ooms_earlier(self):
        big = ThroughputModel(MPT_7B, A100_80GB)
        small = ThroughputModel(MPT_7B, A100_40GB)
        assert big.max_feasible_batch(4096, 4096, 1.0, beam_size=4) >= small.max_feasible_batch(
            4096, 4096, 1.0, beam_size=4
        )

    def test_throughput_is_generated_tokens_over_latency(self):
        model = ThroughputModel(MPT_7B)
        keyformer = AttentionPolicyOverhead.keyformer()
        result = model.evaluate(1024, 256, 2, 1, 0.5, keyformer)
        assert not result.oom
        assert result.total_time_s == model.latency.generation_latency(
            1024, 256, 2, 1, 0.5, keyformer
        )
        assert result.tokens_per_second == pytest.approx(256 * 2 / result.total_time_s)
        assert (result.batch_size, result.kv_fraction) == (2, 0.5)

    def test_max_feasible_batch_is_the_oom_boundary(self):
        model = ThroughputModel(MPT_7B)
        batch = model.max_feasible_batch(4096, 4096, 1.0, beam_size=4)
        assert not model.evaluate(4096, 4096, batch, 4, 1.0).oom
        assert model.evaluate(4096, 4096, batch + 1, 4, 1.0).oom

    def test_formatted_cell_rounds_to_one_decimal(self):
        assert ThroughputResult(123.456, 1.0, 1, 1.0).formatted() == "123.5"
        assert ThroughputResult(0.0, float("inf"), 2, 1.0, oom=True).formatted() == "OOM"
