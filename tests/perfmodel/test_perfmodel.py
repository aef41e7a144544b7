"""Tests for the analytical A100 performance model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel.hardware import A100_40GB, A100_80GB, HardwareSpec
from repro.perfmodel.latency import AttentionPolicyOverhead, LatencyModel
from repro.perfmodel.memory import MPT_7B, GPT_J_6B, MemoryModel, PerfModelSpec
from repro.perfmodel.throughput import ThroughputModel


class TestHardwareSpec:
    def test_a100_constants(self):
        assert A100_80GB.hbm_capacity_gb == 80.0
        assert A100_80GB.effective_bandwidth_bytes < A100_80GB.hbm_bandwidth_gbps * 1e9

    def test_validation(self):
        with pytest.raises(ValueError):
            HardwareSpec("bad", hbm_bandwidth_gbps=0, peak_fp16_tflops=1, hbm_capacity_gb=1)
        with pytest.raises(ValueError):
            HardwareSpec("bad", 100, 100, 10, memory_efficiency=1.5)


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

    def test_crossover_near_8k_with_beam_4(self):
        """Figure 1b: KV cache exceeds model size around 8k tokens (beam 4)."""
        crossover = MemoryModel(MPT_7B).crossover_seq_len(beam_size=4)
        assert 4000 < crossover < 10000

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

    def test_paged_kv_rounds_to_whole_pages(self):
        memory = MemoryModel(MPT_7B)
        assert memory.kv_pages(1, 16) == 1
        assert memory.kv_pages(16, 16) == 1
        assert memory.kv_pages(17, 16) == 2
        # 17 cached tokens occupy two full pages — bounded fragmentation…
        assert memory.paged_kv_cache_bytes(17, page_size=16) == pytest.approx(
            memory.kv_cache_bytes(32)
        )
        # …never more than one page per sequence over the contiguous size.
        assert memory.paged_kv_cache_bytes(1000, page_size=16) < memory.kv_cache_bytes(
            1000
        ) + memory.kv_page_bytes(16)

    def test_paged_concurrency_beats_worst_case_reservation(self):
        """Memory-aware paged admission holds more 512-token-resident windows
        than reserving worst-case 4096-token slabs would."""
        memory = MemoryModel(MPT_7B)
        paged = memory.paged_max_concurrency(A100_80GB.capacity_bytes, seq_len=512)
        worst_case = memory.max_batch_size(A100_80GB.capacity_bytes, seq_len=4096)
        assert paged > worst_case

    def test_tier0_frames_matches_engine_conversion(self):
        memory = MemoryModel(MPT_7B)
        page_bytes = memory.kv_page_bytes(16)
        assert memory.tier0_frames(10 * page_bytes, page_size=16) == 10
        # Budget below two pages still funds the copy-on-write minimum.
        assert memory.tier0_frames(1, page_size=16) == 2
        with pytest.raises(ValueError):
            memory.tier0_frames(0)

    def test_tiered_capacity_ratio_amplifies_with_seq_len(self):
        memory = MemoryModel(MPT_7B)
        # One resident (append) page per 512-token sequence: 32 pages cached
        # per page pinned — the fixed tier-0 budget funds 32x the tokens.
        assert memory.tiered_capacity_ratio(512, page_size=16) == 32
        # A larger hot working set costs proportionally more residency.
        assert memory.tiered_capacity_ratio(
            512, page_size=16, resident_pages_per_seq=4
        ) == 8
        with pytest.raises(ValueError):
            memory.tiered_capacity_ratio(512, resident_pages_per_seq=0)

    def test_tiered_concurrency_is_seq_len_free(self):
        """With offload, the frame budget bounds rows — not resident length —
        so the same tier-0 bytes hold far more long sequences than paged
        admission without a spill tier."""
        memory = MemoryModel(MPT_7B)
        budget = 64 * memory.kv_page_bytes(16)
        tiered = memory.tiered_max_concurrency(budget, page_size=16)
        paged = int(budget // memory.paged_kv_cache_bytes(512, 1, 16))
        assert tiered > 2 * paged
        # int8 pages are cheaper, so the same bytes fund more frames.
        assert memory.tiered_max_concurrency(
            budget, page_size=16, kv_dtype="int8"
        ) > tiered

    def test_spill_transfer_seconds_prices_page_traffic(self):
        memory = MemoryModel(MPT_7B)
        bw = A100_80GB.effective_bandwidth_bytes
        one = memory.spill_transfer_seconds(1, bw, page_size=16)
        assert one == pytest.approx(memory.kv_page_bytes(16) / bw)
        # Symmetric and linear: restore + spill traffic just adds pages.
        assert memory.spill_transfer_seconds(7, bw, page_size=16) == pytest.approx(7 * one)
        assert memory.spill_transfer_seconds(0, bw) == 0.0
        with pytest.raises(ValueError):
            memory.spill_transfer_seconds(1, 0.0)
        with pytest.raises(ValueError):
            memory.spill_transfer_seconds(-1, bw)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PerfModelSpec("bad", 2, 100, 3, 100, 100)


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
