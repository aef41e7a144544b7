"""Smoke tests for every experiment runner.

Accuracy-oriented runners are exercised with small untrained models injected
into the shared :class:`ExperimentContext`, so these tests validate the
experiment plumbing (tables, sweeps, policies) without requiring the trained
model zoo; the benchmark harness runs the same runners against the trained
models to regenerate the paper's numbers.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments import (
    ExperimentContext,
    run_accuracy_sweep,
    run_damping_sweep,
    run_fewshot_table,
    run_fig1_motivation,
    run_fig3_accuracy_comparison,
    run_fig3_sparsity_and_cdf,
    run_fig4_distribution_shift,
    run_fig9_speedup,
    run_fig10_breakdown,
    run_fig11_threshold_sparsity,
    run_heatmap_figures,
    run_long_context_sweep,
    run_qualitative_comparison,
    run_recent_ratio_sweep,
    run_table1_throughput,
    run_table3_ablations,
    run_table4_distributions,
    run_temperature_sweep,
)
from repro.models.model_zoo import MODEL_ZOO, get_model_config
from repro.models.transformer import DecoderLM


@pytest.fixture(scope="module")
def context():
    """Experiment context with small untrained stand-ins for the zoo models."""
    ctx = ExperimentContext()
    for name in MODEL_ZOO:
        config = get_model_config(name, vocab_size=ctx.tokenizer.vocab_size)
        # Shrink for speed; the runners only need a working model.
        config = dataclasses.replace(config, d_model=32, d_ff=64)
        ctx._models[name] = DecoderLM(config, seed=0)
    return ctx


class TestAccuracyRunners:
    def test_accuracy_sweep_structure(self, context):
        table = run_accuracy_sweep(
            models=("gptj_mini",), tasks=("summarization",), budgets=(0.5,),
            policies=("window", "keyformer"), limit=2, context=context,
        )
        assert table.headers[:4] == ["model", "task", "policy", "kv_budget"]
        # 1 full row + 2 policies × 1 budget
        assert len(table.rows) == 3
        assert {row[2] for row in table.rows} == {"full", "window", "keyformer"}
        assert all(0.0 <= row[5] <= 100.0 for row in table.rows)

    def test_fig3_accuracy_comparison(self, context):
        table = run_fig3_accuracy_comparison(models=("mpt_mini",), limit=2, context=context)
        assert {row[1] for row in table.rows} == {"full", "key-only", "window", "h2o"}

    def test_long_context_sweep(self, context):
        table = run_long_context_sweep(
            budgets=(0.3,), policies=("keyformer",), limit=1, context=context
        )
        assert len(table.rows) == 2  # full + keyformer@0.3
        assert table.rows[0][1] == "full"


class TestAblationRunners:
    def test_damping_sweep(self, context):
        table = run_damping_sweep(damping_factors=(1.0, 0.9), limit=1, context=context)
        assert len(table.rows) == 3
        assert table.rows[0][1] == "full-attention"

    def test_recent_ratio_sweep(self, context):
        table = run_recent_ratio_sweep(
            models=("mpt_mini",), recent_ratios=(0.2, 0.5), limit=1, context=context
        )
        assert [row[1] for row in table.rows] == [0.2, 0.5]

    def test_temperature_sweep(self, context):
        table = run_temperature_sweep(static_taus=(1.0, 5.0), limit=1, context=context)
        assert table.rows[0][1] == "dynamic(1->2)"
        assert len(table.rows) == 3

    def test_table3(self, context):
        table = run_table3_ablations(limit=1, context=context)
        methods = table.column("method")
        assert "Keyformer (Org Pos)" in methods
        assert "StreamingLLM" in methods
        assert "Full (99% Accuracy)" in methods
        # The 99% row must be exactly 0.99 of the full row.
        full = table.rows[0]
        threshold = table.rows[1]
        np.testing.assert_allclose(threshold[3], 0.99 * full[3], rtol=1e-9)

    def test_table4(self, context):
        table = run_table4_distributions(models=("gptj_mini",), limit=1, context=context)
        assert {row[1] for row in table.rows} == {"gumbel", "gaussian", "constant", "none"}


class TestFewShotRunner:
    def test_table2_structure(self, context):
        table = run_fewshot_table(
            models=("cerebras_mini",), tasks=("copa-synthetic",), shots=(0,),
            policies=("full", "keyformer"), limit=2, context=context,
        )
        assert len(table.rows) == 2
        assert all(0.0 <= row[5] <= 100.0 for row in table.rows)


class TestPerformanceRunners:
    def test_fig1(self):
        latency, size = run_fig1_motivation(seq_lens=(512, 2048, 8192))
        norm = latency.column("normalized_latency")
        assert norm[0] == pytest.approx(1.0)
        assert norm[-1] > 20  # >> linear growth, paper reports > 50x
        kv = size.column("kv_cache_size_gb")
        assert kv[-1] > size.column("model_size_gb")[-1]

    def test_fig9(self):
        table = run_fig9_speedup(seq_configs=((2048, 2048),))
        by_policy = {row[1]: row[3] for row in table.rows}
        assert by_policy["keyformer"] > by_policy["h2o"] > by_policy["full"] == 1.0

    def test_fig10(self):
        table = run_fig10_breakdown(seq_lens=(1024, 4096))
        for row in table.rows:
            assert row[2] < 1.0  # Keyformer moves less KV data
            assert row[4] < 1.0  # and computes a smaller scaled dot product
            assert row[5] >= 0.0

    def test_table1(self):
        table = run_table1_throughput()
        last = table.rows[-1]
        assert last[2] == "OOM"          # full attention at 4096+4096, BS=2
        assert last[4] != "OOM"          # Keyformer fits
        first = table.rows[0]
        assert float(first[4]) > float(first[2])  # Keyformer faster at BS=1


class TestAttentionAnalysisRunners:
    def test_fig3_sparsity_and_cdf(self, context):
        sparsity, cdf = run_fig3_sparsity_and_cdf(
            models=("gptj_mini",), n_examples=1, context=context
        )
        assert len(sparsity.rows) == 2  # one row per layer
        mass = cdf.column("attention_mass")
        assert all(b >= a - 1e-9 for a, b in zip(mass, mass[1:]))

    def test_fig4(self, context):
        table = run_fig4_distribution_shift(context=context)
        quantities = table.column("quantity")
        assert "entropy" in quantities and "max probability" in quantities

    def test_fig11(self, context):
        table = run_fig11_threshold_sparsity(thresholds=(0.0, 0.05), n_examples=1, context=context)
        assert len(table.rows) == 2 * 2  # thresholds × layers

    def test_heatmaps(self, context):
        rendered = run_heatmap_figures(models=("gptj_mini",), max_heads=2, context=context)
        assert len(rendered["gptj_mini"]) == 2 * 2  # layers × heads
        assert all(isinstance(panel, str) and panel for panel in rendered["gptj_mini"])


class TestQualitativeRunner:
    def test_appendix_a1(self, context):
        table, texts = run_qualitative_comparison(max_new_tokens=6, context=context)
        assert {row[0] for row in table.rows} == {"full", "window", "h2o", "keyformer"}
        assert "reference" in texts and "document" in texts
        assert all(isinstance(text, str) for text in texts.values())
