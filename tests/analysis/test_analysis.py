"""Tests for analysis helpers: heatmaps, sparsity sweeps, report formatting."""

import numpy as np
import pytest

from repro.analysis.heatmap import collect_attention_maps, heatmap_to_ascii
from repro.analysis.reporting import ResultTable, format_table
from repro.analysis.sparsity import sparsity_by_layer, sparsity_threshold_sweep
from repro.models.transformer import DecoderLM
from tests.conftest import tiny_config


class TestHeatmaps:
    def test_collect_attention_maps_shapes(self, rng):
        model = DecoderLM(tiny_config("alibi"), seed=0)
        ids = rng.integers(0, 64, size=10)
        maps = collect_attention_maps(model, ids)
        assert len(maps) == 2
        assert maps[0].shape == (1, 4, 10, 10)

    def test_generated_rows_only(self, rng):
        model = DecoderLM(tiny_config("rope"), seed=0)
        ids = rng.integers(0, 64, size=12)
        maps = collect_attention_maps(model, ids, generated_rows_only=True)
        assert maps[0].shape == (1, 4, 6, 12)

    def test_ascii_rendering(self, rng):
        attn = np.abs(rng.normal(size=(20, 30)))
        art = heatmap_to_ascii(attn, width=16, height=8)
        lines = art.split("\n")
        assert len(lines) == 8
        assert all(len(line) == 16 for line in lines)

    def test_ascii_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            heatmap_to_ascii(np.zeros((2, 3, 4)))


class TestSparsityHelpers:
    def test_sparsity_by_layer_length(self, rng):
        model = DecoderLM(tiny_config("rope"), seed=1)
        maps = collect_attention_maps(model, rng.integers(0, 64, size=8))
        values = sparsity_by_layer(maps, threshold=0.01)
        assert len(values) == 2
        assert all(0 <= v <= 100 for v in values)

    def test_threshold_sweep_monotone(self, rng):
        model = DecoderLM(tiny_config("rope"), seed=1)
        maps = collect_attention_maps(model, rng.integers(0, 64, size=8))
        sweep = sparsity_threshold_sweep(maps, thresholds=(0.001, 0.05))
        assert np.mean(sweep[0.05]) >= np.mean(sweep[0.001])


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table([[1, 2.34567], [10, 0.5]], ["a", "value"], precision=2)
        lines = text.split("\n")
        assert "a" in lines[0] and "value" in lines[0]
        assert len(lines) == 4

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table([[1, 2], [3]], ["a", "b"])

    def test_result_table_add_and_column(self):
        table = ResultTable("demo", ["model", "score"])
        table.add_row("a", 1.0)
        table.add_row("b", 2.0)
        assert table.column("score") == [1.0, 2.0]
        assert table.to_dicts()[1] == {"model": "b", "score": 2.0}
        text = table.to_text()
        assert "demo" in text and "model" in text

    def test_result_table_row_length_check(self):
        table = ResultTable("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_result_table_unknown_column(self):
        table = ResultTable("demo", ["a"])
        with pytest.raises(ValueError):
            table.column("missing")
