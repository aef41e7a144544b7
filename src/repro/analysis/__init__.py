"""Analysis utilities: attention heatmaps, sparsity sweeps, report formatting."""

from repro.analysis.heatmap import collect_attention_maps, heatmap_to_ascii
from repro.analysis.sparsity import sparsity_by_layer, sparsity_threshold_sweep
from repro.analysis.reporting import format_table, ResultTable

__all__ = [
    "collect_attention_maps",
    "heatmap_to_ascii",
    "sparsity_by_layer",
    "sparsity_threshold_sweep",
    "format_table",
    "ResultTable",
]
