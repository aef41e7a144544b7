"""Attention-structure analyses (Figures 3a/3b, 4, 11, 14, 15)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.heatmap import collect_attention_maps, heatmap_to_ascii
from repro.analysis.reporting import ResultTable
from repro.analysis.sparsity import sparsity_by_layer, sparsity_threshold_sweep
from repro.core.score import entropy
from repro.experiments.common import ExperimentContext, get_context
from repro.metrics.attention_stats import attention_score_cdf

__all__ = [
    "run_fig3_sparsity_and_cdf",
    "run_fig4_distribution_shift",
    "run_fig11_threshold_sparsity",
    "run_heatmap_figures",
]


def _example_sequences(context: ExperimentContext, n_examples: int = 4) -> list[np.ndarray]:
    """Full (document + summary) token sequences used for attention analysis."""
    dataset = context.dataset("cnn_dailymail", n_examples=max(n_examples, 4))
    tokenizer = context.tokenizer
    sequences = []
    for example in dataset.examples[:n_examples]:
        ids = (
            [tokenizer.vocab.bos_id]
            + tokenizer.encode(example.document)
            + [tokenizer.vocab.sep_id]
            + tokenizer.encode(example.summary)
            + [tokenizer.vocab.eos_id]
        )
        sequences.append(np.asarray(ids, dtype=np.int64))
    return sequences


def run_fig3_sparsity_and_cdf(
    models: Sequence[str] = ("gptj_mini", "cerebras_mini", "mpt_mini"),
    n_examples: int = 3,
    sparsity_threshold: float = 0.01,
    context: ExperimentContext | None = None,
) -> tuple[ResultTable, ResultTable]:
    """Figure 3a/3b: per-layer attention sparsity and the attention-mass CDF."""
    context = context or get_context()
    sequences = _example_sequences(context, n_examples)

    sparsity_table = ResultTable(
        name="fig03a_attention_sparsity",
        headers=["model", "layer", "sparsity_pct"],
        notes=f"Entries below {sparsity_threshold:.2%} of the row maximum count as sparse.",
    )
    cdf_table = ResultTable(
        name="fig03b_attention_mass_cdf",
        headers=["model", "token_fraction", "attention_mass"],
        notes="Average attention mass captured by the top token_fraction of tokens.",
    )
    for model_name in models:
        model = context.model(model_name)
        per_layer_sum: list[list[float]] = []
        cdf_values: list[list[float]] = []
        fractions: list[float] = []
        for seq in sequences:
            maps = collect_attention_maps(model, seq)
            per_layer_sum.append(sparsity_by_layer(maps, threshold=sparsity_threshold))
            stacked = np.concatenate([m for m in maps], axis=1)  # merge layers into heads
            fractions, mass = attention_score_cdf(stacked)
            cdf_values.append(mass)
        layer_means = np.mean(np.asarray(per_layer_sum), axis=0)
        for layer_idx, value in enumerate(layer_means):
            sparsity_table.add_row(model_name, layer_idx, float(value))
        mass_means = np.mean(np.asarray(cdf_values), axis=0)
        for fraction, value in zip(fractions, mass_means):
            cdf_table.add_row(model_name, fraction, float(value))
    return sparsity_table, cdf_table


def run_fig4_distribution_shift(
    model_name: str = "mpt_mini",
    kv_fraction: float = 0.5,
    context: ExperimentContext | None = None,
) -> ResultTable:
    """Figure 4: removing tokens redistributes the softmax mass unevenly.

    For the last query row of a prompt we compare the full-attention softmax
    with the softmax recomputed over only the top-``kv_fraction`` retained
    tokens, reporting the maximum probability and the entropy of both
    distributions — the uneven concentration after reduction is what motivates
    Keyformer's logit regularization.
    """
    context = context or get_context()
    model = context.model(model_name)
    seq = _example_sequences(context, 1)[0]
    maps = collect_attention_maps(model, seq)
    # Last query row of the first layer/head group, averaged over heads.
    attn = maps[0][0]  # (H, T, T)
    last_row = attn[:, -1, :]  # (H, T)
    t = last_row.shape[-1]
    keep = max(int(round(kv_fraction * t)), 1)

    table = ResultTable(
        name="fig04_score_distribution_shift",
        headers=["quantity", "full_attention", "reduced_cache"],
        notes=f"Last-query-row softmax before/after keeping the top {keep}/{t} tokens.",
    )
    top_idx = np.argsort(-last_row, axis=-1)[:, :keep]
    reduced = np.take_along_axis(last_row, top_idx, axis=-1)
    reduced = reduced / np.maximum(reduced.sum(axis=-1, keepdims=True), 1e-12)

    table.add_row(
        "max probability", float(last_row.max(axis=-1).mean()), float(reduced.max(axis=-1).mean())
    )
    table.add_row(
        "entropy", float(entropy(last_row, axis=-1).mean()), float(entropy(reduced, axis=-1).mean())
    )
    table.add_row("tokens", int(t), int(keep))
    table.add_row(
        "mass of retained tokens (pre-normalization)",
        1.0,
        float(np.take_along_axis(last_row, top_idx, axis=-1).sum(axis=-1).mean()),
    )
    return table


def run_fig11_threshold_sparsity(
    model_name: str = "mpt_mini",
    thresholds: Sequence[float] = (0.0, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.03, 0.05),
    n_examples: int = 2,
    context: ExperimentContext | None = None,
) -> ResultTable:
    """Figure 11: attention sparsity per layer as the threshold grows (Appendix A.3)."""
    context = context or get_context()
    model = context.model(model_name)
    sequences = _example_sequences(context, n_examples)
    accum: dict[float, np.ndarray] = {}
    for seq in sequences:
        maps = collect_attention_maps(model, seq)
        sweep = sparsity_threshold_sweep(maps, thresholds)
        for threshold, per_layer in sweep.items():
            arr = np.asarray(per_layer)
            accum[threshold] = accum.get(threshold, 0) + arr / len(sequences)

    table = ResultTable(
        name="fig11_threshold_sparsity",
        headers=["threshold_pct_of_max", "layer", "sparsity_pct"],
        notes=f"Model {model_name}; thresholds are fractions of the per-row maximum score.",
    )
    for threshold, per_layer in sorted(accum.items()):
        for layer_idx, value in enumerate(per_layer):
            table.add_row(100.0 * threshold, layer_idx, float(value))
    return table


def run_heatmap_figures(
    models: Sequence[str] = ("gptj_mini", "mpt_mini"),
    max_heads: int = 4,
    context: ExperimentContext | None = None,
) -> dict[str, list[str]]:
    """Figures 14/15: per-layer/head attention heatmaps rendered as ASCII density maps."""
    context = context or get_context()
    seq = _example_sequences(context, 1)[0]
    rendered: dict[str, list[str]] = {}
    for model_name in models:
        model = context.model(model_name)
        maps = collect_attention_maps(model, seq, generated_rows_only=True)
        panels = []
        for layer_idx, layer_map in enumerate(maps):
            for head_idx in range(min(layer_map.shape[1], max_heads)):
                title = f"{model_name} L_{layer_idx},H_{head_idx}"
                panels.append(title + "\n" + heatmap_to_ascii(layer_map[0, head_idx]))
        rendered[model_name] = panels
    return rendered
