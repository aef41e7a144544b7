"""Mini model zoo mirroring the paper's three model families.

The paper evaluates GPT-J (RoPE), Cerebras-GPT (learned positions) and MPT
(ALiBi), plus MPT-storywriter for long contexts.  The zoo defines laptop-scale
configurations with the same positional-encoding axis and provides
``load_or_train`` which trains each model on the synthetic corpora once and
caches the weights on disk, so the experiment harness never retrains.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.models.config import ModelConfig
from repro.models.transformer import DecoderLM

__all__ = ["ZooEntry", "MODEL_ZOO", "get_model_config", "load_or_train"]

DEFAULT_CACHE_DIR = Path(
    os.environ.get("KEYFORMER_REPRO_CACHE", Path.cwd() / ".cache" / "models")
)


@dataclass(frozen=True)
class ZooEntry:
    """A named model family in the zoo."""

    name: str
    positional: str
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    max_seq_len: int
    datasets: tuple[str, ...]
    n_steps: int
    batch_size: int
    description: str


MODEL_ZOO: dict[str, ZooEntry] = {
    # GPT-J uses rotary position embeddings.
    "gptj_mini": ZooEntry(
        name="gptj_mini",
        positional="rope",
        d_model=64,
        n_layers=2,
        n_heads=4,
        d_ff=192,
        max_seq_len=512,
        datasets=("cnn_dailymail", "soda"),
        n_steps=260,
        batch_size=12,
        description="GPT-J analogue (RoPE positional encoding), summarization fine-tune",
    ),
    # Cerebras-GPT uses learned absolute position embeddings.
    "cerebras_mini": ZooEntry(
        name="cerebras_mini",
        positional="learned",
        d_model=64,
        n_layers=2,
        n_heads=4,
        d_ff=192,
        max_seq_len=512,
        datasets=("cnn_dailymail", "soda"),
        n_steps=260,
        batch_size=12,
        description="Cerebras-GPT analogue (learned absolute positions)",
    ),
    # MPT uses ALiBi attention biases.
    "mpt_mini": ZooEntry(
        name="mpt_mini",
        positional="alibi",
        d_model=64,
        n_layers=2,
        n_heads=4,
        d_ff=192,
        max_seq_len=512,
        datasets=("cnn_dailymail", "soda"),
        n_steps=260,
        batch_size=12,
        description="MPT analogue (ALiBi), also used as MPT-chat for conversation",
    ),
    # MPT-storywriter analogue: same architecture, trained on long documents.
    "mpt_storywriter_mini": ZooEntry(
        name="mpt_storywriter_mini",
        positional="alibi",
        d_model=64,
        n_layers=2,
        n_heads=4,
        d_ff=192,
        max_seq_len=1024,
        datasets=("govreport",),
        n_steps=160,
        batch_size=6,
        description="MPT-storywriter analogue (ALiBi) for long-context summarization",
    ),
}

#: Mapping from paper model names to zoo entries (for experiment reports).
PAPER_NAME_MAP = {
    "GPT-J-6B": "gptj_mini",
    "Cerebras-GPT-6.7B": "cerebras_mini",
    "MPT-7B": "mpt_mini",
    "MPT-7B-chat": "mpt_mini",
    "MPT-7B-storywriter": "mpt_storywriter_mini",
}


def get_model_config(name: str, vocab_size: int) -> ModelConfig:
    """Resolve a zoo entry into a :class:`ModelConfig`."""
    if name not in MODEL_ZOO:
        raise KeyError(f"unknown model {name!r}; available: {sorted(MODEL_ZOO)}")
    entry = MODEL_ZOO[name]
    return ModelConfig(
        vocab_size=vocab_size,
        d_model=entry.d_model,
        n_layers=entry.n_layers,
        n_heads=entry.n_heads,
        d_ff=entry.d_ff,
        max_seq_len=entry.max_seq_len,
        positional=entry.positional,
        name=name,
    )


# ----------------------------------------------------------------------
# training with on-disk caching
# ----------------------------------------------------------------------

def _cache_paths(cache_dir: Path, key: str) -> tuple[Path, Path]:
    return cache_dir / f"{key}.npz", cache_dir / f"{key}.json"


def _training_pairs(entry: ZooEntry, tokenizer, world, seed: int):
    """Build the training pairs (padded to a shared length) for a zoo entry."""
    from repro.data.registry import make_dataset

    datasets = [
        make_dataset(ds_name, world=world, n_examples=48, seed=seed + i)
        for i, ds_name in enumerate(entry.datasets)
    ]
    max_len = max(ds.max_sequence_length(tokenizer) for ds in datasets)
    max_len = min(max_len, entry.max_seq_len - 64)
    pairs = []
    for ds in datasets:
        pairs.extend(ds.to_training_pairs(tokenizer, max_len))
    return pairs, max_len


def load_or_train(
    name: str,
    cache_dir: Path | str | None = None,
    n_steps: int | None = None,
    seed: int = 0,
    force_retrain: bool = False,
    log_fn: Callable[[str], None] | None = None,
):
    """Return ``(model, tokenizer, world)`` for a zoo entry, training if needed.

    Trained weights are cached under ``cache_dir`` (default
    ``./.cache/models`` or ``$KEYFORMER_REPRO_CACHE``), keyed by the model
    name, step count and seed, so repeated calls — e.g. from the benchmark
    harness — reuse the same trained model.
    """
    from repro.data.registry import build_shared_tokenizer
    from repro.data.world import SyntheticWorld
    from repro.training.trainer import Trainer, TrainingConfig

    if name not in MODEL_ZOO:
        raise KeyError(f"unknown model {name!r}; available: {sorted(MODEL_ZOO)}")
    entry = MODEL_ZOO[name]
    n_steps = entry.n_steps if n_steps is None else n_steps

    world = SyntheticWorld(seed=0)
    tokenizer = build_shared_tokenizer(world)
    config = get_model_config(name, tokenizer.vocab_size)
    model = DecoderLM(config, seed=seed)

    cache_dir = Path(cache_dir) if cache_dir is not None else DEFAULT_CACHE_DIR
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = f"{name}_steps{n_steps}_seed{seed}_v{tokenizer.vocab_size}"
    weights_path, meta_path = _cache_paths(cache_dir, key)

    if weights_path.exists() and not force_retrain:
        with np.load(weights_path) as data:
            state = {k: data[k] for k in data.files}
        model.load_state_dict(state)
        return model, tokenizer, world

    pairs, max_len = _training_pairs(entry, tokenizer, world, seed)
    trainer = Trainer(
        model,
        TrainingConfig(
            n_steps=n_steps,
            batch_size=entry.batch_size,
            lr=3e-3,
            warmup_steps=max(n_steps // 10, 1),
            seed=seed,
            log_every=0,
        ),
        log_fn=log_fn,
    )
    result = trainer.train_on_dataset(pairs)

    np.savez(weights_path, **model.state_dict())
    meta = {
        "model": name,
        "n_steps": n_steps,
        "seed": seed,
        "vocab_size": tokenizer.vocab_size,
        "max_training_len": max_len,
        "initial_loss": result.initial_loss,
        "final_loss": result.final_loss,
        "datasets": list(entry.datasets),
    }
    meta_path.write_text(json.dumps(meta, indent=2))
    return model, tokenizer, world
