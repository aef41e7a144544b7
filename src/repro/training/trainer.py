"""Mini training loop used to produce the evaluation model zoo.

The trainer consumes batches of ``(input_ids, target_ids)`` produced by the
synthetic datasets in :mod:`repro.data`; ``target_ids`` uses ``-100`` to mask
positions that should not contribute to the loss (typically the document part
of a summarization example, so the model learns to generate the summary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.models.transformer import DecoderLM
from repro.training.lr_schedule import CosineWithWarmup
from repro.training.optimizer import Adam, clip_gradients

__all__ = ["TrainingConfig", "TrainingResult", "Trainer"]

Batch = tuple[np.ndarray, np.ndarray]


@dataclass
class TrainingConfig:
    """Hyper-parameters of a training run."""

    n_steps: int = 300
    batch_size: int = 16
    lr: float = 3e-3
    warmup_steps: int = 20
    weight_decay: float = 0.01
    grad_clip: float = 1.0
    min_lr: float = 1e-4
    log_every: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_steps <= 0:
            raise ValueError("n_steps must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")


@dataclass
class TrainingResult:
    """Summary of a finished training run."""

    losses: list[float] = field(default_factory=list)
    final_loss: float = float("inf")
    n_steps: int = 0

    @property
    def initial_loss(self) -> float:
        return self.losses[0] if self.losses else float("inf")


class Trainer:
    """Gradient-descent trainer for :class:`DecoderLM`."""

    def __init__(
        self,
        model: DecoderLM,
        config: TrainingConfig | None = None,
        log_fn: Callable[[str], None] | None = None,
    ):
        self.model = model
        self.config = config or TrainingConfig()
        self.log_fn = log_fn
        self.optimizer = Adam(
            model,
            lr=self.config.lr,
            weight_decay=self.config.weight_decay,
        )
        # Clamp warmup so short runs (e.g. in tests) remain valid.
        warmup = min(self.config.warmup_steps, max(self.config.n_steps - 1, 0))
        self.schedule = CosineWithWarmup(
            lr=self.config.lr,
            warmup_steps=warmup,
            total_steps=self.config.n_steps,
            min_lr=self.config.min_lr,
        )

    def _log(self, message: str) -> None:
        if self.log_fn is not None:
            self.log_fn(message)

    def train(self, batches: Iterable[Batch]) -> TrainingResult:
        """Run the configured number of steps over an iterable of batches.

        The iterable is cycled if it is shorter than ``n_steps``; it may also
        be a generator that yields fresh batches forever.
        """
        result = TrainingResult()
        iterator = iter(batches)
        cached: list[Batch] = []
        exhausted = False

        for step in range(self.config.n_steps):
            try:
                if exhausted:
                    raise StopIteration
                batch = next(iterator)
                cached.append(batch)
            except StopIteration:
                exhausted = True
                if not cached:
                    raise ValueError("training iterable produced no batches") from None
                batch = cached[step % len(cached)]

            input_ids, target_ids = batch
            loss = self.model.train_step_gradients(input_ids, target_ids)
            clip_gradients(self.model, self.config.grad_clip)
            self.optimizer.step(lr=self.schedule(step))

            result.losses.append(float(loss))
            if self.config.log_every and step % self.config.log_every == 0:
                self._log(f"step {step:5d}  loss {loss:.4f}")

        result.final_loss = result.losses[-1]
        result.n_steps = self.config.n_steps
        return result

    def train_on_dataset(
        self, examples: Sequence[Batch], rng: np.random.Generator | None = None
    ) -> TrainingResult:
        """Train by sampling mini-batches (with replacement) from ``examples``.

        Each example is a ``(input_ids, target_ids)`` pair of equal-length 1-D
        arrays; examples in a batch are stacked, so all examples must share a
        common length (datasets in :mod:`repro.data` pad to a fixed length).
        """
        if not examples:
            raise ValueError("examples must be non-empty")
        rng = rng or np.random.default_rng(self.config.seed)

        def batch_generator():
            while True:
                idx = rng.integers(0, len(examples), size=self.config.batch_size)
                inputs = np.stack([examples[i][0] for i in idx])
                targets = np.stack([examples[i][1] for i in idx])
                yield inputs, targets

        return self.train(batch_generator())
