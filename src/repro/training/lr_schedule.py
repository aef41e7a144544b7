"""Learning-rate schedules."""

from __future__ import annotations

import numpy as np

__all__ = ["CosineWithWarmup"]


class CosineWithWarmup:
    """Linear warmup followed by cosine decay to ``min_lr``."""

    def __init__(self, lr: float, warmup_steps: int, total_steps: int, min_lr: float = 0.0):
        if total_steps <= warmup_steps:
            raise ValueError("total_steps must exceed warmup_steps")
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.min_lr = min_lr

    def __call__(self, step: int) -> float:
        if step < self.warmup_steps:
            return self.lr * (step + 1) / max(self.warmup_steps, 1)
        progress = (step - self.warmup_steps) / max(self.total_steps - self.warmup_steps, 1)
        progress = min(progress, 1.0)
        cosine = 0.5 * (1.0 + np.cos(np.pi * progress))
        return self.min_lr + (self.lr - self.min_lr) * cosine
