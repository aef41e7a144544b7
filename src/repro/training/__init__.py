"""Training utilities for the NumPy transformer substrate."""

from repro.training.optimizer import Adam
from repro.training.lr_schedule import CosineWithWarmup
from repro.training.trainer import Trainer, TrainingConfig, TrainingResult

__all__ = [
    "Adam",
    "CosineWithWarmup",
    "Trainer",
    "TrainingConfig",
    "TrainingResult",
]
