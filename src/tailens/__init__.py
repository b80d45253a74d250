"""Particle-ensemble classifiers for long-tailed data with utility-aware decisions."""

from .dataset import generate_synthetic
from .decision import decide_batch
from .rebalance import DiscrepancySpec
from .trainer import TrainConfig, evaluate, train
from .utility import one_hot

# the names the README's library example imports; the rest live in the modules
__all__ = [
    "DiscrepancySpec",
    "TrainConfig",
    "decide_batch",
    "evaluate",
    "generate_synthetic",
    "one_hot",
    "train",
]
