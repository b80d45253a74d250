"""Particle-ensemble classifiers for long-tailed data with utility-aware decisions."""

from .dataset import (
    LongTailDataset,
    RegionPartition,
    TailSplit,
    generate_synthetic,
    load_csv,
    region_partition,
    save_csv,
)
from .decision import BatchDecisions, DecisionOutput, decide, decide_batch
from .ensemble import (
    DiversityDiagnostics,
    ParticleEnsemble,
    RegularizerValue,
    diversity_diagnostics,
    entropy_term,
    l2_term,
    load_checkpoint,
    regularizer,
    save_checkpoint,
)
from .errors import InputError, NumericError, ParseError, ValidationError
from .metrics import (
    MetricsReport,
    auc_misclassification,
    expected_calibration_error,
    false_head_rate,
    predictive_entropy,
    region_accuracy,
)
from .numcore import NetShape, param_count
from .objective import LossBreakdown, batch_loss
from .rebalance import ClassWeights, DiscrepancySpec, class_weights, f_value, growth_rate
from .trainer import (
    EpochRecord,
    RunSummary,
    TrainConfig,
    anneal_weight,
    evaluate,
    repeat_runs,
    train,
)
from .utility import UtilityMatrix, load_matrix, one_hot, tail_sensitive

__version__ = "0.1.0"

__all__ = [
    "BatchDecisions",
    "ClassWeights",
    "DecisionOutput",
    "DiscrepancySpec",
    "DiversityDiagnostics",
    "EpochRecord",
    "InputError",
    "LongTailDataset",
    "LossBreakdown",
    "MetricsReport",
    "NetShape",
    "NumericError",
    "ParseError",
    "ParticleEnsemble",
    "RegionPartition",
    "RegularizerValue",
    "RunSummary",
    "TailSplit",
    "TrainConfig",
    "UtilityMatrix",
    "ValidationError",
    "anneal_weight",
    "auc_misclassification",
    "batch_loss",
    "class_weights",
    "decide",
    "decide_batch",
    "diversity_diagnostics",
    "entropy_term",
    "evaluate",
    "expected_calibration_error",
    "f_value",
    "false_head_rate",
    "generate_synthetic",
    "growth_rate",
    "l2_term",
    "load_checkpoint",
    "load_csv",
    "load_matrix",
    "one_hot",
    "param_count",
    "predictive_entropy",
    "region_accuracy",
    "region_partition",
    "regularizer",
    "repeat_runs",
    "save_checkpoint",
    "save_csv",
    "tail_sensitive",
    "train",
]
