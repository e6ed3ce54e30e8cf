"""prunekit: channel pruning for CNNs with gate-scored importance.

Train a network with channel gates, read the gate activations as channel
importance, threshold them into a pruning plan, rewrite the architecture
into a dense compact network, and retrain it from scratch on a
FLOP-matched epoch budget.
"""

from .accounting import CompressionReport, count_flops, count_params, report
from .builders import ARCHITECTURES, build, strip_gates
from .bundle import ModelBundle, load_bundle, save_bundle
from .data import Dataset, DatasetSpec, load_dataset
from .graph import ArchitectureGraph, LayerNode
from .network import GradTape, Network
from .planner import (PruneConfig, PruningPlan, identity_plan, make_plan,
                      select_channels, threshold)
from .rewriter import RewriteOptions, apply
from .scoring import ScoreRecord, collect_scores
from .trainer import TrainConfig, evaluate, retrain, train

__version__ = "0.1.0"

__all__ = [
    "ARCHITECTURES", "ArchitectureGraph", "CompressionReport", "Dataset",
    "DatasetSpec", "GradTape", "LayerNode", "ModelBundle", "Network",
    "PruneConfig", "PruningPlan", "RewriteOptions", "ScoreRecord",
    "TrainConfig", "apply", "build", "collect_scores", "count_flops",
    "count_params", "evaluate", "identity_plan", "load_bundle", "load_dataset",
    "make_plan", "report", "retrain", "save_bundle", "select_channels",
    "strip_gates", "threshold", "train",
]
