"""Query-aware visual token selection with adaptive retention budgets.

The pipeline scores visual tokens against a text query with cross
attention, predicts an instance-specific retention fraction, gates
tokens through a solved-threshold Gumbel straight-through gate (hard
Top-n at inference), and re-encodes the survivors with absolute-time
information.

The training and evaluation names (from ``harness``) load on first
access, so a process that only loads weights and runs inference never
imports that module.
"""

import importlib

from .autodiff import Tape, Var
from .budget import BudgetFeatures, BudgetHead, compute_budget, extract_features, predict_rho
from .config import RunConfig, load_config, parse_config_text
from .gate import find_threshold, hard_top_n, threshold_gradients
from .reencoder import ReencoderStack, reencode
from .scoring import ScoringWeights, score
from .selector import (
    DiagnosticsRecord,
    SelectionResult,
    SelectorModel,
    load_weights,
    save_weights,
    select,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetFeatures",
    "BudgetHead",
    "DiagnosticsRecord",
    "EvalRow",
    "OptimizerConfig",
    "PenaltyWeights",
    "ReencoderStack",
    "RunConfig",
    "ScoringWeights",
    "SelectionResult",
    "SelectorModel",
    "Tape",
    "Var",
    "WorkloadSpec",
    "compute_budget",
    "compute_penalties",
    "evaluate",
    "extract_features",
    "find_threshold",
    "from_csv",
    "generate_workload",
    "hard_top_n",
    "load_config",
    "load_weights",
    "parse_config_text",
    "predict_rho",
    "reencode",
    "save_weights",
    "score",
    "select",
    "threshold_gradients",
    "to_csv",
    "total_loss",
    "train_desk_scale",
]

# Names exported from ``harness``, the module that only training and
# evaluation use; ``__getattr__`` (PEP 562) resolves them on first access.
_LAZY = frozenset(
    (
        "EvalRow",
        "OptimizerConfig",
        "PenaltyWeights",
        "WorkloadSpec",
        "compute_penalties",
        "evaluate",
        "from_csv",
        "generate_workload",
        "to_csv",
        "total_loss",
        "train_desk_scale",
    )
)


def __getattr__(name: str):
    if name != "harness" and name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    harness = importlib.import_module(f"{__name__}.harness")  # binds tokengate.harness
    if name == "harness":
        return harness
    value = getattr(harness, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
