"""Query-aware visual token selection with adaptive retention budgets.

The pipeline scores visual tokens against a text query with cross
attention, predicts an instance-specific retention fraction, gates
tokens through a solved-threshold Gumbel straight-through gate (hard
Top-n at inference), and re-encodes the survivors with absolute-time
information.
"""

from .autodiff import Tape, Var
from .budget import BudgetFeatures, BudgetHead, compute_budget, extract_features, predict_rho
from .config import RunConfig, load_config, parse_config_text
from .gate import find_threshold, hard_top_n, threshold_gradients
from .harness import (
    EvalRow,
    OptimizerConfig,
    WorkloadSpec,
    evaluate,
    from_csv,
    generate_workload,
    to_csv,
    train_desk_scale,
)
from .objective import PenaltyWeights, compute_penalties, total_loss
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
