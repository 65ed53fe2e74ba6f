"""Compute-aware training objective.

The penalty couples the retention fraction to downstream cost: a
quadratic term for attention time, a linear term for KV memory (both
normalized by the cap n_max), and a quadratic prior pulling rho toward
a neutral mean.  Gradients in rho are analytic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .config import RunConfig, check_ranges
from .errors import ParameterError


@dataclass(frozen=True)
class PenaltyWeights:
    """The penalty's weights; each field is the RunConfig key of that
    name, with its default and its range."""

    lambda_t: float = RunConfig.lambda_t
    lambda_m: float = RunConfig.lambda_m
    lambda_s: float = RunConfig.lambda_s
    rho_bar: float = RunConfig.rho_bar

    def __post_init__(self) -> None:
        check_ranges(asdict(self), ParameterError)

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "PenaltyWeights":
        return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})


def compute_penalties(
    rho: float, m: int, n_max: int, w: PenaltyWeights
) -> tuple[float, float]:
    """Penalty value and its analytic d/drho.

    value = lt*(rho*M)^2/n_max^2 + lm*rho*M/n_max + ls*(rho - rho_bar)^2
    grad  = 2*lt*rho*M^2/n_max^2 + lm*M/n_max + 2*ls*(rho - rho_bar)
    """
    if m < 1 or n_max < 1:
        raise ParameterError(f"token count and cap must be >= 1, got M={m}, n_max={n_max}")
    value = (
        w.lambda_t * (rho * m) ** 2 / n_max**2
        + w.lambda_m * rho * m / n_max
        + w.lambda_s * (rho - w.rho_bar) ** 2
    )
    grad = (
        2.0 * w.lambda_t * rho * m**2 / n_max**2
        + w.lambda_m * m / n_max
        + 2.0 * w.lambda_s * (rho - w.rho_bar)
    )
    return value, grad


def penalty_var(rho: Var, m: int, n_max: int, w: PenaltyWeights) -> Var:
    """Penalty as a tape node; backward applies the analytic gradient."""
    value, grad = compute_penalties(rho.item(), m, n_max, w)

    def backward(g):
        return (np.array([[g[0, 0] * grad]]),)

    return ad.apply(np.array([[value]]), (rho,), backward)


def total_loss(
    task_loss: Var,
    rho: Var,
    m: int,
    n_max: int,
    w: PenaltyWeights,
) -> Var:
    """Task loss plus compute penalties.

    The task loss is a pluggable hook: any scalar tape variable works,
    and its gradients flow to whatever produced it while the penalty
    gradient flows to the budget head through rho.
    """
    return ad.add(task_loss, penalty_var(rho, m, n_max, w))
