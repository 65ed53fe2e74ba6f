"""Adaptive retention-budget prediction.

Four signals summarize an instance: the mean query embedding (semantic
difficulty), log token count (length cue), peak relevance (confidence
spike), and relevance entropy (evidence dispersion).  A small MLP maps
them to a retention fraction rho in (rho_min, rho_max), which the
budget arithmetic turns into a kept-token count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ConfigError, InputError, ParameterError, ShapeError
from .layers import Tensor, as_var, uniform_init
from .scoring import EPS_REL, normalize_relevance

# Fixed affine scalings applied to the scalar features before the MLP so
# no single input dominates at random init: log M is divided by LOG_M_SCALE,
# entropy by its upper bound ln(M).
LOG_M_SCALE = 12.0
ENTROPY_TINY = 1e-12


@dataclass
class BudgetFeatures:
    """Inputs to the budget head for one instance.

    ``s_q``, ``r_max`` and ``entropy`` stay differentiable (tape
    variables when tracking); ``log_m`` is exact ln(M).
    """

    s_q: Var
    log_m: float
    r_max: Var
    entropy: Var
    m: int

    @property
    def r_max_value(self) -> float:
        return self.r_max.item()

    @property
    def entropy_value(self) -> float:
        return self.entropy.item()

    @property
    def sq_mean(self) -> float:
        """Scalar reduction of s_q (component mean), used by diagnostics."""
        return float(self.s_q.value.mean())


@dataclass
class BudgetHead:
    """Two-hidden-layer MLP plus final sigmoid projection onto [rho_min, rho_max]."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w_out: Tensor
    b_out: Tensor
    rho_min: float = 0.05
    rho_max: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.rho_min < self.rho_max <= 1.0):
            raise ParameterError(
                f"retention bounds must satisfy 0 < rho_min < rho_max <= 1, "
                f"got [{self.rho_min}, {self.rho_max}]"
            )

    @property
    def input_dim(self) -> int:
        w1 = self.w1.value if isinstance(self.w1, Var) else self.w1
        return w1.shape[0]

    @classmethod
    def seeded(
        cls,
        d: int,
        rng: np.random.Generator,
        hidden: int = 128,
        rho_min: float = 0.05,
        rho_max: float = 0.5,
    ) -> "BudgetHead":
        in_dim = d + 3
        return cls(
            w1=uniform_init(rng, in_dim, hidden),
            b1=np.zeros((1, hidden)),
            w2=uniform_init(rng, hidden, hidden),
            b2=np.zeros((1, hidden)),
            w_out=uniform_init(rng, hidden, 1),
            b_out=np.zeros((1, 1)),
            rho_min=rho_min,
            rho_max=rho_max,
        )


def extract_features(q: Var, r: Var, m: int) -> BudgetFeatures:
    """Budget-head inputs from the query matrix and relevance vector.

    s_q is the exact column mean of q.  r_max and the entropy of
    p = r / (sum r + EPS_REL) come from one pass over r
    (``scoring.normalize_relevance``) and stay on the tape as one
    operation each, whose backward recomputes what it needs; beyond r
    the call holds p, p*log p and a boolean mask, about 2.1 M floats.
    Negative entries of r raise ``InputError``.
    """
    q = as_var(q)
    r = as_var(r)
    if q.shape[0] == 0:
        raise InputError("cannot extract features from an empty query")
    if r.shape != (1, m):
        raise ShapeError(f"relevance shape {r.shape} does not match token count {m}")
    r_max, entropy = _peak_and_entropy(r)
    return BudgetFeatures(s_q=ad.col_means(q), log_m=math.log(m), r_max=r_max, entropy=entropy, m=m)


def _peak_and_entropy(r: Var) -> tuple[Var, Var]:
    """r_max and H(p) of a (1, M) relevance row as two tape operations.

    The r_max adjoint goes to the first maximal entry.  The entropy
    adjoint is dH/dr_j = (c - a_j) / s with s = sum r + EPS_REL,
    a_j = log p_j + 1 (0 where p_j = 0, the subgradient of 0*log 0) and
    c = sum_i a_i p_i.
    """
    rv = r.value
    top = int(rv.argmax())
    entropy = normalize_relevance(rv)[1]

    def peak_backward(g):
        out = np.zeros(rv.shape)
        out[0, top] = g[0, 0]
        return (out,)

    def entropy_backward(g):
        s = rv.sum() + EPS_REL
        p = rv / s
        positive = p > 0
        a = np.where(positive, p, 1.0)
        np.log(a, out=a)
        np.add(a, 1.0, out=a, where=positive)
        c = np.vdot(a, p)
        np.subtract(c, a, out=a)
        a *= g[0, 0] / s
        return (a,)

    r_max = ad.apply(rv[:, top : top + 1].copy(), (r,), peak_backward)
    return r_max, ad.apply(np.array([[entropy]]), (r,), entropy_backward)


def predict_rho(features: BudgetFeatures, head: BudgetHead) -> Var:
    """Retention fraction strictly inside (rho_min, rho_max), differentiable
    with respect to the features and every head parameter."""
    d = features.s_q.shape[1]
    if head.input_dim != d + 3:
        raise ConfigError(
            f"budget head expects input dim {head.input_dim}, features give {d + 3}"
        )
    log_m_scaled = ad.scalar(features.log_m / LOG_M_SCALE)
    entropy_scaled = ad.smul(features.entropy, 1.0 / (features.log_m + ENTROPY_TINY))
    inp = ad.hcat([features.s_q, log_m_scaled, features.r_max, entropy_scaled])
    h1 = ad.tanh(ad.add(ad.matmul(inp, as_var(head.w1)), as_var(head.b1)))
    h2 = ad.tanh(ad.add(ad.matmul(h1, as_var(head.w2)), as_var(head.b2)))
    logit = ad.add(ad.matmul(h2, as_var(head.w_out)), as_var(head.b_out))
    span = head.rho_max - head.rho_min
    return ad.add_const(ad.smul(ad.sigmoid(logit), span), head.rho_min)


def compute_budget(rho: float, m: int, n_max: int) -> int:
    """Kept-token budget n = max(1, min(ceil(rho*M), n_max, M))."""
    if m < 1 or n_max < 1:
        raise ParameterError(f"token count and cap must be >= 1, got M={m}, n_max={n_max}")
    if not (0.0 < rho <= 1.0):
        raise ParameterError(f"retention fraction must lie in (0, 1], got {rho}")
    # round before ceil so float fuzz at integer targets cannot add a token
    target = math.ceil(round(rho * m, 9))
    return max(1, min(target, n_max, m))

