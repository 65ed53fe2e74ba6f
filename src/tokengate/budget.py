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
from .autodiff import Array, Var
from .config import RunConfig
from .errors import ConfigError, InputError, ParameterError, ShapeError
from .layers import Tensor, as_var, check_weights, uniform_init, unscanned_var

# Stabilizer in the relevance normalization p_i = r_i / (sum_j r_j + EPS_REL).
EPS_REL = 1e-8

# Fixed affine scalings applied to the scalar features before the MLP so
# no single input dominates at random init: log M is divided by LOG_M_SCALE,
# entropy by its upper bound ln(M).
LOG_M_SCALE = 12.0
ENTROPY_TINY = 1e-12


@dataclass
class BudgetFeatures:
    """Inputs to the budget head for one instance.

    ``q`` and ``r`` are the query matrix and the (1, M) relevance row as
    given, tracked or not; ``predict_rho`` differentiates through them.
    The rest are their values: ``s_q`` the (1, d) column mean of q,
    ``log_m`` exact ln(M), ``r_max`` and ``entropy`` the peak and the
    entropy of r, and ``top`` the first index where r is maximal.
    """

    q: Var
    r: Var
    s_q: Array
    log_m: float
    r_max: float
    entropy: float
    top: int

    @property
    def sq_mean(self) -> float:
        """Scalar reduction of s_q (component mean), used by diagnostics."""
        return float(self.s_q.mean())


@dataclass
class BudgetHead:
    """Two-hidden-layer MLP whose sigmoid output ``predict_rho`` maps
    onto the run config's [rho_min, rho_max].  A non-finite array raises
    an ``InputError`` naming the tensor (``budget.<field>``) when the head
    is built."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w_out: Tensor
    b_out: Tensor

    def __post_init__(self) -> None:
        check_weights(self, "budget")

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @classmethod
    def seeded(
        cls, d: int, rng: np.random.Generator, hidden: int = RunConfig.budget_hidden
    ) -> "BudgetHead":
        in_dim = d + 3
        return cls(
            w1=uniform_init(rng, in_dim, hidden),
            b1=np.zeros((1, hidden)),
            w2=uniform_init(rng, hidden, hidden),
            b2=np.zeros((1, hidden)),
            w_out=uniform_init(rng, hidden, 1),
            b_out=np.zeros((1, 1)),
        )


def extract_features(q: Var, r: Var, m: int) -> BudgetFeatures:
    """Budget-head inputs from the query matrix and relevance vector.

    Records nothing on a tape: ``predict_rho`` differentiates through q
    and r itself.  s_q is the exact column mean of q; r_max and the
    entropy H(p) = -sum p log p of p = r / (sum r + EPS_REL), with
    0 log 0 := 0, come from one pass over r (``_normalized``), which
    holds p, p*log p and a boolean mask beyond r, about 2.1 M floats.
    A negative, NaN or infinite entry of r raises ``InputError``.
    """
    q = as_var(q)
    r = as_var(r)
    if q.shape[0] == 0:
        raise InputError("cannot extract features from an empty query")
    if r.shape != (1, m):
        raise ShapeError(f"relevance shape {r.shape} does not match token count {m}")
    rv = r.value
    top = int(rv.argmax())
    r_max = float(rv[0, top])  # argmax stops at the first NaN, so r_max is NaN too
    if not (rv.min() >= 0.0 and math.isfinite(r_max)):
        raise InputError("relevance values must be finite and nonnegative")
    _, p, positive, plogp = _normalized(rv)
    np.multiply(plogp, p, out=plogp, where=positive)
    return BudgetFeatures(
        q=q,
        r=r,
        s_q=q.value.mean(axis=0, keepdims=True),
        log_m=math.log(m),
        r_max=r_max,
        entropy=float(-plogp.sum()),
        top=top,
    )


def _normalized(rv: Array) -> tuple[float, Array, Array, Array]:
    """s = sum r + EPS_REL, p = r / s, the mask p > 0 and log p (0 where
    p = 0): what the entropy and its adjoint share."""
    s = rv.sum() + EPS_REL
    p = rv / s
    positive = p > 0
    log_p = np.where(positive, p, 1.0)
    np.log(log_p, out=log_p)
    return s, p, positive, log_p


def _relevance_adjoint(rv: Array, top: int, g_max: float, g_entropy: float) -> Array:
    """Adjoint of r_max and H(p) with respect to a (1, M) relevance row.

    The r_max adjoint ``g_max`` goes to the first maximal entry ``top``.
    The entropy part is dH/dr_j = (c - a_j) / s with s = sum r + EPS_REL,
    a_j = log p_j + 1 (0 where p_j = 0, the subgradient of 0*log 0) and
    c = sum_i a_i p_i, times ``g_entropy``.
    """
    s, p, positive, a = _normalized(rv)
    np.add(a, 1.0, out=a, where=positive)
    c = np.vdot(a, p)
    np.subtract(c, a, out=a)
    a *= g_entropy / s
    a[0, top] += g_max
    return a


def predict_rho(features: BudgetFeatures, head: BudgetHead, cfg: RunConfig = RunConfig()) -> Var:
    """Retention fraction strictly inside (cfg.rho_min, cfg.rho_max),
    differentiable with respect to q, r and every head parameter.

    The whole budget stage is one tape operation over q, r and the six
    head tensors.  Its input row is [s_q, ln M / LOG_M_SCALE, r_max,
    entropy / (ln M + ENTROPY_TINY)], then h1 = tanh(inp @ w1 + b1),
    h2 = tanh(h1 @ w2 + b2) and rho = rho_min + span * sigmoid(h2 @ w_out
    + b_out).  The backward is the chain rule of that composition, in the
    same numpy expressions and order as its per-primitive tape form, so
    values and gradients are bit-equal to it.  The weight gradients
    a.T @ g of two rows are taken with ``einsum``, whose one-term sums
    equal the GEMM's entry for entry at a quarter of its cost here.
    """
    l, d = features.q.shape
    if head.input_dim != d + 3:
        raise ConfigError(
            f"budget head expects input dim {head.input_dim}, features give {d + 3}"
        )
    weights = tuple(unscanned_var(t) for t in (head.w1, head.b1, head.w2, head.b2, head.w_out, head.b_out))
    w1, b1, w2, b2, w_out, b_out = (w.value for w in weights)
    rv, top = features.r.value, features.top
    entropy_scale = 1.0 / (features.log_m + ENTROPY_TINY)
    span = float(cfg.rho_max - cfg.rho_min)
    scalars = [features.log_m / LOG_M_SCALE, features.r_max, features.entropy * entropy_scale]
    inp = np.concatenate([features.s_q, np.array([scalars])], axis=1)
    h1 = np.tanh(inp @ w1 + b1)
    h2 = np.tanh(h1 @ w2 + b2)
    y = ad.sigmoid_values(h2 @ w_out + b_out)

    def backward(g):
        g_logit = g * span * y * (1.0 - y)
        g_z2 = g_logit @ w_out.T * (1.0 - h2 * h2)
        g_z1 = g_z2 @ w2.T * (1.0 - h1 * h1)
        g_inp = g_z1 @ w1.T
        return (
            np.repeat(g_inp[:, :d], l, axis=0) / l,
            _relevance_adjoint(rv, top, g_inp[0, d + 1], g_inp[0, d + 2] * entropy_scale),
            np.einsum("ki,kj->ij", inp, g_z1),
            g_z1,
            np.einsum("ki,kj->ij", h1, g_z2),
            g_z2,
            np.einsum("ki,kj->ij", h2, g_logit),
            g_logit,
        )

    if not np.isfinite(y[0, 0]):  # the features are finite: scan the head, naming a bad array
        check_weights(head, "budget")
    inputs = (features.q, features.r, *weights)
    return ad.apply(y * span + float(cfg.rho_min), inputs, backward)


def compute_budget(rho: float, m: int, n_max: int) -> int:
    """Kept-token budget n = max(1, min(ceil(rho*M), n_max, M))."""
    if m < 1 or n_max < 1:
        raise ParameterError(f"token count and cap must be >= 1, got M={m}, n_max={n_max}")
    if not (0.0 < rho <= 1.0):
        raise ParameterError(f"retention fraction must lie in (0, 1], got {rho}")
    # round before ceil so float fuzz at integer targets cannot add a token
    target = math.ceil(round(rho * m, 9))
    return max(1, min(target, n_max, m))

