"""Tape compositions of the scoring, budget and re-encoder forwards, and
the other helpers only tests call: test oracles.

``tokengate.scoring.score``, ``tokengate.budget.predict_rho`` (with
``extract_features``, the whole budget stage) and
``tokengate.reencoder.reencode`` are fused kernels with hand-written
backward passes.  The functions here compute the same quantities from
primitive tape operations (a few of them, such as ``colmax``, ``xlogx``,
``softmax_rows``, ``row_means``, ``col_means``, ``tanh``, ``hcat`` and
``pow_const``, defined here because only the oracles use them), with
every attention map built in full, so the tape derives their gradients
on its own.  The tests hold the kernels' values and gradients to these,
and these to central finite differences (``finite_difference_gradient``).
``exp``, ``dual_penalty`` and ``soft_gate_train`` are value-level
references some tests still exercise; nothing in ``tokengate`` calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from tokengate import autodiff as ad
from tokengate import gate
from tokengate.autodiff import Array, Var
from tokengate.budget import ENTROPY_TINY, LOG_M_SCALE, BudgetHead
from tokengate.config import RunConfig
from tokengate.errors import ConfigError, InputError, NumericError, ParameterError, ShapeError
from tokengate.gate import KeepMask
from tokengate.layers import (
    EPS_NORM,
    AttentionWeights,
    FeedForwardWeights,
    Tensor,
    as_var,
    time_encode,
)
from tokengate.objective import DualState
from tokengate.reencoder import ReencoderStack
from tokengate.scoring import EPS_REL, ScoringWeights


def div(a: Var, b: Var) -> Var:
    """Elementwise a / b under numpy broadcasting."""
    ad._check_broadcast(a, b, "div")
    value = a.value / b.value
    av, bv = a.value, b.value

    def backward(g):
        return (
            ad._unbroadcast(g / bv, a.shape),
            ad._unbroadcast(-g * av / (bv * bv), b.shape),
        )

    return ad.apply(value, (a, b), backward)


def xlogx(a: Var) -> Var:
    """Elementwise x*log(x) with the 0*log(0) := 0 convention."""
    av = a.value
    if np.any(av < 0):
        raise InputError("xlogx requires nonnegative entries")
    safe = np.where(av > 0, av, 1.0)
    y = np.where(av > 0, av * np.log(safe), 0.0)

    def backward(g):
        # subgradient 0 at exactly zero entries
        return (np.where(av > 0, np.log(safe) + 1.0, 0.0) * g,)

    return ad.apply(y, (a,), backward)


def colmax(a: Var) -> Var:
    """Column-wise maximum; the gradient routes to the first maximal row."""
    idx = np.argmax(a.value, axis=0)
    cols = np.arange(a.shape[1])
    shape = a.shape

    def backward(g):
        out = np.zeros(shape)
        out[idx, cols] = g[0]
        return (out,)

    return ad.apply(a.value[idx, cols].reshape(1, -1), (a,), backward)


def exp(a: Var) -> Var:
    y = np.exp(a.value)

    def backward(g):
        return (g * y,)

    return ad.apply(y, (a,), backward)


def pow_const(a: Var, p: float) -> Var:
    p = float(p)
    if p != int(p) and np.any(a.value < 0):
        raise InputError("fractional power of a negative entry")
    av = a.value
    y = av ** p

    def backward(g):
        return (g * p * av ** (p - 1.0),)

    return ad.apply(y, (a,), backward)


def _softmax_row_values(x: Array, temperature: float) -> Array:
    y = x / temperature
    y -= y.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)
    return y


def softmax_rows(a: Var, temperature: float = 1.0) -> Var:
    """Row-wise softmax with max-subtraction for stability."""
    t = float(temperature)
    if t <= 0:
        raise ParameterError(f"softmax temperature must be positive, got {t}")
    y = _softmax_row_values(a.value, t)

    def backward(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return ((y * (g - dot)) / t,)

    return ad.apply(y, (a,), backward)


def row_means(a: Var) -> Var:
    n, k = a.shape

    def backward(g):
        return (np.repeat(g, k, axis=1) / k,)

    return ad.apply(a.value.mean(axis=1, keepdims=True), (a,), backward)


def tanh(a: Var) -> Var:
    y = np.tanh(a.value)

    def backward(g):
        return (g * (1.0 - y * y),)

    return ad.apply(y, (a,), backward)


def col_means(a: Var) -> Var:
    n, k = a.shape

    def backward(g):
        return (np.repeat(g, n, axis=0) / n,)

    return ad.apply(a.value.mean(axis=0, keepdims=True), (a,), backward)


def hcat(parts: Sequence[Var]) -> Var:
    parts = tuple(parts)
    widths = [p.shape[1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=1))

    return ad.apply(np.concatenate([p.value for p in parts], axis=1), parts, backward)


def finite_difference_gradient(f: Callable[[Array], float], x, step: float = 1e-6) -> Array:
    """Central-difference gradient of a scalar function of a flat vector.

    The oracle against which every tape gradient in this package is
    checked; it never touches the tape.
    """
    if step <= 0:
        raise ParameterError(f"finite-difference step must be positive, got {step}")
    x = np.asarray(x, dtype=np.float64).ravel()
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        fp, fm = f(xp), f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"oracle evaluation non-finite at coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * step)
    return grad


def dual_penalty(rho: float, m: int, dual: DualState) -> float:
    """alpha * (rho*M - n_bar), the Lagrangian term for the budget target."""
    return dual.alpha * (rho * m - dual.n_bar)


def soft_gate_train(
    r, t: float, cfg: RunConfig, rng: np.random.Generator
) -> tuple[KeepMask, Array]:
    """Value-level training gate: sample noise, return (mask, soft scores)."""
    r = gate._as_relevance(r)
    noise = gate.sample_gumbel_pairs(r.size, rng)
    soft, _, mask = gate.soft_gate_apply(
        ad.const(r.reshape(1, -1)), ad.scalar(t), cfg.tau_s, noise
    )
    return mask, soft.value.ravel()


def features_oracle(r: Var) -> tuple[Var, Var]:
    """r_max and the entropy of p = r / (sum r + EPS_REL) of a (1, M) row,
    composed of eight tape operations."""
    r_max = colmax(ad.transpose(r))
    p = div(r, ad.add_const(ad.sum_all(r), EPS_REL))
    return r_max, ad.smul(ad.sum_all(xlogx(p)), -1.0)


def predict_rho_oracle(q: Var, r: Var, head: BudgetHead, cfg: RunConfig = RunConfig()) -> Var:
    """The budget stage from the query matrix and the (1, M) relevance row:
    ``col_means``, ``features_oracle`` and the head's thirteen tape
    operations, onto cfg's [rho_min, rho_max]."""
    log_m = math.log(r.shape[1])
    r_max, entropy = features_oracle(r)
    log_m_scaled = ad.scalar(log_m / LOG_M_SCALE)
    entropy_scaled = ad.smul(entropy, 1.0 / (log_m + ENTROPY_TINY))
    inp = hcat([col_means(q), log_m_scaled, r_max, entropy_scaled])
    h1 = tanh(ad.add(ad.matmul(inp, as_var(head.w1)), as_var(head.b1)))
    h2 = tanh(ad.add(ad.matmul(h1, as_var(head.w2)), as_var(head.b2)))
    logit = ad.add(ad.matmul(h2, as_var(head.w_out)), as_var(head.b_out))
    span = cfg.rho_max - cfg.rho_min
    return ad.add_const(ad.smul(ad.sigmoid(logit), span), cfg.rho_min)


def vcat(parts: Sequence[Var]) -> Var:
    """Row-wise concatenation."""
    parts = tuple(parts)
    splits = np.cumsum([p.shape[0] for p in parts])[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=0))

    return ad.apply(np.concatenate([p.value for p in parts], axis=0), parts, backward)


@dataclass
class AttentionMap:
    """Per-head attention weights, shape (heads, query_len, token_count)."""

    weights: Array

    @property
    def heads(self) -> int:
        return self.weights.shape[0]

    @property
    def query_len(self) -> int:
        return self.weights.shape[1]

    @property
    def token_count(self) -> int:
        return self.weights.shape[2]

    def validate(self, atol: float = 1e-9) -> None:
        if np.any(self.weights < 0) or np.any(self.weights > 1):
            raise InputError("attention weights outside [0, 1]")
        sums = self.weights.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > atol):
            raise InputError("attention rows do not sum to 1")


def attention_heads(
    q_in: Var, kv_in: Var, wq: Tensor, wk: Tensor, heads: int
) -> Iterator[tuple[Array, Var]]:
    """Per-head maps softmax((q_in W_q^h)(kv_in W_k^h)^T / sqrt(d_h)),
    yielded as (packed columns of head h, map)."""
    d = q_in.shape[1]
    if kv_in.shape[1] != d:
        raise ShapeError(f"query dim {d} vs key/value dim {kv_in.shape[1]}")
    if d % heads != 0:
        raise ConfigError(f"model dim {d} not divisible by {heads} heads")
    wq, wk = as_var(wq), as_var(wk)
    d_h = wq.shape[1] // heads
    for h in range(heads):
        cols = np.arange(h * d_h, (h + 1) * d_h)
        q = ad.matmul(q_in, ad.take_cols(wq, cols))
        k = ad.matmul(kv_in, ad.take_cols(wk, cols))
        logits = ad.smul(ad.matmul(q, ad.transpose(k)), 1.0 / math.sqrt(d_h))
        yield cols, softmax_rows(logits, 1.0)


def score(x, q, w: ScoringWeights) -> tuple[AttentionMap, Var]:
    """The attention map and r = colmax of the stacked per-head maps;
    ties route the gradient to the first maximal (head, query) row."""
    x = as_var(x)
    q = as_var(q)
    if x.shape[0] == 0 or q.shape[0] == 0:
        raise InputError("scoring requires nonempty visual and query streams")
    maps = [attn for _, attn in attention_heads(q, x, w.wq, w.wk, w.heads)]
    r = colmax(maps[0] if len(maps) == 1 else vcat(maps))
    return AttentionMap(np.stack([a.value for a in maps], axis=0)), r


def multi_head_attention(q_in, kv_in, w: AttentionWeights) -> tuple[Var, list[Var]]:
    """Attention of q_in rows over kv_in rows: (projected output, per-head maps)."""
    q_in = as_var(q_in)
    kv_in = as_var(kv_in)
    wv = as_var(w.wv)
    maps: list[Var] = []
    outs: list[Var] = []
    for cols, attn in attention_heads(q_in, kv_in, w.wq, w.wk, w.heads):
        maps.append(attn)
        outs.append(ad.matmul(attn, ad.matmul(kv_in, ad.take_cols(wv, cols))))
    merged = outs[0] if len(outs) == 1 else hcat(outs)
    return ad.matmul(merged, as_var(w.wo)), maps


def rmsnorm(x, gain: Tensor, eps: float = EPS_NORM) -> Var:
    """out_ij = gain_j * x_ij / sqrt(mean_j(x_ij^2) + eps)."""
    x = as_var(x)
    gain = as_var(gain)
    if gain.shape != (1, x.shape[1]):
        raise ShapeError(f"rmsnorm gain {gain.shape} does not match row width {x.shape[1]}")
    mean_sq = row_means(ad.mul(x, x))
    inv_rms = pow_const(ad.add_const(mean_sq, eps), -0.5)
    return ad.mul(ad.mul(x, inv_rms), gain)


def silu(x: Var) -> Var:
    return ad.mul(x, ad.sigmoid(x))


def feed_forward(x, w: FeedForwardWeights) -> Var:
    """Position-wise SiLU feed-forward."""
    x = as_var(x)
    w1, b1, w2, b2 = as_var(w.w1), as_var(w.b1), as_var(w.w2), as_var(w.b2)
    if x.shape[1] != w1.shape[0]:
        raise ShapeError(f"feed_forward input width {x.shape[1]} vs {w1.shape[0]}")
    hidden = silu(ad.add(ad.matmul(x, w1), b1))
    return ad.add(ad.matmul(hidden, w2), b2)


def reencode(z, timestamps, stack: ReencoderStack) -> Var:
    """The re-encoder as a tape graph of pre-norm residual blocks."""
    z = as_var(z)
    if stack.depth == 0:
        return z
    n, d = z.shape
    ts = np.asarray(timestamps, dtype=np.float64).ravel()
    if ts.size != n:
        raise ShapeError(f"{ts.size} timestamps for {n} kept tokens")
    z = ad.add(z, ad.const(time_encode(ts, d)))
    for block in stack.blocks:
        normed = rmsnorm(z, block.gain_attn)
        attn_out, _ = multi_head_attention(normed, normed, block.attn)
        z = ad.add(z, attn_out)
        z = ad.add(z, feed_forward(rmsnorm(z, block.gain_ffn), block.ffn))
    return z
