"""Temporal re-encoding of the kept token sequence.

Kept tokens receive their absolute-time encodings once, then pass
through a stack of pre-norm residual blocks (RMSNorm -> self-attention
-> add; RMSNorm -> feed-forward -> add).  Depth 0 is the re-encoding
ablation and is an exact identity.

``reencode`` serves inference and training alike: each block is one
GEMM per packed projection and a row-tiled attention, recorded on the
tape as one operation whose backward recomputes what it needs, so its
memory is O(n * d + ATTENTION_ROWS * n) for n kept tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import layers
from .autodiff import Var
from .errors import ShapeError
from .layers import EPS_NORM, AttentionWeights, FeedForwardWeights, Tensor, as_var, time_encode

# Query rows per attention tile in ``reencode``: a tile's logits take
# ATTENTION_ROWS * n floats, so memory stays linear in the kept count n.
# At the default n_max = 256 an inference call is one tile per head.
ATTENTION_ROWS = 256


@dataclass
class ReencoderBlock:
    gain_attn: Tensor
    gain_ffn: Tensor
    attn: AttentionWeights
    ffn: FeedForwardWeights

    @classmethod
    def seeded(cls, d: int, heads: int, rng: np.random.Generator) -> "ReencoderBlock":
        return cls(
            gain_attn=np.ones((1, d)),
            gain_ffn=np.ones((1, d)),
            attn=AttentionWeights.seeded(d, heads, rng),
            ffn=FeedForwardWeights.seeded(d, rng),
        )


@dataclass
class ReencoderStack:
    """Residual re-encoding blocks; an empty stack disables re-encoding."""

    blocks: list[ReencoderBlock] = field(metadata={"tag": "b"})

    @property
    def depth(self) -> int:
        return len(self.blocks)

    @classmethod
    def seeded(cls, d: int, heads: int, depth: int, rng: np.random.Generator) -> "ReencoderStack":
        return cls([ReencoderBlock.seeded(d, heads, rng) for _ in range(depth)])


def reencode(z: Var | ad.Array, timestamps, stack: ReencoderStack) -> Var:
    """Re-encode kept tokens, preserving shape and row order.

    Time encodings of the tokens' original absolute timestamps are added
    once before the first block.  Each block is one tape operation
    (``_block``); ``z`` is not modified.
    """
    z = as_var(z)
    if stack.depth == 0:
        return z
    n, d = z.shape
    ts = np.asarray(timestamps, dtype=np.float64).ravel()
    if ts.size != n:
        raise ShapeError(f"{ts.size} timestamps for {n} kept tokens")
    z = ad.add(z, ad.const(time_encode(ts, d)))
    for block in stack.blocks:
        z = _block(z, block)
    return z


def _block(x: Var, block: ReencoderBlock) -> Var:
    """One residual block, x + attn(norm(x)) then + ffn(norm(.)), as one
    tape operation.

    The forward keeps nothing but its input for the backward, which
    runs the block forward again for its intermediates and then the
    FlashAttention backward (arXiv 2205.14135): each head's weights are
    recomputed ATTENTION_ROWS query rows at a time, so no n x n map is
    ever stored.
    """
    params = tuple(as_var(t) for _, t in layers.named_tensors(block))
    values = tuple(p.value for p in params)  # in the order _block_forward unpacks
    heads = block.attn.heads
    width = as_var(block.attn.wq).shape[0]
    if width != x.shape[1]:
        raise ShapeError(f"re-encoder width {width} vs token width {x.shape[1]}")
    out, _ = _block_forward(x.value, values, heads)

    def backward(g):
        return _block_backward(g, x.value, values, heads)

    return ad.apply(out, (x, *params), backward)


def _block_forward(x: ad.Array, values: tuple, heads: int) -> tuple[ad.Array, tuple]:
    """The block's output and the intermediates its backward needs.

    One GEMM per packed d x d projection, the 1/sqrt(d_h) scale folded
    into the queries; the row sums divide the n x d_h head output
    instead of the n x n weights (FlashAttention's deferred
    normalisation).
    """
    gain_attn, gain_ffn, wq, wk, wv, wo, w1, b1, w2, b2 = values
    normed, inv_attn = _rmsnorm(x, gain_attn)
    q = normed @ wq
    q *= 1.0 / math.sqrt(x.shape[1] // heads)
    k_t = np.ascontiguousarray((normed @ wk).T)  # row slices feed BLAS untransposed
    v = normed @ wv
    o = np.empty_like(x)
    for cols, rows, e, sums in _attention_tiles(q, k_t, heads):
        o[rows, cols] = e @ v[:, cols]
        o[rows, cols] /= sums
    mid = x + o @ wo

    normed_ffn, inv_ffn = _rmsnorm(mid, gain_ffn)
    pre = normed_ffn @ w1
    pre += b1
    gate = ad.sigmoid_values(pre)
    hidden = pre * gate  # SiLU
    out = hidden @ w2
    out += b2
    out += mid
    saved = (normed, inv_attn, q, k_t, v, o, mid, normed_ffn, inv_ffn, pre, gate, hidden)
    return out, saved


def _block_backward(g: ad.Array, x: ad.Array, values: tuple, heads: int) -> tuple:
    """Adjoints of the block input and of ``values``, in their order."""
    gain_attn, gain_ffn, wq, wk, wv, wo, w1, b1, w2, b2 = values
    _, saved = _block_forward(x, values, heads)
    normed, inv_attn, q, k_t, v, o, mid, normed_ffn, inv_ffn, pre, gate, hidden = saved

    d_pre = (g @ w2.T) * (gate * (1.0 + pre * (1.0 - gate)))
    d_gain_ffn, d_mid = _rmsnorm_backward(d_pre @ w1.T, mid, inv_ffn, gain_ffn)
    d_mid += g
    d_o = d_mid @ wo.T

    d_q, d_k, d_v = np.empty_like(q), np.zeros_like(q), np.zeros_like(v)
    for cols, rows, p, sums in _attention_tiles(q, k_t, heads):
        p /= sums
        d_o_h = d_o[rows, cols]
        d_v[:, cols] += p.T @ d_o_h
        d_s = d_o_h @ v[:, cols].T
        d_s -= (d_o_h * o[rows, cols]).sum(axis=1, keepdims=True)
        d_s *= p
        d_q[rows, cols] = d_s @ k_t[cols].T
        d_k[:, cols] += d_s.T @ q[rows, cols]
    d_q *= 1.0 / math.sqrt(x.shape[1] // heads)

    d_normed = d_q @ wq.T + d_k @ wk.T + d_v @ wv.T
    d_gain_attn, d_x = _rmsnorm_backward(d_normed, x, inv_attn, gain_attn)
    d_x += d_mid
    return (
        d_x,
        d_gain_attn,
        d_gain_ffn,
        normed.T @ d_q,
        normed.T @ d_k,
        normed.T @ d_v,
        o.T @ d_mid,
        normed_ffn.T @ d_pre,
        d_pre.sum(axis=0, keepdims=True),
        hidden.T @ g,
        g.sum(axis=0, keepdims=True),
    )


def _attention_tiles(q: ad.Array, k_t: ad.Array, heads: int):
    """(columns, rows, e, row sums) per head and per ATTENTION_ROWS query
    rows, e = exp(logits - row max) in one buffer that every tile reuses."""
    n, d = q.shape
    d_h = d // heads
    buf = np.empty((min(n, ATTENTION_ROWS), n))
    for h in range(heads):
        cols = slice(h * d_h, (h + 1) * d_h)
        for start in range(0, n, ATTENTION_ROWS):
            rows = slice(start, min(start + ATTENTION_ROWS, n))
            e = buf[: rows.stop - start]
            np.matmul(q[rows, cols], k_t[cols], out=e)
            e -= e.max(axis=1, keepdims=True)
            np.exp(e, out=e)
            yield cols, rows, e, e.sum(axis=1, keepdims=True)


def _rmsnorm(x: ad.Array, gain: ad.Array) -> tuple[ad.Array, ad.Array]:
    """gain * x / sqrt(mean_j x_j^2 + EPS_NORM) per row, and the row
    factors 1/sqrt(...)."""
    inv_rms = ((x * x).mean(axis=1, keepdims=True) + EPS_NORM) ** -0.5
    out = x * inv_rms
    out *= gain
    return out, inv_rms


def _rmsnorm_backward(
    d_out: ad.Array, x: ad.Array, inv_rms: ad.Array, gain: ad.Array
) -> tuple[ad.Array, ad.Array]:
    """Adjoints (gain, x) of ``_rmsnorm``."""
    d_gain = (d_out * x * inv_rms).sum(axis=0, keepdims=True)
    d_y = d_out * gain
    d_x = d_y * inv_rms
    d_x -= x * (inv_rms**3 * (d_y * x).mean(axis=1, keepdims=True))
    return d_gain, d_x
