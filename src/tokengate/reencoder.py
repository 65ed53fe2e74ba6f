"""Temporal re-encoding of the kept token sequence.

Kept tokens receive their absolute-time encodings once, then pass
through a stack of pre-norm residual blocks (RMSNorm -> self-attention
-> add; RMSNorm -> feed-forward -> add).  Depth 0 is the re-encoding
ablation and is an exact identity.

``reencode`` runs on the gradient tape and is the reference;
``reencode_values`` computes the same z on plain arrays for inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ShapeError
from .layers import (
    EPS_NORM,
    AttentionWeights,
    FeedForwardWeights,
    MapFn,
    Tensor,
    as_var,
    feed_forward,
    multi_head_attention,
    rmsnorm,
    time_encode,
)


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

    def named_tensors(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.gain_attn", self.gain_attn
        yield f"{prefix}.gain_ffn", self.gain_ffn
        yield from self.attn.named_tensors(f"{prefix}.attn")
        yield from self.ffn.named_tensors(f"{prefix}.ffn")

    def map_tensors(self, prefix: str, fn: MapFn) -> "ReencoderBlock":
        return ReencoderBlock(
            gain_attn=fn(f"{prefix}.gain_attn", self.gain_attn),
            gain_ffn=fn(f"{prefix}.gain_ffn", self.gain_ffn),
            attn=self.attn.map_tensors(f"{prefix}.attn", fn),
            ffn=self.ffn.map_tensors(f"{prefix}.ffn", fn),
        )


@dataclass
class ReencoderStack:
    """Residual re-encoding blocks; an empty stack disables re-encoding."""

    blocks: list[ReencoderBlock]

    @property
    def depth(self) -> int:
        return len(self.blocks)

    @classmethod
    def seeded(cls, d: int, heads: int, depth: int, rng: np.random.Generator) -> "ReencoderStack":
        return cls([ReencoderBlock.seeded(d, heads, rng) for _ in range(depth)])

    def named_tensors(self, prefix: str = "reencoder") -> Iterator[tuple[str, Tensor]]:
        for i, block in enumerate(self.blocks):
            yield from block.named_tensors(f"{prefix}.b{i}")

    def map_tensors(self, fn: MapFn, prefix: str = "reencoder") -> "ReencoderStack":
        return ReencoderStack(
            [b.map_tensors(f"{prefix}.b{i}", fn) for i, b in enumerate(self.blocks)]
        )


def reencode(
    z: Var | ad.Array,
    timestamps,
    stack: ReencoderStack,
    add_time: bool = True,
) -> Var:
    """Re-encode kept tokens, preserving shape and row order.

    Time encodings of the tokens' original absolute timestamps are added
    once before the first block.  ``add_time=False`` drops the
    positional term (used by permutation-equivariance checks).
    """
    z = as_var(z)
    if stack.depth == 0:
        return z
    n, d = z.shape
    ts = np.asarray(timestamps, dtype=np.float64).ravel()
    if ts.size != n:
        raise ShapeError(f"{ts.size} timestamps for {n} kept tokens")
    if add_time:
        z = ad.add(z, ad.const(time_encode(ts, d)))
    for block in stack.blocks:
        normed = rmsnorm(z, block.gain_attn)
        attn_out, _ = multi_head_attention(normed, normed, block.attn)
        z = ad.add(z, attn_out)
        normed = rmsnorm(z, block.gain_ffn)
        z = ad.add(z, feed_forward(normed, block.ffn))
    return z


def reencode_values(z: ad.Array, timestamps, stack: ReencoderStack) -> ad.Array:
    """Tape-free ``reencode`` (with the time term): the same z up to rounding.

    Each block projects with one GEMM per packed d x d weight, the
    1/sqrt(d_h) scale folded into the queries.  Every head's logits go
    into one n x n buffer shared by all heads and blocks, exponentiated
    in place after the row-max shift; the row sums divide the n x d_h
    head output instead of the n x n weights (as FlashAttention defers
    its normalisation, arXiv 2205.14135).  ``z`` is not modified.
    """
    if stack.depth == 0:
        return z
    n, d = z.shape
    ts = np.asarray(timestamps, dtype=np.float64).ravel()
    if ts.size != n:
        raise ShapeError(f"{ts.size} timestamps for {n} kept tokens")
    x = time_encode(ts, d)
    x += z
    logits = np.empty((n, n))
    heads = np.empty((n, d))
    for block in stack.blocks:
        attn = block.attn
        wq, wk, wv, wo = (as_var(t).value for t in (attn.wq, attn.wk, attn.wv, attn.wo))
        if wq.shape[0] != d:
            raise ShapeError(f"re-encoder width {wq.shape[0]} vs token width {d}")
        normed = _rmsnorm_values(x, block.gain_attn)
        d_h = d // attn.heads
        q = normed @ wq
        q *= 1.0 / math.sqrt(d_h)
        k_t = np.ascontiguousarray((normed @ wk).T)  # row slices feed BLAS untransposed
        v = normed @ wv
        for h in range(attn.heads):
            cols = slice(h * d_h, (h + 1) * d_h)
            np.matmul(q[:, cols], k_t[cols], out=logits)
            logits -= logits.max(axis=1, keepdims=True)
            np.exp(logits, out=logits)
            heads[:, cols] = logits @ v[:, cols]
            heads[:, cols] /= logits.sum(axis=1, keepdims=True)
        x += heads @ wo

        ffn = block.ffn
        w1, b1, w2, b2 = (as_var(t).value for t in (ffn.w1, ffn.b1, ffn.w2, ffn.b2))
        hidden = _rmsnorm_values(x, block.gain_ffn) @ w1
        hidden += b1
        hidden *= ad.sigmoid_values(hidden)
        out = hidden @ w2
        out += b2
        x += out
    return x


def _rmsnorm_values(x: ad.Array, gain: Tensor) -> ad.Array:
    """``layers.rmsnorm`` on plain arrays, in the same operation order."""
    inv_rms = ((x * x).mean(axis=1, keepdims=True) + EPS_NORM) ** -0.5
    out = x * inv_rms
    out *= as_var(gain).value
    return out
