"""Temporal re-encoding of the kept token sequence.

Kept tokens receive their absolute-time encodings once, then pass
through a stack of pre-norm residual blocks (RMSNorm -> self-attention
-> add; RMSNorm -> feed-forward -> add).  Depth 0 is the re-encoding
ablation and is an exact identity.

``reencode`` serves inference and training alike: each block is one
GEMM per packed projection and a row-tiled attention (``attend``, which
``harness.evaluate`` also times as the downstream consumer), recorded on
the tape as one operation whose backward recomputes what it needs, so its
memory is O(n * d + ATTENTION_ROWS * n) for n kept tokens.

Exp is the only elementwise pass over an attention tile.  Any shift of
at least the row max gives the same softmax (online softmax, arXiv
1805.02867), and s_i = |q_i| * max_j |k_j| is one by Cauchy-Schwarz;
it rides the QK GEMM as a spare query column against a row of ones
under the keys, e = exp([q_h | -s] @ [k_h^T ; 1]), which cannot
overflow.  The row sums ride the PV GEMM as a column of ones beside the
values, e @ [v_h | 1], and divide the n x d_h output (FlashAttention,
arXiv 2205.14135).  A head whose largest s reaches SHIFT_LIMIT, where
a row's largest term exp(-2 s) would near the subnormal range, shifts
by the exact row max instead.
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

# Largest per-head shift bound s = |q_i| * max_j |k_j| that the attention
# tiles use as their softmax shift.  Every logit of row i lies in
# [-s_i, s_i], so the row's largest term exp(logit - s_i) is at least
# exp(-2 s_i); at this limit that is sqrt(tiny) = 2^-511 (tiny = 2^-1022,
# the smallest normal float64), so the row sum and the product of that
# term with any v entry of magnitude 2^-511 or more are normal floats.
# A head whose bound reaches the limit shifts by the exact row max
# instead.  Seeded weights at the default width give s of about 3.
SHIFT_LIMIT = -math.log(np.finfo(np.float64).tiny) / 4  # 1022 ln 2 / 4, about 177.1


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
    """Residual re-encoding blocks; an empty stack disables re-encoding.

    A non-finite array weight raises an ``InputError`` naming the tensor
    (``reencoder.b<i>.<field>``) when the stack is built.
    """

    blocks: list[ReencoderBlock] = field(metadata={"tag": "b"})

    def __post_init__(self) -> None:
        layers.check_weights(self, "reencoder")

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
    recomputed ATTENTION_ROWS query rows at a time by the forward's own
    tile generator, so no n x n map is ever stored.
    """
    a, f = block.attn, block.ffn  # the tensors in the order _block_forward unpacks
    tensors = (block.gain_attn, block.gain_ffn, a.wq, a.wk, a.wv, a.wo, f.w1, f.b1, f.w2, f.b2)
    params = tuple(layers.unscanned_var(t) for t in tensors)
    values = tuple(p.value for p in params)
    heads = a.heads
    width = a.wq.shape[0]
    if width != x.shape[1]:
        raise ShapeError(f"re-encoder width {width} vs token width {x.shape[1]}")
    xv = x.value
    out, _ = _block_forward(xv, values, heads)

    def backward(g):
        return _block_backward(g, xv, values, heads)

    return ad.apply(out, (x, *params), backward)


def _block_forward(x: ad.Array, values: tuple, heads: int) -> tuple[ad.Array, tuple]:
    """The block's output and the intermediates its backward needs.

    One GEMM per packed d x d projection, then ``attend`` over the
    projected rows.  SiLU is pre / (1 + exp(-pre)), one exp pass too.
    """
    gain_attn, gain_ffn, wq, wk, wv, wo, w1, b1, w2, b2 = values
    normed, inv_attn = _rmsnorm(x, gain_attn)
    o, sums, q_aug, k_aug, v_aug = attend(normed @ wq, normed @ wk, normed @ wv, heads)
    mid = x + o @ wo

    normed_ffn, inv_ffn = _rmsnorm(mid, gain_ffn)
    pre = normed_ffn @ w1
    pre += b1
    den = np.negative(pre)
    with np.errstate(over="ignore"):  # den = inf makes the SiLU -0
        np.exp(den, out=den)
    den += 1.0
    hidden = pre / den  # SiLU, pre * sigmoid(pre)
    out = hidden @ w2
    out += b2
    out += mid
    saved = (
        normed, inv_attn, q_aug, k_aug, v_aug, o, sums, mid, normed_ffn, inv_ffn, pre, den, hidden
    )
    return out, saved


def _block_backward(g: ad.Array, x: ad.Array, values: tuple, heads: int) -> tuple:
    """Adjoints of the block input and of ``values``, in their order."""
    gain_attn, gain_ffn, wq, wk, wv, wo, w1, b1, w2, b2 = values
    _, saved = _block_forward(x, values, heads)
    (normed, inv_attn, q_aug, k_aug, v_aug, o, sums,
     mid, normed_ffn, inv_ffn, pre, den, hidden) = saved
    n, d = x.shape
    d_h = d // heads

    gate = 1.0 / den  # sigmoid(pre)
    d_pre = g @ w2.T
    d_pre *= gate + hidden * (1.0 - gate)  # SiLU'
    d_gain_ffn, d_mid = _rmsnorm_backward(d_pre @ w1.T, mid, inv_ffn, gain_ffn)
    d_mid += g
    d_o = (d_mid @ wo.T).reshape(n, heads, d_h)

    # The logit adjoint p * (d_o_h v_h^T - rowdot(d_o_h, o_h)), p = e / sums,
    # is e * (g_aug[:, h] @ [v_h | 1]^T) for g_aug[:, h] = [d_o_h | -rowdot] / sums:
    # one GEMM and one product per tile.
    g_aug = np.empty_like(v_aug)
    g_aug[:, :, :-1] = d_o
    g_aug[:, :, -1] = -np.einsum("nhc,nhc->nh", d_o, o.reshape(n, heads, d_h))
    g_aug /= sums[:, :, None]
    d_q, d_k, d_v = np.empty_like(d_o), np.zeros_like(d_o), np.zeros_like(d_o)
    for h, rows, e in _attention_tiles(q_aug, k_aug):
        g_h = g_aug[rows, h]
        d_v[:, h] += e.T @ g_h[:, :-1]
        d_s = g_h @ v_aug[:, h].T
        d_s *= e
        d_q[rows, h] = d_s @ k_aug[h, :-1].T
        d_k[:, h] += d_s.T @ q_aug[rows, h, :-1]
    d_q, d_k, d_v = d_q.reshape(n, d), d_k.reshape(n, d), d_v.reshape(n, d)
    d_q *= 1.0 / math.sqrt(d_h)

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


def _per_head(a: ad.Array, heads: int, fill: float) -> ad.Array:
    """The n x d projection ``a`` as (n, heads, d_h + 1): head h's columns
    in [:, h, :d_h] and ``fill`` in the spare column [:, h, d_h]."""
    n, d = a.shape
    out = np.full((n, heads, d // heads + 1), fill)
    out[:, :, :-1] = a.reshape(n, heads, d // heads)
    return out


def attend(q: ad.Array, k: ad.Array, v: ad.Array, heads: int) -> tuple:
    """Softmax self-attention of n x d queries, keys and values, per head.

    Returns the n x d output o (head h in columns h*d_h:(h+1)*d_h), the
    (n, heads) row sums, and the (n, heads, d_h + 1) query and value and
    (heads, d_h + 1, n) key layouts of ``_per_head`` that
    ``_block_backward`` reuses, the 1/sqrt(d_h) scale folded into the
    queries.  ``_attention_tiles`` writes the shift -s_i into the
    queries' spare column (the keys' holds ones), so each tile is exp of
    one QK GEMM; the values' column of ones makes the PV GEMM yield each
    head's output and its row sums together, and the sums divide the
    n x d_h output, not the n x n weights (FlashAttention's deferred
    normalisation).  A head whose largest s_i reaches SHIFT_LIMIT
    subtracts its exact row max from each tile instead.
    """
    n, d = q.shape
    q_aug = _per_head(q, heads, 0.0)  # _attention_tiles writes -s in the spare column
    q_aug *= 1.0 / math.sqrt(d // heads)
    k_aug = np.ascontiguousarray(_per_head(k, heads, 1.0).transpose(1, 2, 0))
    v_aug = _per_head(v, heads, 1.0)
    ov = _attention(q_aug, k_aug, v_aug)
    sums = ov[:, :, -1]
    o = (ov[:, :, :-1] / ov[:, :, -1:]).reshape(n, d)
    return o, sums, q_aug, k_aug, v_aug


def _attention(q_aug: ad.Array, k_aug: ad.Array, v_aug: ad.Array) -> ad.Array:
    """(n, heads, d_h + 1) with [:, h] = e @ [v_h | 1] over head h's tiles:
    the head's unnormalised output and, in the last column, its row sums.
    The tile buffer is freed on return."""
    ov = np.empty_like(v_aug)
    for h, rows, e in _attention_tiles(q_aug, k_aug):
        ov[rows, h] = e @ v_aug[:, h]
    return ov


def _attention_tiles(q_aug: ad.Array, k_aug: ad.Array):
    """(head, rows, e) per head and per ATTENTION_ROWS query rows,
    e = exp(logits - shift) in one buffer that every tile reuses.

    ``q_aug`` (n, heads, d_h + 1) and ``k_aug`` (heads, d_h + 1, n) come
    from ``_per_head``, the keys' spare row holding ones.  The queries'
    spare column receives -s from ``_shift_bounds``, so the GEMM itself
    yields logits - s; a flagged head gets 0 there and subtracts its
    exact row max instead.
    """
    n, heads = q_aug.shape[:2]
    shift, exact = _shift_bounds(q_aug[:, :, :-1], k_aug[:, :-1])
    np.negative(shift, out=q_aug[:, :, -1])
    buf = np.empty((min(n, ATTENTION_ROWS), n))
    for h in range(heads):
        for start in range(0, n, ATTENTION_ROWS):
            rows = slice(start, min(start + ATTENTION_ROWS, n))
            e = buf[: rows.stop - start]
            np.matmul(q_aug[rows, h], k_aug[h], out=e)
            if exact[h]:
                e -= e.max(axis=1, keepdims=True)
            np.exp(e, out=e)
            yield h, rows, e


def _shift_bounds(q3: ad.Array, k3_t: ad.Array) -> tuple[ad.Array, ad.Array]:
    """The (n, heads) shifts s_ih = |q_ih| * max_j |k_jh|, each at least
    every logit of its row (Cauchy-Schwarz), and the (heads,) flags of
    the heads whose largest s reaches SHIFT_LIMIT (or is NaN); a flagged
    head's shifts are 0, as it takes the exact row max.

    ``q3`` is (n, heads, d_h) and ``k3_t`` is (heads, d_h, n).
    """
    shift = np.sqrt(np.einsum("nhc,nhc->nh", q3, q3))
    shift *= np.sqrt(np.einsum("hcn,hcn->hn", k3_t, k3_t).max(axis=1, initial=0.0))
    exact = ~(shift.max(axis=0, initial=0.0) < SHIFT_LIMIT)
    shift[:, exact] = 0.0
    return shift, exact


def _rmsnorm(x: ad.Array, gain: ad.Array) -> tuple[ad.Array, ad.Array]:
    """gain * x / sqrt(mean_j x_j^2 + EPS_NORM) per row, and the row
    factors 1/sqrt(...).

    A finite row whose mean square overflows (entries above about
    1.3e154) takes its factor from x / s for s = max_j |x_j|, as
    1 / (s * sqrt(mean_j (x_j / s)^2)): s is not squared, and
    EPS_NORM / s^2 lies far below that row's rounding.  Every other row
    keeps the plain formula.
    """
    with np.errstate(over="ignore"):
        mean_sq = (x * x).mean(axis=1, keepdims=True)
    inv_rms = (mean_sq + EPS_NORM) ** -0.5
    wide = np.isinf(mean_sq[:, 0])
    if wide.any():
        scale = np.abs(x[wide]).max(axis=1, keepdims=True)
        y = x[wide] / scale
        inv_rms[wide] = (y * y).mean(axis=1, keepdims=True) ** -0.5 / scale
    out = x * inv_rms
    out *= gain
    return out, inv_rms


def _rmsnorm_backward(
    d_out: ad.Array, x: ad.Array, inv_rms: ad.Array, gain: ad.Array
) -> tuple[ad.Array, ad.Array]:
    """Adjoints (gain, x) of ``_rmsnorm``, taken through the normalized
    rows x * inv_rms: no product with a huge x can overflow and no power
    of a tiny inv_rms can underflow."""
    normed = x * inv_rms
    d_gain = (d_out * normed).sum(axis=0, keepdims=True)
    d_x = d_out * gain
    d_x -= normed * (d_x * normed).mean(axis=1, keepdims=True)
    d_x *= inv_rms
    return d_gain, d_x
