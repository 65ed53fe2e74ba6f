"""Cross-attention relevance scoring between a text query and visual tokens.

Queries come from the text stream, keys from the visual stream; the
per-token relevance is the maximum attention weight any head at any
query position places on that token.  ``score`` streams the tokens in
chunks, so its memory does not grow with heads x query length x M, for
inference and training alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Var
from .errors import InputError, ShapeError
from .layers import AttentionWeights, Tensor, as_var

# Stabilizer in the relevance normalization p_i = r_i / (sum_j r_j + EPS_REL).
EPS_REL = 1e-8

# Tokens per chunk in ``score``.  Its one logits buffer takes heads*L*chunk
# floats (4 MiB at 4 heads x 16 query rows); smaller chunks pay the BLAS
# call overhead more often (2048 rows ran ~1.35x slower at M = 180k, 4 heads
# x 16 rows, 2-vCPU x86 with OpenBLAS 0.3.31).
RELEVANCE_CHUNK = 8192


@dataclass
class ScoringWeights:
    """Stacked cross-attention scoring layers, holding only tensors that
    reach the relevance.

    The last layer's packed ``wq``/``wk`` give the attention maps.  Each
    earlier layer only feeds the visual stream forward as the next key
    source x W_v W_o, so it keeps just its ``wv``/``wo``; its own maps
    reach no output.  Depth 1 is the default.
    """

    layers: list[AttentionWeights] = field(metadata={"tag": "l"})

    @property
    def heads(self) -> int:
        return self.layers[-1].heads

    @property
    def wq(self) -> Tensor:
        return self.layers[-1].wq

    @property
    def wk(self) -> Tensor:
        return self.layers[-1].wk

    @property
    def carry(self) -> list[tuple[Tensor, Tensor]]:
        """(wv, wo) of every layer before the last, first layer first."""
        return [(a.wv, a.wo) for a in self.layers[:-1]]

    @classmethod
    def seeded(cls, d: int, heads: int, depth: int, rng: np.random.Generator) -> "ScoringWeights":
        # Draw all four projections of every layer, then drop the unused
        # ones: the budget head and re-encoder draw from the same generator
        # next, so their seeded values do not depend on what is kept here.
        layers = [AttentionWeights.seeded(d, heads, rng) for _ in range(depth)]
        carry = [replace(a, wq=None, wk=None) for a in layers[:-1]]
        return cls([*carry, replace(layers[-1], wv=None, wo=None)])

    @classmethod
    def identity(cls, d: int) -> "ScoringWeights":
        return cls([replace(AttentionWeights.identity(d), wv=None, wo=None)])


def score(x: Var | Array, q: Var | Array, w: ScoringWeights) -> Var:
    """Relevance r in [0, 1]^M of every visual token, a (1, M) row.

    r_i is the largest attention weight any head at any query position
    places on token i.  Every layer before the last only feeds
    hcat(x W_v^h) W_o forward, which is linear, so the final-layer
    logits of all (head, query) pairs are x @ A.T for one (heads*L, d)
    matrix A, built from q and the weights by a few small tape
    operations.  Pass 1 streams row chunks of x and keeps a running max
    and sum-exp per (head, query) row (online softmax, arXiv
    1805.02867), giving its log-sum-exp lse.  Pass 2 recomputes each
    chunk and takes r_i = exp(max_{h,l}(logit - lse)): one exp per
    token and no attention map.  Every chunk of both passes is computed
    into one (heads*L, min(M, RELEVANCE_CHUNK)) buffer, allocated once
    per call, so beyond r the call holds a single chunk of logits.

    When x or A is tracked, the M-sized part records one tape operation
    that keeps only lse.  Its backward recomputes each chunk's logits
    twice into a buffer of its own, routing token i's adjoint to its
    first maximal (head-major, then query-position) row.  Raw arrays
    are checked for finiteness here; Vars are not rescanned (``select``
    passes x and q already checked at its boundary).
    """
    x = as_var(x)
    q = as_var(q)
    _check_streams(x.value, q.value)
    return _max_attention(x, _logit_matrix(q, w))


def _check_streams(x: Array, q: Array) -> None:
    if x.shape[0] == 0 or q.shape[0] == 0:
        raise InputError("scoring requires nonempty visual and query streams")
    if q.shape[1] != x.shape[1]:
        raise ShapeError(f"query dim {q.shape[1]} does not match token dim {x.shape[1]}")


def _logit_matrix(q: Var, w: ScoringWeights) -> Var:
    """The (heads*L, d) matrix A whose product with token row x_i gives
    token i's final-layer logits for every (head, query) pair, head-major.

    Row (h, l) is query row l projected by W_q, zeroed outside head h's
    columns, times the key projection: the zeros let one product serve
    every head.
    """
    wq, keys = as_var(w.wq), as_var(w.wk)
    if wq.shape[0] != q.shape[1]:
        raise ShapeError(f"token dim {q.shape[1]} does not match scoring weights {wq.shape}")
    for wv, wo in reversed(w.carry):  # x -> final-layer keys
        keys = ad.matmul(ad.matmul(as_var(wv), as_var(wo)), keys)
    d_h = wq.shape[1] // w.heads
    rows = np.tile(np.arange(q.shape[0]), w.heads)
    own = np.kron(np.eye(w.heads), np.ones((q.shape[0], d_h)))  # head h's columns
    per_head = ad.mul(ad.take_rows(ad.matmul(q, wq), rows), ad.const(own))
    return ad.smul(ad.matmul(per_head, ad.transpose(keys)), 1.0 / math.sqrt(d_h))


def _chunks(x: Array, a: Array, buf: Array) -> Iterator[tuple[slice, Array]]:
    """(rows, a @ x[rows].T) over the stream, each a view of ``buf``.

    ``buf`` is (rows of a, min(M, RELEVANCE_CHUNK)); every chunk is
    computed into it, so the caller must be done with one chunk before
    asking for the next.  Every chunk fills the whole buffer (the last
    one overlaps its predecessor and drops the repeated columns): each
    token's logits then come from a GEMM of one shape, so identical
    tokens tie exactly.
    """
    m, size = x.shape[0], buf.shape[1]
    for start in range(0, m, size):
        lo = max(0, min(start, m - size))
        np.matmul(a, x[lo : lo + size].T, out=buf)
        logits = buf[:, start - lo :]
        yield slice(start, start + logits.shape[1]), logits


def _logit_buffer(x: Array, a: Array) -> Array:
    return np.empty((a.shape[0], min(x.shape[0], RELEVANCE_CHUNK)))


def _top_rows(logits: Array) -> Array:
    """Each column's first maximal row; unlike ``argmax(axis=0)``, which
    copies the whole chunk to make the axis contiguous, this copies only
    a boolean mask of it."""
    return (logits == logits.max(axis=0)).argmax(axis=0)


def _max_attention(x: Var, a: Var) -> Var:
    """r_i = max_k softmax_i(a @ x.T)[k, i], streamed; see ``score``."""
    xv, av = x.value, a.value
    x_tracked = x.nid is not None
    buf = _logit_buffer(xv, av)
    run_max = np.full(av.shape[0], -np.inf)
    run_sum = np.zeros(av.shape[0])
    for _, logits in _chunks(xv, av, buf):
        new_max = np.maximum(run_max, logits.max(axis=1))
        logits -= new_max[:, None]
        np.exp(logits, out=logits)
        run_sum = run_sum * np.exp(run_max - new_max) + logits.sum(axis=1)
        run_max = new_max
    lse = run_max + np.log(run_sum)

    r = np.empty(xv.shape[0])
    for rows, logits in _chunks(xv, av, buf):
        logits -= lse[:, None]
        np.max(logits, axis=0, out=r[rows])
    np.exp(r, out=r)

    def backward(g):
        # With p = softmax rows and k_i token i's max row, dr_i/dlogit[k, j]
        # = r_i (delta_ij - p[k, j]) for k = k_i, so the logit adjoint is
        # G[k, j] = [k_j = k] g_j r_j - p[k, j] c_k, c_k = sum_{k_i = k} g_i r_i.
        g = g.ravel()
        grad_buf = _logit_buffer(xv, av)
        c = np.zeros(av.shape[0])
        for rows, logits in _chunks(xv, av, grad_buf):
            logits -= lse[:, None]
            c += np.bincount(_top_rows(logits), g[rows] * r[rows], c.size)
        da = np.zeros_like(av)
        dx = np.empty_like(xv) if x_tracked else None
        for rows, logits in _chunks(xv, av, grad_buf):
            logits -= lse[:, None]
            top = _top_rows(logits)
            np.exp(logits, out=logits)
            logits *= -c[:, None]
            logits[top, np.arange(top.size)] += g[rows] * r[rows]
            da += logits @ xv[rows]
            if dx is not None:
                np.matmul(logits.T, av, out=dx[rows])
        return dx, da

    return ad.apply(r.reshape(1, -1), (x, a), backward)


def normalize_relevance(r) -> tuple[Array, float]:
    """Normalized relevance p_i = r_i / (sum r + eps) and its entropy H(p).

    H uses the 0*log(0) := 0 convention; an all-zero r yields p = 0, H = 0.
    Beyond p the call holds one M-sized array, p*log p, and a boolean
    mask; ``budget.extract_features`` takes its entropy feature from here.
    """
    r = np.asarray(r, dtype=np.float64).ravel()
    if not (r.min(initial=0.0) >= 0.0 and np.isfinite(r.max(initial=0.0))):
        raise InputError("relevance values must be finite and nonnegative")
    p = r / (r.sum() + EPS_REL)
    positive = p > 0
    plogp = np.where(positive, p, 1.0)
    np.log(plogp, out=plogp)
    np.multiply(plogp, p, out=plogp, where=positive)  # 0 where p = 0: log 1 = 0
    return p, float(-plogp.sum())
