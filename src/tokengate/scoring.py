"""Cross-attention relevance scoring between a text query and visual tokens.

Queries come from the text stream, keys from the visual stream; the
per-token relevance is the maximum attention weight any head at any
query position places on that token.  ``score`` streams the tokens in
chunks, so its memory does not grow with heads x query length x M, for
inference and training alike.

Scoring is one cross-attention layer: a layer stacked before it could
only pass x W_v W_o forward, which is linear, so a deeper scorer equals
one layer with key projection W_v W_o ... W_k (stacked linear maps change
how training moves, not what a model can represent; arXiv 1802.06509).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Var
from .errors import InputError, ShapeError
from .layers import AttentionWeights, Tensor, as_var, check_weights, weight_var

# Tokens per chunk in ``score``.  Its one logits buffer takes heads*L*chunk
# floats (4 MiB at 4 heads x 16 query rows), and it sets the call's peak
# memory.  Smaller chunks pay the BLAS call overhead more often: over M =
# 32k, 106k and 180k tokens (4 heads, 4-16 query rows, d = 32), chunks of
# 4096 and 2048 ran 7% and 8-14% slower than 8192, and 16384 ran 4-6%
# faster at twice the buffer (2-vCPU x86, OpenBLAS 0.3.31).  The size
# moves r's low bits: pass 1 sums each chunk and then adds up the chunk
# sums, so at 4096 r moved by up to 3.75e-15 relative on the long_video
# inputs; a new size must re-check the indices in perfbench/reference.npz.
RELEVANCE_CHUNK = 8192

# Smallest normal float64, 2^-1022: the floor of ``_sums_exact``.
TINY = np.finfo(np.float64).tiny


@dataclass
class ScoringWeights:
    """The packed query and key projections of the scoring layer, the only
    tensors that reach the relevance.  A non-finite array raises an
    ``InputError`` naming the tensor (``scoring.wq`` or ``scoring.wk``)
    when the container is built."""

    wq: Tensor
    wk: Tensor
    heads: int

    def __post_init__(self) -> None:
        check_weights(self, "scoring")

    @classmethod
    def seeded(cls, d: int, heads: int, rng: np.random.Generator) -> "ScoringWeights":
        # Draw all four projections and keep wq and wk: the budget head and
        # re-encoder draw from the same generator next, so their seeded
        # values do not depend on what is kept here.
        drawn = AttentionWeights.seeded(d, heads, rng)
        return cls(wq=drawn.wq, wk=drawn.wk, heads=heads)


def score(x: Var | Array, q: Var | Array, w: ScoringWeights) -> Var:
    """Relevance r in [0, 1]^M of every visual token, a (1, M) row.

    r_i is the largest attention weight any head at any query position
    places on token i.  The logits of all (head, query) pairs are
    x @ A.T for one (heads*L, d) matrix A, built from q and the weights
    by a few small tape operations.  Pass 1 streams row chunks of x
    through GEMM -> exp -> row sum, giving each (head, query) row's
    sum-exp S_k and its log-sum-exp lse_k = log S_k.  A guard (``_sums_exact``) accepts the
    sums only when each is finite and at least M * TINY, that is when no
    term overflowed and the subnormal ones cannot move S_k by more than
    its rounding, and when M > 1; any other input reruns pass 1 with a
    running max per row (online softmax, arXiv 1805.02867), which gives
    a one-token stream r = 1 exactly.  Pass 2 recomputes each
    chunk and takes r_i = exp(min(0, max_{h,l}(logit - lse))): one exp
    per token and no attention map.  The clamp at 0 keeps r_i <= 1 where
    log(exp(l)) rounds below l.  Every chunk of both passes is computed
    into one (heads*L, min(M, RELEVANCE_CHUNK)) buffer, allocated once
    per call, so beyond r the call holds a single chunk of logits.

    When x or A is tracked, the M-sized part records one tape operation
    that keeps only lse.  Its backward recomputes each chunk's logits
    twice into a buffer of its own, routing token i's adjoint to its
    first maximal (head-major, then query-position) row.

    A raw q is scanned for finiteness; x, raw or a Var, is not read for
    it.  Instead the two passes prove it finite (``_max_attention``), and
    only when that proof fails is x scanned, to raise ``InputError``
    naming x or to carry on for a finite x whose logits overflow.
    """
    x = token_stream(x)
    q = as_var(q, "q")
    _check_streams(x.value, q.value)
    return _max_attention(x, _logit_matrix(q, w), w)


def token_stream(x: Var | Array) -> Var:
    """x as a Var, coerced to a 2-D float64 matrix but not scanned:
    ``score`` proves its entries finite from its own outputs."""
    return x if isinstance(x, Var) else Var(ad.to_matrix(x, "x"))


def _check_streams(x: Array, q: Array) -> None:
    if x.shape[0] == 0 or q.shape[0] == 0:
        raise InputError("scoring requires nonempty visual and query streams")
    if q.shape[1] != x.shape[1]:
        raise ShapeError(f"query dim {q.shape[1]} does not match token dim {x.shape[1]}")


def _logit_matrix(q: Var, w: ScoringWeights) -> Var:
    """The (heads*L, d) matrix A whose product with token row x_i gives
    token i's logits for every (head, query) pair, head-major.

    Row (h, l) is query row l projected by W_q, zeroed outside head h's
    columns, times the key projection: the zeros let one product serve
    every head.
    """
    wq, wk = weight_var(w.wq), weight_var(w.wk)
    if wq.shape[0] != q.shape[1]:
        raise ShapeError(f"token dim {q.shape[1]} does not match scoring weights {wq.shape}")
    heads, l = w.heads, q.shape[0]
    d_h = wq.shape[1] // heads
    rows = np.tile(np.arange(l), heads)
    # Head h's columns in one allocation (np.kron takes 2-3x as long, and an
    # np.repeat pair leaves an intermediate that adds to the train peak).
    own = np.broadcast_to(np.eye(heads)[:, None, :, None], (heads, l, heads, d_h))
    own = own.reshape(heads * l, heads * d_h)
    per_head = ad.mul(ad.take_rows(ad.matmul(q, wq), rows), ad.const(own))
    return ad.smul(ad.matmul(per_head, ad.transpose(wk)), 1.0 / math.sqrt(d_h))


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


def _log_sum_exp(x: Array, a: Array, buf: Array) -> Array:
    """Each row's log-sum-exp over the stream, lse_k = log S_k with
    S_k = sum_i exp((a @ x.T)[k, i]): pass 1 of ``score``.

    The exp is taken straight off each chunk's GEMM, with no shift.  The
    sums are kept only when ``_sums_exact`` holds; otherwise the pass is
    rerun with a running max (online softmax, arXiv 1805.02867).
    """
    sums = np.zeros(a.shape[0])
    # An overflowing term leaves S_k = inf.  A non-finite x sets `invalid`
    # here (inf * 0 in the GEMM, inf - inf in the shift) and leaves lse
    # non-finite or its logits -inf, which ``_max_attention`` checks.
    with np.errstate(over="ignore", invalid="ignore"):
        for _, logits in _chunks(x, a, buf):
            np.exp(logits, out=logits)
            sums += logits.sum(axis=1)
        if _sums_exact(sums, x.shape[0]):
            return np.log(sums)
        run_max = np.full(a.shape[0], -np.inf)
        run_sum = np.zeros(a.shape[0])
        for _, logits in _chunks(x, a, buf):
            new_max = np.maximum(run_max, logits.max(axis=1))
            logits -= new_max[:, None]
            np.exp(logits, out=logits)
            run_sum = run_sum * np.exp(run_max - new_max) + logits.sum(axis=1)
            run_max = new_max
        return run_max + np.log(run_sum)


def _sums_exact(sums: Array, m: int) -> bool:
    """Whether unshifted sums S_k of m exp terms are as exact as shifted ones.

    A finite S_k proves that no term overflowed (every term is >= 0).  A
    term below TINY is subnormal and rounded to within 2^-1075 absolute,
    so the m terms together are off by at most m * 2^-1075; S_k >= m * TINY
    = m * 2^-1022 keeps that below 2^-53 * S_k, the relative rounding every
    normal term already carries.  A row whose logits all lie below log(TINY),
    about -708.4, fails the floor (its S_k may even be 0) and is rerun.
    A one-token stream (m = 1) is rerun too: there the shifted lse is the
    logit itself, so r = 1 exactly, while log(exp(l)) may round above l
    and leave r an ulp below 1.
    """
    return m > 1 and bool(np.all((sums >= m * TINY) & (sums < np.inf)))


def _max_attention(x: Var, a: Var, w: ScoringWeights) -> Var:
    """r_i = max_k softmax_i(a @ x.T)[k, i], streamed; see ``score``.

    x is never scanned for finiteness unless one of two checks fails.
    Token i's logit in row k is sum_j a[k, j] x[i, j], so a NaN or +-inf
    x[i, j] makes every term a[k, j] x[i, j] (0 * inf included) NaN or
    +-inf, and every logit of token i non-finite, in every row.  Either
    some logit is +inf or NaN, which leaves that row's lse NaN or inf
    (check 1, on heads*L values), or all of them are -inf, which leaves
    lse finite but the log-domain r_i exactly -inf (check 2, before the
    exp, on M values already in cache).  A failed check scans x, which
    raises ``InputError``.  A finite x that fails check 1 has a logit
    too large for float64 or a weight array of ``w`` made non-finite in
    place after ``w`` was built; ``w`` is then scanned, which names such
    a tensor, and otherwise ``InputError`` names x and q.  A finite x
    that fails only check 2 carries on.  Pass 2 runs without an
    errstate: past check 1, a non-finite x reaches it only as -inf logits
    beside a finite lse, which set no floating-point flag.
    """
    xv, av = x.value, a.value
    x_tracked = x.nid is not None
    buf = _logit_buffer(xv, av)
    lse = _log_sum_exp(xv, av, buf)
    if not np.isfinite(lse).all():
        ad.as_matrix(xv, "x")
        check_weights(w, "scoring")
        raise InputError("x and q give attention logits too large for float64")

    r = np.empty(xv.shape[0])
    for rows, logits in _chunks(xv, av, buf):
        logits -= lse[:, None]
        np.max(logits, axis=0, out=r[rows])
    np.minimum(r, 0.0, out=r)  # log(exp(l)) may round below l; r <= 1 regardless
    if r.min() == -np.inf:
        ad.as_matrix(xv, "x")
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
