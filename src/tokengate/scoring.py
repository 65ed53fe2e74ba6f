"""Cross-attention relevance scoring between a text query and visual tokens.

Queries come from the text stream, keys from the visual stream; the
per-token relevance is the maximum attention weight any head at any
query position places on that token.

``score`` runs on the gradient tape and returns the attention maps;
``relevance`` computes the same r without the tape, streaming the tokens
in chunks so its memory does not grow with heads x query length x M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Var
from .errors import InputError, ShapeError
from .layers import AttentionWeights, MapFn, Tensor, as_var

# Stabilizer in the relevance normalization p_i = r_i / (sum_j r_j + EPS_REL).
EPS_REL = 1e-8

# Tokens per chunk in ``relevance``.  A chunk's logits take heads*L*chunk
# floats (4 MiB at 4 heads x 16 query rows); smaller chunks pay the BLAS
# call overhead more often (2048 rows ran ~1.35x slower at M = 180k, 4 heads
# x 16 rows, 2-vCPU x86 with OpenBLAS 0.3.31).
RELEVANCE_CHUNK = 8192


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


@dataclass
class ScoringWeights:
    """Stacked cross-attention scoring layers.

    Depth 1 is the default; deeper stacks re-score after feeding the
    value-projected visual stream back as the next layer's key source.
    """

    layers: list[AttentionWeights]

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def heads(self) -> int:
        return self.layers[0].heads

    @classmethod
    def seeded(cls, d: int, heads: int, depth: int, rng: np.random.Generator) -> "ScoringWeights":
        return cls([AttentionWeights.seeded(d, heads, rng) for _ in range(depth)])

    @classmethod
    def identity(cls, d: int) -> "ScoringWeights":
        return cls([AttentionWeights.identity(d)])

    def named_tensors(self, prefix: str = "scoring") -> Iterator[tuple[str, Tensor]]:
        for i, layer in enumerate(self.layers):
            yield from layer.named_tensors(f"{prefix}.l{i}")

    def map_tensors(self, fn: MapFn, prefix: str = "scoring") -> "ScoringWeights":
        return ScoringWeights(
            [layer.map_tensors(f"{prefix}.l{i}", fn) for i, layer in enumerate(self.layers)]
        )


def score(x: Var | Array, q: Var | Array, w: ScoringWeights) -> tuple[AttentionMap, Var]:
    """Score visual tokens against the query.

    Returns the final layer's attention map and the relevance row vector
    r in [0, 1]^M, r_i = max over heads and query positions of the
    attention weight on token i.  Ties route the gradient to the first
    maximal (head-major, then query-position) slot.
    """
    x = as_var(x)
    q = as_var(q)
    _check_streams(x.value, q.value)

    x_cur = x
    attn_vars: list[Var] = []
    for depth_idx, layer in enumerate(w.layers):
        attn_vars = []
        values: list[Var] = []
        for h in range(layer.heads):
            wq, wk = as_var(layer.wq[h]), as_var(layer.wk[h])
            d_h = wq.shape[1]
            logits = ad.smul(
                ad.matmul(ad.matmul(q, wq), ad.transpose(ad.matmul(x_cur, wk))),
                1.0 / math.sqrt(d_h),
            )
            attn_vars.append(ad.softmax_rows(logits, 1.0))
            if depth_idx + 1 < w.depth:
                values.append(ad.matmul(x_cur, as_var(layer.wv[h])))
        if depth_idx + 1 < w.depth:
            merged = values[0] if len(values) == 1 else ad.hcat(values)
            x_cur = ad.matmul(merged, as_var(layer.wo))

    stacked = attn_vars[0] if len(attn_vars) == 1 else ad.vcat(attn_vars)
    relevance = ad.colmax(stacked)
    amap = AttentionMap(np.stack([a.value for a in attn_vars], axis=0))
    return amap, relevance


def _check_streams(x: Array, q: Array) -> None:
    if x.shape[0] == 0 or q.shape[0] == 0:
        raise InputError("scoring requires nonempty visual and query streams")
    if q.shape[1] != x.shape[1]:
        raise ShapeError(f"query dim {q.shape[1]} does not match token dim {x.shape[1]}")


def relevance(x: Var | Array, q: Var | Array, w: ScoringWeights) -> Array:
    """Tape-free relevance r in [0, 1]^M, equal to ``score``'s up to rounding.

    Every layer before the last only feeds hcat(x W_v^h) W_o forward,
    which is linear, so the final-layer logits of all (head, query)
    pairs are x @ A.T for one (heads*L, d) matrix A.  Pass 1 streams row
    chunks of x and keeps a running max and sum-exp per (head, query)
    row (online softmax, arXiv 1805.02867), giving its log-sum-exp lse.
    Pass 2 recomputes each chunk and takes r_i = exp(max_{h,l}(logit -
    lse)): one exp per token, O(RELEVANCE_CHUNK * heads * L) memory.
    Raw arrays are checked for finiteness here; Vars are not rescanned
    (``select`` passes x and q already checked at its boundary).
    """
    x = as_var(x).value
    q = as_var(q).value
    _check_streams(x, q)
    m = x.shape[0]
    a = _logit_matrix(q, w)

    def chunks() -> Iterator[tuple[int, Array]]:
        # Every chunk has RELEVANCE_CHUNK rows unless the whole stream is
        # shorter (the last one overlaps its predecessor and drops the
        # repeated columns): each token's logits then come from a GEMM of
        # one shape, so identical tokens tie exactly.
        for start in range(0, m, RELEVANCE_CHUNK):
            lo = max(0, min(start, m - RELEVANCE_CHUNK))
            yield start, (a @ x[lo : lo + RELEVANCE_CHUNK].T)[:, start - lo :]

    run_max = np.full(a.shape[0], -np.inf)
    run_sum = np.zeros(a.shape[0])
    for _, logits in chunks():
        new_max = np.maximum(run_max, logits.max(axis=1))
        logits -= new_max[:, None]
        np.exp(logits, out=logits)
        run_sum = run_sum * np.exp(run_max - new_max) + logits.sum(axis=1)
        run_max = new_max
    lse = run_max + np.log(run_sum)

    r = np.empty(m)
    for start, logits in chunks():
        logits -= lse[:, None]
        r[start : start + logits.shape[1]] = logits.max(axis=0)
    return np.exp(r, out=r)


def _logit_matrix(q: Array, w: ScoringWeights) -> Array:
    """The (heads*L, d) matrix A whose product with token row x_i gives
    token i's final-layer logits for every (head, query) pair, head-major."""
    proj = None  # x -> final-layer key source; None is the identity
    for layer in w.layers[:-1]:
        values = np.hstack([as_var(wv).value for wv in layer.wv])
        step = values @ as_var(layer.wo).value
        proj = step if proj is None else proj @ step
    blocks = []
    for wq, wk in zip(w.layers[-1].wq, w.layers[-1].wk):
        wq, wk = as_var(wq).value, as_var(wk).value
        if wq.shape[0] != q.shape[1]:
            raise ShapeError(f"token dim {q.shape[1]} does not match scoring weights {wq.shape}")
        keys = wk if proj is None else proj @ wk
        blocks.append(((q @ wq) @ keys.T) * (1.0 / math.sqrt(wq.shape[1])))
    return np.vstack(blocks)


def normalize_relevance(r) -> tuple[Array, float]:
    """Normalized relevance p_i = r_i / (sum r + eps) and its entropy H(p).

    H uses the 0*log(0) := 0 convention; an all-zero r yields p = 0, H = 0.
    """
    r = np.asarray(r, dtype=np.float64).ravel()
    if np.any(r < 0) or not np.all(np.isfinite(r)):
        raise InputError("relevance values must be finite and nonnegative")
    p = r / (r.sum() + EPS_REL)
    positive = p > 0
    entropy = float(-(p[positive] * np.log(p[positive])).sum())
    return p, entropy
