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
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Var
from .errors import InputError, ShapeError
from .layers import AttentionWeights, MapFn, Tensor, as_var, attention_heads

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
    """Stacked cross-attention scoring layers, holding only tensors that
    reach the relevance.

    The last layer's packed ``wq``/``wk`` give the attention maps.  Each
    earlier layer only feeds the visual stream forward as the next key
    source x W_v W_o, so ``carry`` keeps just its (wv, wo); its own maps
    reach no output.  Depth 1 (no carry) is the default.
    """

    wq: Tensor
    wk: Tensor
    heads: int
    carry: list[tuple[Tensor, Tensor]] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.carry) + 1

    @classmethod
    def seeded(cls, d: int, heads: int, depth: int, rng: np.random.Generator) -> "ScoringWeights":
        # Draw all four projections of every layer, then drop the unused
        # ones: the budget head and re-encoder draw from the same generator
        # next, so their seeded values do not depend on what is kept here.
        layers = [AttentionWeights.seeded(d, heads, rng) for _ in range(depth)]
        return cls(layers[-1].wq, layers[-1].wk, heads, [(a.wv, a.wo) for a in layers[:-1]])

    @classmethod
    def identity(cls, d: int) -> "ScoringWeights":
        eye = AttentionWeights.identity(d)
        return cls(eye.wq, eye.wk, eye.heads)

    def named_tensors(self, prefix: str = "scoring") -> Iterator[tuple[str, Tensor]]:
        for i, (wv, wo) in enumerate(self.carry):
            yield f"{prefix}.l{i}.wv", wv
            yield f"{prefix}.l{i}.wo", wo
        yield f"{prefix}.l{self.depth - 1}.wq", self.wq
        yield f"{prefix}.l{self.depth - 1}.wk", self.wk

    def map_tensors(self, fn: MapFn, prefix: str = "scoring") -> "ScoringWeights":
        last = f"{prefix}.l{self.depth - 1}"
        return ScoringWeights(
            fn(f"{last}.wq", self.wq),
            fn(f"{last}.wk", self.wk),
            self.heads,
            [
                (fn(f"{prefix}.l{i}.wv", wv), fn(f"{prefix}.l{i}.wo", wo))
                for i, (wv, wo) in enumerate(self.carry)
            ],
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

    keys = x
    for wv, wo in w.carry:
        keys = ad.matmul(ad.matmul(keys, as_var(wv)), as_var(wo))
    attn_vars = [attn for _, attn in attention_heads(q, keys, w.wq, w.wk, w.heads)]

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
    wq, wk = as_var(w.wq).value, as_var(w.wk).value
    if wq.shape[0] != q.shape[1]:
        raise ShapeError(f"token dim {q.shape[1]} does not match scoring weights {wq.shape}")
    proj = None  # x -> final-layer key source; None is the identity
    for wv, wo in w.carry:
        step = as_var(wv).value @ as_var(wo).value
        proj = step if proj is None else proj @ step
    d_h = wq.shape[1] // w.heads
    blocks = []
    for h in range(w.heads):
        cols = slice(h * d_h, (h + 1) * d_h)
        keys = wk[:, cols] if proj is None else proj @ wk[:, cols]
        blocks.append(((q @ wq[:, cols]) @ keys.T) * (1.0 / math.sqrt(d_h)))
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
