"""Transformer building blocks: weight containers for packed multi-head
attention and the position-wise feed-forward, the tensor walk that names
and maps their weights, the RMSNorm stabilizer, and absolute-time
encodings.

Weight containers hold plain float64 arrays (or tape variables after
``bind``); the scoring and re-encoder kernels accept either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Iterator, TypeVar

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Var
from .errors import ConfigError, InputError

EPS_NORM = 1e-6

# Absolute-time encoding wavelengths, geometric from 1 s to 1e4 s; the
# slowest component keeps second-spaced timestamps distinct over hours.
TIME_WAVELENGTH_MIN = 1.0
TIME_WAVELENGTH_MAX = 1.0e4

Tensor = Array | Var
MapFn = Callable[[str, Tensor], Tensor]
C = TypeVar("C")


def as_var(x: Tensor, name: str = "const") -> Var:
    """``x`` itself if it is a Var, else an untracked constant; ``name``
    labels the input in the error raised for a malformed array."""
    return x if isinstance(x, Var) else ad.const(x, name)


def unscanned_var(t: Tensor, name: str = "matrix") -> Var:
    """``t`` if it is a Var, else ``t`` as a 2-D float64 Var, unscanned:
    ``check_weights`` or its tape proved a weight finite, and
    ``scoring.score`` proves its token stream finite from its outputs."""
    return t if isinstance(t, Var) else Var(ad.to_matrix(t, name))


def check_weights(container, prefix: str) -> None:
    """Raise ``InputError`` naming (as ``named_tensors`` does) the first
    array of ``container`` that is not a finite matrix.  Weight containers
    call this once, when built, so their kernels wrap them with ``unscanned_var``."""
    for name, tensor in named_tensors(container, prefix):
        if isinstance(tensor, np.ndarray):
            ad.as_matrix(tensor, name)


def uniform_init(rng: np.random.Generator, rows: int, cols: int) -> Array:
    """Scaled-uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    bound = 1.0 / math.sqrt(rows)
    return rng.uniform(-bound, bound, size=(rows, cols))


def check_timestamps(timestamps) -> Array:
    """The timestamps as a flat float64 array, each a finite, nonnegative
    number of seconds at most float max / 2pi (about 2.86e307), so that
    ``time_encode``'s angles 2pi * t / wavelength stay finite."""
    ts = np.asarray(timestamps, dtype=np.float64).ravel()
    limit = np.finfo(np.float64).max / (2.0 * math.pi)
    # min and max propagate NaN, which fails both comparisons
    if ts.size and not (ts.min() >= 0.0 and ts.max() <= limit):
        raise InputError(
            f"timestamps must be finite, nonnegative seconds, at most float max / 2pi = {limit:.6g}"
        )
    return ts


def time_encode(timestamps, d: int) -> Array:
    """Sinusoidal encoding of absolute timestamps (seconds) into d components.

    Deterministic, bounded in [-1, 1], identical rows for identical
    timestamps.  Even columns carry sin, odd columns cos, over geometric
    wavelengths spanning seconds to hours.  Timestamps must pass
    ``check_timestamps``.
    """
    ts = check_timestamps(timestamps)
    if d < 1:
        raise ConfigError(f"encoding dimension must be >= 1, got {d}")
    n_freq = (d + 1) // 2
    if n_freq == 1:
        wavelengths = np.array([math.sqrt(TIME_WAVELENGTH_MIN * TIME_WAVELENGTH_MAX)])
    else:
        exponents = np.linspace(0.0, 1.0, n_freq)
        wavelengths = TIME_WAVELENGTH_MIN * (TIME_WAVELENGTH_MAX / TIME_WAVELENGTH_MIN) ** exponents
    angles = 2.0 * math.pi * ts[:, None] / wavelengths[None, :]
    out = np.zeros((ts.size, d))
    out[:, 0::2] = np.sin(angles[:, : out[:, 0::2].shape[1]])
    out[:, 1::2] = np.cos(angles[:, : out[:, 1::2].shape[1]])
    return out


@dataclass(kw_only=True)
class AttentionWeights:
    """Packed multi-head projections: ``wq``, ``wk``, ``wv`` and ``wo`` are
    each d x d, and head h owns columns h*d_h:(h+1)*d_h of ``wq``, ``wk``
    and ``wv`` (d_h = d / heads); ``wo`` maps the concatenated heads back."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    heads: int

    @classmethod
    def seeded(cls, d: int, heads: int, rng: np.random.Generator) -> "AttentionWeights":
        if heads < 1 or d % heads != 0:
            raise ConfigError(f"model dim {d} not divisible by {heads} heads")
        d_h = d // heads

        def packed() -> Array:
            return np.hstack([uniform_init(rng, d, d_h) for _ in range(heads)])

        return cls(wq=packed(), wk=packed(), wv=packed(), wo=uniform_init(rng, d, d), heads=heads)


@dataclass
class FeedForwardWeights:
    """Two-layer position-wise transform, hidden width 4*d, SiLU activation."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def seeded(cls, d: int, rng: np.random.Generator) -> "FeedForwardWeights":
        hidden = 4 * d
        return cls(
            w1=uniform_init(rng, d, hidden),
            b1=np.zeros((1, hidden)),
            w2=uniform_init(rng, hidden, d),
            b2=np.zeros((1, d)),
        )


def named_tensors(container, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
    """Every tensor in a weight container, with its manifest name, in
    field order.

    A tensor field is named ``prefix.field`` and a nested container puts
    its tensors under its field name.  Item i of a list field is named
    ``prefix.<tag>i``, the tag coming from the field's ``metadata``.
    Fields holding no tensor (head counts) yield nothing; so does a
    field whose metadata sets ``weights`` to False, which the walk never
    enters.
    """
    for f in fields(container):
        value = getattr(container, f.name)
        name = f"{prefix}.{f.name}" if prefix else f.name
        if isinstance(value, (np.ndarray, Var)):  # a Var is a dataclass too
            yield name, value
        elif "tag" in f.metadata:
            for i, item in enumerate(value):
                yield from named_tensors(item, f"{prefix}.{f.metadata['tag']}{i}")
        elif is_dataclass(value) and f.metadata.get("weights", True):
            yield from named_tensors(value, name)


def map_tensors(container: C, fn: MapFn, prefix: str = "") -> C:
    """A copy of ``container`` with each tensor t replaced by fn(name, t),
    names and order as in ``named_tensors``."""
    kwargs = {}
    for f in fields(container):
        value = getattr(container, f.name)
        name = f"{prefix}.{f.name}" if prefix else f.name
        if isinstance(value, (np.ndarray, Var)):
            value = fn(name, value)
        elif "tag" in f.metadata:
            tag = f"{prefix}.{f.metadata['tag']}"
            value = [map_tensors(item, fn, f"{tag}{i}") for i, item in enumerate(value)]
        elif is_dataclass(value) and f.metadata.get("weights", True):
            value = map_tensors(value, fn, name)
        kwargs[f.name] = value
    return type(container)(**kwargs)
