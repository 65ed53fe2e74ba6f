"""Minimal reverse-mode differentiation over dense float64 matrices.

Everything in this package computes with 2-D numpy arrays: scalars are
(1, 1) matrices and vectors are single-row or single-column matrices.
An operation records itself on a :class:`Tape` whenever any operand is
tracked; gradients come from replaying the records in reverse order,
which is reverse topological order because records are appended as the
forward pass executes.

A record holds node ids, never ``Var`` objects, and no backward closure
captures a ``Var``: every ``Var`` points at its tape, but the tape points
back at no ``Var``.  A graph is therefore no reference cycle and lives
exactly as long as its tape or one of its ``Var`` objects; reference
counting frees it when the caller drops them, whether or not
``gradients`` ran, without waiting for the cyclic collector.
``Tape.clear`` drops the records alone, so one tape can carry one graph
after another over the same leaves.

A tape is confined to one logical thread for the duration of a
forward/backward pass.  Values are never mutated after construction, so
sharing matrices across threads is safe; run concurrent passes on
independent tapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, ShapeError

Array = np.ndarray
BackwardFn = Callable[[Array], tuple]


def to_matrix(x, name: str = "matrix") -> Array:
    """Coerce to a 2-D float64 array without reading its entries: only
    for a caller that proves them finite itself (``scoring.score`` does
    so for its token stream)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def as_matrix(x, name: str = "matrix") -> Array:
    """Coerce to a finite 2-D float64 array (the dense-matrix contract)."""
    arr = to_matrix(x, name)
    # Any NaN or inf entry makes the sum non-finite and a finite sum
    # proves every entry finite, so only an overflowing sum needs the
    # entrywise scan (and its M x d boolean temporary).
    with np.errstate(over="ignore", invalid="ignore"):
        finite_sum = np.isfinite(arr.sum())
    if not finite_sum and not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


class Tape:
    """Ordered record of primitive operations for one forward pass.

    Each record holds the output node id, the input node ids (``None``
    for an untracked input), and a backward closure mapping the output
    adjoint to one adjoint per input.  ``gradients`` seeds the loss
    adjoint with exactly 1 and walks the records in reverse.

    ``clear`` drops every record but keeps the leaves: a leaf made by
    ``var`` stays valid, while a recorded ``Var`` from before the clear
    raises ``InputError`` wherever it is used again.
    """

    def __init__(self) -> None:
        self._records: list[tuple[int, tuple[int | None, ...], BackwardFn]] = []
        self._next_id = 0
        self._leaves: set[int] = set()
        self._live_from = 0  # recorded ids below this were cleared

    def _node(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def var(self, value, name: str = "var") -> "Var":
        """Create a tracked leaf variable."""
        nid = self._node()
        self._leaves.add(nid)
        return Var(as_matrix(value, name), self, nid)

    def clear(self) -> None:
        """Drop every record, and with them the graph built since the
        last clear; the leaves stay valid."""
        self._records = []
        self._live_from = self._next_id

    def _check_live(self, v: "Var") -> None:
        if v.tape is not self:
            raise InputError("variable does not belong to this tape")
        if v.nid < self._live_from and v.nid not in self._leaves:
            raise InputError("variable was recorded before the tape was cleared")

    def record(self, value: Array, inputs: tuple["Var", ...], backward: BackwardFn) -> "Var":
        """Record a primitive with output ``value``; returns the tracked output.

        ``backward(grad_out)`` must return one adjoint per input (``None``
        for non-differentiable slots), each matching the input's shape.
        It must not capture a ``Var``, or the graph becomes a reference
        cycle through ``Var.tape``.
        """
        for v in inputs:
            if v.nid is not None:
                self._check_live(v)
        out = Var(value, self, self._node())
        self._records.append((out.nid, tuple(v.nid for v in inputs), backward))
        return out

    def gradients(self, output: "Var", wrt: Sequence["Var"]) -> list[Array]:
        """Adjoints of a scalar ``output`` with respect to ``wrt`` variables.

        ``output`` and every tracked ``wrt`` must belong to this tape and
        be live (``InputError`` otherwise); an untracked ``wrt`` gets a
        zero adjoint.
        """
        self._check_live(output)
        for v in wrt:
            if v.tape is not None:
                self._check_live(v)
        if output.value.shape != (1, 1):
            raise ShapeError(f"gradients need a (1, 1) output, got {output.value.shape}")
        adjoint: dict[int, Array] = {output.nid: np.ones((1, 1))}
        for out_id, input_ids, backward in reversed(self._records):
            g = adjoint.get(out_id)
            if g is None:
                continue
            for nid, gi in zip(input_ids, backward(g)):
                if gi is None or nid is None:
                    continue
                acc = adjoint.get(nid)
                adjoint[nid] = gi if acc is None else acc + gi
        out = []
        for v in wrt:
            g = adjoint.get(v.nid) if v.nid is not None else None
            out.append(np.zeros_like(v.value) if g is None else g)
        return out


@dataclass
class Var:
    """A matrix value, optionally tracked on a tape."""

    value: Array
    tape: Tape | None = None
    nid: int | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.size != 1:
            raise ShapeError(f"item() needs a single-entry matrix, got {self.value.shape}")
        return float(self.value[0, 0])


def const(x, name: str = "const") -> Var:
    """An untracked matrix constant."""
    return Var(as_matrix(x, name))


def scalar(v: float) -> Var:
    return Var(np.array([[float(v)]]))


def apply(value: Array, inputs: tuple[Var, ...], backward: BackwardFn) -> Var:
    """Record an operation with its backward rule on the operands' tape;
    untracked operands give an untracked result."""
    tape = None
    for v in inputs:
        if v.tape is not None:
            if tape is None:
                tape = v.tape
            elif tape is not v.tape:
                raise InputError("operands belong to different tapes")
    if tape is None:
        return Var(value)
    return tape.record(value, inputs, backward)


def _unbroadcast(g: Array, shape: tuple[int, int]) -> Array:
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and out.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    if out.shape != shape:
        raise ShapeError(f"cannot reduce gradient {g.shape} to {shape}")
    return out


def _check_broadcast(a: Var, b: Var, op: str) -> None:
    for da, db in zip(a.shape, b.shape):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting between 2-D shapes)

def add(a: Var, b: Var) -> Var:
    _check_broadcast(a, b, "add")
    value = a.value + b.value
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape))

    return apply(value, (a, b), backward)


def sub(a: Var, b: Var) -> Var:
    _check_broadcast(a, b, "sub")
    value = a.value - b.value
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return (_unbroadcast(g, a_shape), _unbroadcast(-g, b_shape))

    return apply(value, (a, b), backward)


def mul(a: Var, b: Var) -> Var:
    _check_broadcast(a, b, "mul")
    value = a.value * b.value
    av, bv = a.value, b.value

    def backward(g):
        return (_unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape))

    return apply(value, (a, b), backward)


def smul(a: Var, c: float) -> Var:
    c = float(c)

    def backward(g):
        return (g * c,)

    return apply(a.value * c, (a,), backward)


def add_const(a: Var, c: float) -> Var:
    def backward(g):
        return (g,)

    return apply(a.value + float(c), (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Var, b: Var) -> Var:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.shape} x {b.shape} do not match")
    value = a.value @ b.value
    av, bv = a.value, b.value

    def backward(g):
        return (g @ bv.T, av.T @ g)

    return apply(value, (a, b), backward)


def transpose(a: Var) -> Var:
    def backward(g):
        return (g.T,)

    return apply(a.value.T.copy(), (a,), backward)


# ---------------------------------------------------------------------------
# nonlinearities

def sigmoid_values(x: Array, out: Array | None = None) -> Array:
    """Overflow-free logistic: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below,
    both from the one exponential e = exp(-|x|).  The numerator is
    max(e, [x >= 0]): e <= 1 picks 1 for x >= 0 and e below (NaN stays
    NaN), without a select over the array.  The result goes to ``out``
    when given, which may be ``x`` itself: the mask is taken before
    ``out`` is written."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0, out=out)
    e += 1.0
    out /= e
    return out


def sigmoid(a: Var) -> Var:
    y = sigmoid_values(a.value)

    def backward(g):
        return (g * y * (1.0 - y),)

    return apply(y, (a,), backward)


def log(a: Var) -> Var:
    if np.any(a.value <= 0):
        raise InputError("log requires strictly positive entries")
    av = a.value

    def backward(g):
        return (g / av,)

    return apply(np.log(av), (a,), backward)


# ---------------------------------------------------------------------------
# reductions

def sum_all(a: Var) -> Var:
    shape = a.shape

    def backward(g):
        return (np.full(shape, g[0, 0]),)

    return apply(np.array([[a.value.sum()]]), (a,), backward)


# ---------------------------------------------------------------------------
# selection

def take_rows(a: Var, idx) -> Var:
    idx = np.asarray(idx, dtype=np.int64)
    shape = a.shape

    def backward(g):
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        return (out,)

    return apply(a.value[idx].copy(), (a,), backward)


def take_cols(a: Var, idx) -> Var:
    idx = np.asarray(idx, dtype=np.int64)
    shape = a.shape

    def backward(g):
        out = np.zeros(shape)
        np.add.at(out.T, idx, g.T)
        return (out,)

    return apply(a.value[:, idx].copy(), (a,), backward)


def straight_through(soft: Var, hard: Array) -> Var:
    """Forward the hard values, backpropagate through the soft relaxation."""
    hard = np.asarray(hard, dtype=np.float64)
    if hard.shape != soft.shape:
        raise ShapeError(f"straight_through: {hard.shape} vs {soft.shape}")

    def backward(g):
        return (g,)

    return apply(hard.copy(), (soft,), backward)
