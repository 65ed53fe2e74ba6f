"""Minimal reverse-mode differentiation over dense float64 matrices.

Everything in this package computes with 2-D numpy arrays: scalars are
(1, 1) matrices and vectors are single-row or single-column matrices.
An operation records itself on a :class:`Tape` whenever any operand is
tracked; gradients come from replaying the records in reverse order,
which is reverse topological order because records are appended as the
forward pass executes.

A tape is confined to one logical thread for the duration of a
forward/backward pass.  Values are never mutated after construction, so
sharing matrices across threads is safe; run concurrent passes on
independent tapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NumericError, ParameterError, ShapeError

Array = np.ndarray
BackwardFn = Callable[[Array], tuple]


def as_matrix(x, name: str = "matrix") -> Array:
    """Coerce to a finite 2-D float64 array (the dense-matrix contract)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


class Tape:
    """Ordered record of primitive operations for one forward pass.

    Each record holds the output node id, the input variables, and a
    backward closure mapping the output adjoint to one adjoint per
    input.  ``gradients`` seeds the loss adjoint with exactly 1 and
    walks the records in reverse.
    """

    def __init__(self) -> None:
        self._records: list[tuple[int, tuple["Var", ...], BackwardFn]] = []
        self._next_id = 0

    def _node(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def var(self, value, name: str = "var") -> "Var":
        """Create a tracked leaf variable."""
        return Var(as_matrix(value, name), self, self._node())

    def record(self, value: Array, inputs: tuple["Var", ...], backward: BackwardFn) -> "Var":
        """Record a primitive with output ``value``; returns the tracked output.

        ``backward(grad_out)`` must return one adjoint per input (``None``
        for non-differentiable slots), each matching the input's shape.
        """
        out = Var(value, self, self._node())
        self._records.append((out.nid, inputs, backward))
        return out

    def gradients(self, output: "Var", wrt: Sequence["Var"]) -> list[Array]:
        """Adjoints of a scalar ``output`` with respect to ``wrt`` variables."""
        if output.tape is not self:
            raise InputError("output does not belong to this tape")
        if output.value.shape != (1, 1):
            raise ShapeError(f"gradients need a (1, 1) output, got {output.value.shape}")
        adjoint: dict[int, Array] = {output.nid: np.ones((1, 1))}
        for out_id, inputs, backward in reversed(self._records):
            g = adjoint.get(out_id)
            if g is None:
                continue
            for v, gi in zip(inputs, backward(g)):
                if gi is None or v.nid is None:
                    continue
                acc = adjoint.get(v.nid)
                adjoint[v.nid] = gi if acc is None else acc + gi
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

    def __add__(self, other):
        return add(self, _coerce(other))

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __matmul__(self, other):
        return matmul(self, _coerce(other))

    def __neg__(self):
        return smul(self, -1.0)


def any_tracked(tensors) -> bool:
    """Whether any of ``tensors`` is a Var recorded on a tape.

    Callers with a tape-free kernel run it only when this is false, so
    the kernel never has to produce gradients.
    """
    return any(isinstance(t, Var) and t.tape is not None for t in tensors)


def const(x, name: str = "const") -> Var:
    """An untracked matrix constant."""
    return Var(as_matrix(x, name))


def scalar(v: float) -> Var:
    return Var(np.array([[float(v)]]))


def _coerce(x) -> Var:
    if isinstance(x, Var):
        return x
    if np.isscalar(x):
        return scalar(x)
    return const(x)


def _apply(value: Array, inputs: tuple[Var, ...], backward: BackwardFn) -> Var:
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


def custom_op(value: Array, inputs: tuple[Var, ...], backward: BackwardFn) -> Var:
    """Extension point: record an operation with a bespoke backward rule."""
    return _apply(value, inputs, backward)


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

    def backward(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

    return _apply(value, (a, b), backward)


def sub(a: Var, b: Var) -> Var:
    _check_broadcast(a, b, "sub")
    value = a.value - b.value

    def backward(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))

    return _apply(value, (a, b), backward)


def mul(a: Var, b: Var) -> Var:
    _check_broadcast(a, b, "mul")
    value = a.value * b.value
    av, bv = a.value, b.value

    def backward(g):
        return (_unbroadcast(g * bv, a.shape), _unbroadcast(g * av, b.shape))

    return _apply(value, (a, b), backward)


def div(a: Var, b: Var) -> Var:
    _check_broadcast(a, b, "div")
    value = a.value / b.value
    av, bv = a.value, b.value

    def backward(g):
        return (
            _unbroadcast(g / bv, a.shape),
            _unbroadcast(-g * av / (bv * bv), b.shape),
        )

    return _apply(value, (a, b), backward)


def smul(a: Var, c: float) -> Var:
    c = float(c)

    def backward(g):
        return (g * c,)

    return _apply(a.value * c, (a,), backward)


def add_const(a: Var, c: float) -> Var:
    def backward(g):
        return (g,)

    return _apply(a.value + float(c), (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Var, b: Var) -> Var:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.shape} x {b.shape} do not match")
    value = a.value @ b.value
    av, bv = a.value, b.value

    def backward(g):
        return (g @ bv.T, av.T @ g)

    return _apply(value, (a, b), backward)


def transpose(a: Var) -> Var:
    def backward(g):
        return (g.T,)

    return _apply(a.value.T.copy(), (a,), backward)


# ---------------------------------------------------------------------------
# nonlinearities

def sigmoid_values(x: Array) -> Array:
    """Overflow-free logistic: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below,
    both from the one exponential e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Var) -> Var:
    y = sigmoid_values(a.value)

    def backward(g):
        return (g * y * (1.0 - y),)

    return _apply(y, (a,), backward)


def tanh(a: Var) -> Var:
    y = np.tanh(a.value)

    def backward(g):
        return (g * (1.0 - y * y),)

    return _apply(y, (a,), backward)


def exp(a: Var) -> Var:
    y = np.exp(a.value)

    def backward(g):
        return (g * y,)

    return _apply(y, (a,), backward)


def log(a: Var) -> Var:
    if np.any(a.value <= 0):
        raise InputError("log requires strictly positive entries")
    av = a.value

    def backward(g):
        return (g / av,)

    return _apply(np.log(av), (a,), backward)


def pow_const(a: Var, p: float) -> Var:
    p = float(p)
    if p != int(p) and np.any(a.value < 0):
        raise InputError("fractional power of a negative entry")
    av = a.value
    y = av ** p

    def backward(g):
        return (g * p * av ** (p - 1.0),)

    return _apply(y, (a,), backward)


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

    return _apply(y, (a,), backward)


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

    return _apply(y, (a,), backward)


# ---------------------------------------------------------------------------
# reductions

def sum_all(a: Var) -> Var:
    shape = a.shape

    def backward(g):
        return (np.full(shape, g[0, 0]),)

    return _apply(np.array([[a.value.sum()]]), (a,), backward)


def row_means(a: Var) -> Var:
    n, k = a.shape

    def backward(g):
        return (np.repeat(g, k, axis=1) / k,)

    return _apply(a.value.mean(axis=1, keepdims=True), (a,), backward)


def col_means(a: Var) -> Var:
    n, k = a.shape

    def backward(g):
        return (np.repeat(g, n, axis=0) / n,)

    return _apply(a.value.mean(axis=0, keepdims=True), (a,), backward)


def colmax(a: Var) -> Var:
    """Column-wise maximum; the gradient routes to the first maximal row."""
    idx = np.argmax(a.value, axis=0)
    cols = np.arange(a.shape[1])
    shape = a.shape

    def backward(g):
        out = np.zeros(shape)
        out[idx, cols] = g[0]
        return (out,)

    return _apply(a.value[idx, cols].reshape(1, -1), (a,), backward)


# ---------------------------------------------------------------------------
# selection and concatenation

def take_rows(a: Var, idx) -> Var:
    idx = np.asarray(idx, dtype=np.int64)
    shape = a.shape

    def backward(g):
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        return (out,)

    return _apply(a.value[idx].copy(), (a,), backward)


def take_cols(a: Var, idx) -> Var:
    idx = np.asarray(idx, dtype=np.int64)
    shape = a.shape

    def backward(g):
        out = np.zeros(shape)
        np.add.at(out.T, idx, g.T)
        return (out,)

    return _apply(a.value[:, idx].copy(), (a,), backward)


def hcat(parts: Sequence[Var]) -> Var:
    parts = tuple(parts)
    widths = [p.shape[1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=1))

    return _apply(np.concatenate([p.value for p in parts], axis=1), parts, backward)


def vcat(parts: Sequence[Var]) -> Var:
    parts = tuple(parts)
    heights = [p.shape[0] for p in parts]
    splits = np.cumsum(heights)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=0))

    return _apply(np.concatenate([p.value for p in parts], axis=0), parts, backward)


def straight_through(soft: Var, hard: Array) -> Var:
    """Forward the hard values, backpropagate through the soft relaxation."""
    hard = np.asarray(hard, dtype=np.float64)
    if hard.shape != soft.shape:
        raise ShapeError(f"straight_through: {hard.shape} vs {soft.shape}")

    def backward(g):
        return (g,)

    return _apply(hard.copy(), (soft,), backward)


# ---------------------------------------------------------------------------
# finite-difference oracle

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
