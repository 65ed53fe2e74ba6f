"""Shared test utilities."""

import gc
import tracemalloc

import numpy as np

from oracles import finite_difference_gradient
from tokengate import reencoder
from tokengate.autodiff import Tape, Var


def rel_err(analytic, numeric) -> float:
    """Norm-based relative error between two gradient arrays."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(numeric, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def peak_bytes(fn) -> int:
    """Peak traced allocation of ``fn()`` above the memory in use before it,
    with earlier garbage collected first."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def count_guarded_heads(monkeypatch) -> list[tuple[int, int]]:
    """Record, per ``reencoder._shift_bounds`` call, how many heads take
    the exact row max and how many fold the shift bound into the GEMM."""
    calls = []
    bounds = reencoder._shift_bounds

    def counted(q3, k3_t):
        shift, exact = bounds(q3, k3_t)
        calls.append((int(exact.sum()), int((~exact).sum())))
        return shift, exact

    monkeypatch.setattr(reencoder, "_shift_bounds", counted)
    return calls


def tape_vs_fd(build, x0, step=1e-6):
    """Compare the tape gradient of a scalar-valued graph against central
    finite differences.

    ``build(var)`` receives a tracked variable holding ``x0`` and must
    return a scalar Var.  Returns (analytic, numeric) flat gradients.
    """
    x0 = np.asarray(x0, dtype=np.float64)

    tape = Tape()
    var = tape.var(x0)
    out = build(var)
    analytic = tape.gradients(out, [var])[0].ravel()

    def f(flat):
        value = build(Var(flat.reshape(x0.shape))).value
        return float(value[0, 0])

    numeric = finite_difference_gradient(f, x0.ravel(), step)
    return analytic, numeric


def save_per_head_weights(model, path):
    """Save ``model`` in the layout used before heads were packed: each
    attention projection split into per-head ``.h{i}.`` files, and the
    scoring layer's value/output projections stored although unused."""
    from tokengate.selector import save_weights
    from tokengate.tensorio import file_sha256, shape_token, write_manifest, write_tensor

    save_weights(model, path)  # model.cfg and the tensors whose names did not change
    d, heads = model.cfg.d, model.cfg.heads
    tensors = {"scoring.l0.wo": np.zeros((d, d))}
    for h in range(heads):
        tensors[f"scoring.l0.h{h}.wv"] = np.zeros((d, d // heads))
    for name, tensor in model.named_tensors():
        stem, _, key = name.rpartition(".")
        if key in ("wq", "wk", "wv"):
            for h, part in enumerate(np.hsplit(np.asarray(tensor), heads)):
                tensors[f"{stem}.h{h}.{key}"] = part
        else:
            tensors[name] = np.asarray(tensor)
    entries = []
    for name, arr in tensors.items():
        write_tensor(path / f"{name}.qtn", arr)
        entries.append((name, shape_token(arr), file_sha256(path / f"{name}.qtn"), f"{name}.qtn"))
    write_manifest(path / "manifest.txt", entries)


def poke_tensor(path, name, index, value):
    """Set one entry of tensor ``name`` in a saved weights directory and
    re-checksum its file, as a writer other than ``save_weights`` could."""
    from tokengate.tensorio import file_sha256, read_manifest, read_tensor, write_manifest, write_tensor

    entries = read_manifest(path / "manifest.txt")
    filename = next(f for n, _, _, f in entries if n == name)
    arr = read_tensor(path / filename)
    arr[index] = value
    write_tensor(path / filename, arr)
    write_manifest(
        path / "manifest.txt",
        [(n, s, file_sha256(path / f) if n == name else c, f) for n, s, c, f in entries],
    )
