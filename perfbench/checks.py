"""Output checks. A call whose output breaks any of these counts as failed.

The checks recompute each contract from the outputs and the configuration
instead of trusting the library's own boundary checks.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import pool

REFERENCE = Path(__file__).resolve().parent / "reference.npz"
# Reference outputs come from the inputs of seed 0: the smallest and the
# largest input of each infer workload, and the full `tokengate train` run.
REFERENCE_SEED = 0
REFERENCE_ITEMS = (0, len(pool.QUERY_ROWS) - 1)
# Kept indices must match the reference exactly; z and the training
# trajectory within this relative and absolute tolerance, which allows for
# a different summation order but not a different selection.
TOL = 1e-9


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _ceil_target(x: float) -> int:
    # rho*M is rounded to 9 places first, so float fuzz at an integer target
    # cannot add a token; the library's budget rule does the same.
    return math.ceil(round(x, 9))


def select_problems(res, m: int, cfg) -> list[str]:
    """Contract violations of one infer-mode SelectionResult over M = ``m`` tokens."""
    idx = np.asarray(res.indices)
    if idx.ndim != 1 or idx.size < 1:
        return [f"indices must be a non-empty vector, got shape {idx.shape}"]
    problems = []
    if np.any(np.diff(idx) <= 0):
        problems.append("indices are not strictly ascending")
    if idx.min() < 0 or idx.max() >= m:
        problems.append("an index lies outside [0, M)")
    rho = float(res.record.rho)
    if not cfg.rho_min <= rho <= cfg.rho_max:
        problems.append(f"rho {rho} outside [{cfg.rho_min}, {cfg.rho_max}]")
    n = idx.size
    n_rule = max(1, min(_ceil_target(rho * m), cfg.n_max, m))
    if n != n_rule:
        problems.append(f"kept {n} tokens, the budget rule gives {n_rule}")
    cap = min(cfg.n_max, _ceil_target(cfg.rho_max * m))
    if n > cap:
        problems.append(f"kept {n} tokens, above the compression bound {cap}")
    r = np.asarray(res.r_var.value, dtype=np.float64).ravel()
    if r.size != m:
        problems.append(f"relevance has {r.size} entries for {m} tokens")
    else:
        residual = abs(float(_sigmoid((r - res.record.t) / cfg.tau_s).sum()) - rho * m)
        if not residual <= cfg.residual_tol * m:
            problems.append(f"threshold residual {residual} above {cfg.residual_tol * m}")
    z = np.asarray(res.z)
    if z.shape != (n, cfg.d):
        problems.append(f"z has shape {z.shape}, expected {(n, cfg.d)}")
    elif not np.all(np.isfinite(z)):
        problems.append("z has non-finite entries")
    return problems


def train_problems(trajectory, epochs: int, tokens: int, cfg) -> list[str]:
    """Violations in a training trajectory: one finite, in-range row per epoch."""
    if len(trajectory) != epochs:
        return [f"{len(trajectory)} trajectory rows for {epochs} epochs"]
    problems = []
    for row in trajectory:
        if not math.isfinite(row.loss):
            problems.append(f"epoch {row.epoch}: loss {row.loss} is not finite")
        if not cfg.rho_min <= row.mean_rho <= cfg.rho_max:
            problems.append(f"epoch {row.epoch}: mean rho {row.mean_rho} out of range")
        if not 1 <= row.mean_n <= tokens:
            problems.append(f"epoch {row.epoch}: mean kept count {row.mean_n} out of range")
    return problems


def reference_outputs(tg, model, cfg, workload: str) -> dict[str, np.ndarray]:
    """The outputs compared against ``reference.npz`` for one workload."""
    if workload == "train_step":
        spec, opt, penalties = pool.train_spec(tg, cfg)
        _, trajectory = tg.train_desk_scale(
            spec, model, epochs=cfg.train_epochs, opt=opt, penalties=penalties, seed=cfg.seed
        )
        rows = [(s.loss, s.mean_rho, s.mean_n) for s in trajectory]
        return {"train_step.trajectory": np.array(rows, dtype=np.float64)}
    out = {}
    for k in REFERENCE_ITEMS:
        item = pool.make_item(tg, cfg, workload, REFERENCE_SEED, k)
        res = pool.run_item(tg, model, cfg, item)
        out[f"{workload}.{k}.indices"] = np.asarray(res.indices, dtype=np.int64)
        out[f"{workload}.{k}.z"] = np.asarray(res.z, dtype=np.float64)
    return out


def reference_problems(tg, model, cfg, workload: str) -> list[str]:
    """Differences between this build's reference outputs and the committed ones."""
    with np.load(REFERENCE) as ref:
        want = {key: ref[key] for key in ref.files if key.startswith(workload + ".")}
    got = reference_outputs(tg, model, cfg, workload)
    if sorted(got) != sorted(want):
        return [f"reference keys {sorted(want)} do not match outputs {sorted(got)}"]
    problems = []
    for key, value in got.items():
        if key.endswith(".indices"):
            same = value.shape == want[key].shape and np.array_equal(value, want[key])
        else:
            same = value.shape == want[key].shape and np.allclose(value, want[key], rtol=TOL, atol=TOL)
        if not same:
            problems.append(f"{key} differs from the committed reference")
    return problems
