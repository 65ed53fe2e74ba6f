"""End-to-end selection pipeline: score, budget, gate, re-encode.

``select`` runs one call of the full layer in train or infer mode and
returns the kept tokens with their original indices plus a diagnostics
record.  To train, bind the model's tensors to a tape first
(``model.bind(tape)``); the result then exposes differentiable handles
(relevance, rho, threshold, soft gate, output) for loss construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from . import autodiff as ad
from . import tensorio
from .autodiff import Array, Tape, Var
from .budget import (
    BudgetDecision,
    BudgetFeatures,
    BudgetHead,
    compute_budget,
    extract_features,
    predict_rho,
)
from .config import RunConfig, load_config
from .errors import (
    InputError,
    MissingResourceError,
    NumericError,
    ParameterError,
    ShapeError,
)
from .gate import GateConfig, hard_top_n, sample_gumbel_pairs, soft_gate_apply, threshold_var
from .layers import MapFn, Tensor, as_var
from .reencoder import ReencoderStack, reencode, reencode_values
from .scoring import ScoringWeights, relevance, score


@dataclass
class SelectorModel:
    """All weights and configuration for one selector instance."""

    d: int
    heads: int
    n_max: int
    scoring: ScoringWeights
    budget: BudgetHead
    gate: GateConfig
    reencoder: ReencoderStack

    @classmethod
    def build(cls, cfg: RunConfig) -> "SelectorModel":
        rng = np.random.default_rng(cfg.seed)
        return cls(
            d=cfg.d,
            heads=cfg.heads,
            n_max=cfg.n_max,
            scoring=ScoringWeights.seeded(cfg.d, cfg.heads, cfg.scoring_depth, rng),
            budget=BudgetHead.seeded(
                cfg.d, rng, hidden=cfg.budget_hidden, rho_min=cfg.rho_min, rho_max=cfg.rho_max
            ),
            gate=GateConfig(
                tau_s=cfg.tau_s,
                newton_iters=cfg.newton_iters,
                residual_tol=cfg.residual_tol,
                clamp_margin=cfg.clamp_margin,
                seed=cfg.seed,
            ),
            reencoder=ReencoderStack.seeded(cfg.d, cfg.heads, cfg.reencode_depth, rng),
        )

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        yield from self.scoring.named_tensors("scoring")
        yield from self.budget.named_tensors("budget")
        yield from self.reencoder.named_tensors("reencoder")

    def map_tensors(self, fn: MapFn) -> "SelectorModel":
        return replace(
            self,
            scoring=self.scoring.map_tensors(fn, "scoring"),
            budget=self.budget.map_tensors(fn, "budget"),
            reencoder=self.reencoder.map_tensors(fn, "reencoder"),
        )

    def parameters(self) -> dict[str, Array]:
        """Copies of every weight tensor, keyed by manifest name."""
        return {name: np.array(t, dtype=np.float64) for name, t in self.named_tensors()}

    def bind(self, tape: Tape) -> tuple["SelectorModel", dict[str, Var]]:
        """Clone with every tensor wrapped as a tracked tape variable."""
        bound_vars: dict[str, Var] = {}

        def wrap(name: str, tensor: Tensor) -> Var:
            var = tape.var(tensor, name)
            bound_vars[name] = var
            return var

        return self.map_tensors(wrap), bound_vars

    def with_parameters(self, params: dict[str, Array]) -> "SelectorModel":
        return self.map_tensors(lambda name, _t: params[name])

    def without_reencoder(self) -> "SelectorModel":
        return replace(self, reencoder=ReencoderStack([]))


@dataclass
class DiagnosticsRecord:
    """One scalar row per select() call, the input to correlation reports."""

    sq_mean: float
    log_m: float
    r_max: float
    entropy: float
    rho: float
    t: float
    n: int
    m: int

    def validate(self) -> None:
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise NumericError(f"diagnostics field {f.name} is not finite")


@dataclass
class SelectionResult:
    """Kept tokens, their original indices, and per-call diagnostics."""

    z: Array
    indices: Array
    record: DiagnosticsRecord
    decision: BudgetDecision
    mode: str
    n_target: int            # budget the arithmetic asked for
    rho_m: float             # expected kept count rho*M (train-mode target)
    r_stats: dict[str, float]
    # differentiable handles, populated when the forward pass is tracked
    r_var: Var | None = None
    rho_var: Var | None = None
    t_var: Var | None = None
    soft_var: Var | None = None
    st_var: Var | None = None
    z_var: Var | None = None
    features: BudgetFeatures | None = None


def select(
    model: SelectorModel,
    x,
    timestamps,
    q,
    mode: str = "infer",
    rng: np.random.Generator | None = None,
) -> SelectionResult:
    """Run the full selection pipeline on one (video, query) instance.

    Train mode applies the Gumbel straight-through gate (realized kept
    count is stochastic with expectation rho*M); infer mode keeps
    exactly n = max(1, min(ceil(rho*M), n_max, M)) tokens via hard
    Top-n.  Both modes preserve original token order and re-encode the
    kept tokens with their absolute timestamps.  Train mode needs an
    ``rng`` for the Gumbel noise.  When neither the inputs nor the
    scoring weights are tape-tracked, relevance comes from the tape-free
    ``relevance`` kernel instead of ``score``; when neither the kept rows
    nor the re-encoder weights are, z comes from ``reencode_values``
    instead of ``reencode`` (equal to it within 1e-12 in the tests).  A
    model bound to a tape takes both tape paths.

    Every timestamp, kept or not, must be a finite, nonnegative number of
    seconds (``InputError`` otherwise).  Timestamps need not be sorted:
    kept tokens stay in index order and carry their own timestamps.
    """
    if mode not in ("train", "infer"):
        raise ParameterError(f"mode must be 'train' or 'infer', got {mode!r}")
    if mode == "train" and rng is None:
        raise ParameterError("train mode needs an rng for the Gumbel noise")
    x_var = as_var(x)
    q_var = as_var(q)
    m = x_var.shape[0]
    if m == 0:
        raise InputError("empty visual stream")
    ts = np.asarray(timestamps, dtype=np.float64).ravel()
    if ts.size != m:
        raise ShapeError(f"{ts.size} timestamps for {m} tokens")
    if not np.all(np.isfinite(ts)) or np.any(ts < 0):
        raise InputError("timestamps must be finite, nonnegative seconds")

    scoring_inputs = [x_var, q_var, *(t for _, t in model.scoring.named_tensors())]
    if ad.any_tracked(scoring_inputs):
        _, r_var = score(x_var, q_var, model.scoring)
    else:
        r_var = Var(relevance(x_var, q_var, model.scoring).reshape(1, -1))
    features = extract_features(q_var, r_var, m)
    rho_var = predict_rho(features, model.budget)
    rho = rho_var.item()
    n_target = compute_budget(rho, m, model.n_max)
    t_var = threshold_var(r_var, rho_var, model.gate.tau_s, model.gate)
    t = t_var.item()

    soft_var = st_var = None
    if mode == "train":
        noise = sample_gumbel_pairs(m, rng)
        soft_var, st_var, mask = soft_gate_apply(r_var, t_var, model.gate.tau_s, noise)
        idx = mask.indices
        st_col = ad.transpose(ad.take_cols(st_var, idx))
        z_sel = ad.mul(ad.take_rows(x_var, idx), st_col)
    else:
        mask = hard_top_n(r_var.value.ravel(), n_target)
        idx = mask.indices
        z_sel = ad.take_rows(x_var, idx)

    if ad.any_tracked([z_sel, *(t for _, t in model.reencoder.named_tensors())]):
        z_var = reencode(z_sel, ts[idx], model.reencoder)
    else:
        z_var = Var(reencode_values(z_sel.value, ts[idx], model.reencoder))

    r_values = r_var.value.ravel()
    record = DiagnosticsRecord(
        sq_mean=features.sq_mean,
        log_m=features.log_m,
        r_max=features.r_max_value,
        entropy=features.entropy_value,
        rho=rho,
        t=t,
        n=int(idx.size),
        m=m,
    )
    result = SelectionResult(
        z=z_var.value,
        indices=idx,
        record=record,
        decision=BudgetDecision(features=features, rho=rho, n=n_target, t=t),
        mode=mode,
        n_target=n_target,
        rho_m=rho * m,
        r_stats={
            "min": float(r_values.min()),
            "mean": float(r_values.mean()),
            "max": float(r_values.max()),
        },
        r_var=r_var,
        rho_var=rho_var,
        t_var=t_var,
        soft_var=soft_var,
        st_var=st_var,
        z_var=z_var,
        features=features,
    )
    _check_boundary(model, result, r_values)
    return result


def _check_boundary(model: SelectorModel, res: SelectionResult, r_values: Array) -> None:
    """Re-verify the budget and gate contracts at the module boundary."""
    rec = res.record
    rec.validate()
    res.decision.validate(model.budget, model.n_max)
    if res.mode == "infer":
        cap = min(model.n_max, math.ceil(round(model.budget.rho_max * rec.m, 9)))
        if rec.n > cap:
            raise NumericError(f"kept count {rec.n} exceeds compression bound {cap}")
        if rec.n != res.n_target:
            raise NumericError(f"kept {rec.n} tokens but budget asked for {res.n_target}")
    if rec.n < 1:
        raise NumericError("selection kept zero tokens")
    if np.any(np.diff(res.indices) <= 0):
        raise NumericError("kept indices are not strictly ascending")
    keep_sum = float(ad.sigmoid_values((r_values - rec.t) / model.gate.tau_s).sum())
    if abs(keep_sum - res.rho_m) > model.gate.residual_tol * rec.m:
        raise NumericError(
            f"threshold residual {abs(keep_sum - res.rho_m)} violates tolerance"
        )
    if not np.all(np.isfinite(res.z)):
        raise NumericError("re-encoded output contains non-finite values")


# ---------------------------------------------------------------------------
# weight persistence

_MODEL_KEYS = (
    "d",
    "heads",
    "scoring_depth",
    "reencode_depth",
    "budget_hidden",
    "rho_min",
    "rho_max",
    "n_max",
    "tau_s",
    "newton_iters",
    "residual_tol",
    "clamp_margin",
    "seed",
)


def _model_config(model: SelectorModel) -> RunConfig:
    budget_hidden = model.budget.w1.shape[1] if not isinstance(model.budget.w1, Var) else model.budget.w1.value.shape[1]
    return RunConfig(
        d=model.d,
        heads=model.heads,
        scoring_depth=model.scoring.depth,
        reencode_depth=model.reencoder.depth,
        budget_hidden=budget_hidden,
        rho_min=model.budget.rho_min,
        rho_max=model.budget.rho_max,
        n_max=model.n_max,
        tau_s=model.gate.tau_s,
        newton_iters=model.gate.newton_iters,
        residual_tol=model.gate.residual_tol,
        clamp_margin=model.gate.clamp_margin,
        seed=model.gate.seed,
    )


def save_weights(model: SelectorModel, path: str | Path) -> list[tuple[str, str, str, str]]:
    """Write one QTN1 file per tensor plus a manifest and model config.

    Returns the manifest entries (name, shape, checksum, filename).
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    cfg = _model_config(model)
    model_lines = [f"{key} = {getattr(cfg, key)}" for key in _MODEL_KEYS]
    tensorio.atomic_write_text(path / "model.cfg", "\n".join(model_lines) + "\n")
    entries = []
    for name, tensor in model.named_tensors():
        arr = np.asarray(tensor, dtype=np.float64)
        filename = f"{name}.qtn"
        tensorio.write_tensor(path / filename, arr)
        entries.append(
            (name, tensorio.shape_token(arr), tensorio.file_sha256(path / filename), filename)
        )
    tensorio.write_manifest(path / "manifest.txt", entries)
    return entries


def load_weights(path: str | Path) -> SelectorModel:
    """Rebuild a model from a weights directory, verifying every checksum.

    Raises MissingResourceError for absent files or tensors, InputError
    for checksum mismatches or NaN/inf values (naming the tensor),
    ShapeError for shape conflicts.
    """
    path = Path(path)
    if not path.is_dir():
        raise MissingResourceError(f"weights directory not found: {path}")
    cfg = load_config(path / "model.cfg") if (path / "model.cfg").exists() else None
    if cfg is None:
        raise MissingResourceError(f"model config not found in {path}")
    skeleton = SelectorModel.build(cfg)
    manifest = tensorio.read_manifest(path / "manifest.txt")
    by_name = {entry[0]: entry for entry in manifest}

    expected = dict(skeleton.named_tensors())
    missing = sorted(set(expected) - set(by_name))
    if missing:
        raise MissingResourceError(f"manifest missing tensors: {', '.join(missing)}")
    extra = sorted(set(by_name) - set(expected))
    if extra:
        raise InputError(f"manifest lists unknown tensors: {', '.join(extra)}")

    loaded: dict[str, Array] = {}
    for name, shape_txt, checksum, filename in manifest:
        tensor_path = path / filename
        if not tensor_path.exists():
            raise MissingResourceError(f"tensor file missing for {name}: {tensor_path}")
        actual = tensorio.file_sha256(tensor_path)
        if actual != checksum:
            raise InputError(f"checksum mismatch for tensor {name} in {filename}")
        arr = tensorio.read_tensor(tensor_path)
        if not np.all(np.isfinite(arr)):
            raise InputError(f"tensor {name} in {filename} has non-finite values")
        if tensorio.shape_token(arr) != shape_txt:
            raise ShapeError(f"tensor {name}: file shape {arr.shape} vs manifest {shape_txt}")
        want = np.asarray(expected[name]).shape
        if arr.shape != want:
            raise ShapeError(f"tensor {name}: shape {arr.shape} conflicts with model {want}")
        loaded[name] = arr
    return skeleton.with_parameters(loaded)
