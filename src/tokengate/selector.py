"""End-to-end selection pipeline: score, budget, gate, re-encode.

``select`` runs one call of the full layer in train or infer mode and
returns the kept tokens with their original indices plus a diagnostics
record.  To train, bind the model's tensors to a tape first
(``model.bind(tape)``); the result then exposes differentiable handles
(relevance, rho, threshold, soft gate, output) for loss construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from . import autodiff as ad
from . import layers, tensorio
from .autodiff import Array, Tape, Var
from .budget import BudgetHead, compute_budget, extract_features, predict_rho
from .config import RunConfig, config_text, load_config
from .errors import (
    InputError,
    MissingResourceError,
    NumericError,
    ParameterError,
    ShapeError,
)
from .gate import hard_top_n, sample_gumbel_pairs, soft_gate_apply, threshold_var
from .layers import Tensor, as_var, unscanned_var
from .reencoder import ReencoderStack, reencode
from .scoring import ScoringWeights, score


@dataclass
class SelectorModel:
    """All weights of one selector instance and the config it was built from."""

    cfg: RunConfig = field(metadata={"weights": False})
    scoring: ScoringWeights
    budget: BudgetHead
    reencoder: ReencoderStack

    @classmethod
    def build(cls, cfg: RunConfig, rng: np.random.Generator | None = None) -> "SelectorModel":
        """The model the ``seeded`` constructors draw from ``rng``, by
        default ``np.random.default_rng(cfg.seed)``."""
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        return cls(
            cfg=cfg,
            scoring=ScoringWeights.seeded(cfg.d, cfg.heads, rng),
            budget=BudgetHead.seeded(cfg.d, rng, hidden=cfg.budget_hidden),
            reencoder=ReencoderStack.seeded(cfg.d, cfg.heads, cfg.reencode_depth, rng),
        )

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        return layers.named_tensors(self)

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

        return layers.map_tensors(self, wrap), bound_vars

    def with_parameters(self, params: dict[str, Array]) -> "SelectorModel":
        return layers.map_tensors(self, lambda name, _t: params[name])

    def without_reencoder(self) -> "SelectorModel":
        return replace(
            self, cfg=replace(self.cfg, reencode_depth=0), reencoder=ReencoderStack([])
        )


@dataclass
class DiagnosticsRecord:
    """One scalar row per select() call: the budget features, rho, t and the
    kept and input token counts."""

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
    mode: str
    n_target: int            # budget the arithmetic asked for
    # differentiable handles, populated when the forward pass is tracked
    r_var: Var | None = None
    rho_var: Var | None = None
    t_var: Var | None = None
    soft_var: Var | None = None
    st_var: Var | None = None
    z_var: Var | None = None


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
    ``rng`` for the Gumbel noise.

    Every timestamp, kept or not, must be a finite, nonnegative number of
    seconds, at most float max / 2pi (``InputError`` otherwise), whatever
    the re-encoder depth.  Timestamps need not be sorted:
    kept tokens stay in index order and carry their own timestamps.

    A NaN or inf entry in q raises ``InputError`` at once.  x is not
    scanned here: every non-finite token leaves scoring's log-sum-exp
    non-finite or its log-domain relevance -inf, and only then is x
    scanned (``scoring._max_attention``), so its ``InputError`` comes
    after the q, token-count and timestamp checks.  The weights are
    scanned when their containers are built; an array made non-finite in
    place after that (as an update can do) raises ``InputError`` naming
    it once it leaves the relevance, rho or the output non-finite.
    """
    if mode not in ("train", "infer"):
        raise ParameterError(f"mode must be 'train' or 'infer', got {mode!r}")
    if mode == "train" and rng is None:
        raise ParameterError("train mode needs an rng for the Gumbel noise")
    x_var = unscanned_var(x, "x")  # ``score`` proves x finite
    q_var = as_var(q, "q")
    m = x_var.shape[0]
    if m == 0:
        raise InputError("empty visual stream")
    ts = np.asarray(timestamps, dtype=np.float64).ravel()
    if ts.size != m:
        raise ShapeError(f"{ts.size} timestamps for {m} tokens")
    layers.check_timestamps(ts)

    r_var = score(x_var, q_var, model.scoring)
    features = extract_features(q_var, r_var, m)
    rho_var = predict_rho(features, model.budget, model.cfg)
    rho = rho_var.item()
    n_target = compute_budget(rho, m, model.cfg.n_max)
    t_var, residual = threshold_var(r_var, rho_var, model.cfg.tau_s)
    t = t_var.item()

    soft_var = st_var = None
    if mode == "train":
        noise = sample_gumbel_pairs(m, rng)
        soft_var, st_var, idx = soft_gate_apply(r_var, t_var, model.cfg.tau_s, noise)
        st_col = ad.transpose(ad.take_cols(st_var, idx))
        z_sel = ad.mul(ad.take_rows(x_var, idx), st_col)
    else:
        idx = hard_top_n(r_var.value.ravel(), n_target)
        z_sel = ad.take_rows(x_var, idx)

    z_var = reencode(z_sel, ts[idx], model.reencoder)
    record = DiagnosticsRecord(
        sq_mean=features.sq_mean,
        log_m=features.log_m,
        r_max=features.r_max,
        entropy=features.entropy,
        rho=rho,
        t=t,
        n=int(idx.size),
        m=m,
    )
    result = SelectionResult(
        z=z_var.value,
        indices=idx,
        record=record,
        mode=mode,
        n_target=n_target,
        r_var=r_var,
        rho_var=rho_var,
        t_var=t_var,
        soft_var=soft_var,
        st_var=st_var,
        z_var=z_var,
    )
    _check_boundary(model, result, residual)
    return result


def _check_boundary(model: SelectorModel, res: SelectionResult, residual: float) -> None:
    """Re-verify the budget and gate contracts at the module boundary.

    ``residual`` is |keep-sum - rho*M| as the threshold solve evaluated
    it at the returned t.  A non-finite output scans the re-encoder's
    weights first, so a non-finite array there is named.
    """
    rec, cfg = res.record, model.cfg
    rec.validate()
    if not cfg.rho_min <= rec.rho <= cfg.rho_max:
        raise NumericError(f"rho {rec.rho} outside [{cfg.rho_min}, {cfg.rho_max}]")
    if res.mode == "infer":
        cap = compute_budget(cfg.rho_max, rec.m, cfg.n_max)
        if rec.n > cap:
            raise NumericError(f"kept count {rec.n} exceeds compression bound {cap}")
        if rec.n != res.n_target:
            raise NumericError(f"kept {rec.n} tokens but budget asked for {res.n_target}")
    if rec.n < 1:
        raise NumericError("selection kept zero tokens")
    if np.any(np.diff(res.indices) <= 0):
        raise NumericError("kept indices are not strictly ascending")
    if not residual <= cfg.residual_tol * rec.m:
        raise NumericError(f"threshold residual {residual} violates tolerance")
    if not np.all(np.isfinite(res.z)):
        layers.check_weights(model.reencoder, "reencoder")
        raise NumericError("re-encoded output contains non-finite values")


# ---------------------------------------------------------------------------
# weight persistence


def weights_files(model: SelectorModel) -> list[str]:
    """The files ``save_weights`` writes for ``model``: ``model.cfg``,
    ``manifest.txt``, then one ``<name>.qtn`` per tensor."""
    return ["model.cfg", "manifest.txt", *(f"{name}.qtn" for name, _ in model.named_tensors())]


def save_weights(model: SelectorModel, path: str | Path) -> list[tuple[str, str, str, str]]:
    """Write one QTN1 file per tensor, a manifest, and ``model.cfg``: the
    full run config the model was built from.

    Returns the manifest entries (name, shape, checksum, filename).
    A tensor with NaN or inf entries raises ``NumericError`` before any
    file is written, since ``load_weights`` would refuse it.
    """
    tensors = [(name, np.asarray(t, dtype=np.float64)) for name, t in model.named_tensors()]
    for name, arr in tensors:
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"tensor {name} has non-finite values")
    cfg_file, manifest_file, *tensor_files = weights_files(model)
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    tensorio.atomic_write_text(path / cfg_file, config_text(model.cfg))
    entries = []
    for (name, arr), filename in zip(tensors, tensor_files):
        tensorio.write_tensor(path / filename, arr)
        entries.append(
            (name, tensorio.shape_token(arr), tensorio.file_sha256(path / filename), filename)
        )
    tensorio.write_manifest(path / manifest_file, entries)
    return entries


class _ZeroDraws:
    """Stands in for a ``np.random.Generator`` where only the names and
    shapes of the seeded tensors matter: every draw is zeros, and no
    generator (nor ``numpy.random``) is loaded."""

    @staticmethod
    def uniform(low: float, high: float, size: tuple[int, ...]) -> Array:
        return np.zeros(size)


def load_weights(path: str | Path) -> SelectorModel:
    """Rebuild a model from a weights directory, verifying every checksum.

    Raises MissingResourceError for absent files or tensors, InputError
    for checksum mismatches, NaN/inf values or a tensor the manifest
    lists twice (naming the tensor), ShapeError for shape conflicts.
    """
    path = Path(path)
    if not path.is_dir():
        raise MissingResourceError(f"weights directory not found: {path}")
    if not (path / "model.cfg").exists():
        raise MissingResourceError(f"model config not found in {path}")
    skeleton = SelectorModel.build(load_config(path / "model.cfg"), rng=_ZeroDraws())
    manifest = tensorio.read_manifest(path / "manifest.txt")
    names = [entry[0] for entry in manifest]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise InputError(f"manifest lists tensors more than once: {', '.join(repeated)}")

    expected = dict(skeleton.named_tensors())
    missing = sorted(set(expected) - set(names))
    if missing:
        raise MissingResourceError(f"manifest missing tensors: {', '.join(missing)}")
    extra = sorted(set(names) - set(expected))
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
        if tensorio.shape_token(arr) != shape_txt:
            raise ShapeError(f"tensor {name}: file shape {arr.shape} vs manifest {shape_txt}")
        want = np.asarray(expected[name]).shape
        if arr.shape != want:
            raise ShapeError(f"tensor {name}: shape {arr.shape} conflicts with model {want}")
        loaded[name] = arr
    return skeleton.with_parameters(loaded)
