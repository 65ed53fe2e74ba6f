"""Synthetic workloads, held-out evaluation, desk-scale training, and the
CSV codec for their rows.

Workloads plant a known subset of query-aligned tokens among random
distractors, giving ground truth for recall and precision.  The
evaluation scores the selector on workloads no training call draws, next
to uniform-stride retention at the same per-instance budget, and times a
quadratic-cost mock downstream block over the kept and the full token
stream, so one row carries quality and latency together.
"""

from __future__ import annotations

import csv
import io
import math
import time
from contextlib import contextmanager
from dataclasses import Field, dataclass, field, fields, replace
from typing import Callable, Iterator, Sequence, get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tape, Var
from .config import RunConfig, check_ranges
from .errors import InputError, NumericError, ParameterError
from .gate import hard_top_n
from .objective import PenaltyWeights, total_loss
from .selector import DiagnosticsRecord, SelectionResult, SelectorModel, select


# WorkloadSpec field -> the RunConfig key that sets it and owns its range;
# from_config sets m and frames apart, since their keys' 0 is None there.
_WORKLOAD_KEYS = {
    "d": "d", "l": "wl_query_len", "k": "wl_planted", "alignment": "wl_alignment",
    "noise": "wl_noise", "frame_rate": "wl_frame_rate", "frame_height": "wl_frame_height",
    "frame_width": "wl_frame_width", "patch": "wl_patch", "seed": "seed",
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Planted-relevance workload parameters.

    Either give ``m`` directly, or set ``frames``, the number of sampled
    frames, with the video geometry fields to derive the token count as
    frames * floor(height / patch) * floor(width / patch), the whole
    patches that tile one frame; timestamps then follow the frames at
    ``frame_rate``, the sampled frames per second.  Every default is its
    RunConfig key's, so ``WorkloadSpec() == from_config(RunConfig())``.
    """

    m: int | None = RunConfig.wl_tokens
    d: int = RunConfig.d
    l: int = RunConfig.wl_query_len
    k: int = RunConfig.wl_planted
    alignment: float = RunConfig.wl_alignment
    noise: float = RunConfig.wl_noise
    frames: int | None = None
    frame_rate: float = RunConfig.wl_frame_rate
    frame_height: int = RunConfig.wl_frame_height
    frame_width: int = RunConfig.wl_frame_width
    patch: int = RunConfig.wl_patch
    seed: int = RunConfig.seed

    def tokens_per_frame(self) -> int:
        tokens = (self.frame_height // self.patch) * (self.frame_width // self.patch)
        if tokens == 0:
            raise InputError(
                f"a {self.frame_height}x{self.frame_width} frame holds no whole "
                f"{self.patch}x{self.patch} patch"
            )
        return tokens

    def token_count(self) -> int:
        """M, for a spec whose fields passed ``validate``'s range check."""
        if self.frames is not None:
            if self.frames < 1:
                raise InputError(f"frame count must be >= 1, got {self.frames}")
            return self.frames * self.tokens_per_frame()
        if self.m is None or self.m < 1:
            raise InputError(
                f"set m (wl_tokens) or frames (wl_frames) to at least 1; got m = {self.m}"
            )
        return self.m

    def validate(self) -> None:
        """Raise ``InputError`` at the first broken rule: the key ranges, M >= 1, k <= M."""
        check_ranges({key: getattr(self, f) for f, key in _WORKLOAD_KEYS.items()}, InputError)
        m = self.token_count()
        if self.k > m:
            raise InputError(f"planted count {self.k} exceeds token count {m}")

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "WorkloadSpec":
        return cls(
            m=cfg.wl_tokens if cfg.wl_tokens > 0 else None,
            frames=cfg.wl_frames if cfg.wl_frames > 0 else None,
            **{f: getattr(cfg, key) for f, key in _WORKLOAD_KEYS.items()},
        )


@dataclass
class Workload:
    x: Array
    timestamps: Array
    q: Array
    planted: Array


def generate_workload(spec: WorkloadSpec, rng: np.random.Generator) -> Workload:
    """Random tokens with a planted query-aligned subset.

    Planted tokens sit at ``alignment`` times a shared unit direction
    (plus small jitter) while the query rows point along the same
    direction, so their expected query inner product strictly exceeds
    every distractor's.
    """
    spec.validate()
    m = spec.token_count()
    direction = rng.standard_normal(spec.d)
    direction /= np.linalg.norm(direction)
    q = 3.0 * direction[None, :] + 0.1 * rng.standard_normal((spec.l, spec.d))
    x = spec.noise * rng.standard_normal((m, spec.d))
    planted = np.sort(rng.choice(m, size=spec.k, replace=False))
    x[planted] = spec.alignment * direction[None, :] + 0.1 * spec.noise * rng.standard_normal(
        (spec.k, spec.d)
    )
    if spec.frames is not None:
        tpf = spec.tokens_per_frame()
        frame_idx = np.arange(m) // tpf
        timestamps = frame_idx / spec.frame_rate
    else:
        timestamps = np.arange(m, dtype=np.float64)
    return Workload(x=x, timestamps=timestamps, q=q, planted=planted)


def uniform_stride_indices(m: int, n: int) -> Array:
    """n evenly spaced indices over [0, m), ascending and unique."""
    if not (1 <= n <= m):
        raise ParameterError(f"stride selection needs 1 <= n <= M, got n={n}, M={m}")
    return np.floor(np.arange(n) * m / n).astype(np.int64)


# Held-out trial t of seed s draws its workload from [s, t, HELD_OUT]:
# training draws [s, item] and [s, epoch, item], and numpy's SeedSequence
# maps [s, t] and [s, t, 0] to one stream, so the tag must not be 0.
HELD_OUT = 1 << 20


# Rows of one mock-downstream attention block.
DOWNSTREAM_CHUNK = 256


def mock_downstream(tokens: Array) -> Array:
    """Dense single-head self-attention over the token stream.

    Stands in for the downstream decoder's attention cost, Theta(n^2 d);
    evaluated in float32 and ``DOWNSTREAM_CHUNK`` rows at a time, so its
    cost scales without materializing the full score matrix.
    """
    x = np.asarray(tokens, dtype=np.float32)
    n, d = x.shape
    scale = 1.0 / math.sqrt(d)
    out = np.empty_like(x)
    xt = x.T.copy()
    for start in range(0, n, DOWNSTREAM_CHUNK):
        block = x[start : start + DOWNSTREAM_CHUNK]
        scores = (block @ xt) * scale
        scores -= scores.max(axis=1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=1, keepdims=True)
        out[start : start + DOWNSTREAM_CHUNK] = scores @ x
    return out


@dataclass
class EvalRow:
    """One held-out trial of ``evaluate``.

    ``compression`` = 1 - n/M is the share of the M input tokens dropped,
    the quantity the paper reports.  ``recall`` is the share of the k
    planted tokens in the kept set, ``stride_recall`` the same for
    uniform-stride retention at the same n, and ``precision`` the
    precision@k of the k largest relevances, ties to the lower index as
    in the gate.  ``ms`` times the select call, ``downstream_ms``
    ``mock_downstream`` over the kept rows z and ``full_ms``
    ``mock_downstream`` over all M tokens, so (ms + downstream_ms) /
    full_ms is the latency ratio of selecting.
    """

    trial: int
    m: int = field(metadata={"csv": "M"})
    k: int
    n: int
    compression: float
    rho: float
    t: float
    recall: float
    stride_recall: float
    precision: float
    ms: float
    downstream_ms: float
    full_ms: float


def _recall(indices: Array, planted: Array) -> float:
    return float(np.intersect1d(indices, planted).size / planted.size)


def _timed(fn: Callable, *args, **kwargs) -> tuple:
    """``fn(*args, **kwargs)`` and its wall time in ms."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter() - start) * 1e3


def evaluate(model: SelectorModel, spec: WorkloadSpec, trials: int) -> list[EvalRow]:
    """One infer ``select`` per held-out trial, one row each.

    Uniform stride keeps the budget the selector chose, so ``recall``
    against ``stride_recall`` isolates *which* tokens are kept, not how
    many.  No training call draws from the held-out stream.  The full
    stream's downstream time is Theta(M^2 d), seconds at M = 32768, so it
    is timed once, on trial 0's tokens, and repeated on every row.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    spec.validate()  # before its seed keys a generator
    rows: list[EvalRow] = []
    for trial in range(trials):
        wl = generate_workload(spec, np.random.default_rng([spec.seed, trial, HELD_OUT]))
        m, k = wl.x.shape[0], wl.planted.size
        res, ms = _timed(select, model, wl.x, wl.timestamps, wl.q, mode="infer")
        if trial == 0:
            _, full_ms = _timed(mock_downstream, wl.x)
        _, downstream_ms = _timed(mock_downstream, res.z)
        n = res.record.n
        rows.append(
            EvalRow(
                trial, m, k, n, 1.0 - n / m, res.record.rho, res.record.t,
                _recall(res.indices, wl.planted),
                _recall(uniform_stride_indices(m, n), wl.planted),
                _recall(hard_top_n(res.r_var.value, k), wl.planted),
                ms, downstream_ms, full_ms,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# desk-scale training

# OptimizerConfig field -> the RunConfig key that sets it and owns its range.
_OPTIMIZER_KEYS = {
    "lr": "train_lr", "momentum": "train_momentum", "clip_norm": "clip_norm", "batch": "train_batch"
}


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = RunConfig.train_lr
    momentum: float = RunConfig.train_momentum
    clip_norm: float = RunConfig.clip_norm
    batch: int = RunConfig.train_batch

    def __post_init__(self) -> None:
        check_ranges({key: getattr(self, f) for f, key in _OPTIMIZER_KEYS.items()}, ParameterError)

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "OptimizerConfig":
        return cls(**{f: getattr(cfg, key) for f, key in _OPTIMIZER_KEYS.items()})


@dataclass
class EpochStats:
    epoch: int
    loss: float
    mean_rho: float
    mean_n: float


def planted_mass_loss(res: SelectionResult, planted: Array) -> Var:
    """Synthetic task loss: -log of the mean keep probability on planted
    tokens.  Differentiable through the soft gate; minimized by keeping
    every planted token with probability one."""
    if res.soft_var is None:
        raise ParameterError("task loss needs a train-mode selection result")
    mass = ad.sum_all(ad.take_cols(res.soft_var, planted))
    return ad.smul(ad.log(ad.add_const(ad.smul(mass, 1.0 / planted.size), 1e-12)), -1.0)


def train_desk_scale(
    spec: WorkloadSpec,
    model: SelectorModel,
    epochs: int,
    opt: OptimizerConfig,
    penalties: PenaltyWeights,
    seed: int = RunConfig.seed,
) -> tuple[SelectorModel, list[EpochStats]]:
    """SGD-with-momentum training of the scoring and budget tensors.

    Per instance the loss is the planted-mass task loss plus the
    compute-aware penalty on rho (batch expectation is the arithmetic
    mean).  The workload pool is fixed across epochs (gate noise stays
    fresh) so the per-epoch loss is comparable; gradients are clipped at
    a global norm.  Divergence raises ``NumericError`` (``_diverges``)
    naming the epoch, and the item for a step.  A negative ``epochs`` or
    ``seed`` raises ``ParameterError``.

    Each step selects with the re-encoder removed: neither loss term
    reads the re-encoded rows z (the task loss reads the soft gate, the
    penalty rho), so the re-encoder would only add zero gradients, and
    its tensors are returned as they came in.  Training the re-encoder
    needs a loss that reads ``z_var`` from a ``select`` on the full
    bound model.

    Each epoch binds the model once, on one tape: that scans the updated
    tensors for NaN and inf once per epoch.  Each instance records its
    graph on that tape and clears it once its gradients are summed
    (``_train_instance``), so one instance graph is alive at a time.  The
    returned model holds the trained tensors and shares every other
    tensor (the re-encoder's) with ``model``.
    """
    check_ranges({"train_epochs": epochs, "seed": seed}, ParameterError)
    trainable = model.without_reencoder()
    params = trainable.parameters()
    epoch_model = trainable.with_parameters(params)  # shares params' arrays
    velocity = {name: np.zeros_like(p) for name, p in params.items()}
    grad_sum = {name: np.zeros_like(p) for name, p in params.items()}
    pool = [
        generate_workload(spec, np.random.default_rng([seed, item]))
        for item in range(opt.batch)
    ]
    trajectory: list[EpochStats] = []
    for epoch in range(epochs):
        tape = Tape()
        bound, tracked = epoch_model.bind(tape)
        for g in grad_sum.values():
            g.fill(0.0)
        losses: list[float] = []
        rhos: list[float] = []
        kept: list[int] = []
        for item, wl in enumerate(pool):
            rng = np.random.default_rng([seed, epoch, item])
            loss_value, record = _train_instance(
                tape, bound, tracked, wl, rng, penalties, grad_sum, {"epoch": epoch, "item": item}
            )
            losses.append(loss_value)
            rhos.append(record.rho)
            kept.append(record.n)
        # in place: grads, then velocity <- momentum * velocity - lr * grads,
        # then params <- params + velocity
        with _diverges({"epoch": epoch}):
            for g in grad_sum.values():
                g /= opt.batch
            total_norm = math.sqrt(sum(float((g * g).sum()) for g in grad_sum.values()))
            if total_norm > opt.clip_norm > 0:
                scale = opt.clip_norm / total_norm
                for g in grad_sum.values():
                    g *= scale
            for name, p in params.items():
                v, g = velocity[name], grad_sum[name]
                v *= opt.momentum
                g *= opt.lr
                v -= g
                p += v
        trajectory.append(
            EpochStats(
                epoch=epoch,
                loss=float(np.mean(losses)),
                mean_rho=float(np.mean(rhos)),
                mean_n=float(np.mean(kept)),
            )
        )
    return replace(model, scoring=epoch_model.scoring, budget=epoch_model.budget), trajectory


def _train_instance(
    tape: Tape,
    bound: SelectorModel,
    tracked: dict[str, Var],
    wl: Workload,
    rng: np.random.Generator,
    penalties: PenaltyWeights,
    grad_sum: dict[str, Array],
    where: dict[str, int],
) -> tuple[float, DiagnosticsRecord]:
    """One instance of a training step on ``tape``, where ``bound`` and
    its leaves ``tracked`` were bound: select, loss and backward, the
    gradients added into ``grad_sum``.  Returns the loss and the
    selection's diagnostics record.  The tape is cleared on the way out,
    success or not, and the rest of the graph dies with this call's
    locals.  ``where`` names the epoch and item, for the divergence dump.
    """
    try:
        with _diverges(where):
            res = select(bound, wl.x, wl.timestamps, wl.q, mode="train", rng=rng)
            task = planted_mass_loss(res, wl.planted)
            loss = total_loss(task, res.rho_var, wl.x.shape[0], bound.cfg.n_max, penalties)
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                r = res.r_var.value
                raise NumericError(
                    "training diverged: non-finite loss",
                    dump={
                        **where,
                        "rho": res.record.rho,
                        "t": res.record.t,
                        "r_stats": {"min": r.min(), "mean": r.mean(), "max": r.max()},
                    },
                )
            names = list(tracked)
            for name, g in zip(names, tape.gradients(loss, [tracked[n] for n in names])):
                grad_sum[name] += g
        return loss_value, res.record
    finally:
        tape.clear()


@contextmanager
def _diverges(dump: dict) -> Iterator[None]:
    """Raise the block's first floating-point overflow, division by zero or
    invalid operation (it can come before any loss) as ``NumericError(dump)``."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericError(f"training diverged: {exc}", dump=dump) from None


# ---------------------------------------------------------------------------
# CSV codec: one row per dataclass instance, one column per field (every
# schema round-trips exactly)

def _column(f: Field) -> str:
    return f.metadata.get("csv", f.name)


def to_csv(cls: type, rows: Sequence) -> str:
    """CSV text for ``rows`` of dataclass ``cls``: a header of column names,
    then one line per row (``str`` of each value, which writes a float
    as its shortest round-trip digits)."""
    columns = fields(cls)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([_column(f) for f in columns])
    for row in rows:
        writer.writerow([str(getattr(row, f.name)) for f in columns])
    return buf.getvalue()


def from_csv(cls: type, text: str) -> list:
    """Parse ``to_csv`` output back into ``cls`` instances.

    Raises InputError for a header that does not name exactly the
    columns of ``cls`` (in any order), or for a cell that does not parse.
    """
    kinds = get_type_hints(cls)
    parsers = {_column(f): (f.name, kinds[f.name]) for f in fields(cls)}  # int, float or str
    reader = csv.DictReader(io.StringIO(text))
    if sorted(reader.fieldnames or ()) != sorted(parsers):
        raise InputError(f"{cls.__name__} CSV must have columns {','.join(parsers)}")
    rows = []
    for rec in reader:
        try:
            rows.append(cls(**{name: parse(rec[col]) for col, (name, parse) in parsers.items()}))
        except (TypeError, ValueError) as exc:
            raise InputError(f"{cls.__name__} CSV line {reader.line_num}: {exc}") from exc
    return rows
