"""Synthetic workloads, ablations, desk-scale training, scaling benchmark,
and correlation diagnostics.

Workloads plant a known subset of query-aligned tokens among random
distractors, giving ground truth for recall.  The benchmark feeds
either the full or the selected token stream into a quadratic-cost mock
downstream block and reports wall times; ablations compare the selector
against uniform-stride retention at the same per-instance budget.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import Field, dataclass, field, fields, replace
from enum import Enum
from typing import Callable, Sequence, get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tape, Var
from .config import RunConfig
from .errors import InputError, NumericError, ParameterError
from .objective import DualState, PenaltyWeights, dual_ascent, total_loss
from .selector import DiagnosticsRecord, SelectionResult, SelectorModel, select


class AblationVariant(Enum):
    UNIF = "UNIF"
    NREENC = "nREENC"
    QTS = "QTS"


@dataclass(frozen=True)
class WorkloadSpec:
    """Planted-relevance workload parameters.

    Either give ``m`` directly, or set ``frames`` (with the video
    geometry fields) to derive the token count as
    (frames / sample_interval) * (height * width / patch^2); timestamps
    then follow the sampled frames at ``frame_rate``.
    """

    m: int | None = 256
    d: int = 16
    l: int = 4
    k: int = 4
    alignment: float = 6.0
    noise: float = 1.0
    frames: int | None = None
    frame_rate: float = 1.0
    sample_interval: int = 1
    frame_height: int = 56
    frame_width: int = 56
    patch: int = 14
    seed: int = 0

    def tokens_per_frame(self) -> int:
        return (self.frame_height * self.frame_width) // (self.patch * self.patch)

    def token_count(self) -> int:
        if self.frames is not None:
            if self.frames < 1:
                raise InputError(f"frame count must be >= 1, got {self.frames}")
            sampled = self.frames // self.sample_interval
            if sampled < 1:
                raise InputError("sampling interval leaves no frames")
            return sampled * self.tokens_per_frame()
        if self.m is None or self.m < 1:
            raise InputError(f"token count must be >= 1, got {self.m}")
        return self.m

    def validate(self) -> None:
        m = self.token_count()
        if self.k < 1:
            raise InputError(f"planted count must be >= 1, got {self.k}")
        if self.k > m:
            raise InputError(f"planted count {self.k} exceeds token count {m}")
        if self.alignment <= 0:
            raise InputError(f"alignment strength must be positive, got {self.alignment}")

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "WorkloadSpec":
        return cls(
            m=cfg.wl_tokens if cfg.wl_tokens > 0 else None,
            d=cfg.d,
            l=cfg.wl_query_len,
            k=cfg.wl_planted,
            alignment=cfg.wl_alignment,
            noise=cfg.wl_noise,
            frames=cfg.wl_frames if cfg.wl_frames > 0 else None,
            frame_rate=cfg.wl_frame_rate,
            sample_interval=cfg.wl_sample_interval,
            frame_height=cfg.wl_frame_height,
            frame_width=cfg.wl_frame_width,
            patch=cfg.wl_patch,
            seed=cfg.seed,
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
        timestamps = frame_idx * spec.sample_interval / spec.frame_rate
    else:
        timestamps = np.arange(m, dtype=np.float64)
    return Workload(x=x, timestamps=timestamps, q=q, planted=planted)


def uniform_stride_indices(m: int, n: int) -> Array:
    """n evenly spaced indices over [0, m), ascending and unique."""
    if not (1 <= n <= m):
        raise ParameterError(f"stride selection needs 1 <= n <= M, got n={n}, M={m}")
    return np.floor(np.arange(n) * m / n).astype(np.int64)


@dataclass
class AblationRow:
    """One ablation trial; ``compression`` = 1 - n/M is the share of the
    M input tokens dropped, the quantity the paper reports."""

    variant: str
    trial: int
    recall: float
    rho: float
    n: int
    compression: float
    ms: float


@dataclass
class AblationMetrics:
    variant: str
    trials: int
    mean_recall: float
    mean_rho: float
    mean_n: float
    mean_ms: float
    rows: list[AblationRow] = field(default_factory=list)
    records: list[DiagnosticsRecord] = field(default_factory=list)


def run_ablation(
    variant: AblationVariant,
    spec: WorkloadSpec,
    model: SelectorModel,
    trials: int,
) -> AblationMetrics:
    """Recall/budget/timing for one variant over seeded trials.

    UNIF replaces the selector with uniform-stride retention but keeps
    the per-instance budget the selector would have chosen, so the
    comparison isolates *which* tokens are kept, not how many.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    eval_model = model.without_reencoder() if variant is AblationVariant.NREENC else model
    rows: list[AblationRow] = []
    records: list[DiagnosticsRecord] = []
    for trial in range(trials):
        rng = np.random.default_rng([spec.seed, trial])
        wl = generate_workload(spec, rng)
        start = time.perf_counter()
        res = select(eval_model, wl.x, wl.timestamps, wl.q, mode="infer")
        if variant is AblationVariant.UNIF:
            kept = uniform_stride_indices(wl.x.shape[0], res.record.n)
        else:
            kept = res.indices
        ms = (time.perf_counter() - start) * 1e3
        recall = float(np.intersect1d(kept, wl.planted).size / wl.planted.size)
        n = res.record.n
        compression = 1.0 - n / wl.x.shape[0]
        rows.append(AblationRow(variant.value, trial, recall, res.record.rho, n, compression, ms))
        records.append(res.record)
    return AblationMetrics(
        variant=variant.value,
        trials=trials,
        mean_recall=float(np.mean([r.recall for r in rows])),
        mean_rho=float(np.mean([r.rho for r in rows])),
        mean_n=float(np.mean([r.n for r in rows])),
        mean_ms=float(np.mean([r.ms for r in rows])),
        rows=rows,
        records=records,
    )


# ---------------------------------------------------------------------------
# desk-scale training

@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 0.05
    momentum: float = 0.9
    clip_norm: float = 1.0
    batch: int = 8

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ParameterError(f"batch must be >= 1, got {self.batch}")
        for key in ("lr", "momentum", "clip_norm"):
            if not math.isfinite(getattr(self, key)):
                raise ParameterError(f"{key} must be finite, got {getattr(self, key)!r}")

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "OptimizerConfig":
        return cls(
            lr=cfg.train_lr,
            momentum=cfg.train_momentum,
            clip_norm=cfg.clip_norm,
            batch=cfg.train_batch,
        )


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
    dual: DualState | None = None,
    seed: int = 0,
) -> tuple[SelectorModel, list[EpochStats]]:
    """SGD-with-momentum training of the scoring and budget tensors.

    Per instance the loss is the planted-mass task loss plus the
    compute-aware penalty on rho (batch expectation is the arithmetic
    mean).  The workload pool is fixed across epochs (gate noise stays
    fresh) so the per-epoch loss is comparable; gradients are clipped at
    a global norm.  Divergence (a non-finite loss) aborts with a
    diagnostic dump.  A negative ``epochs`` raises ``ParameterError``.

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
    if epochs < 0:
        raise ParameterError(f"epochs must be >= 0, got {epochs}")
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
                tape, bound, tracked, wl, rng, penalties, dual, grad_sum, (epoch, item)
            )
            losses.append(loss_value)
            rhos.append(record.rho)
            kept.append(record.n)
            if dual is not None:
                dual = dual_ascent(dual, record.rho, wl.x.shape[0])
        # in place: grads, then velocity <- momentum * velocity - lr * grads,
        # then params <- params + velocity
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
    dual: DualState | None,
    grad_sum: dict[str, Array],
    where: tuple[int, int],
) -> tuple[float, DiagnosticsRecord]:
    """One instance of a training step on ``tape``, where ``bound`` and
    its leaves ``tracked`` were bound: select, loss and backward, the
    gradients added into ``grad_sum``.  Returns the loss and the
    selection's diagnostics record.  The tape is cleared on the way out,
    success or not, and the rest of the graph dies with this call's
    locals.  ``where`` is (epoch, item), for the divergence dump.
    """
    try:
        res = select(bound, wl.x, wl.timestamps, wl.q, mode="train", rng=rng)
        task = planted_mass_loss(res, wl.planted)
        loss = total_loss(task, res.rho_var, wl.x.shape[0], bound.cfg.n_max, penalties, dual)
        loss_value = loss.item()
        if not math.isfinite(loss_value):
            r = res.r_var.value
            raise NumericError(
                "training diverged: non-finite loss",
                dump={
                    "epoch": where[0],
                    "item": where[1],
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


# ---------------------------------------------------------------------------
# scaling benchmark

@dataclass
class BenchRecord:
    frames: int
    m: int = field(metadata={"csv": "M"})
    n: int
    selector_ms: float
    downstream_ms: float
    total_ms: float
    mode: str


def mock_downstream(tokens: Array, chunk: int = 256) -> Array:
    """Dense single-head self-attention over the token stream.

    Stands in for the downstream decoder's attention cost, Theta(n^2 d);
    evaluated in float32 and row-chunked so the benchmark scales without
    materializing the full score matrix.
    """
    x = np.asarray(tokens, dtype=np.float32)
    n, d = x.shape
    scale = 1.0 / math.sqrt(d)
    out = np.empty_like(x)
    xt = x.T.copy()
    for start in range(0, n, chunk):
        block = x[start : start + chunk]
        scores = (block @ xt) * scale
        scores -= scores.max(axis=1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=1, keepdims=True)
        out[start : start + chunk] = scores @ x
    return out


def bench_scaling(
    frame_counts: Sequence[int],
    model: SelectorModel,
    spec: WorkloadSpec,
    downstream: Callable[[Array], Array] = mock_downstream,
) -> list[BenchRecord]:
    """Two latency curves per frame count: all tokens vs selected tokens."""
    records: list[BenchRecord] = []
    for frames in frame_counts:
        if frames < 1:
            raise InputError(f"frame count must be >= 1, got {frames}")
        wl_spec = replace(spec, frames=frames, m=None)
        rng = np.random.default_rng([wl_spec.seed, frames])
        wl = generate_workload(wl_spec, rng)
        m = wl.x.shape[0]

        start = time.perf_counter()
        downstream(wl.x)
        base_ms = (time.perf_counter() - start) * 1e3
        records.append(
            BenchRecord(frames, m, m, 0.0, base_ms, base_ms, "baseline")
        )

        start = time.perf_counter()
        res = select(model, wl.x, wl.timestamps, wl.q, mode="infer")
        sel_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        downstream(res.z)
        down_ms = (time.perf_counter() - start) * 1e3
        records.append(
            BenchRecord(
                frames, m, res.record.n, sel_ms, down_ms, sel_ms + down_ms, "qts"
            )
        )
    return records


# ---------------------------------------------------------------------------
# correlation diagnostics

@dataclass
class CorrelationRow:
    pair: str
    r: float | None
    slope: float | None
    intercept: float | None
    count: int


CORRELATION_PAIRS = (
    ("sq_mean", "rho"),
    ("log_m", "rho"),
    ("r_max", "rho"),
    ("entropy", "rho"),
    ("rho", "t"),
)


def _spread(values: Array) -> float:
    return float(np.sqrt(((values - values.mean()) ** 2).sum()))


def _is_constant(values: Array, spread: float) -> bool:
    # a constant column can still show ulp-level spread after the mean
    # subtraction; compare against the rounding noise floor, not zero
    noise_floor = 1e-12 * max(1.0, float(np.abs(values).max())) * math.sqrt(values.size)
    return spread <= noise_floor


def _pearson(x: Array, y: Array) -> tuple[float | None, float | None, float | None]:
    dx = x - x.mean()
    dy = y - y.mean()
    sx = _spread(x)
    sy = _spread(y)
    if _is_constant(x, sx) or _is_constant(y, sy):
        return None, None, None
    r = float((dx * dy).sum() / (sx * sy))
    slope = float((dx * dy).sum() / (dx * dx).sum())
    intercept = float(y.mean() - slope * x.mean())
    return r, slope, intercept


def correlation_report(records: Sequence[DiagnosticsRecord]) -> list[CorrelationRow]:
    """Pearson coefficient and least-squares fit for each diagnostic pair.

    Zero-variance columns yield an explicit undefined marker instead of
    a NaN.
    """
    if len(records) < 3:
        raise InputError(f"correlation report needs >= 3 records, got {len(records)}")
    rows = []
    for x_name, y_name in CORRELATION_PAIRS:
        x = np.array([getattr(rec, x_name) for rec in records], dtype=np.float64)
        y = np.array([getattr(rec, y_name) for rec in records], dtype=np.float64)
        r, slope, intercept = _pearson(x, y)
        rows.append(CorrelationRow(f"{x_name}_vs_{y_name}", r, slope, intercept, len(records)))
    return rows


# ---------------------------------------------------------------------------
# CSV codec: one row per dataclass instance, one column per field (every
# schema round-trips exactly)

UNDEFINED = "undefined"


def _column(f: Field) -> str:
    return f.metadata.get("csv", f.name)


def _fmt(value) -> str:
    if value is None:
        return UNDEFINED
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cell_parser(kind) -> Callable[[str], object]:
    if kind == float | None:
        return lambda token: None if token == UNDEFINED else float(token)
    return kind  # int, float or str


def to_csv(cls: type, rows: Sequence) -> str:
    """CSV text for ``rows`` of dataclass ``cls``: a header of column names,
    then one line per row (floats as ``repr``, ``None`` as ``undefined``)."""
    columns = fields(cls)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([_column(f) for f in columns])
    for row in rows:
        writer.writerow([_fmt(getattr(row, f.name)) for f in columns])
    return buf.getvalue()


def from_csv(cls: type, text: str) -> list:
    """Parse ``to_csv`` output back into ``cls`` instances.

    Raises InputError for a header that does not name exactly the
    columns of ``cls`` (in any order), or for a cell that does not parse.
    """
    kinds = get_type_hints(cls)
    parsers = {_column(f): (f.name, _cell_parser(kinds[f.name])) for f in fields(cls)}
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
