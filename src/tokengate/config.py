"""Flat key = value configuration with a strict schema.

Defaults mirror the reference training configuration (tau_s = 0.5,
n_max = 256, retention bounds [0.05, 0.5], re-encode depth 2, penalty
weights 0.1/0.17/0.05).  Unknown keys are errors.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigError


@dataclass(frozen=True)
class RunConfig:
    # model
    d: int = 32
    heads: int = 4
    reencode_depth: int = 2
    budget_hidden: int = 128
    rho_min: float = 0.05
    rho_max: float = 0.5
    n_max: int = 256
    # gate
    tau_s: float = 0.5
    newton_iters: int = 6
    residual_tol: float = 1e-6
    clamp_margin: float = 10.0
    # objective
    lambda_t: float = 0.1
    lambda_m: float = 0.17
    lambda_s: float = 0.05
    rho_bar: float = 0.275
    # workload
    wl_tokens: int = 256  # direct M; 0 derives M from the video geometry below
    wl_frames: int = 0
    wl_frame_rate: float = 1.0
    wl_sample_interval: int = 1
    wl_frame_height: int = 56
    wl_frame_width: int = 56
    wl_patch: int = 14
    wl_query_len: int = 4
    wl_planted: int = 8
    wl_alignment: float = 6.0
    wl_noise: float = 1.0
    # training
    train_epochs: int = 12
    train_batch: int = 8
    train_lr: float = 0.05
    train_momentum: float = 0.9
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_ranges(asdict(self))
        if not self.rho_min < self.rho_max:
            raise ConfigError(
                f"retention bounds must satisfy rho_min < rho_max, "
                f"got [{self.rho_min}, {self.rho_max}]"
            )
        if self.d % self.heads != 0:
            raise ConfigError(f"model dim {self.d} not divisible by {self.heads} heads")


# (keys, test, rule): the range each numeric key must lie in; every test
# also rejects NaN.  wl_tokens or wl_frames 0 means "unset".
_RULES = (
    (
        ("d", "heads", "budget_hidden", "n_max", "newton_iters", "train_batch",
         "wl_sample_interval", "wl_frame_height", "wl_frame_width", "wl_patch"),
        lambda v: v >= 1,
        ">= 1",
    ),
    (
        ("reencode_depth", "train_epochs", "seed", "wl_tokens", "wl_frames"),
        lambda v: v >= 0,
        ">= 0",
    ),
    (("tau_s", "wl_frame_rate"), lambda v: 0.0 < v < math.inf, "positive and finite"),
    (("residual_tol",), lambda v: v > 0, "positive"),
    (
        ("clamp_margin", "lambda_t", "lambda_m", "lambda_s"),
        lambda v: 0.0 <= v < math.inf,
        "finite and >= 0",
    ),
    (("rho_min", "rho_max"), lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    (("rho_bar",), lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    (("train_lr", "train_momentum", "clip_norm"), math.isfinite, "finite"),
)
# The numeric keys _RULES leaves out: WorkloadSpec.validate checks them,
# since a workload built without a RunConfig needs the same checks.
WORKLOAD_CHECKED = ("wl_query_len", "wl_planted", "wl_alignment", "wl_noise")


def check_ranges(values: dict, error: type[Exception] = ConfigError) -> None:
    """Raise ``error`` naming the first key of ``values``, in _RULES order,
    whose value is out of its range; keys _RULES does not list pass."""
    for keys, ok, rule in _RULES:
        for key in keys:
            if key in values and not ok(values[key]):
                raise error(f"{key} must be {rule}, got {values[key]!r}")


# Every key is an int or a float; under ``from __future__ import
# annotations`` each field's type is its annotation text.
SCHEMA: dict[str, tuple[type, object]] = {
    f.name: ({"int": int, "float": float}[f.type], f.default) for f in fields(RunConfig)
}


def schema_help() -> str:
    """One line per key with its type and default, for --help epilogs."""
    lines = ["configuration keys (key = value per line, # comments):"]
    for name, (typ, default) in SCHEMA.items():
        lines.append(f"  {name} ({typ.__name__}, default {default!r})")
    return "\n".join(lines)


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse `key = value` lines against the schema; later keys win."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        typ, _ = SCHEMA[key]
        try:
            values[key] = typ(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    merged = {**(asdict(base) if base else {}), **values}
    return RunConfig(**merged)


def load_config(path: str | Path, base: RunConfig | None = None) -> RunConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"), base)


def apply_overrides(cfg: RunConfig, pairs: list[str]) -> RunConfig:
    """Apply --set key=value overrides on top of a config."""
    return parse_config_text("\n".join(pairs), base=cfg)


def config_text(cfg: RunConfig) -> str:
    lines = [f"{name} = {getattr(cfg, name)}" for name in SCHEMA]
    return "\n".join(lines) + "\n"
