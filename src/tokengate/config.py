"""Flat key = value configuration with a strict schema.

Defaults mirror the reference training configuration (tau_s = 0.5,
n_max = 256, retention bounds [0.05, 0.5], scoring depth 1, re-encode
depth 2, penalty weights 0.1/0.17/0.05).  Unknown keys are errors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class RunConfig:
    # model
    d: int = 32
    heads: int = 4
    scoring_depth: int = 1
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
    dual_step: float = 1e-3
    dual_n_bar: int = 0  # 0 disables the dual term
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
        if not (0.0 < self.rho_min < self.rho_max <= 1.0):
            raise ConfigError(
                f"retention bounds must satisfy 0 < rho_min < rho_max <= 1, "
                f"got [{self.rho_min}, {self.rho_max}]"
            )
        if self.d < 1 or self.heads < 1 or self.d % self.heads != 0:
            raise ConfigError(f"model dim {self.d} not divisible by {self.heads} heads")
        if self.scoring_depth < 1:
            raise ConfigError(f"scoring_depth must be >= 1, got {self.scoring_depth}")
        if self.reencode_depth < 0:
            raise ConfigError(f"reencode_depth must be >= 0, got {self.reencode_depth}")
        if self.n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {self.n_max}")
        if self.tau_s <= 0:
            raise ConfigError(f"tau_s must be positive, got {self.tau_s}")
        if self.train_batch < 1:
            raise ConfigError(f"train_batch must be >= 1, got {self.train_batch}")


_PARSERS = {int: int, float: float, bool: _parse_bool, str: str}

SCHEMA: dict[str, tuple[type, object]] = {
    f.name: (f.type if isinstance(f.type, type) else {"int": int, "float": float, "bool": bool, "str": str}[f.type], f.default)
    for f in fields(RunConfig)
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
            values[key] = _PARSERS[typ](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    merged = {**(_as_dict(base) if base else {}), **values}
    return RunConfig(**merged)


def _as_dict(cfg: RunConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}


def load_config(path: str | Path, base: RunConfig | None = None) -> RunConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"), base)


def apply_overrides(cfg: RunConfig, pairs: list[str]) -> RunConfig:
    """Apply --set key=value overrides on top of a config."""
    return parse_config_text("\n".join(pairs), base=cfg)


def config_text(cfg: RunConfig) -> str:
    lines = [f"{name} = {getattr(cfg, name)}" for name in SCHEMA]
    return "\n".join(lines) + "\n"
