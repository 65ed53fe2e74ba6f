"""Command-line surface: select, train, eval, weights-inspect.

Exit codes: 0 ok, 2 input parse, 3 shape conflict, 4 missing or unusable
resource (any OSError on a path), 5 numeric failure, 6 config schema violation.

Only ``train`` and ``eval`` import the training module ``harness``, so
``select --mode infer`` and ``weights-inspect`` start without it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import RunConfig, load_config, parse_config_text, schema_help
from .errors import (
    ConfigError,
    InputError,
    MissingResourceError,
    NumericError,
    ParameterError,
    ShapeError,
)
from .selector import SelectorModel, load_weights, save_weights, select, weights_files
from .tensorio import atomic_write_text, read_tensor, write_tensor

if TYPE_CHECKING:
    from .harness import EvalRow

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_MISSING = 4
EXIT_NUMERIC = 5
EXIT_CONFIG = 6

# Config keys a weights directory was built and trained with.
WEIGHT_KEYS = ("d", "heads", "reencode_depth", "budget_hidden", "rho_min", "rho_max")


def _load_run_config(args, cfg: RunConfig = RunConfig()) -> RunConfig:
    """``cfg`` with --config and then --set applied on top."""
    if getattr(args, "config", None):
        cfg = load_config(args.config, cfg)
    if getattr(args, "set", None):
        cfg = parse_config_text("\n".join(args.set), base=cfg)
    return cfg


def _load_model(args) -> SelectorModel:
    """The run's model, whose ``cfg`` is the run config.  With --weights
    that config starts from the weights' own ``model.cfg``, --config and
    --set apply on top, and a change to a key in WEIGHT_KEYS raises
    ``ConfigError``; without, the model is seeded from the run config."""
    if not args.weights:
        return SelectorModel.build(_load_run_config(args))
    model = load_weights(args.weights)
    cfg = _load_run_config(args, model.cfg)
    changed = [
        f"{key} ({getattr(model.cfg, key)} -> {getattr(cfg, key)})"
        for key in WEIGHT_KEYS
        if getattr(cfg, key) != getattr(model.cfg, key)
    ]
    if changed:
        raise ConfigError(f"the weights in {args.weights} fix {', '.join(changed)}")
    return replace(model, cfg=cfg)


def _check_outputs(
    files: list[str], weights_dir: str | None = None, model: SelectorModel | None = None
) -> None:
    """Raise, before any work, the ``OSError`` that writing would raise
    after it: a file whose destination is a directory or whose parent is
    not one, or a weights directory for ``model`` (``save_weights``
    creates it with its parents, then writes its ``weights_files``)
    whose path or nearest existing ancestor is not a directory.  Two
    destinations that name one file raise too, since the later write
    would replace the earlier.  Paths are compared resolved, so two
    spellings of one path match."""
    made = set()
    if weights_dir is not None:
        root = Path(weights_dir).resolve()
        found = next(p for p in (root, *root.parents) if p.exists())
        if not found.is_dir():
            raise NotADirectoryError(f"cannot write weights to {root}: {found} is not a directory")
        made = {root, *root.parents}
        files = [*files, *(root / name for name in weights_files(model))]
    seen = set()
    for path in (Path(f).resolve() for f in files):
        if path in seen:
            raise OSError(f"two outputs would write {path}")
        seen.add(path)
        if path.is_dir() or path in made:
            raise IsADirectoryError(f"cannot write {path} over a directory")
        if not (path.parent.is_dir() or path.parent in made):
            raise NotADirectoryError(f"cannot write {path}: {path.parent} is not a directory")


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )


def cmd_select(args) -> int:
    _check_outputs([args.out_tokens, args.out_indices, args.out_diag])
    model = _load_model(args)
    x = read_tensor(args.x)
    q = read_tensor(args.q)
    timestamps = read_tensor(args.timestamps).ravel()
    rng = np.random.default_rng(model.cfg.seed) if args.mode == "train" else None
    result = select(model, x, timestamps, q, mode=args.mode, rng=rng)

    write_tensor(args.out_tokens, result.z)
    atomic_write_text(
        args.out_indices, "\n".join(str(int(i)) for i in result.indices) + "\n"
    )
    diag = asdict(result.record)
    diag["mode"] = result.mode
    diag["n_target"] = result.n_target
    diag["rho_m"] = result.record.rho * result.record.m
    line = json.dumps(diag, sort_keys=True)
    atomic_write_text(args.out_diag, line + "\n")
    print(line)
    return EXIT_OK


def cmd_train(args) -> int:
    from .harness import (
        EpochStats,
        OptimizerConfig,
        PenaltyWeights,
        WorkloadSpec,
        to_csv,
        train_desk_scale,
    )

    cfg = _load_run_config(args)
    model = SelectorModel.build(cfg)
    _check_outputs([args.out_trajectory], args.out_weights, model)
    spec = WorkloadSpec.from_config(cfg)
    trained, trajectory = train_desk_scale(
        spec,
        model,
        epochs=cfg.train_epochs,
        opt=OptimizerConfig.from_config(cfg),
        penalties=PenaltyWeights.from_config(cfg),
        seed=cfg.seed,
    )
    save_weights(trained, args.out_weights)
    atomic_write_text(args.out_trajectory, to_csv(EpochStats, trajectory))
    print(f"trained {cfg.train_epochs} epochs; weights -> {args.out_weights}")
    return EXIT_OK


def _summary(rows: list[EvalRow]) -> str:
    """One line for the rows of one size: M, the quality means, the mean
    select time and the latency ratio (select + downstream over the kept
    tokens) / downstream over all M."""

    def mean(col: str) -> float:
        return float(np.mean([getattr(row, col) for row in rows]))

    quality = " ".join(
        f"{col}={mean(col):.4f}" for col in ("compression", "recall", "stride_recall", "precision")
    )
    ratio = (mean("ms") + mean("downstream_ms")) / rows[0].full_ms
    return (
        f"M={rows[0].m} ({len(rows)} trials): {quality} "
        f"ms={mean('ms'):.3f} latency_ratio={ratio:.4f}"
    )


def cmd_eval(args) -> int:
    from .harness import EvalRow, WorkloadSpec, evaluate, to_csv

    _check_outputs([args.out])
    model = _load_model(args)
    spec = WorkloadSpec.from_config(model.cfg)
    sizes = [spec]
    if args.frames is not None:
        try:
            frames = [int(tok) for tok in args.frames.split(",") if tok]
        except ValueError as exc:  # int() names the token: "invalid literal ...: 'abc'"
            raise InputError(f"--frames: {exc}") from None
        if not frames:
            raise InputError("empty frame list")
        sizes = [replace(spec, frames=f, m=None) for f in frames]
    for size in sizes:  # every size before the first trial runs
        size.validate()
    rows: list[EvalRow] = []
    for size in sizes:
        size_rows = evaluate(model, size, args.trials)
        print(_summary(size_rows))
        rows += size_rows
    atomic_write_text(args.out, to_csv(EvalRow, rows))
    return EXIT_OK


def cmd_weights_inspect(args) -> int:
    model = load_weights(args.weights)
    entries = list(model.named_tensors())
    for name, tensor in entries:
        arr = np.asarray(tensor)
        print(f"{name} {arr.shape[0]}x{arr.shape[1]}")
    print(f"{len(entries)} tensors verified in {args.weights}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokengate",
        description="Query-aware visual token selection with adaptive budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(
            name,
            help=help_text,
            epilog=schema_help(),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        _add_config_args(p)
        return p

    p = subparser("select", "run selection on QTN1 tensor files")
    p.add_argument("--x", required=True, help="visual tokens, QTN1 rank-2 (M x d)")
    p.add_argument("--q", required=True, help="query embeddings, QTN1 rank-2 (L x d)")
    p.add_argument("--timestamps", required=True, help="per-token seconds, QTN1 rank-1")
    p.add_argument("--weights", required=True, help="weights directory")
    p.add_argument("--mode", choices=("train", "infer"), default="infer")
    p.add_argument("--out-tokens", required=True)
    p.add_argument("--out-indices", required=True)
    p.add_argument("--out-diag", required=True)
    p.set_defaults(func=cmd_select)

    p = subparser("train", "desk-scale training on synthetic workloads")
    p.add_argument("--out-weights", required=True)
    p.add_argument("--out-trajectory", required=True)
    p.set_defaults(func=cmd_train)

    p = subparser(
        "eval", "held-out quality against uniform stride, and latency against a mock downstream"
    )
    p.add_argument("--trials", type=int, default=50)
    p.add_argument(
        "--frames", help="comma-separated frame counts, one run each (default: the config's size)"
    )
    p.add_argument("--weights", help="weights directory (default: seeded init)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = subparser("weights-inspect", "verify and list a weights directory")
    p.add_argument("--weights", required=True)
    p.set_defaults(func=cmd_weights_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ShapeError as exc:
        print(f"shape error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (MissingResourceError, OSError) as exc:  # OSError: a path missing, a directory, ...
        print(f"missing or unusable resource: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        if exc.dump:
            print(json.dumps(exc.dump, default=str), file=sys.stderr)
        return EXIT_NUMERIC
    except (InputError, ParameterError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
