"""RunConfig's one range table and the objects that check through it."""

import math
from dataclasses import fields, replace

import pytest

from tokengate.config import (
    _RULES,
    SCHEMA,
    RunConfig,
    check_ranges,
    config_text,
    parse_config_text,
)
from tokengate.errors import ConfigError, InputError, ParameterError
from tokengate.harness import _OPTIMIZER_KEYS, _WORKLOAD_KEYS, OptimizerConfig, WorkloadSpec
from tokengate.objective import PenaltyWeights

RULED = [key for keys, _, _ in _RULES for key in keys]

# (class, field, RunConfig key) for every field that mirrors a RunConfig key
SHARED = [(PenaltyWeights, f.name, f.name) for f in fields(PenaltyWeights)] + [
    (OptimizerConfig, f, key) for f, key in _OPTIMIZER_KEYS.items()
]
# NaN, the infinities, and the edges of every range in _RULES
VALUES = [math.nan, math.inf, -math.inf, -1.0, -1e-9, 0.0, 1e-9, 0.5, 1.0, 2.0]


def test_every_numeric_key_is_checked_in_one_place():
    """Every numeric RunConfig key has one rule in _RULES, and each rule
    names RunConfig fields only."""
    assert len(RULED) == len(set(RULED))
    numeric = {key for key, (typ, _) in SCHEMA.items() if typ in (int, float)}
    assert set(RULED) == numeric


def test_workload_fields_mirror_their_keys_through_one_map():
    """Every WorkloadSpec field but m and frames (whose keys' 0 is None
    on the spec) is in _WORKLOAD_KEYS, and from_config sets each from its
    key."""
    assert set(_WORKLOAD_KEYS) == {f.name for f in fields(WorkloadSpec)} - {"m", "frames"}
    assert set(_WORKLOAD_KEYS.values()) <= set(RULED)
    cfg = RunConfig(
        d=8, heads=2, wl_tokens=0, wl_frames=3, wl_query_len=2, wl_planted=5,
        wl_alignment=2.5, wl_noise=0.5, wl_frame_rate=2.0, wl_frame_height=30,
        wl_frame_width=40, wl_patch=10, seed=7,
    )
    expected = WorkloadSpec(
        m=None, d=8, l=2, k=5, alignment=2.5, noise=0.5, frames=3, frame_rate=2.0,
        frame_height=30, frame_width=40, patch=10, seed=7,
    )
    assert WorkloadSpec.from_config(cfg) == expected


@pytest.mark.parametrize("cls", [WorkloadSpec, OptimizerConfig, PenaltyWeights])
def test_defaults_are_run_config_defaults(cls):
    assert cls() == cls.from_config(RunConfig())


@pytest.mark.parametrize(
    "field, key", list(_WORKLOAD_KEYS.items()), ids=list(_WORKLOAD_KEYS.values())
)
def test_workload_checked_keys_are_checked_by_the_workload(field, key):
    spec = replace(WorkloadSpec(), **{field: math.nan})
    with pytest.raises(InputError, match=rf"^{key} must be .*, got nan$"):
        spec.validate()


def test_check_ranges_names_the_first_key_in_rule_order():
    with pytest.raises(ParameterError, match=r"^train_batch must be >= 1, got 0$"):
        check_ranges({"train_lr": math.nan, "train_batch": 0}, ParameterError)
    check_ranges({"not_a_key": math.nan, "tau_s": 0.5})


def test_shared_fields_cover_their_keys():
    assert {key for _, _, key in SHARED} <= set(RULED)
    assert len(SHARED) == 8


@pytest.mark.parametrize("cls, field, key", SHARED, ids=[key for _, _, key in SHARED])
@pytest.mark.parametrize("value", VALUES)
def test_shared_field_rejects_exactly_what_run_config_rejects(cls, field, key, value):
    try:
        RunConfig(**{key: value})
    except ConfigError as exc:
        assert str(exc).startswith(f"{key} must be ")
        with pytest.raises(ParameterError) as caught:
            cls(**{field: value})
        assert str(caught.value) == str(exc)
    else:
        assert getattr(cls(**{field: value}), field) == value


@pytest.mark.parametrize("cls, field, key", SHARED, ids=[key for _, _, key in SHARED])
def test_shared_field_defaults_are_run_config_defaults(cls, field, key):
    assert getattr(cls(), field) == getattr(RunConfig(), key)


def test_from_config_reads_every_shared_key():
    cfg = RunConfig(
        lambda_t=0.3, lambda_m=0.4, lambda_s=0.6, rho_bar=0.7,
        train_lr=0.2, train_momentum=0.5, clip_norm=3.0, train_batch=5,
    )
    assert PenaltyWeights.from_config(cfg) == PenaltyWeights(0.3, 0.4, 0.6, 0.7)
    assert OptimizerConfig.from_config(cfg) == OptimizerConfig(0.2, 0.5, 3.0, 5)


def test_parse_skips_comments_and_blank_lines():
    cfg = parse_config_text("# a comment\n\n   \nd = 16  # trailing comment\nheads = 2\n")
    assert (cfg.d, cfg.heads) == (16, 2)


@pytest.mark.parametrize(
    "text, message",
    [
        ("d = 16\nheads 2", "line 2: expected 'key = value', got 'heads 2'"),
        ("d = sixteen", "line 1: bad value for d: invalid literal for int() with base 10: 'sixteen'"),
        ("tau_s = 0.5.1", "line 1: bad value for tau_s: could not convert string to float: '0.5.1'"),
    ],
    ids=["no_equals", "bad_int", "bad_float"],
)
def test_parse_rejects_a_malformed_line(text, message):
    with pytest.raises(ConfigError) as caught:
        parse_config_text(text)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "values",
    [{"rho_min": 0.5, "rho_max": 0.5}, {"rho_min": 0.6}, {"d": 32, "heads": 3}],
    ids=["equal_bounds", "min_above_max", "heads_not_dividing_d"],
)
def test_cross_key_rules(values):
    with pytest.raises(ConfigError):
        RunConfig(**values)


def test_solver_constants_are_not_keys():
    """newton_iters and residual_tol are read on RunConfig but are neither
    fields nor keys: no file, --set or constructor can change them."""
    assert len(fields(RunConfig)) == 28
    assert (RunConfig().newton_iters, RunConfig().residual_tol) == (6, 1e-6)
    for key in ("newton_iters", "residual_tol"):
        assert key not in SCHEMA and key not in RULED
        assert key not in config_text(RunConfig())
        with pytest.raises(TypeError):
            RunConfig(**{key: 1})
        with pytest.raises(ConfigError, match=f"unknown configuration key '{key}'"):
            parse_config_text(f"{key} = 1")
