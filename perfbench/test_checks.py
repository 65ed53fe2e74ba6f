"""The benchmark's output checker: corrupted results count as failed, correct ones pass.

Run from the repository root: python3 -m pytest -q perfbench
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tokengate as tg  # noqa: E402

import checks  # noqa: E402
import pool  # noqa: E402
import run  # noqa: E402

M = 2048


@pytest.fixture(scope="module")
def case():
    cfg = tg.RunConfig()
    model = tg.SelectorModel.build(cfg)
    wl = tg.generate_workload(tg.WorkloadSpec(m=M, d=cfg.d, l=6, k=8), np.random.default_rng(0))
    return cfg, tg.select(model, wl.x, wl.timestamps, wl.q)


def test_correct_result_passes(case):
    cfg, res = case
    assert checks.select_problems(res, M, cfg) == []


def test_reversed_indices_fail(case):
    cfg, res = case
    bad = replace(res, indices=res.indices[::-1].copy())
    assert any("ascending" in p for p in checks.select_problems(bad, M, cfg))


@pytest.mark.parametrize("delta", [-1, 1])
def test_off_by_one_n_fails(case, delta):
    cfg, res = case
    if delta < 0:
        idx, z = res.indices[:-1], res.z[:-1]
    else:
        extra = np.setdiff1d(np.arange(M), res.indices)[0]
        idx = np.sort(np.append(res.indices, extra))
        z = np.vstack([res.z, res.z[:1]])
    bad = replace(res, indices=idx, z=z)
    assert any("budget rule" in p for p in checks.select_problems(bad, M, cfg))


def test_shifted_threshold_fails(case):
    cfg, res = case
    bad = replace(res, record=replace(res.record, t=res.record.t + 0.1))
    assert any("residual" in p for p in checks.select_problems(bad, M, cfg))


def test_nonfinite_z_fails(case):
    cfg, res = case
    z = res.z.copy()
    z[0, 0] = np.nan
    assert any("non-finite" in p for p in checks.select_problems(replace(res, z=z), M, cfg))


def test_nonfinite_training_loss_fails():
    cfg = tg.RunConfig()
    row = tg.harness.EpochStats(epoch=0, loss=float("nan"), mean_rho=0.2, mean_n=60.0)
    assert checks.train_problems([row], 1, cfg.wl_tokens, cfg)
    assert checks.train_problems([replace(row, loss=1.0)], 1, cfg.wl_tokens, cfg) == []


def test_closed_loop_counts_corrupted_calls_as_failed(case):
    cfg, res = case
    items = [pool.Item(tokens=M)]
    corrupted = replace(res, indices=res.indices[::-1].copy())

    def check(item, out):
        return checks.select_problems(out, item.tokens, cfg)

    bad = run.closed_loop(lambda item: corrupted, check, items, [0], 0.05)
    assert bad.attempted >= 1 and bad.failed == bad.attempted
    good = run.closed_loop(lambda item: res, check, items, [0], 0.05)
    assert good.attempted >= 1 and good.failed == 0


def test_reference_matches_this_build():
    cfg = tg.RunConfig()
    model = tg.SelectorModel.build(cfg)
    assert checks.reference_problems(tg, model, cfg, "short_clip") == []
