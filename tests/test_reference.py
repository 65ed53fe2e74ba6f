"""Seeded outputs against the benchmark's committed reference.

``perfbench/reference.npz`` holds the kept indices and re-encoded tokens of
seed-0 benchmark inputs, and a full default training trajectory.  Any change
to the seeded weights or to which tokens are selected fails here, in the
tests, and not only when the benchmark runs.  The checker is imported from
``perfbench/`` unchanged, as ``perfbench/test_checks.py`` does.
"""

import sys
from pathlib import Path

import pytest

import tokengate as tg

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402


@pytest.mark.parametrize("workload", ["long_video", "short_clip", "train_step"])
def test_outputs_match_committed_reference(workload):
    cfg = tg.RunConfig()
    model = tg.SelectorModel.build(cfg)
    assert checks.reference_problems(tg, model, cfg, workload) == []
