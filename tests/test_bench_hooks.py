"""The benchmark's trace hooks against this build of tokengate.

``perfbench/spans.py`` wraps, by name, the functions that ``select`` and
``train_desk_scale`` reach through ``tokengate.selector``,
``tokengate.harness`` and ``tokengate.gate``.  Renaming or removing one of
them breaks only ``perfbench/run.py --trace 1``; this test fails first.
``spans.py``, ``pool.py`` and ``run.py`` are imported from ``perfbench/``
unchanged, as ``tests/test_reference.py`` imports ``checks.py``.
"""

import sys
from pathlib import Path

import numpy as np

import tokengate as tg

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import pool  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# perfbench train_step peak_mib, seed 1: 2.33 MiB while every instance's
# tape was a reference cycle that outlived its instance, 1.45 MiB since
# one instance graph is alive at a time.
TRAIN_STEP_PEAK_MIB = 1.6


def test_trace_hooks_record_select_and_training_spans():
    cfg = tg.RunConfig()
    model = tg.SelectorModel.build(cfg)
    wl = tg.generate_workload(tg.WorkloadSpec(m=1024, d=cfg.d, l=4, k=8), np.random.default_rng(0))
    spec, opt, penalties = pool.train_spec(tg, cfg)
    originals = {attr: vars(tg.selector)[attr] for attr in spans.SELECTOR_CALLS}

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        tg.select(model, wl.x, wl.timestamps, wl.q, mode="infer")
        tg.train_desk_scale(spec, model, epochs=1, opt=opt, penalties=penalties, seed=cfg.seed)
    finally:
        tracer.remove()

    assert {attr: vars(tg.selector)[attr] for attr in spans.SELECTOR_CALLS} == originals
    metrics = spans.layer_metrics(tracer, cfg.newton_iters)
    for key in ("scoring.score_ms", "gate.threshold_ms", "autodiff.tape_records"):
        assert metrics[key][0] > 0, key
    assert metrics["gate.sigmoid_evals"][0] >= 1
    assert metrics["gate.fallback_frac"][0] == 0
    _, gap = spans.select_gap_ns(tracer.spans, spans.self_times(tracer.spans))
    assert gap == 0


def test_train_step_peak_memory():
    """The benchmark's own memory pass over the seed-1 train_step items,
    after the warm-up cycle it runs first."""
    cfg = tg.RunConfig()
    model = tg.SelectorModel.build(cfg)
    items = pool.make_items(tg, cfg, "train_step", 1)

    def call(item):
        return pool.run_item(tg, model, cfg, item)

    for item in items:
        call(item)
    assert run.memory_peak_bytes(call, items) <= TRAIN_STEP_PEAK_MIB * 2**20
