"""tokengate benchmark: select() latency and throughput, set-up time, memory,
and per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload long_video --seed 1 --seconds 36 --trace 0

Workloads (inputs in pool.py):
  long_video  infer select() at M = 32k ... 180k tokens, L = 4 ... 16 query rows;
              scoring, the threshold solve and Top-n over M dominate.
  short_clip  infer select() at M = 1k ... 8k; the n_max = 256 cap makes the
              re-encoder and the fixed per-call cost dominate.
  train_step  one harness.train_desk_scale epoch at the `tokengate train`
              defaults (M = 256, batch 8, L = 4, 8 planted tokens): forward
              through the tape, backward and the SGD step.

Load: one process, one caller thread, closed loop (each call is issued when
the previous one returns), BLAS threads at the machine default.

--trace 0 prints the end-to-end metrics: setup_s (median of fresh worker
processes that import tokengate, load_weights and make the first call),
select_ms_p50/p90 (latency of one call), tokens_per_s (input tokens per
second of call time) and peak_mib (largest tracemalloc peak of one call, from
a separate untimed pass). --trace 1 splits the run between an untraced and a
traced half and prints the per-layer metrics from spans (spans.py), which it
also writes to perfbench/out/. Every call's output is checked (checks.py);
the last line is one JSON object with keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

import pool
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5  # cold starts per run; the median is reported


def import_tokengate():
    """Import tokengate from this checkout's sources, never from elsewhere."""
    if not (SRC / "tokengate" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tokengate sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tokengate

    return tokengate


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, or None when it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class Loop:
    """Latencies, tokens and failures of one closed-loop pass."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.tokens = 0
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def tokens_per_s(self) -> float:
        return self.tokens / sum(self.latencies)


def closed_loop(call, check, items, order, seconds: float, tracer=None, span: str = "") -> Loop:
    """Issue calls back to back for ``seconds``, cycling through ``items`` in ``order``.

    Only the call is timed; its output is checked afterwards, and a call that
    raises or fails a check counts as failed.
    """
    loop = Loop()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        item = items[order[loop.attempted % len(order)]]
        if tracer is not None:
            tracer.call = loop.attempted
            sid = tracer.open(span)
        start = time.perf_counter()
        try:
            out = call(item)
        except Exception:
            out = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(sid)
        loop.latencies.append(elapsed)
        loop.tokens += item.tokens
        problems = ["the call raised"] if out is None else check(item, out)
        if problems:
            loop.failed += 1
            print(f"failed call {loop.attempted - 1}: {'; '.join(problems)}", file=sys.stderr)
    return loop


def setup_seconds(weights: Path, work: Path, item) -> list[float]:
    """Cold-start times of fresh worker processes, in seconds."""
    cmd = [sys.executable, str(HERE / "setup_worker.py"), "--src", str(SRC), "--weights", str(weights)]
    if item.train_seed is None:
        inputs = work / "setup_input.npz"
        np.savez(inputs, x=item.x, timestamps=item.timestamps, q=item.q)
        cmd += ["--inputs", str(inputs)]
    else:
        cmd += ["--train-seed", str(item.train_seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def memory_peak_bytes(call, items) -> int:
    """Largest tracemalloc peak of one call above the memory in use before it.

    Garbage left by earlier calls is collected first: the tape's reference
    cycles otherwise make each peak depend on when the collector last ran.
    """
    peak = 0
    tracemalloc.start()
    try:
        for item in items:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call(item)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    return max(0.0, 100.0 * (1.0 - 10.0 / count))


def end_to_end(ctx, args, weights: Path, work: Path):
    """Untraced passes: set-up workers, the memory pass, then the timed loop."""
    call, check, items, order = ctx
    setup = setup_seconds(weights, work, items[len(items) // 2])
    peak = memory_peak_bytes(call, items)
    loop = closed_loop(call, check, items, order, args.seconds)
    ms = np.array(loop.latencies) * 1e3
    tail = tail_percentile(loop.attempted)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "select_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "select_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "tokens_per_s": (loop.tokens_per_s(), "tokens/s"),
        "peak_mib": (peak / 2**20, "MiB"),
    }
    info = {
        "samples": {"calls": loop.attempted, "setup_workers": len(setup)},
        "tail": {"percentile": round(tail, 2), "ms": float(np.percentile(ms, tail))},
    }
    return metrics, info, [loop]


def per_layer(tg, cfg, ctx, args, weights: Path, problems: list[str]):
    """An untraced and a traced half of the timed loop, traced load_weights
    calls and a traced memory pass; the metrics come from the spans."""
    call, check, items, order = ctx
    base = closed_loop(call, check, items, order, args.seconds / 2)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        span = "selector.select" if items[0].train_seed is None else "harness.train_desk_scale"
        traced = closed_loop(call, check, items, order, args.seconds / 2, tracer, span)
        for _ in range(SETUP_REPEATS):
            tracer.call += 1
            sid = tracer.open("selector.load_weights")
            tg.load_weights(weights)
            tracer.close(sid)
    finally:
        tracer.remove()
    tracer.peak(tg.selector, "score", "scoring.score")
    try:
        memory_peak_bytes(call, items)
    finally:
        tracer.remove()
    metrics = spans.layer_metrics(tracer, cfg.newton_iters)
    metrics["bench.trace_overhead_frac"] = (1.0 - traced.tokens_per_s() / base.tokens_per_s(), "ratio")
    select_total, gap = spans.select_gap_ns(tracer.spans, spans.self_times(tracer.spans))
    if gap != 0:
        problems.append(f"layer self times miss {gap} ns of {select_total} ns of select()")
    trace_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_file)
    info = {
        "samples": {"untraced_calls": base.attempted, "traced_calls": traced.attempted, "spans": len(tracer.spans)},
        "select_self_time_gap_ns": gap,
        "spans_file": str(trace_file.relative_to(ROOT)),
    }
    return metrics, info, [base, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=pool.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tg = import_tokengate()
    import checks

    cfg = tg.RunConfig()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        weights = work / "weights"
        tg.save_weights(tg.SelectorModel.build(cfg), weights)
        model = tg.load_weights(weights)
        items = pool.make_items(tg, cfg, args.workload, args.seed)

        def call(item):
            return pool.run_item(tg, model, cfg, item)

        def check(item, out):
            if item.train_seed is None:
                return checks.select_problems(out, item.tokens, cfg)
            return checks.train_problems(out, 1, cfg.wl_tokens, cfg)

        problems = checks.reference_problems(tg, model, cfg, args.workload)
        for item in items:  # warm-up cycle, untimed
            problems += check(item, call(item))
        ctx = (call, check, items, pool.call_order(args.seed, len(items)))
        if args.trace == 0:
            metrics, info, loops = end_to_end(ctx, args, weights, work)
        else:
            metrics, info, loops = per_layer(tg, cfg, ctx, args, weights, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "machine": machine_info(), **info}
    print(f"info {json.dumps(info)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6f} {unit}")
    print(f"{'failed_frac':28s} {failed / attempted:16.6f} ({failed}/{attempted} calls)")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
