"""Spans and counters around the calls between tokengate's layers.

``install`` replaces the names through which ``tokengate.selector`` and
``tokengate.harness`` reach each layer with wrappers that record spans in
memory; ``Tracer.remove`` puts the original objects back, so only the traced
pass runs wrapped code. A span is ``[name, start_ns, end_ns, parent, call]``:
``parent`` is the index of the enclosing span (-1 for none) and ``call`` the
index of the benchmark call the span belongs to.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

# Functions that select() reaches through tokengate.selector, by span name.
SELECTOR_CALLS = {
    "score": "scoring.score",
    "extract_features": "budget.features",
    "predict_rho": "budget.rho_head",
    "compute_budget": "budget.compute_budget",
    "threshold_var": "gate.threshold",
    "hard_top_n": "gate.top_n",
    "sample_gumbel_pairs": "gate.gumbel",
    "soft_gate_apply": "gate.soft_gate",
    "reencode": "reencoder.reencode",
}
# Functions that train_desk_scale() reaches through tokengate.harness.
HARNESS_CALLS = {
    "select": "selector.select",
    "total_loss": "objective.loss",
    "generate_workload": "harness.generate_workload",
}
# The layers whose self times make up a select() call.
SELECT_LAYERS = ("scoring", "budget", "gate", "reencoder", "selector")


class Tracer:
    """Spans, per-span counters and memory peaks, plus the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)  # span index -> counter
        self.peaks: dict[str, float] = {}  # span name -> largest tracemalloc peak, bytes
        self.call = 0
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.call])
        self._open.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter_ns()
        self._open.pop()

    def count(self, key: str) -> None:
        """Add to a counter of the innermost open span."""
        if self._open:
            self.counts[self._open[-1]][key] += 1

    def _patch(self, owner, attr: str, make) -> None:
        orig = vars(owner)[attr]
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def span(self, owner, attr: str, name: str, measure=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``measure(*args)`` may return counts to attach to the span.
        """

        def make(orig):
            def traced(*args, **kwargs):
                sid = self.open(name)
                try:
                    if measure is not None:
                        self.counts[sid].update(measure(*args))
                    return orig(*args, **kwargs)
                finally:
                    self.close(sid)

            return traced

        self._patch(owner, attr, make)

    def counter(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` against the innermost open span."""

        def make(orig):
            def counted(*args, **kwargs):
                self.count(key)
                return orig(*args, **kwargs)

            return counted

        self._patch(owner, attr, make)

    def peak(self, owner, attr: str, name: str) -> None:
        """Keep the largest tracemalloc peak above entry of any call of ``owner.attr``."""

        def make(orig):
            def measured(*args, **kwargs):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    return orig(*args, **kwargs)
                finally:
                    grown = tracemalloc.get_traced_memory()[1] - base
                    self.peaks[name] = max(self.peaks.get(name, 0), grown)

            return measured

        self._patch(owner, attr, make)

    def remove(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, span in enumerate(self.spans):
                counts = self.counts.get(sid)
                handle.write(json.dumps(span + [dict(counts)] if counts else span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary that select() and train_desk_scale() cross."""
    from tokengate import autodiff, gate, harness, selector, tensorio

    for attr, name in SELECTOR_CALLS.items():
        measure = (lambda z, *_: {"kept_tokens": z.shape[0]}) if attr == "reencode" else None
        tracer.span(selector, attr, name, measure)
    for attr, name in HARNESS_CALLS.items():
        tracer.span(harness, attr, name)
    tracer.span(tensorio, "file_sha256", "tensorio.sha256")
    tracer.span(autodiff.Tape, "gradients", "autodiff.backward")
    tracer.counter(autodiff.Tape, "record", "tape_records")
    tracer.counter(gate, "sigmoid_values", "sigmoid_evals")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover, in ns."""
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def select_gap_ns(spans: list[list], selfs: list[int]) -> tuple[int, int]:
    """(total select() time, that total minus the self times of the select layers).

    Every span inside a select() call is attributed to its nearest enclosing
    select span; the gap is zero when the spans nest correctly.
    """
    owner = [-1] * len(spans)
    totals: dict[int, int] = defaultdict(int)
    for sid, (name, start, end, parent, _) in enumerate(spans):
        owner[sid] = sid if name == "selector.select" else owner[parent] if parent >= 0 else -1
        if owner[sid] >= 0 and name.split(".")[0] in SELECT_LAYERS:
            totals[owner[sid]] += selfs[sid]
    select_total = sum(s[2] - s[1] for s in spans if s[0] == "selector.select")
    return select_total, select_total - sum(totals.values())


def layer_metrics(tracer: Tracer, newton_iters: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans.

    Times are the median self time per call of the named function, except
    tensorio.sha256_ms, the checksum time per load_weights call. Counts are
    means per call: sigmoid evaluations per threshold solve, kept tokens per
    re-encode, tape records per trained instance (one backward pass each).
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for sid, span in enumerate(spans):
        by_name[span[0]].append(sid)

    def p50_ms(name: str) -> float:
        sids = by_name.get(name)
        return float(np.median([selfs[s] for s in sids])) / 1e6 if sids else 0.0

    def mean_count(name: str, key: str) -> float:
        sids = by_name.get(name)
        return float(np.mean([tracer.counts[s][key] for s in sids])) if sids else 0.0

    solves = [tracer.counts[s]["sigmoid_evals"] for s in by_name.get("gate.threshold", [])]
    # A solve that needs more evaluations than the Newton iterations plus the
    # final residual has run the bisection fallback.
    fallback = float(np.mean([e > newton_iters + 1 for e in solves])) if solves else 0.0
    backward = by_name.get("autodiff.backward", [])
    records = sum(c["tape_records"] for c in tracer.counts.values())
    sha_ns: dict[int, int] = defaultdict(int)  # load_weights span -> checksum time
    for s in by_name.get("tensorio.sha256", []):
        sha_ns[spans[s][3]] += spans[s][2] - spans[s][1]
    sha_per_load = [sha_ns[s] / 1e6 for s in by_name.get("selector.load_weights", [])]
    return {
        "scoring.score_ms": (p50_ms("scoring.score"), "ms"),
        "scoring.peak_mib": (tracer.peaks.get("scoring.score", 0) / 2**20, "MiB"),
        "gate.threshold_ms": (p50_ms("gate.threshold"), "ms"),
        "gate.top_n_ms": (p50_ms("gate.top_n"), "ms"),
        "gate.sigmoid_evals": (mean_count("gate.threshold", "sigmoid_evals"), "count"),
        "gate.fallback_frac": (fallback, "ratio"),
        "gate.gumbel_ms": (p50_ms("gate.gumbel"), "ms"),
        "gate.soft_gate_ms": (p50_ms("gate.soft_gate"), "ms"),
        "selector.self_ms": (p50_ms("selector.select"), "ms"),
        "reencoder.reencode_ms": (p50_ms("reencoder.reencode"), "ms"),
        "reencoder.kept_tokens": (mean_count("reencoder.reencode", "kept_tokens"), "count"),
        "budget.features_ms": (p50_ms("budget.features"), "ms"),
        "budget.rho_head_ms": (p50_ms("budget.rho_head"), "ms"),
        "autodiff.tape_records": (records / len(backward) if backward else 0.0, "count"),
        "autodiff.backward_ms": (p50_ms("autodiff.backward"), "ms"),
        "objective.loss_ms": (p50_ms("objective.loss"), "ms"),
        "harness.train_self_ms": (p50_ms("harness.train_desk_scale"), "ms"),
        "selector.load_weights_ms": (p50_ms("selector.load_weights"), "ms"),
        "tensorio.sha256_ms": (float(np.median(sha_per_load)) if sha_per_load else 0.0, "ms"),
    }
