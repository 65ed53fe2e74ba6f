"""Alternating pairs of benchmark runs on two checkouts of this repository.

    python3 tools/ab_pairs.py --parent ../parent --pairs 10

For every workload of BENCHMARK.json, each pair runs
``perfbench/run.py --trace 0`` for the benchmark's ``run_seconds`` once in
the parent checkout and once in this one, the parent first in even pairs
and the change first in odd ones, so a drift in the machine's speed falls
on both sides alike.  Each side runs its own ``perfbench/`` and ``src/``.
The parent can be any directory holding the parent commit, such as a
second clone or an exported tree (``git archive``).

For each end-to-end metric it prints each side's median and quartiles,
the pairs the change wins (ties count for neither), and two verdicts.
The bound verdict is ``regressed`` when the change's median is worse than
the parent's by more than the metric's bound; else ``unresolved`` when
the parent's quartiles lie further apart than the bound, unless every
change run beats every parent run; else ``within bound``.  ``gain`` holds
when, over at least ten pairs, the change wins at least nine tenths of
them, the medians differ by more than the distance between the parent's
quartiles, and the change has no more failed calls than the parent.
Failed calls and failed checks are counted per side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seconds: float) -> dict:
    """The result object (the last line) of one benchmark run in ``checkout``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(runner, checkouts: dict, workload: str, pairs: int, seconds: float) -> dict:
    """{side: [result per pair]}, each pair run in alternating order."""
    results = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            results[side].append(runner(checkouts[side], workload, seconds))
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def failed_calls(runs: list[dict]) -> int:
    return sum(r["failed"] for r in runs)


def compare(results: dict, metric: dict) -> dict:
    """The summary of one end-to-end metric over paired runs."""
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [r["metrics"][name]["value"] for r in results["parent"]]
    change = [r["metrics"][name]["value"] for r in results["change"]]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    worse = (cq[1] - pq[1]) if lower else (pq[1] - cq[1])
    bound = metric["bound"] * abs(pq[1])
    always_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if worse > bound:
        verdict = "regressed"
    elif pq[2] - pq[0] > bound and not always_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    more_failed = failed_calls(results["change"]) > failed_calls(results["parent"])
    return {
        "metric": name,
        "parent": pq,
        "change": cq,
        "wins": wins,
        "pairs": len(parent),
        "verdict": verdict,
        "gain": (
            len(parent) >= 10 and wins >= 0.9 * len(parent) and -worse > pq[2] - pq[0]
            and not more_failed
        ),
    }


def report(workload: str, results: dict, metrics: list[dict]) -> list[str]:
    lines = [f"== {workload}"]
    for side in SIDES:
        runs = results[side]
        incorrect = sum(not r["correct"] for r in runs)
        lines.append(
            f"  {side}: {len(runs)} runs, {failed_calls(runs)} failed calls, {incorrect} runs not correct"
        )
    for metric in metrics:
        row = compare(results, metric)
        p, c = row["parent"], row["change"]
        lines.append(
            f"  {row['metric']:14s} parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]"
            f"  change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]"
            f"  wins {row['wins']}/{row['pairs']}"
            f"  {row['verdict']}, gain={row['gain']}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    cached = {side: (path / "src" / "tokengate" / "__pycache__").is_dir() for side, path in checkouts.items()}
    if len(set(cached.values())) > 1:
        print(f"warning: bytecode caches differ between the sides ({cached}); setup_s compares "
              "compiling against loading", file=sys.stderr)
    for workload in (w["name"] for w in bench["workloads"]):
        results = run_pairs(run_once, checkouts, workload, args.pairs, bench["run_seconds"])
        print("\n".join(report(workload, results, bench["end_to_end"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
