"""tools/ab_pairs.py: the alternating run order and the per-metric verdicts."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

LATENCY = {"name": "select_ms_p50", "better": "lower", "bound": 0.25}


def _result(value: float) -> dict:
    return {"correct": True, "failed": 0, "metrics": {"select_ms_p50": {"value": value}}}


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def runner(checkout, workload, seconds):
        calls.append(checkout)
        return _result(1.0)

    results = ab_pairs.run_pairs(runner, {"parent": "P", "change": "C"}, "short_clip", 3, 1.0)
    assert calls == ["P", "C", "C", "P", "P", "C"]
    assert [len(results[side]) for side in ab_pairs.SIDES] == [3, 3]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parent_spread():
    parent = [10.0, 10.5, 11.0, 10.2, 10.8, 10.1, 10.9, 10.4, 10.6, 10.3]
    results = {"parent": [_result(v) for v in parent], "change": [_result(v - 2.0) for v in parent]}
    row = ab_pairs.compare(results, LATENCY)
    assert (row["wins"], row["pairs"], row["gain"], row["verdict"]) == (10, 10, True, "within bound")

    results["change"][0] = _result(parent[0])  # a tie counts for neither side
    results["change"][1] = _result(parent[1] + 1.0)
    row = ab_pairs.compare(results, LATENCY)
    assert (row["wins"], row["gain"]) == (8, False)


def test_a_gain_needs_no_more_failed_calls_than_the_parent():
    parent = [10.0, 10.5, 11.0, 10.2, 10.8, 10.1, 10.9, 10.4, 10.6, 10.3]
    results = {"parent": [_result(v) for v in parent], "change": [_result(v - 2.0) for v in parent]}
    results["change"][0]["failed"] = 1
    assert not ab_pairs.compare(results, LATENCY)["gain"]


def test_a_median_worse_by_more_than_the_bound_is_a_regression():
    results = {"parent": [_result(10.0)] * 4, "change": [_result(v) for v in (12.4, 12.6, 12.6, 12.6)]}
    assert ab_pairs.compare(results, LATENCY)["verdict"] == "regressed"
    results["change"] = [_result(12.4)] * 4
    assert ab_pairs.compare(results, LATENCY)["verdict"] == "within bound"


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    parent = [8.0, 8.0, 12.0, 12.0]  # quartiles 8 and 12 around a median of 10: 40% apart
    results = {"parent": [_result(v) for v in parent], "change": [_result(v) for v in parent]}
    assert ab_pairs.compare(results, LATENCY)["verdict"] == "unresolved"
    results["change"] = [_result(7.9)] * 4  # every change run beats every parent run
    assert ab_pairs.compare(results, LATENCY)["verdict"] == "within bound"
