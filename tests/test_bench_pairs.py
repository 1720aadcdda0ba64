"""The paired-run driver's summary (tools/bench_pairs.py), on canned runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = [
    {"name": "latency_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "trace_only", "unit": "s", "better": "lower", "bound": 0.25},
]


def _run(latency, throughput, attempted=10, failed=0, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"latency_s": {"value": latency, "unit": "s"},
                        "throughput_per_s": {"value": throughput,
                                             "unit": "1/s"}}}


def _pairs(parent_latency, change_latency, **change):
    return [{"parent": _run(p, 1 / p), "change": _run(c, 1 / c, **change)}
            for p, c in zip(parent_latency, change_latency)]


PARENT = [0.30, 0.32, 0.31, 0.29, 0.33, 0.30, 0.34, 0.31, 0.30, 0.32]


def test_a_change_that_wins_nine_pairs_by_more_than_the_spread_gains():
    # one tie (pair 9) counts for neither side
    change = [0.25, 0.26, 0.25, 0.24, 0.27, 0.25, 0.28, 0.26, 0.30, 0.26]
    summary = bench_pairs.summarize(_pairs(PARENT, change), SPEC)
    latency = summary["metrics"]["latency_s"]
    assert latency["parent"] == pytest.approx(
        {"median": 0.31, "q1": 0.30, "q3": 0.32})
    assert latency["change"]["median"] == pytest.approx(0.26)
    assert (latency["pairs_won"], latency["pairs"]) == (9, 10)
    assert latency["gain"] and latency["within_bound"]
    # throughput is better when higher: the same pairs win
    throughput = summary["metrics"]["throughput_per_s"]
    assert throughput["pairs_won"] == 9 and throughput["gain"]
    assert "trace_only" not in summary["metrics"]
    assert summary["parent"] == summary["change"] == {
        "correct": True, "failed_share": 0.0}


def test_a_gain_inside_the_parents_spread_is_not_claimed():
    # the change wins every pair, by less than the parent's quartile distance
    change = [p - 0.005 for p in PARENT]
    latency = bench_pairs.summarize(_pairs(PARENT, change), SPEC)[
        "metrics"]["latency_s"]
    assert latency["pairs_won"] == 10 and not latency["gain"]


def test_a_change_worse_than_its_bound_is_flagged():
    change = [1.5 * p for p in PARENT]
    summary = bench_pairs.summarize(_pairs(PARENT, change), SPEC)
    for name in ("latency_s", "throughput_per_s"):
        metric = summary["metrics"][name]
        assert metric["pairs_won"] == 0 and not metric["gain"]
        assert not metric["within_bound"]
    summary = bench_pairs.summarize(
        _pairs(PARENT, [1.2 * p for p in PARENT]), SPEC)
    assert summary["metrics"]["latency_s"]["within_bound"]


def test_failed_share_and_correct_pool_every_run_of_a_side():
    pairs = _pairs(PARENT, PARENT, failed=1)
    pairs[3]["change"]["correct"] = False
    summary = bench_pairs.summarize(pairs, SPEC)
    assert summary["change"] == {"correct": False, "failed_share": 0.1}
    assert summary["parent"] == {"correct": True, "failed_share": 0.0}
