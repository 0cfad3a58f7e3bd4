"""The verdicts of ``tools/bench_pairs.py``, on synthetic runs: no benchmark
process is started."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


@pytest.fixture(autouse=True)
def no_processes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a benchmark process was started")

    monkeypatch.setattr(subprocess, "run", refuse)


def _runs(parent, change, metric="verdict_s", workload="w"):
    runs = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value in zip(("parent", "change"), values):
            result = {"correct": True, "failed": 0, "metrics": {metric: {"value": value}}}
            runs.append({"workload": workload, "pair": pair, "side": side, "result": result})
    return runs


def _verdict(parent, change, metric="verdict_s"):
    return bench_pairs.summarize(_runs(parent, change, metric), METRICS)["w"][metric]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_a_change_that_wins_every_pair_by_more_than_the_spread_is_a_gain():
    row = _verdict(PARENT, [0.7] * 10)
    assert row["verdict"] == "gain"
    assert (row["change_wins"], row["pairs"], row["median_ratio"]) == (10, 10, 0.7)


def test_nine_wins_of_ten_suffice_and_eight_do_not():
    nine = [0.7] * 9 + [1.5]
    assert _verdict(PARENT, nine)["verdict"] == "gain"
    eight = [0.7] * 8 + [1.5, 1.5]
    assert _verdict(PARENT, eight)["verdict"] == "within bound"


def test_a_median_gap_inside_the_parents_spread_is_no_gain():
    # every pair won, but by less than the parent's interquartile range
    row = _verdict(PARENT, [p - 0.01 for p in PARENT])
    assert row["change_wins"] == 10
    assert row["verdict"] == "within bound"


def test_a_change_worse_than_its_bound_is_a_regression():
    bound = METRICS["verdict_s"]["bound"]
    assert _verdict(PARENT, [p * (1 + bound) + 0.05 for p in PARENT])["verdict"] == "regression"
    assert _verdict(PARENT, [p * (1 + bound) - 0.05 for p in PARENT])["verdict"] == "within bound"


def test_the_bound_is_read_per_metric():
    # 15 % more memory breaks the peak-RSS bound, not the time bounds
    parent = [40.0 + 0.01 * i for i in range(10)]
    change = [1.15 * p for p in parent]
    assert _verdict(parent, change, "peak_rss_mb")["verdict"] == "regression"
    assert _verdict(parent, change, "verdict_s")["verdict"] == "within bound"


def test_runs_that_spread_wider_than_the_bound_are_unresolved():
    wide = [0.5, 1.5, 0.6, 1.4, 0.5, 1.5, 0.6, 1.4, 1.0, 1.0]
    assert _verdict(wide, list(reversed(wide)))["verdict"] == "unresolved"
    assert _verdict(PARENT, wide)["verdict"] == "unresolved"
    # unless every run of the change reads better than every run of the
    # parent; by less than the parent's spread, so this is no gain
    spread = [2.0, 3.0, 2.1, 2.9, 2.0, 3.0, 2.1, 2.9, 2.5, 2.5]
    fast = [1.90, 1.95, 1.92, 1.93, 1.91, 1.94, 1.90, 1.95, 1.92, 1.93]
    assert _verdict(spread, fast)["verdict"] == "within bound"


def test_a_higher_is_better_metric_counts_its_wins_upwards():
    row = bench_pairs.verdict(PARENT, [1.3] * 10, "higher", 0.25)
    assert row == "gain"
    assert bench_pairs.verdict(PARENT, [0.7] * 10, "higher", 0.25) == "regression"


def test_incomplete_pairs_are_left_out():
    runs = _runs(PARENT, [0.7] * 10)
    runs = [r for r in runs if not (r["pair"] == 3 and r["side"] == "change")]
    row = bench_pairs.summarize(runs, METRICS)["w"]
    assert row["verdict_s"]["pairs"] == 9
    assert "setup_s" not in row
    assert row["all_correct"] and row["failed_operations"] == 0
