#!/usr/bin/env python3
"""Run the benchmark on two commits in alternating pairs and write a BENCH file.

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_<n>.json
                                 [--workloads W ...] [--pairs 10] [--seconds 40]
                                 [--first-seed 1]

Both commits are exported with ``git archive`` into temporary directories, so
only their committed files run.  For each workload, pair ``i`` runs
``perfbench/run.py --workload W --seed <first-seed + i> --seconds S --trace 0``
once on each side, the parent first in even pairs and the change first in odd
ones.  The output has the layout of the earlier BENCH files: ``summary`` holds,
per workload and end-to-end metric of BENCHMARK.json, each side's median and
inclusive quartiles, the pairs the change won or tied, the ratio of the
medians (change / parent) and a ``verdict`` under the metric's bound (see
``verdict``); ``runs`` lists every run in execution order.  The file is
rewritten after every run.  At the end, one line per workload and metric
gives both medians, their ratio, the change's wins over the pairs and the
verdict (``summary_lines``).  BENCHMARK.json is only read.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ("shipped_suites", "coherence_ladder", "dense_transport")
RUN_TIMEOUT_S = 300  # perfbench/run.py stops itself at 180 s


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(rev: str, dest: pathlib.Path) -> None:
    """The committed files of ``rev`` under ``dest``."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def _run(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """The last output line of one benchmark run, or its failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}


def _quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")


def _stats(values) -> dict:
    q1, median, q3 = _quartiles(values)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "n": len(values)}


def _value(run, metric):
    return run["result"].get("metrics", {}).get(metric, {}).get("value")


# a gain needs the change to win at least this share of the pairs
GAIN_SHARE = 0.9


def verdict(parent, change, better, bound) -> str:
    """The paired runs of one metric judged under its relative ``bound``:
    "gain" when the change wins at least ``GAIN_SHARE`` of the pairs and its
    median beats the parent's by more than the parent's interquartile range;
    "regression" when its median is worse than the parent's by more than the
    bound; "unresolved" when either side's interquartile range exceeds the
    bound of its median, too wide to tell such a regression, unless every
    run of the change reads better than every run of the parent; else
    "within bound"."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = _quartiles(parent), _quartiles(change)
    if wins >= GAIN_SHARE * len(parent) and sign * (pm - cm) > p3 - p1:
        return "gain"
    if sign * (cm - pm) > bound * abs(pm):
        return "regression"
    wide = p3 - p1 > bound * abs(pm) or c3 - c1 > bound * abs(cm)
    if wide and not all(sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved"
    return "within bound"


def summarize(runs, metrics) -> dict:
    """Per workload and metric: both sides' medians and quartiles, the change's
    wins and ties over complete pairs, the ratio of the medians and the
    verdict; ``metrics`` maps each name to its BENCHMARK.json entry."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        row = {}
        for name, metric in metrics.items():
            pairs = {}
            for r in mine:
                value = _value(r, name)
                if value is not None:
                    pairs.setdefault(r["pair"], {})[r["side"]] = value
            full = [p for p in pairs.values() if len(p) == 2]
            if len(full) < 2:
                continue
            parent, change = [p["parent"] for p in full], [p["change"] for p in full]
            sign = 1 if metric["better"] == "lower" else -1
            row[name] = {
                "parent": _stats(parent),
                "change": _stats(change),
                "change_wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
                "ties": sum(p == c for p, c in zip(parent, change)),
                "pairs": len(full),
                "median_ratio": round(statistics.median(change) / statistics.median(parent), 4),
                "verdict": verdict(parent, change, metric["better"], metric["bound"]),
            }
        row["all_correct"] = all(r["result"].get("correct") is True for r in mine)
        row["failed_operations"] = sum(r["result"].get("failed", 0) for r in mine)
        out[workload] = row
    return out


def summary_lines(summary) -> list:
    """One line per workload and metric of a ``summarize`` result."""
    return [f"{workload} {name}: parent {row['parent']['median']} change "
            f"{row['change']['median']} ratio {row['median_ratio']} "
            f"wins {row['change_wins']}/{row['pairs']} {row['verdict']}"
            for workload, rows in summary.items()
            for name, row in rows.items() if isinstance(row, dict)]


def _host() -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": numpy,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision of the parent commit")
    parser.add_argument("--change", required=True, help="revision of the change")
    parser.add_argument("--out", required=True, type=pathlib.Path, help="BENCH file to write")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    revs = {side: _git("rev-parse", "--short", getattr(args, side))
            for side in ("parent", "change")}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    doc = {
        "change": _git("log", "-1", "--format=%s", revs["change"]),
        "command": f"python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {args.seconds:g} --trace 0",
        "protocol": f"parent ({revs['parent']}) and change ({revs['change']}) each run "
                    "from a fresh git archive of their committed files; pairs alternate "
                    "which side runs first; 'runs' is in execution order",
        "host": _host(),
        "summary": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: pathlib.Path(tmp, side) for side in revs}
        for side, tree in trees.items():
            _export(revs[side], tree)
        for workload in args.workloads:
            for pair in range(args.pairs):
                seed = args.first_seed + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    started = datetime.datetime.now(datetime.timezone.utc)
                    result = _run(trees[side], workload, seed, args.seconds)
                    doc["runs"].append({
                        "workload": workload, "trace": 0, "seed": seed, "side": side,
                        "pair": pair, "order": " ".join(order),
                        "started": started.strftime("%Y-%m-%dT%H:%M:%SZ"), "result": result,
                    })
                    doc["summary"] = summarize(doc["runs"], metrics)
                    args.out.write_text(json.dumps(doc, indent=1) + "\n")
                    verdict = result.get("metrics", {}).get("verdict_s", {}).get("value")
                    print(f"{workload} pair {pair} {side}: verdict_s {verdict}", flush=True)
    print("\n".join(summary_lines(doc["summary"])))
    return 0 if all(row["all_correct"] for row in doc["summary"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
