#!/usr/bin/env python3
"""Benchmark of homyd: set-up time, time to verdict and peak memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see perfbench/README.md):

- ``shipped_suites``: the five files under ``suites/``, unchanged;
- ``coherence_ladder``: large sparse coherence checks, n = 5 and n = 7;
- ``dense_transport``: Yetter-Drinfeld fixtures along a dense change of basis.

Every measurement runs in a fresh single-threaded process (perfbench/worker.py)
that calls what ``homyd report`` calls: ``parse_spec``, ``run_tasks`` and
``bundle_to_json``.  Every verdict is checked against expectations computed
apart from the program (perfbench/expect.py).  With ``--trace 0`` the last
line of output holds the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics, from a traced process whose spans go to
perfbench/out/ as JSON Lines.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SHIPPED = [  # file stem, exit code the README documents
    ("standard_rational", 0),
    ("standard_gf11", 0),
    ("standard_gf7", 0),
    ("perturbed", 1),
    ("malformed", 2),
]
WORKLOADS = ("shipped_suites", "coherence_ladder", "dense_transport")
# The host's speed drifts by a third within seconds, so set-up samples and
# pass workers are interleaved over the whole run rather than taken in a burst.
PROBES = 2  # set-up-only processes before each worker; workers add one sample each
WORKERS = 6  # most processes that share the pass budget of an untraced run
TRACED_SHARE = 0.6  # of a traced run's pass budget, the rest runs untraced
DEADLINE_S = 170  # every child is killed before the run could pass 180 s
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _inputs(workload, seed, out):
    """Paths of the workload's files, each with its documented exit code and
    the file it was perturbed from, if any."""
    if workload == "shipped_suites":
        suites = ROOT / "suites"
        return [
            (suites / f"{stem}.json", code,
             suites / "standard_rational.json" if stem == "perturbed" else None)
            for stem, code in SHIPPED
        ]
    sys.path.insert(0, str(HERE))
    import gen_inputs

    return [(p, None, None) for p in gen_inputs.generate(workload, seed, out / "inputs")]


class Runner:
    def __init__(self, files, expect_path, started):
        self.files = [str(p) for p in files]
        self.expect_path = str(expect_path)
        self.started = started
        self.env = dict(os.environ, **SINGLE_THREAD)

    def spawn(self, budget=None, trace=False, spans=None):
        """Run one worker to its end; returns its result and its set-up time."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--expect", self.expect_path]
        if budget is not None:
            cmd += ["--budget", repr(budget)]
        if trace:
            cmd += ["--trace"] + (["--spans", str(spans)] if spans else [])
        timeout = DEADLINE_S - (time.perf_counter() - self.started)
        if timeout <= 0:
            raise BenchError("out of time before the run could finish")
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(cmd + self.files, capture_output=True, text=True,
                                  env=self.env, cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("a worker ran past the run's deadline and was stopped")
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return result, result["t_parsed"] - spawned


def measure(runner, seconds, trace, spans):
    """Set-up probes, then pass workers until ``seconds`` have been spent."""
    runner.spawn()  # warm the byte-code cache; not a sample
    deadline = time.perf_counter() + seconds
    probes, workers = [], []  # workers: (result, setup seconds, traced)
    if trace:
        probes = [runner.spawn() for _ in range(PROBES * 3)]
        budget = (deadline - time.perf_counter()) * (1 - TRACED_SHARE)
        workers.append(runner.spawn(budget=budget) + (False,))
        budget = max(deadline - time.perf_counter(), 0.0)
        workers.append(runner.spawn(budget=budget, trace=True, spans=spans) + (True,))
        return probes, workers
    for i in range(WORKERS):
        passes = [p for w in workers for p in w[0]["passes"]]
        if workers and deadline - time.perf_counter() < statistics.median(passes):
            break
        probes += [runner.spawn() for _ in range(PROBES)]
        budget = max(deadline - time.perf_counter(), 0.0) / (WORKERS - i)
        workers.append(runner.spawn(budget=budget) + (False,))
    return probes, workers


def end_to_end(probes, workers):
    passes = [p for w, _, _ in workers for p in w["passes"]]
    setups = [s for _, s in probes] + [s for _, s, _ in workers]
    values = {
        "setup_s": statistics.median(setups),
        "verdict_s": statistics.median(passes),
        "peak_rss_mb": statistics.median([w["peak_rss_mb"] for w, _, _ in workers]),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "verdict_s": f"median of {len(passes)} passes in {len(workers)} processes"
                     + ("; no tail percentile below 40 samples" if len(passes) < 40 else ""),
        "peak_rss_mb": f"median of {len(workers)} processes",
    }
    return values, notes


def per_layer(probes, workers, units):
    untraced = [p for w, _, t in workers if not t for p in w["passes"]]
    traced_worker = next(w for w, _, t in workers if t)
    layers = traced_worker["layers"]
    values = {
        "cli.import_s": statistics.median([r["import_s"] for r, _ in probes]),
        "specfile.parse_s": statistics.median([r["parse_s"] for r, _ in probes]),
    }
    for name in layers[0]:
        if units[name] == "s":  # times: median over the traced passes
            values[name] = statistics.median([layer[name] for layer in layers])
        else:  # counts and ratios: the first pass, which a single report pays
            values[name] = layers[0][name]
    traced = statistics.median(traced_worker["passes"])
    values["trace.verdict_s"] = traced
    values["trace.untraced_verdict_s"] = statistics.median(untraced)
    values["trace.overhead_s"] = traced - values["trace.untraced_verdict_s"]
    counts = [{k: v for k, v in layer.items() if units[k] != "s"} for layer in layers]
    notes = {
        "trace.verdict_s": f"median of {len(layers)} traced passes",
        "trace.untraced_verdict_s": f"median of {len(untraced)} untraced passes",
        "linmap.fill": f"nonzero cells over {values['linmap.cells']} cells",
    }
    if any(c != counts[0] for c in counts):
        notes["trace.verdict_s"] += "; counts differ between these passes"
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    needed = [ROOT / "src" / "homyd" / "__init__.py", ROOT / "BENCHMARK.json"]
    needed += [ROOT / "suites" / f"{stem}.json" for stem, _ in SHIPPED]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a homyd checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = HERE / "out" / f"{args.workload}-seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)

    try:
        sys.path.insert(0, str(HERE))
        from expect import file_expectation

        inputs = _inputs(args.workload, args.seed, out)
        expect = {str(p): file_expectation(p, code, ref) for p, code, ref in inputs}
        expect_path = out / "expect.json"
        expect_path.write_text(json.dumps(expect), encoding="utf-8")
        runner = Runner([p for p, _, _ in inputs], expect_path, started)
        spans = out / "spans.jsonl"
        probes, workers = measure(runner, args.seconds, bool(args.trace), spans)
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = [r for r, _ in probes] + [w for w, _, _ in workers]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    digests = {json.dumps(w["digests"], sort_keys=True) for w, _, _ in workers}
    problems = [p for r in results for p in r["problems"]]
    if len(digests) > 1:
        problems.append("machine reports differ between processes")
    if args.trace:
        section = declared["per_layer"]
        values, notes = per_layer(probes, workers, {m["name"]: m["unit"] for m in section})
    else:
        values, notes = end_to_end(probes, workers)
        section = declared["end_to_end"]

    print(f"workload {args.workload}, seed {args.seed}: {len(inputs)} files, "
          f"{attempted} operations attempted, {failed} failed")
    for problem in problems[:10]:
        print(f"  problem: {problem}")
    for name, value in values.items():
        unit = next((m["unit"] for m in section if m["name"] == name), "")
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32s} {value:.6g} {unit}{note}")
    if args.trace:
        print(f"spans: {spans.relative_to(ROOT)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    print(json.dumps({
        "correct": failed == 0 and len(digests) <= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
