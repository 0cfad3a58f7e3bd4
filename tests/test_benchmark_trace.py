"""The benchmark's traced mode still finds what it wraps.

``perfbench/tracing.install`` looks homyd's functions up by name
(``runner.execute_task``, ``reports.compare_maps``, ``structures.certify``,
``LinearMap.__dict__["basis_map"]``...), so renaming one breaks
``perfbench/run.py --trace 1``.  This runs one traced pass over a shipped
suite in a fresh interpreter, as the benchmark's worker does, since
``install`` rebinds homyd's functions for the rest of the process.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]

TRACED_PASS = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import homyd.cli
from homyd import runner, specfile
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)
with open(sys.argv[1] + "/suites/standard_gf7.json", encoding="utf-8") as fh:
    doc = specfile.parse_spec(fh.read())
tracer.begin_pass("pass0")
tracer.scope = "pass0/standard_gf7.json"
bundle = runner.run_tasks(doc)
print(json.dumps({"all_passed": bundle.all_passed, "metrics": tracer.pass_metrics()}))
"""


def test_a_traced_pass_counts_composes_scans_and_inverses():
    done = subprocess.run(
        [sys.executable, "-c", TRACED_PASS, str(ROOT)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(done.stdout)
    assert out["all_passed"]
    metrics = out["metrics"]
    for name in ("linmap.compose.calls", "reports.compare_maps.calls", "linmap.inverse.calls"):
        assert metrics[name] > 0, name
    assert metrics["runner.task_s.check"] > 0
