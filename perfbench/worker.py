"""One fresh benchmark process: set up as ``homyd report`` does, then run
timed passes and check every verdict.

    python3 perfbench/worker.py --root DIR --expect FILE [--budget S] [--trace]
                                [--spans FILE] FILE...

Set-up is ``import homyd.cli`` plus reading and ``parse_spec`` of every file;
the parent times it from the spawn to the ``t_parsed`` stamp this process
reports.  Without ``--budget`` the process stops there.  With it, each pass
runs ``run_tasks`` and serialises the machine report for every parsed file,
exactly as ``homyd report`` does, and passes repeat while another one fits in
the budget (at least one runs).  The last line of output is one JSON object.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback


def _report_text(runner, doc, span):
    bundle = runner.run_tasks(doc)
    with span:
        text = json.dumps(runner.bundle_to_json(bundle, doc.field), indent=2) + "\n"
    return bundle.exit_code(), text


def _check_file(exp, outcome, first_text):
    """Failed operations of one file in one pass, with a reason if any."""
    tasks = exp["tasks"]
    exit_code, text, error = outcome
    if error is not None:
        return len(tasks), f"traceback: {error.strip().splitlines()[-1]}"
    if text != first_text:
        return len(tasks), "machine report differs from the first pass"
    if exit_code != exp["exit"]:
        return len(tasks), f"exit {exit_code}, expected {exp['exit']}"
    entries = json.loads(text)["tasks"]
    failed, reason = 0, None
    for k, want in enumerate(tasks):
        got = entries[k] if k < len(entries) else None
        if got is None:
            failed, reason = failed + 1, f"no report for task {want['name']!r}"
            continue
        failures = [[f["law"], f["index"], f["lhs"], f["rhs"]] for f in got.get("failures", [])]
        if got["name"] != want["name"] or got["status"] != want["status"]:
            failed, reason = failed + 1, f"{want['name']}: status {got['status']}"
        elif failures != want["failures"]:
            failed, reason = failed + 1, f"{want['name']}: failures differ from brute force"
    return failed, reason


def _check_refusal(cli, path, message, via_cli):
    """A refused file must give exit 2 with a message, through the real CLI too."""
    if not message:
        return "refused without a message"
    if not via_cli:
        return None
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["report", path, "--json", os.devnull])
    if code != 2 or not err.getvalue().startswith("error: "):
        return f"CLI gave exit {code} with {err.getvalue()!r}"
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--expect", required=True)
    parser.add_argument("--budget", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    start = time.perf_counter()
    import homyd.cli as cli
    from homyd import runner, specfile
    from homyd.errors import SpecFileError

    import_s = time.perf_counter() - start
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    docs, refused, parse_s = [], {}, 0.0
    for path in args.files:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        start = time.perf_counter()
        try:
            docs.append((path, specfile.parse_spec(text)))
        except SpecFileError as exc:
            refused[path] = str(exc)
        parse_s += time.perf_counter() - start
    t_parsed = time.perf_counter()

    with open(args.expect, encoding="utf-8") as fh:
        expect = json.load(fh)
    out = {"t_parsed": t_parsed, "import_s": import_s, "parse_s": parse_s,
           "attempted": 0, "failed": 0, "problems": []}

    def fail(count, reason):
        out["failed"] += count
        if reason and len(out["problems"]) < 5:
            out["problems"].append(reason)

    # one operation per refusal, expected or not
    for path in args.files:
        if expect[path]["refused"] or path in refused:
            out["attempted"] += 1
            if not expect[path]["refused"]:
                fail(1, f"{path}: refused: {refused[path]}")
            elif path not in refused:
                fail(1, f"{path}: accepted, expected a refusal")
            else:
                problem = _check_refusal(cli, path, refused[path], args.budget is not None)
                fail(1 if problem else 0, problem and f"{path}: {problem}")

    if args.budget is not None:
        passes, first_text, layers = [], {}, []
        began = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.begin_pass(f"pass{len(passes)}")
            outcomes = []
            start = time.perf_counter()
            for path, doc in docs:
                span = contextlib.nullcontext()
                if tracer is not None:
                    tracer.scope = f"pass{len(passes)}/{os.path.basename(path)}"
                    span = tracer.span("runner.render")
                try:
                    outcomes.append(_report_text(runner, doc, span) + (None,))
                except Exception:  # a traceback fails every task of the file
                    outcomes.append((None, None, traceback.format_exc()))
            passes.append(time.perf_counter() - start)
            if tracer is not None:
                layers.append(tracer.pass_metrics())
            for (path, _), outcome in zip(docs, outcomes):
                out["attempted"] += len(expect[path]["tasks"])
                first_text.setdefault(path, outcome[1])
                fail(*_check_file(expect[path], outcome, first_text[path]))
            spent = time.perf_counter() - began
            if spent + statistics.median(passes) > args.budget:
                break
        out["passes"] = passes
        out["layers"] = layers
        out["digests"] = {
            p: hashlib.sha256((t or "").encode()).hexdigest() for p, t in first_text.items()
        }
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None and args.spans:
        tracer.write_jsonl(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
