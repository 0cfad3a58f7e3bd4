"""The run-scoped memo: what ``run_tasks`` builds once lives only for that run.

A memoised body is watched through ``sys.setprofile``, so these tests count
the computations that really ran, whichever path reached them, without
patching the program.
"""

import contextlib
import pathlib
import sys
from collections import Counter

import numpy as np
import pytest

from homyd import runner, structures
from homyd.fields import RATIONALS as Q
from homyd.fixtures import cyclic_graded_yd
from homyd.linmap import LinearMap
from homyd.modules import tensor_raw
from homyd.specfile import SpecDocument, parse_spec

ROOT = pathlib.Path(__file__).parents[1]
FILES = sorted((ROOT / "suites").glob("standard_*.json")) + [ROOT / "suites" / "perturbed.json"]
FILES += sorted((ROOT / "tests" / "golden" / "inputs").glob("*.json"))

_CACHED = structures.memoised(lambda: None).__code__


def _memoised_bodies() -> dict:
    """Every memoised function of homyd's modules, constructors' ``.build``
    included, as its body's code object -> its qualified name."""
    bodies = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("homyd"):
            continue
        for value in vars(module).values():
            for fn in (value, getattr(value, "build", None)):
                if getattr(fn, "__code__", None) is _CACHED:
                    bodies[fn.__wrapped__.__code__] = f"{fn.__module__}.{fn.__qualname__}"
    return bodies


@contextlib.contextmanager
def body_runs():
    """A Counter of (body name, argument keys) per memoised body that ran,
    with arguments keyed as the memo keys them; the arguments are kept alive
    so that no id is reused while counting."""
    bodies, runs, kept = _memoised_bodies(), Counter(), []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in bodies:
            code = frame.f_code
            args = [frame.f_locals[v] for v in code.co_varnames[:code.co_argcount]]
            free = [frame.f_locals.get(v) for v in code.co_freevars]
            kept.append(args + free)
            runs[(bodies[code], *map(structures._arg_key, args + free))] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield runs
    finally:
        sys.setprofile(previous)


def _by_body(runs) -> Counter:
    out = Counter()
    for (name, *_), count in runs.items():
        out[name] += count
    return out


def test_the_memoised_bodies_are_found():
    names = set(_memoised_bodies().values())
    for name in ("homyd.modules.tensor_raw", "homyd.modules.tensor", "homyd.yd.braiding_c",
                 "homyd.yd.yd_suite", "homyd.quasitri._induce", "homyd.quasitri.check_qt"):
        assert name in names


def _outcome(result):
    report = result.report
    return (result.status, result.reason,
            None if report is None else (report.law, report.failures, report.notes))


def _own_document(doc, k):
    """Task ``k`` of ``doc`` in a document of its own: the structures it
    references and the earlier tasks that register the results it needs."""
    producers = {t.spec["result"]: t for t in doc.tasks[:k] if t.spec.get("result")}
    tasks, names, todo = [doc.tasks[k]], set(), [doc.tasks[k]]
    while todo:
        for ref in runner._references(todo.pop()):
            if ref in producers and producers[ref] not in tasks:
                tasks.append(producers[ref])
                todo.append(producers[ref])
            elif ref in doc.structures:
                names.add(ref)
    tasks.sort(key=doc.tasks.index)
    return SpecDocument(doc.field, {n: doc.structures[n] for n in names}, tasks)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_each_task_alone_gives_the_whole_file_result(path):
    doc = parse_spec(path.read_text())
    whole = runner.run_tasks(doc).results
    for k, task in enumerate(doc.tasks):
        alone = runner.run_tasks(_own_document(doc, k)).results[-1]
        assert alone.name == task.name
        assert _outcome(alone) == _outcome(whole[k]), task.name


def test_consecutive_runs_compute_the_same():
    doc = parse_spec((ROOT / "suites" / "standard_rational.json").read_text())
    counts = []
    for _ in range(2):
        with body_runs() as runs:
            runner.run_tasks(doc)
        counts.append(_by_body(runs))
    assert counts[0] == counts[1]
    assert counts[0]["homyd.modules.tensor_raw"] > 0
    assert counts[0]["homyd.yd.braiding_c"] > 0


def test_outside_a_run_every_call_computes():
    m, n = cyclic_graded_yd(5, 4, 1, Q), cyclic_graded_yd(5, 4, 2, Q)
    with body_runs() as runs:
        first, second = tensor_raw("hat", m, n), tensor_raw("hat", m, n)
    assert first is not second
    assert _by_body(runs)["homyd.modules.tensor_raw"] == 2
    assert structures._memo is None


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_no_body_runs_twice_on_the_same_arguments_within_a_run(path):
    doc = parse_spec(path.read_text())
    with body_runs() as runs:
        runner.run_tasks(doc)
    assert runs
    assert [key for key, count in runs.items() if count > 1] == []


def test_a_run_drops_its_memo_when_a_task_raises(monkeypatch):
    doc = parse_spec((ROOT / "suites" / "standard_gf7.json").read_text())

    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(runner, "execute_task", boom)
    with pytest.raises(RuntimeError):
        runner.run_tasks(doc)
    assert structures._memo is None


def test_an_exception_is_never_kept():
    calls = []

    @structures.memoised
    def flaky(x):
        calls.append(x)
        if len(calls) == 1:
            raise ValueError("first call fails")
        return [x]

    with structures.run_memo():
        with pytest.raises(ValueError):
            flaky("a")
        kept = flaky("a")
        assert flaky("a") is kept
        assert flaky("b") is not kept
    assert calls == ["a", "a", "b"]
    assert flaky("a") is not kept


def test_a_call_with_keyword_arguments_computes():
    @structures.memoised
    def scaled(x, by=1):
        return [x * by]

    with structures.run_memo():
        kept = scaled(2)
        assert scaled(2) is kept
        assert scaled(2, by=3) == [6]
        assert scaled(2, by=1) is not kept


def test_an_entry_holds_its_arguments():
    # each argument is dropped by the caller at once; only the memo can keep
    # its id from being handed to the next one
    @structures.memoised
    def fresh(x):
        return []

    with structures.run_memo():
        results = [fresh(object()) for _ in range(3)]
    assert len({id(r) for r in results}) == 3


def test_self_comparisons_compare_no_maps(monkeypatch):
    m = cyclic_graded_yd(5, 4, 1, Q)
    with monkeypatch.context() as patched:
        patched.setattr(LinearMap, "__eq__", lambda *args: pytest.fail("a map was compared"))
        assert m.same_as(m) and m.over.same_as(m.over)
    with monkeypatch.context() as patched:
        patched.setattr(np, "array_equal", lambda *args: pytest.fail("arrays were compared"))
        assert m.act == m.act
    assert LinearMap.identity(Q, (2,)) == LinearMap.identity(Q, (2,))
