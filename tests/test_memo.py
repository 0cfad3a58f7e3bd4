"""The one run-scoped memo: what ``run_tasks`` builds once lives only for that
run, keyed by the values of its arguments.

A memoised body is watched through ``sys.setprofile``, so these tests count
the computations that really ran, whichever path reached them, without
patching the program.
"""

import contextlib
import pathlib
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from homyd import cli, linmap, runner
from homyd.errors import NotInvertibleError, ShapeError, WorkLimitError
from homyd.fields import RATIONALS as Q, PrimeField
from homyd.fixtures import conjugation_yd, cyclic_graded_yd, inner_automorphism, symmetric_group
from homyd.linmap import LinearMap, memoised, run_memo
from homyd.modules import tensor_raw
from homyd.reports import CheckReport
from homyd.specfile import SpecDocument, parse_spec
from homyd.structures import HomBialgebra
from homyd.yd import YDModule, braiding_B

ROOT = pathlib.Path(__file__).parents[1]
FILES = sorted((ROOT / "suites").glob("standard_*.json")) + [ROOT / "suites" / "perturbed.json"]
FILES += sorted((ROOT / "tests" / "golden" / "inputs").glob("*.json"))

_CACHED = memoised(lambda: None).__code__


def _memoised_bodies() -> dict:
    """Every memoised function of homyd's modules, constructors' ``.build``
    and ``LinearMap``'s kernels included, as its body's code object -> its
    qualified name."""
    bodies = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("homyd"):
            continue
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else ()
            for fn in (value, getattr(value, "build", None), *members):
                if getattr(fn, "__code__", None) is _CACHED:
                    bodies[fn.__wrapped__.__code__] = f"{fn.__module__}.{fn.__qualname__}"
    return bodies


@contextlib.contextmanager
def body_runs():
    """A Counter of (body name, arguments) per memoised body that ran, with
    the arguments compared by value as the memo compares them.  A call on a
    map argument over the cap, or whose result is or holds one, is not
    counted: the memo does not keep it."""
    bodies, runs, calls = _memoised_bodies(), Counter(), {}

    def profile(frame, event, arg):
        if frame.f_code not in bodies:
            return
        if event == "call":
            code = frame.f_code
            args = [frame.f_locals[v] for v in code.co_varnames[:code.co_argcount]]
            free = [frame.f_locals.get(v) for v in code.co_freevars]
            calls[frame] = (bodies[code], *args, *free)
        elif event == "return":
            key = calls.pop(frame)
            if not linmap._over_cap(key) and not linmap._over_cap(
                    arg if type(arg) is tuple else (arg,)):
                runs[key] += 1

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
                 "homyd.yd.yd_suite", "homyd.quasitri._induce", "homyd.quasitri.check_qt",
                 "homyd.linmap.LinearMap._compose", "homyd.linmap.LinearMap._tensor",
                 "homyd.linmap.LinearMap._permute_codomain",
                 "homyd.linmap.LinearMap._permute_domain",
                 "homyd.linmap.LinearMap._gauss_jordan"):
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


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_consecutive_runs_compute_the_same(path):
    # no map keeps its own inverse past a run, so the second run of one
    # parsed document also pays the eliminations of the first
    doc = parse_spec(path.read_text())
    counts = []
    for _ in range(2):
        with body_runs() as runs:
            runner.run_tasks(doc)
        counts.append(_by_body(runs))
    assert counts[0] == counts[1]
    assert counts[0]["homyd.linmap.LinearMap._gauss_jordan"] > 0


@pytest.mark.parametrize("params", [["cyclic_graded_yd", "16", "15", "1"],
                                    ["conjugation_yd", "s3", "1"]], ids="_".join)
def test_an_example_eliminates_its_structure_map_once(capsys, params):
    # the generator's certification gates invert one structure map four
    # times; ``homyd example`` runs the generator in one memo
    with body_runs() as runs:
        assert cli.main(["example", *params]) == 0
    capsys.readouterr()
    assert _by_body(runs)["homyd.linmap.LinearMap._gauss_jordan"] == 1


def test_outside_a_run_every_call_computes():
    m, n = cyclic_graded_yd(5, 4, 1, Q), cyclic_graded_yd(5, 4, 2, Q)
    with body_runs() as runs:
        first, second = tensor_raw("hat", m, n), tensor_raw("hat", m, n)
    assert first is not second
    assert _by_body(runs)["homyd.modules.tensor_raw"] == 2
    assert linmap._table is None


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_no_body_runs_twice_on_equal_arguments_within_a_run(path):
    doc = parse_spec(path.read_text())
    with body_runs() as runs:
        runner.run_tasks(doc)
    assert runs
    assert [key for key, count in runs.items() if count > 1] == []


def test_an_exception_is_never_kept():
    calls = []

    @memoised
    def flaky(x):
        calls.append(x)
        if len(calls) == 1:
            raise ValueError("first call fails")
        return [x]

    with run_memo():
        with pytest.raises(ValueError):
            flaky("a")
        kept = flaky("a")
        assert flaky("a") is kept
        assert flaky("b") is not kept
    assert calls == ["a", "a", "b"]
    assert flaky("a") is not kept


def test_a_call_with_keyword_arguments_computes():
    @memoised
    def scaled(x, by=1):
        return [x * by]

    with run_memo():
        kept = scaled(2)
        assert scaled(2) is kept
        assert scaled(2, by=3) == [6]
        assert scaled(2, by=1) is not kept


def test_an_entry_holds_its_arguments():
    # an object() compares by identity, and each is dropped by the caller at
    # once: only the key that holds it keeps its id from the next one
    @memoised
    def fresh(x):
        return []

    with run_memo():
        results = [fresh(object()) for _ in range(3)]
    assert len({id(r) for r in results}) == 3


def test_self_comparisons_compare_no_maps(monkeypatch):
    m = cyclic_graded_yd(5, 4, 1, Q)
    with monkeypatch.context() as patched:
        patched.setattr(LinearMap, "__eq__", lambda *args: pytest.fail("a map was compared"))
        assert m == m and m.over == m.over
    with monkeypatch.context() as patched:
        patched.setattr(np, "array_equal", lambda *args: pytest.fail("arrays were compared"))
        assert m.act == m.act
    assert LinearMap.identity(Q, (2,)) == LinearMap.identity(Q, (2,))


# -- the results that linmap keeps within a run --------------------------------

GF5 = PrimeField(5)
# each operand as (dom, cod) regroupings of one 4 x 4 array
SHAPES = [((4,), (4,)), ((2, 2), (2, 2)), ((2, 2), (4,)), ((4,), (2, 2))]


def _form(m):
    """Everything a map holds, as plain values: a test must not read a map
    through the ``==`` under test."""
    return (m.field, m.dom, m.cod, m.den, m.rows.tolist(), m.cols.tolist(), m.values.tolist())


def _call_form(op, m, arg):
    try:
        if op == "compose":
            return _form(m @ arg)
        if op == "tensor":
            return _form(m.tensor(arg))
        return _form(getattr(m, op)(arg))
    except ShapeError as exc:
        return str(exc)


@st.composite
def _arrays(draw):
    """One or two 4 x 4 arrays, each held over Q and over GF(5) and under every
    regrouping in SHAPES: distinct maps with equal arrays, the Q ones scaled
    by 1 or 1/2."""
    out = []
    for cells in draw(st.lists(st.lists(st.integers(0, 4), min_size=16, max_size=16),
                               min_size=1, max_size=2)):
        dense = np.array(cells, dtype=object).reshape(4, 4)
        scale = draw(st.sampled_from([1, Fraction(1, 2)]))
        out.append({(field, shape): LinearMap(field, *shape, dense * scale if field is Q else dense)
                    for field in (Q, GF5) for shape in SHAPES})
    return out


def _outcomes(arrays, calls):
    """Every call, over each field in turn and on every regrouping of its
    operands."""
    out = []
    for op, i, j, perm in calls:
        for field in (Q, GF5):
            for s in SHAPES:
                m = arrays[i][(field, s)]
                if op.startswith("permute"):
                    out.append(_call_form(op, m, perm))
                    continue
                out.extend(_call_form(op, m, arrays[j][(field, t)]) for t in SHAPES)
    return out


@pytest.mark.parametrize("constant_hash", [False, True])
@given(data=st.data())
def test_every_primitive_in_a_run_gives_what_it_gives_outside(constant_hash, data):
    arrays = data.draw(_arrays())
    index = st.integers(0, len(arrays) - 1)
    calls = data.draw(st.lists(st.tuples(
        st.sampled_from(["compose", "tensor", "permute_codomain", "permute_domain"]),
        index, index, st.sampled_from([(0,), (1, 0), (0, 1)])), min_size=1, max_size=6))
    with contextlib.ExitStack() as stack:
        if constant_hash:
            # with every hash equal, only ``==`` can tell the keys apart
            stack.enter_context(mock.patch.object(LinearMap, "__hash__", lambda self: 0))
        expected = _outcomes(arrays, calls)
        with run_memo():
            got = _outcomes(arrays, calls)
            again = _outcomes(arrays, calls)
    assert got == expected
    assert again == expected


def test_a_repeated_call_returns_the_kept_map_only_inside_a_run():
    m = cyclic_graded_yd(5, 4, 1, Q).act
    assert m.tensor(m) is not m.tensor(m)
    with run_memo():
        kept = m.tensor(m)
        assert m.tensor(m.with_shapes(m.dom, m.cod)) is kept
        assert m.permute_domain((1, 0)) is m.permute_domain([1, 0])
        assert m.tensor(m.permute_domain((1, 0))) is not kept
    assert linmap._table is None
    assert m.tensor(m) is not kept


def test_the_table_is_dropped_when_a_task_raises(monkeypatch):
    doc = parse_spec((ROOT / "suites" / "standard_gf7.json").read_text())
    m = cyclic_graded_yd(5, 4, 1, Q).act
    seen = []

    def boom(*args):
        m.tensor(m)
        seen.append(len(linmap._table))
        raise RuntimeError("boom")

    monkeypatch.setattr(runner, "execute_task", boom)
    with pytest.raises(RuntimeError):
        runner.run_tasks(doc)
    assert seen == [1]
    assert linmap._table is None


def _maps(values):
    return [v for v in values if isinstance(v, LinearMap)]


def test_no_kept_argument_or_result_stores_more_than_the_cap():
    cap = linmap.COMPOSE_BLOCK
    big = LinearMap.identity(Q, (cap + 1,))
    wide = LinearMap.identity(Q, (65,))  # its tensor square stores 4225 > cap
    # a builder's (object, report), here holding a map over the cap
    build = memoised(lambda n: (LinearMap.identity(Q, (n,)), CheckReport("law")))
    with run_memo():
        build(cap + 1)
        big @ big
        LinearMap.zero(Q, big.cod, (1,)) @ big
        wide.tensor(wide)
        big.permute_codomain((0,))
        for path in FILES[:3]:
            doc = parse_spec(path.read_text())
            names = dict(doc.structures)
            for task in doc.tasks:
                names.update(runner.execute_task(task, names)[1])
        kept = dict(linmap._table)
    assert len(kept) > 100
    for (fn, *args), out in kept.items():
        assert all(len(x.values) <= cap for x in _maps(args)), fn
        assert all(len(x.values) <= cap for x in _maps(out if type(out) is tuple else (out,))), fn


def _kernel_calls():
    """One call per route of the kernels: dense, sorted and column-single
    ``compose``, and ``tensor``."""
    d = LinearMap.from_rows(Q, (2,), (2,), [[1, 2], [3, 4]])  # 8 products on 4 cells
    s = LinearMap.from_rows(Q, (3,), (3,), [[1, 1, 0], [1, 0, 0], [0, 0, 0]])  # 5 on 9
    p = LinearMap.basis_map(Q, [1, 2, 0])
    return [lambda: d @ d, lambda: s @ s, lambda: p @ p, lambda: d.tensor(d)]


def test_a_kernel_checks_its_work_once_and_a_hit_not_at_all():
    calls = _kernel_calls()
    with run_memo():
        with mock.patch.object(linmap, "_check_work", wraps=linmap._check_work) as check, \
                mock.patch.object(linmap, "_dense_compose", wraps=linmap._dense_compose) as dense, \
                mock.patch.object(linmap, "_sum_runs", wraps=linmap._sum_runs) as summed, \
                mock.patch.object(linmap, "_single_compose",
                                  wraps=linmap._single_compose) as single:
            kept = [call() for call in calls]
        assert [c.args[0] for c in check.call_args_list] == ["compose"] * 3 + ["tensor"]
        assert dense.call_count == summed.call_count == single.call_count == 1
        with mock.patch.object(linmap, "_check_work", side_effect=AssertionError), \
                mock.patch.object(np, "bincount", side_effect=AssertionError), \
                mock.patch.object(linmap, "_dense_compose", side_effect=AssertionError), \
                mock.patch.object(linmap, "_sum_runs", side_effect=AssertionError), \
                mock.patch.object(linmap, "_single_compose", side_effect=AssertionError):
            assert all(call() is out for call, out in zip(calls, kept))
    # a refusal is an exception, never kept: a repeat is checked and refused again
    with run_memo(), mock.patch.object(linmap, "MAX_STORED", 0), \
            mock.patch.object(linmap, "_check_work", wraps=linmap._check_work) as check:
        for call in calls:
            for _ in range(2):
                with pytest.raises(WorkLimitError, match="over the limits"):
                    call()
        assert linmap._table == {}
    assert [c.args[0] for c in check.call_args_list] == ["compose"] * 6 + ["tensor"] * 2


# -- one key rule for every memoised call ----------------------------------------

def test_equal_carriers_held_by_distinct_objects_get_back_the_kept_object():
    m, n = cyclic_graded_yd(5, 4, 1, Q), cyclic_graded_yd(5, 4, 2, Q)
    m2, n2 = cyclic_graded_yd(5, 4, 1, Q), cyclic_graded_yd(5, 4, 2, Q)
    assert m2 is not m and m2.over is not m.over and m2 == m
    with run_memo():
        kept = tensor_raw("hat", m, n)
        assert tensor_raw("hat", m2, n2) is kept
        assert tensor_raw("tilde", m2, n2) is not kept
        assert tensor_raw("hat", n2, m2) is not kept


@pytest.mark.parametrize("rows", [[[1, 2], [3, 4]], [[1, 2], [2, 4]]], ids=["regular", "singular"])
def test_equal_maps_held_by_distinct_objects_are_eliminated_once_within_a_run(rows):
    def outcome(m):
        try:
            return m.inverse()
        except NotInvertibleError as exc:
            return exc.rank

    a, b = (LinearMap.from_rows(Q, (2,), (2,), rows) for _ in range(2))
    assert a is not b and a == b
    with body_runs() as runs, run_memo():
        first, second = outcome(a), outcome(b)
    assert first is second
    assert _by_body(runs)["homyd.linmap.LinearMap._gauss_jordan"] == 1
    # outside a run every call eliminates, and gives an equal map or rank
    c, d = (LinearMap.from_rows(Q, (2,), (2,), rows) for _ in range(2))
    with body_runs() as runs:
        outcomes = [outcome(c), outcome(c), outcome(d)]
    assert _by_body(runs)["homyd.linmap.LinearMap._gauss_jordan"] == 3
    assert outcomes[0] == outcomes[1] == outcomes[2] == first


def _variants():
    """A Yetter-Drinfeld module with a non-trivial action, the same maps over
    a base that differs only in α_H, and the same maps with another α."""
    s3 = symmetric_group(3)
    m = conjugation_yd(s3, inner_automorphism(s3, 1))
    h = m.over
    flat = HomBialgebra(h.mu, h.delta, LinearMap.identity(Q, (h.dim,)))
    other = conjugation_yd(s3, inner_automorphism(s3, 2)).alpha
    return m, YDModule(flat, m.act, m.coact, m.alpha), YDModule(h, m.act, m.coact, other)


def test_structures_that_differ_only_in_a_structure_map_key_apart():
    m, over_flat, other_alpha = _variants()
    assert len({m, over_flat, other_alpha}) == 3
    expected = [(braiding_B(x, x), tensor_raw("hat", x, x)) for x in (m, over_flat, other_alpha)]
    assert expected[0][0] != expected[1][0]  # B reads α_H^{-1}
    assert expected[0][1] != expected[2][1]  # the carrier's α is α⊗α
    with run_memo():
        got = [(braiding_B(x, x), tensor_raw("hat", x, x)) for x in (m, over_flat, other_alpha)]
    assert got == expected


def test_equal_arrays_over_q_and_over_gf_p_do_not_collide():
    q_map, q_yd = LinearMap.identity(Q, (3,)), cyclic_graded_yd(5, 4, 1, Q)
    # the residues of a prime above 2^31 are Python ints, as the numerators
    # over Q are, so that equal arrays hash alike; those of 11 are int64
    for p in (2147483659, 11):
        field = PrimeField(p)
        p_map, p_yd = LinearMap.identity(field, (3,)), cyclic_graded_yd(5, 4, 1, field)
        assert (hash(q_map) == hash(p_map)) == (p > 2**31)
        assert q_map != p_map and q_yd != p_yd
        with run_memo():
            assert q_map.tensor(q_map).field == Q
            assert p_map.tensor(p_map).field == field
            assert tensor_raw("hat", q_yd, q_yd).field == Q
            assert tensor_raw("hat", p_yd, p_yd).field == field
