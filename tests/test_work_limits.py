"""The work limits of ``linmap``: a ``compose`` or ``tensor`` beyond
``MAX_PRODUCTS`` products or ``MAX_STORED`` stored nonzeros is refused
before it allocates, and a task that reaches a limit stops the run with
exit 2, never with an "inapplicable" verdict."""

import contextlib
import math
import pathlib
import random
import signal
import time
import tracemalloc
from unittest import mock

import pytest

from conftest import carried_yd
from homyd import linmap
from homyd.cli import main
from homyd.errors import SpecFileError, WorkLimitError
from homyd.fields import PrimeField
from homyd.fixtures import cyclic_graded_yd
from homyd.linmap import LinearMap
from homyd.runner import INAPPLICABLE_ERRORS, execute_task, run_tasks
from homyd.specfile import SpecDocument, Task, parse_spec, serialize_spec
from homyd.linmap import run_memo

SUITES = pathlib.Path(__file__).parents[1] / "suites"
GF11 = PrimeField(11)
MODULES = {"hybe": ["A", "A", "B"], "hexagons": ["A", "B", "A"], "pentagon": ["A", "B", "A", "B"]}


def _document(pair, checks) -> str:
    """The file of the pair (A, B) over GF(11) with one task of each check."""
    a, b = pair
    tasks = []
    for check in checks:
        spec = {"name": check, "check": check, "modules": MODULES[check]}
        if check != "hybe":
            spec["flavor"] = "hat"
        tasks.append(Task(check, spec))
    return serialize_spec(SpecDocument(GF11, {"H": a.over, "A": a, "B": b}, tasks, {}))


@pytest.fixture(scope="module")
def dense_pair_16():
    # the pair of test_acceptance.test_dense_pentagon_at_the_dimension_guard:
    # structure maps dense 16 x 16 over GF(11)
    rng = random.Random(20261018)
    q = None
    while q is None or not q.is_invertible():
        rows = [[rng.randrange(11) for _ in range(16)] for _ in range(16)]
        q = LinearMap.from_rows(GF11, (16,), (16,), rows)
    return tuple(carried_yd(cyclic_graded_yd(16, 15, g, GF11), q) for g in (1, 2))


def _timed_check(argv, budget):
    """The exit code and wall time of ``homyd`` on ``argv``; a run past
    ``budget`` seconds is stopped, so a runaway fails instead of stalling."""
    def stop(signum, frame):
        raise TimeoutError(f"{argv} ran past {budget} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(budget)
    try:
        start = time.perf_counter()
        code = main(argv)
        return code, time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("check", ["hybe", "hexagons"])
def test_dense_dim16_document_stops_with_exit_two_within_seconds(
        tmp_path, capsys, dense_pair_16, check):
    path = tmp_path / "dense16.json"
    path.write_text(_document(dense_pair_16, [check]))
    report = tmp_path / "report.json"
    code, elapsed = _timed_check(["check", str(path), "--json", str(report)], 5)
    captured = capsys.readouterr()
    assert code == 2
    assert elapsed < 5
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: task '{check}': ")
    assert "over the limits" in line
    assert "Traceback" not in captured.err
    assert not report.exists()


def test_sparse_dim20_coherence_document_passes(tmp_path, capsys):
    pair = tuple(cyclic_graded_yd(20, 19, g, GF11) for g in (1, 2))
    path = tmp_path / "sparse20.json"
    path.write_text(_document(pair, ["hybe", "hexagons", "pentagon"]))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.endswith("ALL TASKS PASS\n")


def _dense(rng, nrows, ncols) -> LinearMap:
    rows = [[rng.randrange(1, 11) for _ in range(ncols)] for _ in range(nrows)]
    return LinearMap.from_rows(GF11, (ncols,), (nrows,), rows)


def _run_or_not(inside_run):
    """A fresh ``run_memo`` block, or none.  Each call below under other
    limits opens its own: nothing assigns the limits at run time, so a
    result kept within one run is not checked against them again."""
    return run_memo() if inside_run else contextlib.nullcontext()


# (outer, inner, products, stored): the stored bound of a compose is its
# result cells when it forms more products than that, its products otherwise
COMPOSES = {
    "high-fill": (lambda rng: _dense(rng, 4, 6), lambda rng: _dense(rng, 6, 5), 120, 20),
    "low-fill": (lambda rng: LinearMap.identity(GF11, (6,)),
                 lambda rng: LinearMap.basis_map(GF11, [1, 2, 3, 4, 5, 0]), 6, 6),
}


@pytest.mark.parametrize("inside_run", [False, True])
@pytest.mark.parametrize("route", ["dense", "sorted"])
@pytest.mark.parametrize("case", COMPOSES)
def test_compose_computes_at_the_limits_and_refuses_past_them_before_any_product(
        case, route, inside_run):
    outer, inner, products, stored = COMPOSES[case]
    rng = random.Random(3)
    g, f = outer(rng), inner(rng)
    expected = g @ f
    fill = linmap.DENSE_FILL if route == "dense" else math.inf
    # the column-single route, which takes the low-fill pair, is switched off
    with mock.patch.object(linmap, "DENSE_FILL", fill), \
            mock.patch.object(LinearMap, "_column_single", lambda m: False):
        with _run_or_not(inside_run), mock.patch.object(linmap, "MAX_PRODUCTS", products), \
                mock.patch.object(linmap, "MAX_STORED", stored), \
                mock.patch.object(linmap, "_dense_compose", wraps=linmap._dense_compose) as dense:
            assert g @ f == expected
        assert dense.called == (route == "dense" and case == "high-fill")
        for limit, value in (("MAX_PRODUCTS", products - 1), ("MAX_STORED", stored - 1)):
            with _run_or_not(inside_run), mock.patch.object(linmap, limit, value), \
                    mock.patch.object(linmap, "_dense_compose", side_effect=AssertionError), \
                    mock.patch.object(linmap, "_sum_runs", side_effect=AssertionError):
                with pytest.raises(WorkLimitError, match=(
                        f"^compose would form {products} products and store up to "
                        f"{stored} nonzeros, over the limits {linmap.MAX_PRODUCTS} "
                        f"and {linmap.MAX_STORED}$")):
                    g @ f


@pytest.mark.parametrize("inside_run", [False, True])
def test_tensor_computes_at_the_limits_and_refuses_past_them(inside_run):
    rng = random.Random(5)
    f, g = _dense(rng, 3, 2), _dense(rng, 2, 2)
    expected = f.tensor(g)
    with _run_or_not(inside_run), mock.patch.object(linmap, "MAX_PRODUCTS", 24), \
            mock.patch.object(linmap, "MAX_STORED", 24):
        assert f.tensor(g) == expected
    for limit in ("MAX_PRODUCTS", "MAX_STORED"):
        with _run_or_not(inside_run), mock.patch.object(linmap, limit, 23), \
                mock.patch.object(type(GF11), "reduce_array", side_effect=AssertionError), \
                pytest.raises(WorkLimitError, match=(
                    "^tensor would form 24 products and store up to 24 nonzeros")):
            f.tensor(g)


@pytest.mark.parametrize("inside_run", [False, True])
def test_column_single_compose_and_tensor_count_their_products_and_refuse_past_them(
        inside_run):
    # g leaves column 5 empty: the entry of f in row 5 forms no product
    g = LinearMap(GF11, (6,), (6,), [[i + 1 if i == j < 5 else 0 for j in range(6)] for i in range(6)])
    f = LinearMap.basis_map(GF11, [1, 2, 3, 4, 5, 0])
    h = LinearMap.permutation(GF11, (2, 3), (1, 0))
    assert all(m._column_single() for m in (g, f, h))
    composed, tensored = g @ f, f.tensor(h)
    with mock.patch.object(linmap, "_single_compose", wraps=linmap._single_compose) as one:
        with _run_or_not(inside_run), mock.patch.object(linmap, "MAX_STORED", 5):
            assert g @ f == composed
        with _run_or_not(inside_run), mock.patch.object(linmap, "MAX_STORED", 36):
            assert f.tensor(h) == tensored
        assert one.called
        for call, stored in ((lambda: g @ f, 5), (lambda: f.tensor(h), 36)):
            with _run_or_not(inside_run), mock.patch.object(linmap, "MAX_STORED", stored - 1), \
                    mock.patch.object(type(GF11), "reduce_array", side_effect=AssertionError), \
                    pytest.raises(WorkLimitError, match=(
                        f"would form {stored} products and store up to {stored} nonzeros")):
                call()


@pytest.mark.parametrize("inside_run", [False, True])
def test_tensor_past_the_limit_allocates_nothing_of_its_size(inside_run):
    # 1000 x 1000 nonzeros: each index array of the product would take 8 MB
    f = LinearMap.from_rows(GF11, (1000,), (1,), [[1] * 1000])
    with _run_or_not(inside_run), mock.patch.object(linmap, "MAX_STORED", 10**6 - 1):
        tracemalloc.start()
        try:
            with pytest.raises(WorkLimitError):
                f.tensor(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 8 * 10**6 // 100


def test_a_task_past_a_limit_stops_the_run_and_is_never_inapplicable(tmp_path, capsys):
    assert not issubclass(WorkLimitError, INAPPLICABLE_ERRORS)
    path = SUITES / "standard_rational.json"
    doc = parse_spec(path.read_text())
    report = tmp_path / "report.json"
    with mock.patch.object(linmap, "MAX_STORED", 0):
        refused = 0
        for task in doc.tasks:
            try:
                result, _ = execute_task(task, dict(doc.structures))
            except SpecFileError as exc:
                assert str(exc).startswith(f"task {task.name!r}: ")
                refused += 1
            else:
                assert "would form" not in (result.reason or "")
        assert refused > 0
        with pytest.raises(SpecFileError, match="^task '[^']+': (compose|tensor) would form"):
            run_tasks(doc)
        assert main(["check", str(path), "--json", str(report)]) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: task '")
    assert "inapplicable" not in captured.err + captured.out
    assert not report.exists()
