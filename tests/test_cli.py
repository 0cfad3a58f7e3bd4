import copy
import json
import math
import pathlib
import signal
import time
from fractions import Fraction
from unittest import mock

import pytest

from homyd import linmap
from homyd.cli import EXAMPLES, main

SUITES = pathlib.Path(__file__).parents[1] / "suites"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_check_standard_suite_exits_zero(capsys):
    assert main(["check", str(SUITES / "standard_gf7.json")]) == 0
    out = capsys.readouterr().out
    assert "ALL TASKS PASS" in out


def test_check_perturbed_suite_exits_one(capsys):
    assert main(["check", str(SUITES / "perturbed.json")]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_check_malformed_file_exits_two(capsys):
    assert main(["check", str(SUITES / "malformed.json")]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err


def test_missing_file_exits_two(capsys):
    assert main(["check", str(SUITES / "no_such_file.json")]) == 2


def test_usage_error_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_machine_reports_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["check", str(SUITES / "standard_gf7.json"), "--json", str(first)]) == 0
    assert main(["check", str(SUITES / "standard_gf7.json"), "--json", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["all_passed"] is True
    assert payload["field"] == "prime:7"


def test_report_verb_is_quiet_and_writes_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["report", str(SUITES / "standard_gf7.json"), "--json", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["all_passed"] is True
    assert main(["report", str(SUITES / "standard_gf7.json")]) == 2


def _twist_then_check(tmp_path):
    # twisting needs a classical source, so H6T is never registered
    doc = json.loads((SUITES / "standard_rational.json").read_text())
    identity = [["1" if i == j else "0" for j in range(6)] for i in range(6)]
    doc["tasks"] = [
        {"name": "twist_h6", "twist": "bialgebra", "source": "H6", "alpha": identity,
         "result": "H6T"},
        {"name": "laws_h6t", "check": "hom_bialgebra", "target": "H6T"},
    ]
    path = tmp_path / "dependency.json"
    path.write_text(json.dumps(doc))
    return path


def test_parallel_runs_produce_identical_reports(tmp_path, capsys):
    # every run is sequential: two runs give the same bytes, and the removed
    # --parallel option is a usage error
    for path, code in [(SUITES / "standard_gf7.json", 0), (_twist_then_check(tmp_path), 1)]:
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(["check", str(path), "--json", str(first)]) == code
        assert main(["check", str(path), "--json", str(second)]) == code
        assert main(["check", str(path), "--parallel", "4"]) == 2
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
    # the report of the last input, whose construction was inapplicable
    tasks = json.loads(first.read_text())["tasks"]
    assert [t["status"] for t in tasks] == ["inapplicable", "inapplicable"]
    assert tasks[1]["reason"] == "inapplicable: missing dependency 'H6T'"


def test_removed_max_dim_option_is_a_usage_error(capsys):
    # the work limits of linmap bound what a file may cost, not its dimensions
    for command in (["check"], ["report", "--json", "unused.json"]):
        assert main([*command, str(SUITES / "standard_gf7.json"), "--max-dim", "3"]) == 2
        assert "unrecognized arguments: --max-dim 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params",
    [
        ["cyclic_endo_twist", "6", "5"],
        ["cyclic_endo_twist", "4", "2"],
        ["conjugation_yd", "s3", "1"],
        ["cyclic_graded_yd", "5", "4", "2"],
        ["cyclic_r_matrix", "2", "rational", "-1", "1"],
        ["cyclic_r_matrix", "5", "11", "3", "4"],
        ["cyclic_bicharacter_sigma", "3", "7", "2", "1"],
        # the trivial group, the permutations of no letters
        ["conjugation_yd", "s0", "0"],
    ],
)
def test_example_emit_then_check_passes(tmp_path, capsys, params):
    path = tmp_path / "fixture.json"
    assert main(["example", *params, "--emit", str(path)]) == 0
    assert main(["check", str(path)]) == 0
    capsys.readouterr()


# one parameter set per generator, whose output is pinned byte for byte under
# golden/examples/ as "<params joined by _>.json"
GOLDEN_EXAMPLES = [
    ["cyclic_endo_twist", "4", "3"],
    ["conjugation_yd", "s3", "2"],
    ["cyclic_graded_yd", "5", "4", "2", "11"],
    ["cyclic_r_matrix", "5", "11", "3", "4"],
    ["cyclic_bicharacter_sigma", "4", "5", "2", "3"],
]


def test_every_generator_has_one_golden_example():
    assert sorted(p[0] for p in GOLDEN_EXAMPLES) == sorted(EXAMPLES)
    assert sorted(p.name for p in (GOLDEN / "examples").iterdir()) == sorted(
        "_".join(p) + ".json" for p in GOLDEN_EXAMPLES)


@pytest.mark.parametrize("params", GOLDEN_EXAMPLES, ids="_".join)
def test_example_output_is_byte_identical_to_its_golden_file(capsys, params):
    assert main(["example", *params]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / "examples" / ("_".join(params) + ".json")).read_bytes()


def test_example_to_stdout_parses(capsys):
    assert main(["example", "cyclic_endo_twist", "4", "2"]) == 0
    text = capsys.readouterr().out
    from homyd.specfile import parse_spec

    doc = parse_spec(text)
    assert "H" in doc.structures
    assert doc.meta.get("alpha") == "not invertible"


def test_example_bad_parameters_exit_two(capsys):
    assert main(["example", "cyclic_r_matrix", "3", "rational", "-1", "1"]) == 2
    assert main(["example", "cyclic_endo_twist"]) == 2
    assert main(["example", "cyclic_bicharacter_sigma", "0", "7", "1", "1"]) == 2
    assert main(["example", "cyclic_r_matrix", "0", "7", "1", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "params",
    [
        ["cyclic_endo_twist", "3", "1", "5"],
        ["conjugation_yd", "s3", "1", "7"],
        ["cyclic_graded_yd", "5", "4", "2", "11"],
        ["cyclic_r_matrix", "5", "11", "3", "4"],
        ["cyclic_bicharacter_sigma", "3", "7", "2", "1"],
    ],
)
def test_example_refuses_more_parameters_than_it_lists(capsys, params):
    name, usage = params[0], EXAMPLES[params[0]][1]
    assert len(params) == 1 + len(usage.split())
    assert main(["example", *params]) == 0
    capsys.readouterr()
    assert main(["example", *params, "99"]) == 2
    assert capsys.readouterr().err == f"error: {name}: expected parameters: {usage}\n"


def _timed_example(params):
    """The exit code and wall time of ``homyd example`` on ``params``; a run
    past 5 s is stopped, so a hang fails instead of stalling the suite."""
    def stop(signum, frame):
        raise TimeoutError(f"example {params} ran past 5 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    try:
        start = time.perf_counter()
        code = main(["example", *params])
        return code, time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


BIG_PRIME = "2305843009213693951"  # 2^61 - 1


@pytest.mark.parametrize(
    "params, message",
    [
        # the order of omega is decided in n products, not searched up to p
        (["cyclic_r_matrix", "2", BIG_PRIME, "3", "1"],
         "3 does not have multiplicative order 2"),
        (["cyclic_bicharacter_sigma", "2", BIG_PRIME, "3", "1"],
         f"3 does not have multiplicative order 2 mod {BIG_PRIME}"),
        (["cyclic_r_matrix", "2", "rational", "2", "1"],
         "2 does not have multiplicative order 2"),
        # omega^n = 1 at a smaller order is refused as well
        (["cyclic_r_matrix", "2", "rational", "1", "1"],
         "1 does not have multiplicative order 2"),
        (["cyclic_bicharacter_sigma", "4", "5", "4", "1"],
         "4 does not have multiplicative order 4 mod 5"),
        # orders above the largest example order are refused before anything
        # is built
        (["conjugation_yd", "s5", "1"],
         "group s5 has more elements than the largest example order 16"),
        (["conjugation_yd", "s4", "1"],
         "group s4 has more elements than the largest example order 16"),
        (["conjugation_yd", "s99999999999", "1"],
         "group s99999999999 has more elements than the largest example order 16"),
        (["cyclic_endo_twist", "17", "1"], "n = 17 exceeds the largest example order 16"),
        (["cyclic_graded_yd", "80", "1", "1"], "n = 80 exceeds the largest example order 16"),
        (["cyclic_r_matrix", "17", BIG_PRIME, "3", "1"],
         "n = 17 exceeds the largest example order 16"),
        (["cyclic_bicharacter_sigma", "17", "103", "2", "1"],
         "n = 17 exceeds the largest example order 16"),
        # t must index a group element, 0..order-1
        (["conjugation_yd", "s3", "-1"], "t = -1 is not an element of s3, which has order 6"),
        (["conjugation_yd", "s3", "99"], "t = 99 is not an element of s3, which has order 6"),
        # and so must n: a group has at least one element
        (["cyclic_endo_twist", "0", "1"], "n must be at least 1, got 0"),
        (["cyclic_endo_twist", "-3", "1"], "n must be at least 1, got -3"),
        (["cyclic_graded_yd", "0", "1", "1"], "n must be at least 1, got 0"),
        (["conjugation_yd", "c0", "0"], "n must be at least 1, got 0"),
    ],
)
def test_unrooted_or_oversized_examples_are_refused_within_a_second(capsys, params, message):
    code, elapsed = _timed_example(params)
    assert code == 2
    assert elapsed < 1
    assert capsys.readouterr().err == f"error: {params[0]}: {message}\n"


def test_example_at_the_dimension_guard_still_runs(capsys):
    code, _ = _timed_example(["cyclic_endo_twist", "16", "1"])
    assert code == 0
    capsys.readouterr()


def test_inapplicable_yd_task_is_distinct_from_fail(tmp_path, capsys):
    # non-invertible base structure map: the gate reports "inapplicable"
    doc = {
        "field": "rational",
        "structures": {
            "H": {
                "kind": "bialgebra",
                "dim": 2,
                "mu": [[["1", "0"], ["1", "0"]], [["1", "0"], ["1", "0"]]],
                "delta": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
                "alpha": [["1", "1"], ["0", "0"]],
            },
            "Y": {
                "kind": "yd_module",
                "over": "H",
                "dim": 2,
                "act": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
                "coact": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
            },
        },
        "tasks": [{"name": "gate", "check": "yd", "target": "Y"}],
    }
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(doc))
    out_json = tmp_path / "out.json"
    assert main(["check", str(path), "--json", str(out_json)]) == 1
    table = capsys.readouterr().out
    assert "INAPPLICABLE" in table
    payload = json.loads(out_json.read_text())
    assert payload["tasks"][0]["status"] == "inapplicable"
    assert payload["tasks"][0]["reason"].startswith("inapplicable:")


@pytest.mark.parametrize(
    "suite, code",
    [("standard_rational", 0), ("standard_gf11", 0), ("standard_gf7", 0), ("perturbed", 1),
     ("dense_q3", 1), ("ladder_n5", 1), ("ladder_n7", 0), ("dense_gf11_4", 0),
     ("s3_order3", 0)],
)
def test_reports_match_golden_bytes(tmp_path, capsys, suite, code):
    # tests/golden holds reports of an earlier release; any refactoring must
    # reproduce them byte for byte, with the same exit codes.  Inputs come from
    # suites/ or, for documents that are not shipped, tests/golden/inputs/:
    # dense_q3, dense_gf11_4, ladder_n5 and ladder_n7 are the files that
    # perfbench/gen_inputs.py --seed 1 writes; the dense_q3 report is full of
    # fractions.  s3_order3 is `homyd example conjugation_yd s3 3` with every
    # braiding task on Y: its α_H has order 3, so it tells α_H^{-1} from α_H
    _assert_golden(tmp_path, capsys, suite, code)


def _assert_golden(tmp_path, capsys, suite, code):
    source = GOLDEN / "inputs" / f"{suite}.json"
    if not source.exists():
        source = SUITES / f"{suite}.json"
    out = tmp_path / "report.json"
    assert main(["report", str(source), "--json", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == (GOLDEN / f"{suite}.json").read_bytes()


@pytest.mark.parametrize("route", ["dense", "sorted"])
@pytest.mark.parametrize("suite, code", [("dense_q3", 1), ("dense_gf11_4", 0),
                                         ("standard_gf11", 0)])
def test_golden_reports_under_both_compose_routes(tmp_path, capsys, suite, code, route):
    # the float64 kernel of LinearMap.compose takes the high-fill products of
    # these reports; with it disabled, the sorted kernel must give the same bytes
    fill = linmap.DENSE_FILL if route == "dense" else math.inf
    with mock.patch.object(linmap, "DENSE_FILL", fill), \
            mock.patch.object(linmap, "_dense_compose", wraps=linmap._dense_compose) as dense:
        _assert_golden(tmp_path, capsys, suite, code)
    assert dense.called == (route == "dense")


def _bumped(suite, name, copy_name, key, i, j, k):
    """A shipped suite plus a copy ``copy_name`` of its structure ``name``
    with ``key[i][j][k]`` raised by one."""
    doc = json.loads((SUITES / f"{suite}.json").read_text())
    bumped = copy.deepcopy(doc["structures"][name])
    bumped[key][i][j][k] = _bump(bumped[key][i][j][k], doc["field"])
    doc["structures"][copy_name] = bumped
    return doc


def _bump(value, field):
    if field == "rational":
        return str(Fraction(value) + 1)
    return str((int(value) + 1) % int(field.split(":")[1]))


def _hat_of_bumped_operand():
    doc = _bumped("standard_rational", "A", "A1", "act", 1, 0, 0)
    return doc, {"name": "hat_bumped", "tensor": "hat", "operands": ["A1", "B"], "result": "AB"}


def _twist_of_bumped_source():
    doc = _bumped("standard_rational", "H3C", "H3X", "delta", 0, 0, 0)
    twist = next(t for t in doc["tasks"] if t.get("twist") == "bialgebra")
    return doc, dict(twist, name="twist_bumped", source="H3X")


def _bridge_of_bumped_operand():
    doc = _bumped("standard_rational", "A", "A1", "act", 1, 0, 0)
    return doc, {"name": "bridge_bumped", "check": "bridge", "modules": ["A1", "A1"]}


def _braid_implies_hybe_of_bumped_operand():
    doc = _bumped("standard_rational", "A", "A1", "act", 1, 0, 0)
    return doc, {"name": "bih_bumped", "check": "braid_implies_hybe", "modules": ["A1", "B", "A1"]}


def _qt_braiding_of_bumped_module():
    doc = _bumped("standard_rational", "M2", "M2X", "act", 1, 0, 0)
    return doc, {"name": "qt_bumped", "check": "qt_braiding_matches", "modules": ["M2X", "M2X"],
                 "r": "R2"}


def _cqt_braiding_of_bumped_comodule():
    doc = _bumped("standard_gf7", "CM1", "CM1X", "coact", 0, 0, 0)
    return doc, {"name": "cqt_bumped", "check": "cqt_braiding_matches",
                 "comodules": ["CM1X", "CM2"], "sigma": "S"}


# the last four counts are certification failures alone: 26 for each braiding
# c that takes A1's action, 4 for each Yetter-Drinfeld module induced on M2X
# and 10 for the one induced on CM1X
@pytest.mark.parametrize(
    "make_task, count, first",
    [
        (_hat_of_bumped_operand, 70, ("action_alpha_compat", [1, 0])),
        (_twist_of_bumped_source, 7, ("delta_multiplicative", [0, 0])),
        (_bridge_of_bumped_operand, 26, ("morphism_alpha_compat", [5])),
        (_braid_implies_hybe_of_bumped_operand, 52, ("morphism_alpha_compat", [5])),
        (_qt_braiding_of_bumped_module, 8, ("action_hom_associativity", [1, 1, 0])),
        (_cqt_braiding_of_bumped_comodule, 10, ("action_hom_associativity", [0, 0, 0])),
    ],
)
def test_construction_breaking_its_laws_fails(tmp_path, capsys, make_task, count, first):
    doc, task = make_task()
    doc["tasks"] = [task]
    path = tmp_path / "bumped.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["check", str(path), "--json", str(out)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "FAIL" in captured.out
    (task,) = json.loads(out.read_text())["tasks"]
    assert task["status"] == "fail"
    assert len(task["failures"]) == count
    assert (task["failures"][0]["law"], task["failures"][0]["index"]) == first


@pytest.mark.parametrize("source, bad", [("H3C", "x"), ("H6", None)])
def test_malformed_twist_matrix_exits_two(tmp_path, capsys, source, bad):
    # a scalar that is not a literal, or the 3x3 alpha of twist_c3 on the
    # 6-dimensional H6: both refused before anything runs
    data = json.loads((SUITES / "standard_rational.json").read_text())
    task = copy.deepcopy(next(t for t in data["tasks"] if t["name"] == "twist_c3"))
    task["source"] = source
    if bad is not None:
        task["alpha"][0][0] = bad
    data["tasks"] = [task]
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'twist_c3'" in err


@pytest.mark.parametrize(
    "case", ["not_utf8", "deep_nesting", "unwritable_report", "unwritable_emit"]
)
def test_io_faults_exit_two_without_traceback(tmp_path, capsys, case):
    path = tmp_path / "doc.json"
    missing = str(tmp_path / "no_such_dir" / "x.json")
    args = ["check", str(path)]
    if case == "not_utf8":
        path.write_bytes(b'{"field": "rational\xff"}')
    elif case == "deep_nesting":
        path.write_text("[" * 100_000)
    elif case == "unwritable_report":
        path.write_text((SUITES / "standard_gf7.json").read_text())
        args = ["report", str(path), "--json", missing]
    else:
        args = ["example", "cyclic_endo_twist", "4", "2", "--emit", missing]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.out + captured.err


def test_report_value_too_long_to_render_exits_two(tmp_path, capsys):
    # a 4000-digit literal parses, but the failure vectors of the check hold
    # its square, which is past Python's int-string limit
    big = "1" * 4000
    doc = {
        "field": "rational",
        "structures": {"H": {
            "kind": "bialgebra", "dim": 2,
            "mu": [[[big, "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
            "delta": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
        }},
        "tasks": [{"name": "laws", "check": "hom_bialgebra", "target": "H"}],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert main(["report", str(path), "--json", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'laws'" in err
    assert not report.exists()
    # the table needs no rendered value
    assert main(["check", str(path)]) == 1
    assert "laws" in capsys.readouterr().out


def _every_kind_document():
    """A GF(7) document with one task of every kind in ``runner.TASKS``: the
    Hom-structures live over k[C3] twisted along g -> g^2, the twist sources
    are classical (identity structure maps)."""
    from homyd.fields import PrimeField
    from homyd.fixtures import (
        crossed_gset, cyclic_bicharacter_sigma, cyclic_graded_yd, cyclic_group,
        cyclic_r_matrix, group_bialgebra,
    )
    from homyd.modules import ComoduleStruct, ModuleStruct
    from homyd.specfile import SpecDocument, Task

    field = PrimeField(7)
    h, r = cyclic_r_matrix(3, field, 2, 2)
    classical = group_bialgebra(cyclic_group(3), field)
    structures = {
        "H": h, "R": r, "S": cyclic_bicharacter_sigma(3, 7, 2, 2)[1],
        "M": ModuleStruct(h, h.mu, h.alpha), "CM": ComoduleStruct(h, h.delta, h.alpha),
        "A": cyclic_graded_yd(3, 2, 1, field), "B": cyclic_graded_yd(3, 2, 2, field),
        "ALG": h.algebra, "COALG": h.coalgebra,
        "HC": classical, "ALGC": classical.algebra, "COALGC": classical.coalgebra,
        "YC": crossed_gset(cyclic_group(3), field),
    }
    square = [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]
    specs = [
        {"check": "hom_algebra", "target": "ALG"},
        {"check": "hom_coalgebra", "target": "COALG"},
        {"check": "hom_bialgebra", "target": "H"},
        {"check": "module", "target": "M"},
        {"check": "comodule", "target": "CM"},
        {"check": "yd", "target": "A"},
        {"check": "classical_yd", "target": "YC"},
        {"check": "qt", "target": "R"},
        {"check": "r_invariance", "target": "R"},
        {"check": "cqt", "target": "S"},
        {"check": "sigma_invariance", "target": "S"},
        {"check": "hybe", "modules": ["A", "A", "B"]},
        {"check": "braid_relation", "modules": ["A", "B", "A"]},
        {"check": "hexagons", "modules": ["A", "B", "A"], "flavor": "tilde"},
        {"check": "pentagon", "modules": ["A", "B", "A", "B"], "flavor": "hat"},
        {"check": "bridge", "modules": ["A", "B"]},
        {"check": "braid_implies_hybe", "modules": ["A", "B", "A"]},
        {"check": "qt_hybe", "modules": ["M", "M", "M"], "r": "R"},
        {"check": "qt_braiding_matches", "modules": ["M", "M"], "r": "R"},
        {"check": "cqt_hybe", "comodules": ["CM", "CM", "CM"], "sigma": "S"},
        {"check": "cqt_braiding_matches", "comodules": ["CM", "CM"], "sigma": "S"},
        {"twist": "algebra", "source": "ALGC", "alpha": square},
        {"twist": "coalgebra", "source": "COALGC", "alpha": square},
        {"twist": "bialgebra", "source": "HC", "alpha": square},
        {"twist": "yd", "source": "YC", "alpha_h": square, "alpha_m": square, "result": "YT"},
        {"tensor": "modules", "operands": ["M", "M"]},
        {"tensor": "comodules", "operands": ["CM", "CM"]},
        {"tensor": "hat", "operands": ["A", "B"]},
        {"tensor": "tilde", "operands": ["B", "YT"]},
        {"coincide": "qt", "operands": ["M", "M"], "r": "R"},
        {"coincide": "cqt", "operands": ["CM", "CM"], "sigma": "S"},
    ]
    tasks = [Task(f"task_{i}", dict(name=f"task_{i}", **spec)) for i, spec in enumerate(specs)]
    return SpecDocument(field, structures, tasks)


def test_every_task_kind_runs_through_the_cli(tmp_path, capsys):
    from homyd.runner import TASKS
    from homyd.specfile import serialize_spec

    path = tmp_path / "every_kind.json"
    path.write_text(serialize_spec(_every_kind_document()))
    out = tmp_path / "report.json"
    assert main(["report", str(path), "--json", str(out)]) == 0
    assert capsys.readouterr().out == ""
    tasks = json.loads(out.read_text())["tasks"]
    assert {tuple(t["kind"].split(":")) for t in tasks} == set(TASKS)
    assert len(tasks) == len(TASKS)
    assert [t["status"] for t in tasks] == ["pass"] * len(TASKS)
