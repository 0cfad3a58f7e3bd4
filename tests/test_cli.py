import copy
import json
import pathlib
from fractions import Fraction

import pytest

from homyd.cli import main

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


def test_parallel_runs_produce_identical_reports(tmp_path, capsys):
    seq = tmp_path / "seq.json"
    par = tmp_path / "par.json"
    base = str(SUITES / "standard_gf7.json")
    assert main(["check", base, "--json", str(seq)]) == 0
    assert main(["check", base, "--json", str(par), "--parallel", "4"]) == 0
    capsys.readouterr()
    assert seq.read_bytes() == par.read_bytes()


def test_max_dim_guard(capsys):
    base = str(SUITES / "standard_gf7.json")
    assert main(["check", base, "--max-dim", "3"]) == 0
    capsys.readouterr()
    assert main(["check", base, "--max-dim", "2"]) == 2
    assert "exceeds the guard" in capsys.readouterr().err


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
    ],
)
def test_example_emit_then_check_passes(tmp_path, capsys, params):
    path = tmp_path / "fixture.json"
    assert main(["example", *params, "--emit", str(path)]) == 0
    assert main(["check", str(path)]) == 0
    capsys.readouterr()


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
    [("standard_rational", 0), ("standard_gf11", 0), ("standard_gf7", 0), ("perturbed", 1)],
)
def test_reports_match_golden_bytes(tmp_path, capsys, suite, code):
    # tests/golden holds reports of an earlier release; any refactoring must
    # reproduce them byte for byte, with the same exit codes
    out = tmp_path / "report.json"
    assert main(["report", str(SUITES / f"{suite}.json"), "--json", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == (GOLDEN / f"{suite}.json").read_bytes()


def _bump(value):
    return str(Fraction(value) + 1)


def _hat_of_bumped_operand(doc):
    bumped = copy.deepcopy(doc["structures"]["A"])
    bumped["act"][1][0][0] = _bump(bumped["act"][1][0][0])
    doc["structures"]["A1"] = bumped
    return {"name": "hat_bumped", "tensor": "hat", "operands": ["A1", "B"], "result": "AB"}


def _twist_of_bumped_source(doc):
    bumped = copy.deepcopy(doc["structures"]["H3C"])
    bumped["delta"][0][0][0] = _bump(bumped["delta"][0][0][0])
    doc["structures"]["H3X"] = bumped
    twist = next(t for t in doc["tasks"] if t.get("twist") == "bialgebra")
    return dict(twist, name="twist_bumped", source="H3X")


@pytest.mark.parametrize(
    "make_task, count, first",
    [
        (_hat_of_bumped_operand, 70, ("action_alpha_compat", [1, 0])),
        (_twist_of_bumped_source, 7, ("delta_multiplicative", [0, 0])),
    ],
)
def test_construction_breaking_its_laws_fails(tmp_path, capsys, make_task, count, first):
    doc = json.loads((SUITES / "standard_rational.json").read_text())
    doc["tasks"] = [make_task(doc)]
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
