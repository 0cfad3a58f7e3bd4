import json
import pathlib

import pytest

from homyd.errors import SpecFileError
from homyd.fields import PrimeField, RATIONALS
from homyd.specfile import parse_spec, serialize_spec

MINIMAL = {
    "field": "rational",
    "structures": {
        "H": {
            "kind": "bialgebra",
            "dim": 2,
            "mu": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
            "delta": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
        }
    },
    "tasks": [{"name": "laws", "check": "hom_bialgebra", "target": "H"}],
}


def doc_text(**overrides):
    data = json.loads(json.dumps(MINIMAL))
    data.update(overrides)
    return json.dumps(data)


def test_empty_task_list_is_valid():
    doc = parse_spec(doc_text(tasks=[]))
    assert doc.tasks == []
    assert doc.structures["H"].dim == 2


def test_round_trip_is_identity_on_canonical_form():
    text = doc_text()
    canonical = serialize_spec(parse_spec(text))
    assert serialize_spec(parse_spec(canonical)) == canonical


def test_round_trip_on_shipped_suites():
    import pathlib

    for name in ("standard_rational.json", "standard_gf7.json", "standard_gf11.json"):
        path = pathlib.Path(__file__).parents[1] / "suites" / name
        canonical = serialize_spec(parse_spec(path.read_text()))
        assert serialize_spec(parse_spec(canonical)) == canonical


def test_undefined_reference_names_the_missing_structure():
    with pytest.raises(SpecFileError, match="M9"):
        parse_spec(doc_text(tasks=[{"check": "module", "target": "M9"}]))


def test_malformed_json_reports_position():
    with pytest.raises(SpecFileError) as exc:
        parse_spec('{"field": "rational", "structures": {\n  !')
    assert exc.value.line == 2


def test_dimension_mismatch_is_rejected():
    bad = json.loads(json.dumps(MINIMAL))
    bad["structures"]["H"]["mu"][0][0] = ["1", "0", "0"]
    with pytest.raises(SpecFileError, match="columns"):
        parse_spec(json.dumps(bad))


def test_scalars_must_be_strings():
    bad = json.loads(json.dumps(MINIMAL))
    bad["structures"]["H"]["mu"][0][0] = [1, 0]
    with pytest.raises(SpecFileError, match="strings"):
        parse_spec(json.dumps(bad))


def test_non_reduced_residue_is_rejected():
    bad = json.loads(json.dumps(MINIMAL))
    bad["field"] = "prime:5"
    bad["structures"]["H"]["mu"][0][0] = ["7", "0"]
    with pytest.raises(SpecFileError, match="non-reduced residue"):
        parse_spec(json.dumps(bad))


def test_fraction_literals_parse_exactly():
    data = json.loads(json.dumps(MINIMAL))
    data["structures"]["H"]["mu"][0][0] = ["3/2", "0"]
    doc = parse_spec(json.dumps(data))
    from fractions import Fraction

    assert doc.structures["H"].mu.entries[0, 0] == Fraction(3, 2)


def test_unknown_keys_and_kinds_are_rejected():
    with pytest.raises(SpecFileError, match="top-level"):
        parse_spec(doc_text(extra=1))
    bad = json.loads(json.dumps(MINIMAL))
    bad["structures"]["H"]["kind"] = "frobenius"
    with pytest.raises(SpecFileError, match="kind"):
        parse_spec(json.dumps(bad))
    bad = json.loads(json.dumps(MINIMAL))
    bad["structures"]["H"]["surprise"] = []
    with pytest.raises(SpecFileError, match="unexpected keys"):
        parse_spec(json.dumps(bad))


def test_task_validation_catches_bad_tasks():
    with pytest.raises(SpecFileError, match="unknown check"):
        parse_spec(doc_text(tasks=[{"check": "sorcery", "target": "H"}]))
    with pytest.raises(SpecFileError, match="exactly one"):
        parse_spec(doc_text(tasks=[{"check": "module", "twist": "algebra"}]))
    with pytest.raises(SpecFileError, match="duplicate"):
        parse_spec(
            doc_text(
                tasks=[
                    {"name": "t", "check": "hom_bialgebra", "target": "H"},
                    {"name": "t", "check": "hom_bialgebra", "target": "H"},
                ]
            )
        )
    # arity of multi-module checks
    with pytest.raises(SpecFileError, match="list of 3"):
        parse_spec(doc_text(tasks=[{"check": "hybe", "modules": ["H"]}]))


def test_task_results_resolve_in_document_order():
    data = json.loads(json.dumps(MINIMAL))
    data["tasks"] = [
        {
            "name": "make",
            "twist": "bialgebra",
            "source": "H",
            "alpha": [["1", "0"], ["0", "1"]],
            "result": "H2",
        },
        {"name": "use", "check": "hom_bialgebra", "target": "H2"},
    ]
    doc = parse_spec(json.dumps(data))
    assert len(doc.tasks) == 2
    # referencing the result before its construction fails
    data["tasks"] = list(reversed(data["tasks"]))
    with pytest.raises(SpecFileError, match="H2"):
        parse_spec(json.dumps(data))


def test_kind_mismatch_for_over_reference():
    data = json.loads(json.dumps(MINIMAL))
    data["structures"]["M"] = {
        "kind": "module",
        "over": "M",
        "dim": 1,
        "act": [[["1"]]],
    }
    with pytest.raises(SpecFileError, match="undefined structure"):
        parse_spec(json.dumps(data))


def test_meta_block_survives_round_trip():
    doc = parse_spec(doc_text(meta={"description": "tiny"}))
    assert doc.meta == {"description": "tiny"}
    assert json.loads(serialize_spec(doc))["meta"] == {"description": "tiny"}


def test_non_string_names_in_tasks_are_refused():
    # a list where a name belongs must be refused, not break the table lookup
    for task in (
        {"check": "hom_bialgebra", "target": ["H"]},
        {"check": ["hom_bialgebra"], "target": "H"},
        {"tensor": "modules", "operands": [["H"], "H"]},
    ):
        with pytest.raises(SpecFileError):
            parse_spec(doc_text(tasks=[task]))


def test_task_table_names_only_known_kinds():
    from homyd.runner import TASKS
    from homyd.specfile import HEADS, STRUCTURE_KINDS

    for (head, _), entry in TASKS.items():
        assert head in HEADS
        assert entry.result is None or entry.result in STRUCTURE_KINDS
        for _, count, kinds in entry.slots:
            assert count is None or count >= 1
            assert set(kinds) <= set(STRUCTURE_KINDS)


@pytest.mark.parametrize(
    "alpha, detail",
    [
        ([["x", "0"], ["0", "1"]], "'x'"),  # not a field literal
        ([["1", "0"], ["0", 1]], "strings"),  # not a string
        ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "expected 2 rows"),  # H has dim 2
        ([["1"]], "expected 2 rows"),
        ([["1", "0"], ["0"]], "expected 2 columns"),  # not square
    ],
)
def test_twist_matrix_is_refused_at_parse_time(alpha, detail):
    task = {"name": "tw", "twist": "bialgebra", "source": "H", "alpha": alpha, "result": "H2"}
    with pytest.raises(SpecFileError, match=detail) as exc:
        parse_spec(doc_text(tasks=[task]))
    assert "'tw'" in str(exc.value)


def test_twist_matrix_of_a_construction_result_is_checked_for_literals():
    # the size of a result is known only at run time; its literals are not
    make = {"name": "make", "twist": "bialgebra", "source": "H",
            "alpha": [["1", "0"], ["0", "1"]], "result": "H2"}
    again = {"name": "again", "twist": "bialgebra", "source": "H2",
             "alpha": [["1", "0"], ["0", "y"]], "result": "H3"}
    with pytest.raises(SpecFileError, match="'again'.*'y'|'y'.*'again'"):
        parse_spec(doc_text(tasks=[make, again]))
    again["alpha"] = [["1"]]
    assert len(parse_spec(doc_text(tasks=[make, again])).tasks) == 2


SUITES = pathlib.Path(__file__).parents[1] / "suites"


def _exit_and_error(tmp_path, capsys, data):
    from homyd.cli import main

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(data))
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    return code, captured.err


@pytest.mark.parametrize("over", [[], {}, ["H"], 7])
def test_non_string_over_is_refused(tmp_path, capsys, over):
    # a list or object where the base's name belongs is refused with the
    # structure's name, not a TypeError from the name lookup
    data = json.loads((SUITES / "standard_gf7.json").read_text())
    data["structures"]["M"]["over"] = over
    code, err = _exit_and_error(tmp_path, capsys, data)
    assert code == 2
    assert err.startswith("error: ") and "'M'" in err


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("hexagons_tilde", "flavour", "tilde"),  # misspelled: would run the hat flavor
        ("c5_yd_a", "flavor", "tilde"),  # yd checks take no flavor
        ("c5_yd_a", "result", "Y"),  # only constructions register a result
        ("twist_c3", "alpha_m", [["1"]]),  # a bialgebra twist takes one matrix
        ("hat_ab", "modules", ["A", "B"]),  # a tensor names its operands
    ],
)
def test_unknown_task_keys_are_refused(tmp_path, capsys, name, key, value):
    data = json.loads((SUITES / "standard_rational.json").read_text())
    task = next(t for t in data["tasks"] if t["name"] == name)
    task[key] = value
    code, err = _exit_and_error(tmp_path, capsys, data)
    assert code == 2
    assert f"'{name}'" in err and f"unexpected keys ['{key}']" in err


def test_every_shipped_task_uses_only_known_keys():
    for path in sorted(SUITES.glob("*.json")):
        if path.stem != "malformed":
            assert parse_spec(path.read_text()).tasks
