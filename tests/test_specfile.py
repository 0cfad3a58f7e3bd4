import itertools
import json
import pathlib
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from homyd.errors import SpecFileError
from homyd.fields import PrimeField, RATIONALS
from homyd.fixtures import cyclic_graded_yd
from homyd.specfile import SpecDocument, parse_spec, serialize_spec
from homyd.structures import HomAlgebra

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


# One structure of every kind with pairwise distinct constants, and carriers
# (dim 3) of another dimension than their bases (dim 2), so that any
# transposed or permuted reading of an array changes some entry.
LAYOUT = {
    "field": "rational",
    "structures": {
        "A": {"kind": "algebra", "dim": 2,
              "mu": [[["1", "2"], ["3", "4"]], [["5", "6"], ["7", "8"]]],
              "alpha": [["2", "3"], ["5", "7"]]},
        "C": {"kind": "coalgebra", "dim": 2,
              "delta": [[["-1", "-2"], ["-3", "-4"]], [["-5", "-6"], ["-7", "-8"]]]},
        "H": {"kind": "bialgebra", "dim": 2,
              "mu": [[["1/2", "2"], ["-3", "4/3"]], [["5", "-6/5"], ["7", "8"]]],
              "delta": [[["9", "10"], ["11", "12"]], [["13", "14"], ["15", "16"]]],
              "alpha": [["1", "1/2"], ["-1", "3"]]},
        "M": {"kind": "module", "over": "A", "dim": 3,
              "act": [[["11", "12", "13"], ["14", "15", "16"], ["17", "18", "19"]],
                      [["20", "21", "22"], ["23", "24", "25"], ["26", "27", "28"]]]},
        "N": {"kind": "comodule", "over": "C", "dim": 3,
              "coact": [[["31", "32", "33"], ["34", "35", "36"]],
                        [["37", "38", "39"], ["40", "41", "42"]],
                        [["43", "44", "45"], ["46", "47", "48"]]]},
        "Y": {"kind": "yd_module", "over": "H", "dim": 3,
              "act": [[["51", "52", "53"], ["54", "55", "56"], ["57", "58", "59"]],
                      [["60", "61", "62"], ["63", "64", "65"], ["66", "67", "68"]]],
              "coact": [[["71", "72", "73"], ["74", "75", "76"]],
                        [["77", "78", "79"], ["80", "81", "82"]],
                        [["83", "84", "85"], ["86", "87", "88"]]],
              "alpha": [["91", "92", "93"], ["94", "95", "96"], ["97", "98", "99"]]},
        "R": {"kind": "r_element", "over": "H", "matrix": [["1", "2/3"], ["-4", "5"]]},
        "S": {"kind": "sigma_form", "over": "H", "matrix": [["6", "-7"], ["8/5", "9"]]},
    },
    "tasks": [],
}


def test_file_layout_of_every_kind():
    text = json.dumps(LAYOUT, indent=2) + "\n"
    doc = parse_spec(text)
    assert serialize_spec(doc) == text
    raw, s, q = LAYOUT["structures"], doc.structures, RATIONALS.parse
    two, three = range(2), range(3)
    # e_i e_j = sum_k mu[i][j][k] e_k
    for name in ("A", "H"):
        for i, j, k in itertools.product(two, two, two):
            assert s[name].mu.entries[k, 2 * i + j] == q(raw[name]["mu"][i][j][k])
    # delta(e_i) = sum_{j,k} delta[i][j][k] e_j⊗e_k
    for name in ("C", "H"):
        for i, j, k in itertools.product(two, two, two):
            assert s[name].delta.entries[2 * j + k, i] == q(raw[name]["delta"][i][j][k])
    # e_i · f_m = sum_n act[i][m][n] f_n
    for name in ("M", "Y"):
        for i, m, n in itertools.product(two, three, three):
            assert s[name].act.entries[n, 3 * i + m] == q(raw[name]["act"][i][m][n])
    # coact(f_m) = sum_{i,n} coact[m][i][n] e_i⊗f_n
    for name in ("N", "Y"):
        for m, i, n in itertools.product(three, two, three):
            assert s[name].coact.entries[3 * i + n, m] == q(raw[name]["coact"][m][i][n])
    # a structure map is stored as rows: column j is the image of e_j
    for name in ("A", "H", "Y"):
        rows = [[q(x) for x in row] for row in raw[name]["alpha"]]
        assert s[name].alpha.entries.tolist() == rows
    for name in ("C", "M", "N"):
        assert s[name].alpha.is_identity()
    # R = sum R[i][j] e_i⊗e_j and sigma(e_i⊗e_j) = matrix[i][j]
    for i, j in itertools.product(two, two):
        assert s["R"].element.entries[2 * i + j, 0] == q(raw["R"]["matrix"][i][j])
        assert s["S"].form.entries[0, 2 * i + j] == q(raw["S"]["matrix"][i][j])


def test_round_trip_on_shipped_suites():
    import pathlib

    for name in ("standard_rational.json", "standard_gf7.json", "standard_gf11.json"):
        path = pathlib.Path(__file__).parents[1] / "suites" / name
        canonical = serialize_spec(parse_spec(path.read_text()))
        assert serialize_spec(parse_spec(canonical)) == canonical


def test_a_structure_without_its_base_is_not_serialized():
    y = cyclic_graded_yd(3, 2, 1, RATIONALS)
    with pytest.raises(SpecFileError, match="structure 'Y' sits over a HomBialgebra"):
        serialize_spec(SpecDocument(RATIONALS, {"Y": y}, []))
    # a base listed after the structure would be an undefined reference
    with pytest.raises(SpecFileError, match="structure 'Y'"):
        serialize_spec(SpecDocument(RATIONALS, {"Y": y, "H": y.over}, []))


def test_a_structure_round_trips_with_its_base_listed():
    y = cyclic_graded_yd(3, 2, 1, RATIONALS)
    text = serialize_spec(SpecDocument(RATIONALS, {"H": y.over, "Y": y}, []))
    assert json.loads(text)["structures"]["Y"]["over"] == "H"
    doc = parse_spec(text)
    again = doc.structures["Y"]
    assert again.over is doc.structures["H"]
    assert (again.act, again.coact, again.alpha) == (y.act, y.coact, y.alpha)
    assert serialize_spec(doc) == text


def test_a_base_is_matched_by_equal_maps_for_every_kind():
    # the module's algebra is not in the document, an equal copy is
    doc = parse_spec(json.dumps(LAYOUT))
    module, algebra = doc.structures["M"], doc.structures["A"]
    copy = HomAlgebra(algebra.mu, algebra.alpha)
    text = serialize_spec(SpecDocument(RATIONALS, {"B": copy, "M": module}, []))
    assert json.loads(text)["structures"]["M"]["over"] == "B"
    assert parse_spec(text).structures["M"].act == module.act
    # the base itself is matched before an equal one listed earlier
    text = serialize_spec(SpecDocument(RATIONALS, {"B": copy, "A": algebra, "M": module}, []))
    assert json.loads(text)["structures"]["M"]["over"] == "A"
    # an algebra with another structure map is no match
    other = HomAlgebra(algebra.mu, algebra.alpha.power(2))
    with pytest.raises(SpecFileError, match="structure 'M' sits over a HomAlgebra"):
        serialize_spec(SpecDocument(RATIONALS, {"B": other, "M": module}, []))


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


def test_each_distinct_literal_is_parsed_once_per_document():
    data = json.loads(json.dumps(MINIMAL))
    data["field"] = "prime:5"
    with mock.patch.object(PrimeField, "parse", autospec=True,
                           side_effect=PrimeField.parse) as parse:
        for _ in range(2):
            parse_spec(json.dumps(data))
    assert sorted(c.args[1] for c in parse.call_args_list) == ["0", "0", "1", "1"]
    # a refused literal is never kept: each of its places is refused by path
    data["structures"]["H"]["delta"][1][1] = ["0", "7"]
    with pytest.raises(SpecFileError, match=r"non-reduced residue 7 .* at H\.delta\[1\]\[1\]\[1\]$"):
        parse_spec(json.dumps(data))
    data["structures"]["H"]["mu"][1][0] = ["7", "1"]
    with pytest.raises(SpecFileError, match=r"non-reduced residue 7 .* at H\.mu\[1\]\[0\]\[0\]$"):
        parse_spec(json.dumps(data))


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


def test_gen_suites_regenerates_the_shipped_suites(tmp_path, monkeypatch, capsys):
    import importlib.util

    path = SUITES.parent / "tools" / "gen_suites.py"
    spec = importlib.util.spec_from_file_location("gen_suites", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "OUT", tmp_path)
    gen.main()
    capsys.readouterr()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in SUITES.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (SUITES / name).read_bytes(), name


def test_gen_inputs_regenerates_the_golden_dense_input(tmp_path, monkeypatch):
    # the benchmark's input generator builds its files through the public
    # fixture API; seed 1 must still give the golden dense_q3 input
    import importlib.util

    monkeypatch.setattr(sys, "path", list(sys.path))  # generate() prepends src/
    path = SUITES.parent / "perfbench" / "gen_inputs.py"
    spec = importlib.util.spec_from_file_location("gen_inputs", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.generate("dense_transport", 1, tmp_path)
    golden = SUITES.parent / "tests" / "golden" / "inputs" / "dense_q3.json"
    assert (tmp_path / "dense_q3.json").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("suite", ["standard_gf7", "standard_rational"])
def test_overlong_scalar_literal_is_refused(tmp_path, capsys, suite):
    # longer than Python's int-string limit: refused, not a ValueError
    data = json.loads((SUITES / f"{suite}.json").read_text())
    name = next(n for n, s in data["structures"].items() if "mu" in s)
    data["structures"][name]["mu"][0][0][0] = "1" * 5000
    code, err = _exit_and_error(tmp_path, capsys, data)
    assert code == 2
    assert err.startswith("error: ") and f"{name}.mu[0][0][0]" in err


@pytest.mark.parametrize(
    "modulus",
    [
        "9" * 5000,  # beyond the int-string limit
        str(2**89 - 1),  # prime, but beyond the exact primality test
        str((2**31 - 1) ** 2),  # composite, no factor below 2^31
    ],
    ids=["5000_digits", "mersenne_89", "square_of_mersenne_31"],
)
def test_unusable_modulus_is_refused_quickly(tmp_path, capsys, modulus):
    import time

    start = time.perf_counter()
    code, err = _exit_and_error(tmp_path, capsys, {**MINIMAL, "field": "prime:" + modulus})
    assert time.perf_counter() - start < 5
    assert code == 2 and err.startswith("error: ") and "modulus" in err


def test_large_prime_modulus_is_accepted_quickly(tmp_path, capsys):
    import time

    start = time.perf_counter()
    code, _ = _exit_and_error(tmp_path, capsys, {**MINIMAL, "field": f"prime:{2**61 - 1}"})
    assert time.perf_counter() - start < 5
    assert code == 0


_FIELDS = ["rational", "prime:5", "prime:7"]


@st.composite
def documents(draw):
    """A document with one structure of every kind: random small dims, random
    constants (fractions over Q, residues over GF(p)) and optional alphas."""
    field = draw(st.sampled_from(_FIELDS))
    if field == "rational":
        scalar = st.builds(lambda n, d: f"{n}/{d}" if d > 1 else str(n),
                           st.integers(-9, 9), st.integers(1, 4))
    else:
        scalar = st.integers(0, int(field[6:]) - 1).map(str)

    def array(*dims):
        if not dims:
            return draw(scalar)
        return [array(*dims[1:]) for _ in range(dims[0])]

    h = draw(st.integers(1, 2))

    def carrier(kind, dim, **maps):
        out = {"kind": kind, "dim": dim, **maps}
        if draw(st.booleans()):
            out["alpha"] = array(dim, dim)
        return out

    m, n, y = (draw(st.integers(1, 3)) for _ in range(3))
    structures = {
        "A": carrier("algebra", h, mu=array(h, h, h)),
        "C": carrier("coalgebra", h, delta=array(h, h, h)),
        "H": carrier("bialgebra", h, mu=array(h, h, h), delta=array(h, h, h)),
        "M": {**carrier("module", m, act=array(h, m, m)),
              "over": draw(st.sampled_from(["A", "H"]))},
        "N": {**carrier("comodule", n, coact=array(n, h, n)),
              "over": draw(st.sampled_from(["C", "H"]))},
        "Y": {**carrier("yd_module", y, act=array(h, y, y), coact=array(y, h, y)),
              "over": "H"},
        "R": {"kind": "r_element", "over": "H", "matrix": array(h, h)},
        "S": {"kind": "sigma_form", "over": "H", "matrix": array(h, h)},
    }
    return {"field": field, "structures": structures, "tasks": []}


_MAPS = ("mu", "delta", "act", "coact", "element", "form", "alpha")


@settings(max_examples=60)
@given(documents())
def test_parse_serialize_parse_is_the_identity(data):
    first = parse_spec(json.dumps(data))
    text = serialize_spec(first)
    second = parse_spec(text)
    assert serialize_spec(second) == text
    assert list(second.structures) == list(first.structures)
    for name, obj in first.structures.items():
        again = second.structures[name]
        assert type(again) is type(obj)
        for attr in _MAPS:
            assert getattr(again, attr, None) == getattr(obj, attr, None), (name, attr)
