"""The apply step of ``tools/mutants.py``: every checked-in mutant matches its
file exactly once and is written to a copy, never to the working tree.  The
harness itself, which runs the tests once per mutant, stays out of this suite."""

import importlib.util
import pathlib
import shutil

import pytest

ROOT = pathlib.Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_mutants_have_distinct_names_and_real_changes():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names)) >= 12
    assert all(m.snippet and m.snippet != m.replacement and m.family for m in mutants.MUTANTS)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_to_a_copy_only(tmp_path, mutant):
    source = ROOT / mutant.file
    before = source.read_bytes()
    copy = tmp_path / mutant.file
    copy.parent.mkdir(parents=True)
    shutil.copyfile(source, copy)
    original = mutants.apply(tmp_path, mutant)
    assert original == before.decode("utf-8")
    assert copy.read_text(encoding="utf-8") == original.replace(
        mutant.snippet, mutant.replacement)
    assert copy.read_text(encoding="utf-8") != original
    assert source.read_bytes() == before


@pytest.mark.parametrize("text, count", [("a = 1\n", 0), ("x = 1\nx = 1\n", 2)])
def test_a_snippet_that_does_not_match_exactly_once_is_refused(tmp_path, text, count):
    (tmp_path / "m.py").write_text(text, encoding="utf-8")
    mutant = mutants.Mutant("m", "f", "m.py", "x = 1\n", "x = 2\n")
    with pytest.raises(ValueError, match=f"snippet occurs {count} times in m.py"):
        mutants.apply(tmp_path, mutant)
    assert (tmp_path / "m.py").read_text(encoding="utf-8") == text


def test_the_working_tree_is_never_mutated():
    mutant = mutants.MUTANTS[0]
    before = (ROOT / mutant.file).read_bytes()
    with pytest.raises(ValueError, match="never to the tree"):
        mutants.apply(ROOT, mutant)
    assert (ROOT / mutant.file).read_bytes() == before
