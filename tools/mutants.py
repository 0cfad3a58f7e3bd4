#!/usr/bin/env python3
"""Apply each checked-in mutant to a copy of the tree and run the tests on it.

    python3 tools/mutants.py [--only NAME ...] [--timeout 300] [-- PYTEST_ARGS ...]

A mutant is one exact source snippet of one file, the text that replaces it,
and the law family it should break (``MUTANTS`` below).  The tree is copied
once into a temporary directory, without ``.git``, caches or benchmark
outputs; the working tree is only read.  The pytest selection (by default
``tests``) first runs on the unmutated copy, which must pass.  Then, for
each mutant, the snippet is replaced in the copy, the selection runs with
``-x`` under the timeout, and the file is restored.  A mutant is "killed"
when pytest fails or times out, and "survived" when it passes.  A snippet
that does not occur exactly once is an error, so the list cannot go stale
silently.  The last line gives the kill score.  Only the standard library
is used; the harness is not part of the test suite, but
``tests/test_mutants.py`` checks that every snippet applies.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    family: str
    file: str
    snippet: str
    replacement: str


LINMAP, RUNNER, CLI = "src/homyd/linmap.py", "src/homyd/runner.py", "src/homyd/cli.py"
STRUCTURES, YD = "src/homyd/structures.py", "src/homyd/yd.py"
FIXTURES, FIELDS = "src/homyd/fixtures.py", "src/homyd/fields.py"

MUTANTS = [
    # the work limits of compose and tensor, and the runner's handling of them
    Mutant("compose-limit-dropped", "work limits", LINMAP,
           "        _check_work(*work)\n        if (g.nrows * g.ncols <= DENSE_BLOCK\n",
           "        if (g.nrows * g.ncols <= DENSE_BLOCK\n"),
    Mutant("tensor-limit-dropped", "work limits", LINMAP,
           "        _check_work(*work)\n        rows = (f.rows[:, None]",
           "        rows = (f.rows[:, None]"),
    Mutant("products-limit-inclusive", "work limits", LINMAP,
           "if products > MAX_PRODUCTS or", "if products >= MAX_PRODUCTS or"),
    Mutant("stored-limit-inclusive", "work limits", LINMAP,
           "or stored > MAX_STORED:", "or stored >= MAX_STORED:"),
    Mutant("stored-from-products-alone", "work limits", LINMAP,
           "products, min(products, g.nrows * f.ncols)\n", "products, products\n"),
    Mutant("compose-limit-after-dense-route", "work limits", LINMAP,
           "        _check_work(*work)\n"
           "        if (g.nrows * g.ncols <= DENSE_BLOCK\n"
           "                and products >= DENSE_FILL * g.nrows * f.ncols\n"
           "                and g.ncols * _magnitude(g) * _magnitude(f) < _EXACT):\n"
           "            return _dense_compose(g, f), work\n",
           "        if (g.nrows * g.ncols <= DENSE_BLOCK\n"
           "                and products >= DENSE_FILL * g.nrows * f.ncols\n"
           "                and g.ncols * _magnitude(g) * _magnitude(f) < _EXACT):\n"
           "            return _dense_compose(g, f), work\n"
           "        _check_work(*work)\n"),
    Mutant("tensor-limit-after-allocation", "work limits", LINMAP,
           "        _check_work(*work)\n"
           "        rows = (f.rows[:, None] * g.nrows + g.rows[None, :]).ravel()\n"
           "        cols = (f.cols[:, None] * g.ncols + g.cols[None, :]).ravel()\n",
           "        rows = (f.rows[:, None] * g.nrows + g.rows[None, :]).ravel()\n"
           "        cols = (f.cols[:, None] * g.ncols + g.cols[None, :]).ravel()\n"
           "        _check_work(*work)\n"),
    Mutant("runner-folds-limit-into-inapplicable", "refusals", RUNNER,
           '        raise SpecFileError(f"task {task.name!r}: {exc}") from None\n',
           "        return _inapplicable(task, str(exc)), {}\n"),
    Mutant("example-order-below-one", "refusals", CLI,
           "    if n < 1:\n"
           '        raise SpecFileError(f"n must be at least 1, got {n}")\n', ""),
    Mutant("empty-group-by-name", "refusals", FIXTURES,
           "        if order(n) < 1:\n"
           '            raise ShapeError(f"n must be at least 1, got {n}")\n', ""),
    Mutant("fixtures-imported-eagerly", "cli imports", CLI,
           "from .specfile import SpecDocument, Task, parse_spec, serialize_spec\n",
           "from .specfile import SpecDocument, Task, parse_spec, serialize_spec\n"
           "from . import fixtures  # noqa: F401\n"),
    Mutant("example-extra-parameters", "refusals", CLI,
           "        if len(args.params) > len(usage.split()):\n"
           '            raise IndexError("too many parameters")\n', ""),
    # index maps with factor dims, and the group-algebra fixtures built from them
    Mutant("basis-range-from-domain", "index maps", LINMAP,
           "        m = _size(cod)\n", "        m = _size(dom)\n"),
    Mutant("basis-dims-by-truthiness", "index maps", LINMAP,
           "        dom = (n,) if dom is None else _as_dims(dom)\n"
           "        cod = (n,) if cod is None else _as_dims(cod)\n",
           "        dom = _as_dims(dom) if dom else (n,)\n"
           "        cod = _as_dims(cod) if cod else (n,)\n"),
    # a transposed table is the product of the opposite group: only s3 tells
    Mutant("mu-transposed-cayley", "index maps", FIXTURES,
           "[t[g][h] for g in range(n) for h in range(n)]",
           "[t[h][g] for g in range(n) for h in range(n)]"),
    Mutant("conjugation-inverse-first", "index maps", FIXTURES,
           "[t[t[h][m]][group.inverse(h)] for h", "[t[t[group.inverse(h)][m]][h] for h"),
    Mutant("graded-coaction-without-mod", "index maps", FIXTURES,
           "(grade * m) % n * n + m", "grade * m * n + m"),
    Mutant("inverses-are-identities", "index maps", FIXTURES,
           "tuple(row.index(e) for row in t)", "tuple(range(n))"),
    # the exact float64 kernel of compose
    Mutant("dense-bound-without-n", "dense compose", LINMAP,
           "and g.ncols * _magnitude(g) * _magnitude(f) < _EXACT",
           "and _magnitude(g) * _magnitude(f) < _EXACT"),
    Mutant("dense-bound-2^54", "dense compose", LINMAP, "_EXACT = 2**53", "_EXACT = 2**54"),
    Mutant("dense-float32", "dense compose", LINMAP,
           "block = (outer @ inner).astype(np.int64).T",
           "block = (outer.astype(np.float32) @ inner.astype(np.float32)).astype(np.int64).T"),
    Mutant("dense-no-reduce", "dense compose", LINMAP,
           "    if not p:\n        out._reduce()\n    return out\n\n\ndef _eliminate",
           "    return out\n\n\ndef _eliminate"),
    Mutant("dense-residues-unreduced", "dense compose", LINMAP,
           "        if p:\n            block %= p\n", ""),
    Mutant("dense-lost-column-offset", "dense compose", LINMAP,
           "cols.append(c + c0)", "cols.append(c)"),
    Mutant("dense-blocks-over-budget", "dense compose", LINMAP,
           "width = DENSE_BLOCK // (g.nrows * k)", "width = 2 * DENSE_BLOCK // (g.nrows * k)"),
    Mutant("dense-magnitude-without-abs", "dense compose", LINMAP,
           "max(map(abs, m.values.tolist()), default=1)", "max(m.values.tolist(), default=1)"),
    # int64 residues over GF(p) with p < 2^31: reduced before they are summed,
    # stored unboxed, and leaving linmap as Python ints
    Mutant("sorted-products-unreduced", "int64 residues", LINMAP,
           "                prod %= field.p\n", "                pass\n"),
    Mutant("int64-bound-2^32", "int64 residues", FIELDS,
           "INT64_MODULUS = 2**31", "INT64_MODULUS = 2**32"),
    Mutant("dense-boxed-to-object", "int64 residues", LINMAP,
           "np.concatenate(vals).astype(g.field.dtype, copy=False)",
           "np.concatenate(vals).astype(object)"),
    Mutant("column-scalars-unboxed", "int64 residues", LINMAP,
           "self._scalars(self.values[lo:hi]).tolist()", "self._scalars(self.values[lo:hi])"),
    # the sparse kernels: one block of products, and sorts without summing
    Mutant("compose-always-one-block", "sparse kernels", LINMAP,
           "if products <= COMPOSE_BLOCK:", "if True:"),
    # for the tensor of one-factor maps, the stride of g's rows alone
    Mutant("sort-stride-last-factor", "sparse kernels", LINMAP,
           "order = np.argsort(cols * _size(cod) + rows)",
           "order = np.argsort(cols * cod[-1] + rows)"),
    Mutant("permute-codomain-unsorted", "sparse kernels", LINMAP,
           "build = self._make if self._column_single() else self._sorted",
           "build = self._make"),
    Mutant("permute-domain-unsorted", "sparse kernels", LINMAP,
           "return self._sorted(self.field, new_dom, self.cod,",
           "return self._make(self.field, new_dom, self.cod,"),
    Mutant("tensor-unreduced", "sparse kernels", LINMAP,
           "vals, den = self.field.reduce_array(np.multiply.outer(f.values, g.values).ravel(),\n"
           "                                            f.den * g.den)",
           "vals, den = np.multiply.outer(f.values, g.values).ravel(), f.den * g.den"),
    # the column-single route: one product per entry of the inner map, and
    # no sort where the stored order is already canonical
    Mutant("single-empty-column-unfiltered", "column-single", LINMAP,
           "        at, cols, vals = at[hit], cols[hit], vals[hit]\n", ""),
    Mutant("column-single-non-strict", "column-single", LINMAP,
           "(self.cols[1:] > self.cols[:-1]).all()", "(self.cols[1:] >= self.cols[:-1]).all()"),
    Mutant("tensor-unsorted-right-single", "column-single", LINMAP,
           "build = LinearMap._make if f._column_single() else LinearMap._sorted",
           "build = LinearMap._make if g._column_single() else LinearMap._sorted"),
    Mutant("single-compose-limit-dropped", "column-single", LINMAP,
           "    work = \"compose\", len(at), len(at)\n    _check_work(*work)\n",
           "    work = \"compose\", len(at), len(at)\n"),
    Mutant("single-products-unfiltered", "column-single", LINMAP,
           "    work = \"compose\", len(at), len(at)\n",
           "    work = \"compose\", len(f.rows), len(f.rows)\n"),
    # the one kernel of the braidings B and c, and its legs
    Mutant("kernel-alpha-h-uninverted", "braidings", YD,
           "tagged = alpha_h.inverse().tensor(", "tagged = alpha_h.tensor("),
    Mutant("c-m-leg-uninverted", "braidings", YD,
           "n.alpha.inverse() @ n.act, m.alpha.inverse(), m.over.alpha",
           "n.alpha.inverse() @ n.act, m.alpha, m.over.alpha"),
    # α_N^{-1}∘act_N turned into act_N∘α_N^{-1}, which does not compose: a
    # direct call raises ShapeError, but the CLI reports every task that builds
    # c as inapplicable, and among its tests only the golden reports notice
    Mutant("c-n-leg-swapped", "braidings", YD,
           "_yd_paired(n.alpha.inverse() @ n.act,", "_yd_paired(n.act @ n.alpha.inverse(),"),
    Mutant("hexagon-m-leg-uninverted", "hexagons", YD,
           "_yd_paired(act_np, m.alpha.inverse(),", "_yd_paired(act_np, m.alpha,"),
    Mutant("hexagon-factor-uninverted", "hexagons", YD,
           "return x.alpha.inverse().tensor(y.alpha.inverse())",
           "return x.alpha.tensor(y.alpha.inverse())"),
    Mutant("hexagon-factors-swapped", "hexagons", YD,
           "return x.alpha.inverse().tensor(y.alpha.inverse())",
           "return y.alpha.inverse().tensor(x.alpha.inverse())"),
    # the one run-scoped memo: its key rule, its guards and its lifetime
    Mutant("memo-keys-by-type", "memo", LINMAP,
           "        key = (fn, *args)\n", "        key = (fn, *map(type, args))\n"),
    Mutant("memo-key-without-fn", "memo", LINMAP,
           "        key = (fn, *args)\n", "        key = args\n"),
    Mutant("memo-hit-by-hash-alone", "memo", LINMAP,
           "        key = (fn, *args)\n", "        key = (fn, *map(hash, args))\n"),
    Mutant("memo-kept-after-run", "memo", LINMAP,
           "    finally:\n        _table = outer\n", "    finally:\n        pass\n"),
    Mutant("memo-keyword-calls", "memo", LINMAP,
           "if _table is None or kwargs or _over_cap(args):", "if _table is None or _over_cap(args):"),
    Mutant("memo-argument-cap-dropped", "memo", LINMAP,
           "if _table is None or kwargs or _over_cap(args):", "if _table is None or kwargs:"),
    Mutant("memo-result-cap-dropped", "memo", LINMAP,
           "        if not _over_cap(out if type(out) is tuple else (out,)):\n"
           "            _table[key] = out\n",
           "        _table[key] = out\n"),
    # a kernel returns its map in a tuple with its work
    Mutant("memo-result-cap-ignores-tuples", "memo", LINMAP,
           "_over_cap(out if type(out) is tuple else (out,))", "_over_cap((out,))"),
    Mutant("memo-hit-skips-compose-limits", "memo", LINMAP,
           "        out, work = self._compose(other)\n        _check_work(*work)",
           "        out, work = self._compose(other)\n        pass"),
    Mutant("memo-hit-skips-tensor-limits", "memo", LINMAP,
           "        out, work = self._tensor(other)\n        _check_work(*work)",
           "        out, work = self._tensor(other)\n        pass"),
    Mutant("build-not-memoised", "memo", STRUCTURES, "    build = memoised(build)\n", ""),
    Mutant("run-without-memo", "memo", RUNNER, "    with run_memo():\n", "    if True:\n"),
    Mutant("map-eq-without-shortcut", "memo", LINMAP,
           "        if other is self:\n            return True\n", ""),
    Mutant("map-key-without-field", "memo", LINMAP,
           "            self.field == other.field\n            and self.dom",
           "            self.dom"),
    Mutant("map-key-without-factors", "memo", LINMAP,
           "            and self.dom == other.dom\n            and self.cod == other.cod\n", ""),
    Mutant("structure-key-without-over", "memo", STRUCTURES,
           "self._hash = parts[0].field, parts, None", "self._hash = parts[0].field, maps + alpha, None"),
    Mutant("structure-key-without-alpha", "memo", STRUCTURES,
           "self._hash = parts[0].field, parts, None", "self._hash = parts[0].field, over + maps, None"),
    Mutant("serialized-base-equal-before-identical", "memo", "src/homyd/specfile.py",
           "            matches = ([n for n, other in earlier if other is obj.over]\n"
           "                       + [n for n, other in earlier if obj.over == other])\n",
           "            matches = [n for n, other in earlier if obj.over == other]\n"),
    # the verdicts of tools/bench_pairs.py
    Mutant("gain-without-iqr", "bench verdict", "tools/bench_pairs.py",
           "sign * (pm - cm) > p3 - p1", "sign * (pm - cm) > 0"),
    Mutant("gain-share-0.8", "bench verdict", "tools/bench_pairs.py",
           "GAIN_SHARE = 0.9", "GAIN_SHARE = 0.8"),
    Mutant("regression-bound-doubled", "bench verdict", "tools/bench_pairs.py",
           "if sign * (cm - pm) > bound * abs(pm):", "if sign * (cm - pm) > 2 * bound * abs(pm):"),
]


def apply(tree: pathlib.Path, mutant: Mutant) -> str:
    """Replace the mutant's snippet in its file under ``tree``, which must not
    be the working tree; returns the file's original text."""
    if tree.resolve() == ROOT:
        raise ValueError("mutants are applied to a copy of the tree, never to the tree")
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    return text


def _ignored(directory, names):
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    if pathlib.Path(directory).resolve() == ROOT / "perfbench":
        skip.add("out")
    return [n for n in names if n in skip or n.endswith(".egg-info")]


def _pytest(tree: pathlib.Path, selection, timeout) -> tuple[str, float]:
    """"passed", "failed" or "timeout" for the selection run in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    if proc.returncode == 5:
        raise SystemExit(f"the selection {selection} collects no tests")
    return ("passed" if proc.returncode == 0 else "failed"), time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    parser.add_argument("--timeout", type=float, default=TIMEOUT_S,
                        help=f"seconds per pytest run (default {TIMEOUT_S})")
    parser.add_argument("pytest_args", nargs="*", help="pytest selection (default: tests)")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if not args.only or m.name in args.only]
    if args.only and len(mutants) != len(set(args.only)):
        parser.error(f"unknown mutants: {sorted(set(args.only) - {m.name for m in MUTANTS})}")
    selection = args.pytest_args or ["tests"]
    with tempfile.TemporaryDirectory(prefix="homyd-mutants-") as tmp:
        tree = pathlib.Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_ignored)
        outcome, elapsed = _pytest(tree, selection, args.timeout)
        print(f"unmutated: {outcome} ({elapsed:.1f} s)", flush=True)
        if outcome != "passed":
            return 2
        killed = 0
        for m in mutants:
            original = apply(tree, m)
            try:
                outcome, elapsed = _pytest(tree, selection, args.timeout)
            finally:
                (tree / m.file).write_text(original, encoding="utf-8")
            status = "survived" if outcome == "passed" else "killed"
            killed += status == "killed"
            note = " (timeout)" if outcome == "timeout" else ""
            print(f"{status:8}  {m.name:40} {m.family:14} {elapsed:6.1f} s{note}", flush=True)
    print(f"kill score: {killed} of {len(mutants)} mutants killed")
    return 0 if killed == len(mutants) else 1


if __name__ == "__main__":
    raise SystemExit(main())
