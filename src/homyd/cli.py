"""Batch front end.

    homyd check <file> [--json PATH]
    homyd report <file> --json PATH
    homyd example <name> <params...> [--emit PATH]

Exit status: 0 when every task passes, 1 when any task fails or is
inapplicable, 2 for malformed files, usage errors and work over the limits
of ``linmap``.  Identical inputs yield byte-identical JSON reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import HomydError, SpecFileError
from .fields import RATIONALS, FieldValueError, PrimeField
from .runner import bundle_to_json, bundle_to_table, run_tasks
from .specfile import SpecDocument, Task, parse_spec, serialize_spec


def _field_param(token: str):
    if token == "rational":
        return RATIONALS
    if token.isdigit():
        return PrimeField(int(token))
    raise SpecFileError(f"field parameter must be 'rational' or a prime, got {token!r}")


# The generators import ``fixtures`` when they run: ``check`` and ``report``
# never build a fixture, and skip its import.
def _order_param(token: str) -> int:
    """The group order n of a generator, refused outside 1..``MAX_ORDER`` before any build."""
    from .fixtures import MAX_ORDER
    n = int(token)
    if n < 1:
        raise SpecFileError(f"n must be at least 1, got {n}")
    if n > MAX_ORDER:
        raise SpecFileError(f"n = {n} exceeds the largest example order {MAX_ORDER}")
    return n


def _example_cyclic_endo_twist(params):
    from .fixtures import cyclic_endo_twist
    n, k = _order_param(params[0]), int(params[1])
    field = _field_param(params[2]) if len(params) > 2 else RATIONALS
    h = cyclic_endo_twist(n, k, field)
    note = "invertible" if h.alpha.is_invertible() else "not invertible"
    return (
        field,
        {"H": h},
        [{"name": "bialgebra_laws", "check": "hom_bialgebra", "target": "H"}],
        {"generator": f"cyclic_endo_twist({n}, {k})", "alpha": note},
    )


def _example_conjugation_yd(params):
    from .fixtures import conjugation_yd, group_by_name, inner_automorphism
    group = group_by_name(params[0])
    t = int(params[1])
    field = _field_param(params[2]) if len(params) > 2 else RATIONALS
    yd = conjugation_yd(group, inner_automorphism(group, t), field)
    return (
        field,
        {"H": yd.over, "Y": yd},
        [{"name": "yd_laws", "check": "yd", "target": "Y"}],
        {"generator": f"conjugation_yd({group.name}, inner by {t})"},
    )


def _example_cyclic_graded_yd(params):
    from .fixtures import cyclic_graded_yd
    n, k, grade = _order_param(params[0]), int(params[1]), int(params[2])
    field = _field_param(params[3]) if len(params) > 3 else RATIONALS
    yd = cyclic_graded_yd(n, k, grade, field)
    return (
        field,
        {"H": yd.over, "Y": yd},
        [{"name": "yd_laws", "check": "yd", "target": "Y"}],
        {"generator": f"cyclic_graded_yd({n}, {k}, {grade})"},
    )


def _example_cyclic_r_matrix(params):
    from .fixtures import cyclic_r_matrix
    n = _order_param(params[0])
    field = _field_param(params[1])
    omega = field.parse(params[2])
    k = int(params[3])
    base, r = cyclic_r_matrix(n, field, omega, k)
    return (
        field,
        {"H": base, "R": r},
        [
            {"name": "qt_laws", "check": "qt", "target": "R"},
            {"name": "r_invariance", "check": "r_invariance", "target": "R"},
        ],
        {"generator": f"cyclic_r_matrix({n}, {field.descriptor}, {params[2]}, {k})"},
    )


def _example_cyclic_bicharacter_sigma(params):
    from .fixtures import cyclic_bicharacter_sigma
    n, p = _order_param(params[0]), int(params[1])
    omega, k = int(params[2]), int(params[3])
    base, s = cyclic_bicharacter_sigma(n, p, omega, k)
    field = base.field
    return (
        field,
        {"H": base, "S": s},
        [
            {"name": "cqt_laws", "check": "cqt", "target": "S"},
            {"name": "sigma_invariance", "check": "sigma_invariance", "target": "S"},
        ],
        {"generator": f"cyclic_bicharacter_sigma({n}, {p}, {omega}, {k})"},
    )


EXAMPLES = {
    "cyclic_endo_twist": (_example_cyclic_endo_twist, "n k [rational|p]"),
    "conjugation_yd": (_example_conjugation_yd, "group t [rational|p]"),
    "cyclic_graded_yd": (_example_cyclic_graded_yd, "n k grade [rational|p]"),
    "cyclic_r_matrix": (_example_cyclic_r_matrix, "n rational|p omega k"),
    "cyclic_bicharacter_sigma": (_example_cyclic_bicharacter_sigma, "n p omega k"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homyd",
        description="Exact verification of Hom-bialgebras, Yetter-Drinfeld "
        "modules and their braidings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="structure file to run")
        p.add_argument("--json", metavar="PATH", help="write the machine report here")

    common(sub.add_parser("check", help="run all tasks and print a table"))
    report = sub.add_parser("report", help="run all tasks, machine report only")
    common(report)

    example = sub.add_parser("example", help="generate a certified fixture file")
    example.add_argument("generator", choices=sorted(EXAMPLES))
    example.add_argument("params", nargs="*", help="integer parameters")
    example.add_argument("--emit", metavar="PATH", help="write the fixture here")
    return parser


def _run_file(args, quiet: bool) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        doc = parse_spec(text)
        bundle = run_tasks(doc)
        report = bundle_to_json(bundle, doc.field) if args.json else None
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json and not _write(args.json, json.dumps(report, indent=2) + "\n"):
        return 2
    if not quiet:
        print(bundle_to_table(bundle))
    return bundle.exit_code()


def _run_example(args) -> int:
    builder, usage = EXAMPLES[args.generator]
    try:
        if len(args.params) > len(usage.split()):
            raise IndexError("too many parameters")
        field, structures, tasks, meta = builder(args.params)
    except (HomydError, FieldValueError, IndexError, ValueError) as exc:
        detail = exc if not isinstance(exc, IndexError) else f"expected parameters: {usage}"
        print(f"error: {args.generator}: {detail}", file=sys.stderr)
        return 2
    doc = SpecDocument(
        field,
        structures,
        [Task(t.get("name", f"task{i}"), t) for i, t in enumerate(tasks)],
        meta,
    )
    text = serialize_spec(doc)
    if not args.emit:
        sys.stdout.write(text)
    elif not _write(args.emit, text):
        return 2
    return 0


def _write(path, text) -> bool:
    """Write ``text`` to ``path``; on failure print the error and return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "check":
        return _run_file(args, quiet=False)
    if args.command == "report":
        if not args.json:
            print("error: report requires --json PATH", file=sys.stderr)
            return 2
        return _run_file(args, quiet=True)
    return _run_example(args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
