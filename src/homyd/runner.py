"""Task execution: dispatch parsed tasks to the checkers and collect reports.

Every task kind is one entry of ``TASKS``; ``specfile`` validates tasks
against the same table that dispatches them here.  Tasks run one at a
time in document order, and constructions register their results for
later tasks.  ``run_tasks`` runs them inside ``structures.run_memo``, so
a carrier, braiding or certificate that several tasks need is built once
per document, and the memo is dropped when the run ends.  A construction
task calls the ``.build`` of a certifying constructor (see
``structures.constructor``) and reports the certification that it
returns; this module uses only the public names of the other layers.  A
task over an R element or a sigma form passes it to one ``quasitri``
check that serves both routes, so no task here names a route's braiding
or constructor.  A task whose preconditions fail (bad
hypotheses, non-bijective structure maps, a construction result that was
never registered) is reported as "inapplicable", which counts as
non-passing.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

from .errors import (
    InapplicableError,
    NotInvertibleError,
    PreconditionError,
    ShapeError,
    SpecFileError,
)
from .linmap import LinearMap
from .modules import check_comodule, check_module, tensor
from .quasitri import (
    check_cqt,
    check_induced_braidings,
    check_induced_hybe,
    check_qt,
    check_r_invariance,
    check_sigma_invariance,
    check_tensor_coincide,
)
from .reports import CheckReport, compare_maps
from .structures import (
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    require_bijective,
    run_memo,
    twist,
)
from .yd import (
    b_from_c,
    braiding_B,
    braiding_c,
    check_braid_implies_hybe,
    check_braid_relation_for,
    check_classical_yd,
    check_hexagons,
    check_hybe_for,
    check_pentagon,
    twist_yd,
    yd_suite,
)

if TYPE_CHECKING:
    from .specfile import SpecDocument, Task

# the default guard on the dimension of a structure that a file declares or
# a generator builds
MAX_DIM = 16

INAPPLICABLE_ERRORS = (
    InapplicableError,
    PreconditionError,
    NotInvertibleError,
    ShapeError,
)


@dataclass
class TaskResult:
    name: str
    kind: str
    status: str  # "pass" | "fail" | "inapplicable"
    report: CheckReport | None = None
    reason: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class ReportBundle:
    field_descriptor: str
    results: list

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def exit_code(self) -> int:
        return 0 if self.all_passed else 1


@dataclass(frozen=True)
class TaskKind:
    """One kind of task: what it references, how it runs, what it defines.

    ``slots`` holds ``(spec key, count, accepted structure kinds)`` per
    reference, where ``count`` is None for a single name and the list length
    otherwise.  ``run(spec, *resolved)`` receives each slot's structure (or
    list of structures) and returns a report, or ``(object, report)`` when
    ``result`` names the kind that the task's optional ``result`` registers.
    """

    slots: tuple
    run: Callable
    result: str | None = None
    # (spec key, facet) of each square matrix argument; it is as large as the
    # source's ``facet`` (the source itself when None)
    matrices: tuple = ()
    flavored: bool = False  # takes a "hat"/"tilde" flavor


def _matrix_arg(field, raw, dim, what):
    """A matrix argument that ``specfile`` validated as square with field
    literals; only a construction result's size is unknown before it runs."""
    if len(raw) != dim:
        raise ShapeError(f"{what} must be a {dim}x{dim} matrix of scalar strings")
    rows = [[field.parse(x) for x in row] for row in raw]
    return LinearMap.from_rows(field, (dim,), (dim,), rows)


def _check_yd(m):
    """The suite of a module in the Yetter-Drinfeld category, whose structure
    maps must be bijective."""
    require_bijective("the Yetter-Drinfeld category", base=m.over.alpha, carrier=m.alpha)
    return yd_suite(m)


def _bridge(m, n):
    c, certification = braiding_c.build(m, n)
    report = compare_maps(
        "bridge_b_equals_alpha_pair_after_c", braiding_B(m, n), b_from_c(c, m.alpha, n.alpha)
    )
    note = "c matrix invertible: " + ("yes" if c.is_invertible() else "no")
    return CheckReport.combine("bridge", [certification, report]).with_notes(note)


def _braid_implies_hybe(m, n, p):
    # the commutation gates presume morphisms: a braiding that fails its
    # certification is reported as such, not as an unmet hypothesis
    built = [braiding_c.build(m, n), braiding_c.build(m, p), braiding_c.build(n, p)]
    if not all(report.passed for _, report in built):
        return CheckReport.combine("braid_implies_hybe", [report for _, report in built])
    return check_braid_implies_hybe(*(c for c, _ in built), m.alpha, n.alpha, p.alpha)


def _twist_task(kind, build, matrices=(("alpha", None),)):
    """Twisting a ``kind`` source along the square matrices under the keys of
    ``matrices``, each as large as the source's facet (the source when None)."""
    def run(spec, source):
        return build(source, *(
            _matrix_arg(source.field, spec[key],
                        (getattr(source, facet) if facet else source).dim, key)
            for key, facet in matrices))
    return TaskKind((("source", None, (kind,)),), run, kind, matrices)


def _unary(kinds, check, facet=None):
    """A check of one target, or of its ``facet`` where it has one (the
    algebra of a bialgebra, the module of a Yetter-Drinfeld module)."""
    return TaskKind(
        (("target", None, kinds),), lambda spec, t: check(getattr(t, facet, t) if facet else t)
    )


def _on_yd(count, check, flavored=False):
    """A check over a list of Yetter-Drinfeld modules."""
    def run(spec, modules):
        return check(*modules, spec.get("flavor", "hat")) if flavored else check(*modules)
    return TaskKind((("modules", count, ("yd_module",)),), run, flavored=flavored)


def _induced(key, count, x, check):
    """A check over the (co)modules under ``key``, which an R element or a sigma
    form makes Yetter-Drinfeld; ``key`` is the plural of their kind."""
    return TaskKind(((key, count, (key[:-1],)), x),
                    lambda spec, carriers, inducing: check(*carriers, inducing))


def _binary(kind, build, x=(), result=None):
    """A task over two operands of one kind, plus an optional R element or sigma form."""
    return TaskKind(
        (("operands", 2, (kind,)),) + x, lambda spec, ops, *rest: build(*ops, *rest), result
    )


def _tensor_task(kind, flavor):
    """Two operands of one kind tensored in ``flavor``, registered as that kind."""
    return _binary(kind, partial(tensor.build, flavor), result=kind)


R = ("r", None, ("r_element",))
SIGMA = ("sigma", None, ("sigma_form",))

TASKS = {
    ("check", "hom_algebra"): _unary(("algebra", "bialgebra"), check_hom_algebra, "algebra"),
    ("check", "hom_coalgebra"): _unary(
        ("coalgebra", "bialgebra"), check_hom_coalgebra, "coalgebra"
    ),
    ("check", "hom_bialgebra"): _unary(("bialgebra",), check_hom_bialgebra),
    ("check", "module"): _unary(("module", "yd_module"), check_module, "module"),
    ("check", "comodule"): _unary(("comodule", "yd_module"), check_comodule, "comodule"),
    ("check", "yd"): _unary(("yd_module",), _check_yd),
    ("check", "classical_yd"): _unary(("yd_module",), check_classical_yd),
    ("check", "qt"): _unary(("r_element",), check_qt),
    ("check", "r_invariance"): _unary(("r_element",), check_r_invariance),
    ("check", "cqt"): _unary(("sigma_form",), check_cqt),
    ("check", "sigma_invariance"): _unary(("sigma_form",), check_sigma_invariance),
    ("check", "hybe"): _on_yd(3, check_hybe_for),
    ("check", "braid_relation"): _on_yd(3, check_braid_relation_for),
    ("check", "hexagons"): _on_yd(3, check_hexagons, flavored=True),
    ("check", "pentagon"): _on_yd(4, check_pentagon, flavored=True),
    ("check", "bridge"): _on_yd(2, _bridge),
    ("check", "braid_implies_hybe"): _on_yd(3, _braid_implies_hybe),
    ("check", "qt_hybe"): _induced("modules", 3, R, check_induced_hybe),
    ("check", "qt_braiding_matches"): _induced("modules", 2, R, check_induced_braidings),
    ("check", "cqt_hybe"): _induced("comodules", 3, SIGMA, check_induced_hybe),
    ("check", "cqt_braiding_matches"): _induced("comodules", 2, SIGMA, check_induced_braidings),
    ("twist", "algebra"): _twist_task("algebra", twist.build),
    ("twist", "coalgebra"): _twist_task("coalgebra", twist.build),
    ("twist", "bialgebra"): _twist_task("bialgebra", twist.build),
    ("twist", "yd"): _twist_task(
        "yd_module", twist_yd.build, (("alpha_h", "over"), ("alpha_m", None))
    ),
    ("tensor", "modules"): _tensor_task("module", "hat"),
    ("tensor", "comodules"): _tensor_task("comodule", "tilde"),
    ("tensor", "hat"): _tensor_task("yd_module", "hat"),
    ("tensor", "tilde"): _tensor_task("yd_module", "tilde"),
    ("coincide", "qt"): _binary("module", check_tensor_coincide, (R,)),
    ("coincide", "cqt"): _binary("comodule", check_tensor_coincide, (SIGMA,)),
}


def _references(task: Task) -> list[str]:
    refs = []
    for key, count, _ in TASKS[task.key].slots:
        refs.extend([task.spec[key]] if count is None else task.spec[key])
    return refs


def _resolve(spec, slot, ns):
    key, count, _ = slot
    return ns[spec[key]] if count is None else [ns[ref] for ref in spec[key]]


def _inapplicable(task: Task, detail: str) -> TaskResult:
    return TaskResult(task.name, task.kind, "inapplicable", None, f"inapplicable: {detail}")


def execute_task(task: Task, ns: dict) -> tuple[TaskResult, dict]:
    spec = task.spec
    entry = TASKS[task.key]
    missing = next((name for name in _references(task) if name not in ns), None)
    if missing is not None:
        return _inapplicable(task, f"missing dependency {missing!r}"), {}
    try:
        report = entry.run(spec, *(_resolve(spec, slot, ns) for slot in entry.slots))
    except INAPPLICABLE_ERRORS as exc:
        return _inapplicable(task, str(exc)), {}
    registrations = {}
    if entry.result:
        obj, report = report
        if spec.get("result"):
            registrations[spec["result"]] = obj
    status = "pass" if report.passed else "fail"
    return TaskResult(task.name, task.kind, status, report), registrations


def run_tasks(doc: SpecDocument, max_dim: int = MAX_DIM) -> ReportBundle:
    """Execute every task in document order; constructions register their
    results for later tasks.  ``max_dim`` guards declared structure sizes."""
    for name, obj in doc.structures.items():
        dim = getattr(obj, "dim", None)
        if dim is None:
            dim = obj.over.dim
        if dim > max_dim:
            raise SpecFileError(
                f"structure {name!r} has dimension {dim}, "
                f"which exceeds the guard --max-dim={max_dim}"
            )
    ns = dict(doc.structures)
    results = []
    with run_memo():
        for task in doc.tasks:
            result, registrations = execute_task(task, ns)
            results.append(result)
            ns.update(registrations)
    return ReportBundle(doc.field.descriptor, results)


# -- rendering ---------------------------------------------------------------

def bundle_to_json(bundle: ReportBundle, field) -> dict:
    """The machine report; a value too long to render raises ``SpecFileError``."""
    tasks = []
    for r in bundle.results:
        entry = {"name": r.name, "kind": r.kind, "status": r.status}
        if r.reason:
            entry["reason"] = r.reason
        if r.report is not None:
            entry["law"] = r.report.law
            entry["notes"] = list(r.report.notes)
            try:
                entry["failures"] = [
                    {
                        "law": f.law,
                        "index": list(f.index),
                        "lhs": [field.format(x) for x in f.lhs],
                        "rhs": [field.format(x) for x in f.rhs],
                    }
                    for f in r.report.failures
                ]
            except ValueError:  # Python's limit on int-string conversion
                raise SpecFileError(
                    f"task {r.name!r} computed a value of more than "
                    f"{sys.get_int_max_str_digits()} digits, too long to render in the report"
                ) from None
        tasks.append(entry)
    return {
        "field": bundle.field_descriptor,
        "all_passed": bundle.all_passed,
        "tasks": tasks,
    }


def bundle_to_table(bundle: ReportBundle) -> str:
    rows = [("task", "kind", "status", "detail")]
    for r in bundle.results:
        if r.status == "pass":
            detail = "all laws hold"
        elif r.status == "fail":
            first = r.report.failures[0]
            detail = (
                f"{len(r.report.failures)} failure(s); first: {first.law} "
                f"at {first.index}"
            )
        else:
            detail = r.reason or "inapplicable"
        rows.append((r.name, r.kind, r.status.upper(), detail))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = []
    for idx, row in enumerate(rows):
        lines.append(
            f"{row[0]:<{widths[0]}}  {row[1]:<{widths[1]}}  "
            f"{row[2]:<{widths[2]}}  {row[3]}"
        )
        if idx == 0:
            lines.append("-" * (sum(widths) + 6 + len(rows[0][3])))
    verdict = "ALL TASKS PASS" if bundle.all_passed else "TASKS FAILED"
    lines.append(verdict)
    return "\n".join(lines)
