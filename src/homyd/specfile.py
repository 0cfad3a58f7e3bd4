"""The structure-file format: one JSON document holding a field, named
structures as dense structure-constant arrays, and a list of tasks.

Scalars are strings ("3/2", "5") so that exact values never pass through
floating point.  Parsing validates shapes, name resolution (in document
order, including names defined by construction tasks) and scalar syntax;
serialization is canonical and byte-deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

from .errors import HomydError, ShapeError, SpecFileError
from .fields import Field, FieldValueError, field_from_descriptor
from .linmap import LinearMap
from .modules import (
    ComoduleStruct,
    ModuleStruct,
    action_constants,
    coaction_constants,
)
from .quasitri import RElement, SigmaForm
from .runner import TASKS
from .structures import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    coproduct_constants,
    product_constants,
)
from .yd import YDModule

STRUCTURE_KINDS = (
    "algebra",
    "coalgebra",
    "bialgebra",
    "module",
    "comodule",
    "yd_module",
    "r_element",
    "sigma_form",
)

HEADS = {"check": "check", "twist": "twist", "tensor": "tensor", "coincide": "coincidence"}


@dataclass
class Task:
    name: str
    spec: dict

    @property
    def key(self) -> tuple:
        """The task's ``(head, value)`` entry in ``runner.TASKS``."""
        for head in HEADS:
            if head in self.spec:
                return head, self.spec[head]
        raise AssertionError("validated task lost its kind")

    @property
    def kind(self) -> str:
        return "%s:%s" % self.key


@dataclass
class SpecDocument:
    field: Field
    structures: dict
    tasks: list
    meta: dict = dataclass_field(default_factory=dict)


def _fail(message, path=None):
    where = f" at {path}" if path else ""
    raise SpecFileError(f"{message}{where}")


def _parse_scalar(field, value, path):
    if not isinstance(value, str):
        _fail(f"scalars must be strings, got {value!r}", path)
    try:
        return field.parse(value)
    except FieldValueError as exc:
        _fail(str(exc), path)


def _parse_matrix(field, data, rows, cols, path):
    if not isinstance(data, list) or len(data) != rows:
        _fail(f"expected {rows} rows", path)
    out = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            _fail(f"expected {cols} columns", f"{path}[{i}]")
        out.append([_parse_scalar(field, x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return out


def _parse_rank3(field, data, d0, d1, d2, path):
    if not isinstance(data, list) or len(data) != d0:
        _fail(f"expected {d0} slices", path)
    return [
        _parse_matrix(field, sl, d1, d2, f"{path}[{i}]") for i, sl in enumerate(data)
    ]


def _positive_dim(raw, path):
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < 1:
        _fail(f"dim must be a positive integer, got {raw!r}", path)
    return raw


def _parse_structure(field, name, raw, resolved):
    if not isinstance(raw, dict):
        _fail("structure entries must be objects", name)
    kind = raw.get("kind")
    if kind not in STRUCTURE_KINDS:
        _fail(f"unknown structure kind {kind!r}", name)
    allowed = {
        "algebra": {"kind", "dim", "mu", "alpha"},
        "coalgebra": {"kind", "dim", "delta", "alpha"},
        "bialgebra": {"kind", "dim", "mu", "delta", "alpha"},
        "module": {"kind", "over", "dim", "act", "alpha"},
        "comodule": {"kind", "over", "dim", "coact", "alpha"},
        "yd_module": {"kind", "over", "dim", "act", "coact", "alpha"},
        "r_element": {"kind", "over", "matrix"},
        "sigma_form": {"kind", "over", "matrix"},
    }[kind]
    extra = set(raw) - allowed
    if extra:
        _fail(f"unexpected keys {sorted(extra)}", name)

    def over(expected_kinds):
        ref = raw.get("over")
        if not isinstance(ref, str) or ref not in resolved:
            _fail(f"structure {name!r} references undefined structure {ref!r}")
        base_kind, base = resolved[ref]
        if base_kind not in expected_kinds:
            _fail(
                f"structure {name!r} must sit over one of {expected_kinds}, "
                f"but {ref!r} is a {base_kind}"
            )
        return base

    try:
        if kind == "algebra":
            dim = _positive_dim(raw.get("dim"), f"{name}.dim")
            mu = _parse_rank3(field, raw.get("mu"), dim, dim, dim, f"{name}.mu")
            return kind, HomAlgebra.from_constants(
                field, mu, _alpha_rows(field, raw.get("alpha"), dim, f"{name}.alpha")
            )
        if kind == "coalgebra":
            dim = _positive_dim(raw.get("dim"), f"{name}.dim")
            delta = _parse_rank3(field, raw.get("delta"), dim, dim, dim, f"{name}.delta")
            return kind, HomCoalgebra.from_constants(
                field, delta, _alpha_rows(field, raw.get("alpha"), dim, f"{name}.alpha")
            )
        if kind == "bialgebra":
            dim = _positive_dim(raw.get("dim"), f"{name}.dim")
            mu = _parse_rank3(field, raw.get("mu"), dim, dim, dim, f"{name}.mu")
            delta = _parse_rank3(field, raw.get("delta"), dim, dim, dim, f"{name}.delta")
            return kind, HomBialgebra.from_constants(
                field, mu, delta, _alpha_rows(field, raw.get("alpha"), dim, f"{name}.alpha")
            )
        if kind == "module":
            base = over(("algebra", "bialgebra"))
            dim = _positive_dim(raw.get("dim"), f"{name}.dim")
            act = _parse_rank3(field, raw.get("act"), base.dim, dim, dim, f"{name}.act")
            return kind, ModuleStruct.from_constants(
                base, act, _alpha_rows(field, raw.get("alpha"), dim, f"{name}.alpha")
            )
        if kind == "comodule":
            base = over(("coalgebra", "bialgebra"))
            dim = _positive_dim(raw.get("dim"), f"{name}.dim")
            coact = _parse_rank3(field, raw.get("coact"), dim, base.dim, dim, f"{name}.coact")
            return kind, ComoduleStruct.from_constants(
                base, coact, _alpha_rows(field, raw.get("alpha"), dim, f"{name}.alpha")
            )
        if kind == "yd_module":
            base = over(("bialgebra",))
            dim = _positive_dim(raw.get("dim"), f"{name}.dim")
            act = _parse_rank3(field, raw.get("act"), base.dim, dim, dim, f"{name}.act")
            coact = _parse_rank3(field, raw.get("coact"), dim, base.dim, dim, f"{name}.coact")
            mod = ModuleStruct.from_constants(
                base, act, _alpha_rows(field, raw.get("alpha"), dim, f"{name}.alpha")
            )
            com = ComoduleStruct.from_constants(
                base, coact, _alpha_rows(field, raw.get("alpha"), dim, f"{name}.alpha")
            )
            return kind, YDModule(base, mod.act, com.coact, mod.alpha)
        if kind == "r_element":
            base = over(("bialgebra",))
            matrix = _parse_matrix(field, raw.get("matrix"), base.dim, base.dim, f"{name}.matrix")
            return kind, RElement.from_matrix(base, matrix)
        base = over(("bialgebra",))
        matrix = _parse_matrix(field, raw.get("matrix"), base.dim, base.dim, f"{name}.matrix")
        return kind, SigmaForm.from_matrix(base, matrix)
    except (ShapeError, HomydError) as exc:
        if isinstance(exc, SpecFileError):
            raise
        _fail(f"structure {name!r}: {exc}")


def _alpha_rows(field, raw, dim, path):
    if raw is None:
        return [[field.one if i == j else field.zero for j in range(dim)] for i in range(dim)]
    return _parse_matrix(field, raw, dim, dim, path)


_WHAT = {"r": "R element", "sigma": "sigma form"}


def _validate_task(field, index, raw, kinds, declared):
    if not isinstance(raw, dict):
        _fail(f"task #{index} must be an object")
    name = raw.get("name", f"task{index}")
    if not isinstance(name, str) or not name:
        _fail(f"task #{index} has a bad name {raw.get('name')!r}")
    heads = [k for k in HEADS if k in raw]
    if len(heads) != 1:
        _fail(
            f"task {name!r} must contain exactly one of check/twist/tensor/coincide"
        )
    head = heads[0]
    value = raw[head]
    entry = TASKS.get((head, value)) if isinstance(value, str) else None
    if entry is None:
        _fail(f"task {name!r} has unknown {HEADS[head]} {value!r}")
    allowed = {"name", head, *(key for key, _, _ in entry.slots),
               *(key for key, _ in entry.matrices)}
    allowed |= {"flavor"} if entry.flavored else set()
    allowed |= {"result"} if entry.result else set()
    extra = set(raw) - allowed
    if extra:
        _fail(f"task {name!r} has unexpected keys {sorted(extra)}")

    def need(ref, expected, what):
        if not isinstance(ref, str) or ref not in kinds:
            _fail(f"task {name!r} references undefined {what} {ref!r}")
        if kinds[ref] not in expected:
            _fail(
                f"task {name!r} needs a {'/'.join(expected)} for {ref!r}, "
                f"got {kinds[ref]}"
            )

    for key, count, expected in entry.slots:
        if count is None:
            need(raw.get(key), expected, _WHAT.get(key, key))
            continue
        refs = raw.get(key)
        if not isinstance(refs, list) or len(refs) != count:
            _fail(f"task {name!r} needs {key!r} to be a list of {count} names")
        for ref in refs:
            need(ref, expected, "structure")
    if entry.flavored and raw.get("flavor", "hat") not in ("hat", "tilde"):
        _fail(f"task {name!r} has bad flavor {raw.get('flavor')!r}")
    for key, facet in entry.matrices:
        data = raw.get(key)
        if not isinstance(data, list) or not data:
            _fail(f"task {name!r} needs matrix {key!r}")
        # a declared source fixes the size; a construction result's size is
        # known only when it runs
        source = declared.get(raw["source"])
        if source is not None:
            dim = getattr(source, facet).dim if facet else source.dim
        else:
            dim = len(data)
        _parse_matrix(field, data, dim, dim, f"task {name!r} {key}")
    result = raw.get("result")
    if entry.result and result is not None:
        if not isinstance(result, str) or not result:
            _fail(f"task {name!r} has a bad result name")
        if result in kinds:
            _fail(f"task {name!r} redefines existing name {result!r}")
        kinds[result] = entry.result
    return Task(name, dict(raw))


def parse_spec(text: str) -> SpecDocument:
    """Parse and validate a structure file; errors carry position or path."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"malformed JSON: {exc.msg}", exc.lineno, exc.colno)
    if not isinstance(data, dict):
        _fail("document must be a JSON object")
    unknown = set(data) - {"field", "structures", "tasks", "meta"}
    if unknown:
        _fail(f"unknown top-level keys {sorted(unknown)}")
    try:
        field = field_from_descriptor(data.get("field"))
    except FieldValueError as exc:
        raise SpecFileError(str(exc))

    raw_structures = data.get("structures", {})
    if not isinstance(raw_structures, dict):
        _fail("'structures' must be an object")
    resolved = {}
    for name, raw in raw_structures.items():
        if not isinstance(name, str) or not name:
            _fail(f"bad structure name {name!r}")
        resolved[name] = _parse_structure(field, name, raw, resolved)

    raw_tasks = data.get("tasks", [])
    if not isinstance(raw_tasks, list):
        _fail("'tasks' must be a list")
    kinds = {name: kind for name, (kind, _) in resolved.items()}
    declared = {name: obj for name, (_, obj) in resolved.items()}
    seen_names = set()
    tasks = []
    for index, raw in enumerate(raw_tasks):
        task = _validate_task(field, index, raw, kinds, declared)
        if task.name in seen_names:
            _fail(f"duplicate task name {task.name!r}")
        seen_names.add(task.name)
        tasks.append(task)

    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        _fail("'meta' must be an object")
    return SpecDocument(field, declared, tasks, meta)


# -- serialization -----------------------------------------------------------

def _fmt_matrix(field, rows):
    return [[field.format(x) for x in row] for row in rows]


def _fmt_rank3(field, data):
    return [[[field.format(x) for x in col] for col in sl] for sl in data]


def _alpha_json(field, alpha: LinearMap):
    if alpha.is_identity():
        return None
    return _fmt_matrix(field, alpha.entries.tolist())


def structure_to_json(field, obj, over_name=None):
    """Render a typed structure back into its file form."""
    if isinstance(obj, HomAlgebra):
        out = {"kind": "algebra", "dim": obj.dim,
               "mu": _fmt_rank3(field, product_constants(obj.mu))}
    elif isinstance(obj, HomCoalgebra):
        out = {"kind": "coalgebra", "dim": obj.dim,
               "delta": _fmt_rank3(field, coproduct_constants(obj.delta))}
    elif isinstance(obj, HomBialgebra):
        out = {"kind": "bialgebra", "dim": obj.dim,
               "mu": _fmt_rank3(field, product_constants(obj.mu)),
               "delta": _fmt_rank3(field, coproduct_constants(obj.delta))}
    elif isinstance(obj, ModuleStruct):
        out = {"kind": "module", "over": over_name, "dim": obj.dim,
               "act": _fmt_rank3(field, action_constants(obj.act))}
    elif isinstance(obj, ComoduleStruct):
        out = {"kind": "comodule", "over": over_name, "dim": obj.dim,
               "coact": _fmt_rank3(field, coaction_constants(obj.coact))}
    elif isinstance(obj, YDModule):
        out = {"kind": "yd_module", "over": over_name, "dim": obj.dim,
               "act": _fmt_rank3(field, action_constants(obj.act)),
               "coact": _fmt_rank3(field, coaction_constants(obj.coact))}
    elif isinstance(obj, RElement):
        out = {"kind": "r_element", "over": over_name,
               "matrix": _fmt_matrix(field, obj.matrix())}
    elif isinstance(obj, SigmaForm):
        out = {"kind": "sigma_form", "over": over_name,
               "matrix": _fmt_matrix(field, obj.matrix())}
    else:
        raise ShapeError(f"cannot serialize {type(obj).__name__}")
    alpha = getattr(obj, "alpha", None)
    if alpha is not None:
        rendered = _alpha_json(field, alpha)
        if rendered is not None:
            out["alpha"] = rendered
    if out.get("over") is None:
        out.pop("over", None)
    return out


def document_to_json(doc: SpecDocument) -> dict:
    names = {}
    for name, obj in doc.structures.items():
        base = getattr(obj, "over", None)
        over_name = None
        if base is not None:
            over_name = next(
                (n for n, other in doc.structures.items() if other is base), None
            )
            if over_name is None:
                over_name = next(
                    (
                        n
                        for n, other in doc.structures.items()
                        if isinstance(other, HomBialgebra)
                        and other.mu == getattr(base, "mu", None)
                        and other.delta == getattr(base, "delta", None)
                        and other.alpha == base.alpha
                    ),
                    None,
                )
        names[name] = structure_to_json(doc.field, obj, over_name)
    out = {"field": doc.field.descriptor, "structures": names,
           "tasks": [t.spec for t in doc.tasks]}
    if doc.meta:
        out["meta"] = doc.meta
    return out


def serialize_spec(doc: SpecDocument) -> str:
    return json.dumps(document_to_json(doc), indent=2, ensure_ascii=False) + "\n"
