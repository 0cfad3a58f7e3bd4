"""The structure-file format: one JSON document holding a field, named
structures as dense structure-constant arrays, and a list of tasks.

Scalars are strings ("3/2", "5") so that exact values never pass through
floating point.  Parsing validates shapes, name resolution (in document
order, including names defined by construction tasks) and scalar syntax;
serialization is canonical and byte-deterministic.

Two tables drive the format.  ``STRUCTURES`` declares every structure kind
once: its class, the kinds it may sit over and its constants keys with
their shapes.  Parsing, the allowed-keys check and ``structure_to_json`` all
read it, and every constants array goes through ``LinearMap.from_constants``
and ``LinearMap.constants`` (domain indices first, then codomain; only
``alpha`` is stored as rows).  ``runner.TASKS`` plays the same part for
tasks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

from .errors import HomydError, ShapeError, SpecFileError
from .fields import Field, FieldValueError, field_from_descriptor
from .linmap import LinearMap
from .modules import ComoduleStruct, ModuleStruct
from .quasitri import RElement, SigmaForm
from .runner import TASKS
from .structures import HomAlgebra, HomBialgebra, HomCoalgebra
from .yd import YDModule


class StructureKind(NamedTuple):
    """How one structure kind is written in a file and built.

    ``maps`` lists the constants keys as ``(key, attribute, shape)``: the
    attribute of the built object holding that map, and its shape
    ``"<domain>-><codomain>"`` with one letter per tensor factor, ``h`` for
    the base dimension and ``d`` for the carrier dimension.  A carrier kind
    also has a ``dim`` and an optional ``alpha`` stored as rows; the object is
    built as ``cls(base?, *maps, alpha?)``."""

    cls: type
    over: tuple  # the kinds its base may be; empty when it has no base
    maps: tuple
    carrier: bool = True

    def keys(self) -> set:
        return ({"kind"} | ({"over"} if self.over else set())
                | ({"dim", "alpha"} if self.carrier else set())
                | {key for key, _, _ in self.maps})


_MU, _DELTA = ("mu", "mu", "dd->d"), ("delta", "delta", "d->dd")
_ACT, _COACT = ("act", "act", "hd->d"), ("coact", "coact", "d->hd")

STRUCTURES = {
    "algebra": StructureKind(HomAlgebra, (), (_MU,)),
    "coalgebra": StructureKind(HomCoalgebra, (), (_DELTA,)),
    "bialgebra": StructureKind(HomBialgebra, (), (_MU, _DELTA)),
    "module": StructureKind(ModuleStruct, ("algebra", "bialgebra"), (_ACT,)),
    "comodule": StructureKind(ComoduleStruct, ("coalgebra", "bialgebra"), (_COACT,)),
    "yd_module": StructureKind(YDModule, ("bialgebra",), (_ACT, _COACT)),
    "r_element": StructureKind(RElement, ("bialgebra",), (("matrix", "element", "->hh"),),
                               carrier=False),
    "sigma_form": StructureKind(SigmaForm, ("bialgebra",), (("matrix", "form", "hh->"),),
                                carrier=False),
}

STRUCTURE_KINDS = tuple(STRUCTURES)

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
    entry = STRUCTURES.get(kind) if isinstance(kind, str) else None
    if entry is None:
        _fail(f"unknown structure kind {kind!r}", name)
    extra = set(raw) - entry.keys()
    if extra:
        _fail(f"unexpected keys {sorted(extra)}", name)
    args, sizes = [], {}
    if entry.over:
        ref = raw.get("over")
        if not isinstance(ref, str) or ref not in resolved:
            _fail(f"structure {name!r} references undefined structure {ref!r}")
        base_kind, base = resolved[ref]
        if base_kind not in entry.over:
            _fail(
                f"structure {name!r} must sit over one of {entry.over}, "
                f"but {ref!r} is a {base_kind}"
            )
        args.append(base)
        sizes["h"] = base.dim
    if entry.carrier:
        sizes["d"] = _positive_dim(raw.get("dim"), f"{name}.dim")
    parsed = []
    for key, _, shape in entry.maps:
        dom, cod = shape.split("->")
        dims = [sizes[c] for c in dom + cod]
        parse = _parse_matrix if len(dims) == 2 else _parse_rank3
        parsed.append((parse(field, raw.get(key), *dims, f"{name}.{key}"), len(dom)))
    rows = None
    if entry.carrier and raw.get("alpha") is not None:
        rows = _parse_matrix(field, raw["alpha"], sizes["d"], sizes["d"], f"{name}.alpha")
    try:
        args += [LinearMap.from_constants(field, data, ndom) for data, ndom in parsed]
        if entry.carrier:
            d = (sizes["d"],)
            args.append(LinearMap.identity(field, d) if rows is None
                        else LinearMap.from_rows(field, d, d, rows))
        return kind, entry.cls(*args)
    except HomydError as exc:
        _fail(f"structure {name!r}: {exc}")


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
    except RecursionError:
        raise SpecFileError("malformed JSON: nested too deeply") from None
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

def _fmt(field, data):
    if isinstance(data, list):
        return [_fmt(field, x) for x in data]
    return field.format(data)


def structure_to_json(field, obj, over_name=None):
    """Render a typed structure back into its file form."""
    kind = next((k for k, entry in STRUCTURES.items() if isinstance(obj, entry.cls)), None)
    if kind is None:
        raise ShapeError(f"cannot serialize {type(obj).__name__}")
    entry = STRUCTURES[kind]
    out = {"kind": kind}
    if entry.over and over_name is not None:
        out["over"] = over_name
    if entry.carrier:
        out["dim"] = obj.dim
    for key, attr, _ in entry.maps:
        out[key] = _fmt(field, getattr(obj, attr).constants())
    if entry.carrier and not obj.alpha.is_identity():
        out["alpha"] = _fmt(field, obj.alpha.entries.tolist())
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
