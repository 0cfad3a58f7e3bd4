"""The structure-file format: one JSON document holding a field, named
structures as dense structure-constant arrays, and a list of tasks.

Scalars are strings ("3/2", "5") so that exact values never pass through
floating point.  Parsing validates shapes, name resolution (in document
order, including names defined by construction tasks) and scalar syntax,
parsing each distinct literal once per document; serialization is canonical
and byte-deterministic.

Two tables drive the format.  ``STRUCTURES`` maps every structure kind to
its class, which declares the classes its base may be, whether it has a
structure map and its constants keys with their shapes (see
``structures.Structure``).  Parsing, the allowed-keys check and
``structure_to_json`` all read these declarations, and every constants array
goes through ``LinearMap.from_constants`` and ``LinearMap.constants``
(domain indices first, then codomain; only ``alpha`` is stored as rows).
``runner.TASKS`` plays the same part for tasks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

from .errors import HomydError, ShapeError, SpecFileError
from .fields import Field, FieldValueError, field_from_descriptor
from .modules import ComoduleStruct, ModuleStruct
from .quasitri import RElement, SigmaForm
from .runner import TASKS
from .structures import HomAlgebra, HomBialgebra, HomCoalgebra
from .yd import YDModule


STRUCTURES = {
    "algebra": HomAlgebra,
    "coalgebra": HomCoalgebra,
    "bialgebra": HomBialgebra,
    "module": ModuleStruct,
    "comodule": ComoduleStruct,
    "yd_module": YDModule,
    "r_element": RElement,
    "sigma_form": SigmaForm,
}
_KIND = {cls: kind for kind, cls in STRUCTURES.items()}

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


def _scalar_parser(field):
    """The scalar parser of one document: it parses each distinct literal once
    and refuses a bad one at every path where it occurs."""
    parsed = {}

    def scalar(value, path):
        if not isinstance(value, str):
            _fail(f"scalars must be strings, got {value!r}", path)
        if value not in parsed:
            try:
                parsed[value] = field.parse(value)
            except FieldValueError as exc:
                _fail(str(exc), path)
        return parsed[value]

    return scalar


def _parse_matrix(scalar, data, rows, cols, path):
    if not isinstance(data, list) or len(data) != rows:
        _fail(f"expected {rows} rows", path)
    out = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            _fail(f"expected {cols} columns", f"{path}[{i}]")
        out.append([scalar(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return out


def _parse_rank3(scalar, data, d0, d1, d2, path):
    if not isinstance(data, list) or len(data) != d0:
        _fail(f"expected {d0} slices", path)
    return [
        _parse_matrix(scalar, sl, d1, d2, f"{path}[{i}]") for i, sl in enumerate(data)
    ]


def _positive_dim(raw, path):
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < 1:
        _fail(f"dim must be a positive integer, got {raw!r}", path)
    return raw


def _keys(cls) -> set:
    """The keys a structure of class ``cls`` may hold in a file."""
    return ({"kind"} | ({"over"} if cls.OVER else set())
            | ({"dim", "alpha"} if cls.ALPHA else set())
            | {key for key, _, _ in cls.MAPS})


def _parse_structure(field, scalar, name, raw, resolved):
    if not isinstance(raw, dict):
        _fail("structure entries must be objects", name)
    kind = raw.get("kind")
    cls = STRUCTURES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        _fail(f"unknown structure kind {kind!r}", name)
    extra = set(raw) - _keys(cls)
    if extra:
        _fail(f"unexpected keys {sorted(extra)}", name)
    base_or_field, sizes = field, {}
    if cls.OVER:
        ref = raw.get("over")
        if not isinstance(ref, str) or ref not in resolved:
            _fail(f"structure {name!r} references undefined structure {ref!r}")
        base_kind, base_or_field = resolved[ref]
        over = tuple(_KIND[c] for c in cls.OVER)
        if base_kind not in over:
            _fail(
                f"structure {name!r} must sit over one of {over}, "
                f"but {ref!r} is a {base_kind}"
            )
        sizes["h"] = base_or_field.dim
    if cls.ALPHA:
        sizes["d"] = _positive_dim(raw.get("dim"), f"{name}.dim")
    constants = []
    for key, _, shape in cls.MAPS:
        dims = [sizes[c] for c in shape.replace("->", "")]
        parse = _parse_matrix if len(dims) == 2 else _parse_rank3
        constants.append(parse(scalar, raw.get(key), *dims, f"{name}.{key}"))
    if cls.ALPHA and raw.get("alpha") is not None:
        d = sizes["d"]
        constants.append(_parse_matrix(scalar, raw["alpha"], d, d, f"{name}.alpha"))
    try:
        return kind, cls.from_constants(base_or_field, *constants)
    except HomydError as exc:
        _fail(f"structure {name!r}: {exc}")


_WHAT = {"r": "R element", "sigma": "sigma form"}


def _validate_task(scalar, index, raw, kinds, declared):
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
        _parse_matrix(scalar, data, dim, dim, f"task {name!r} {key}")
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
    scalar = _scalar_parser(field)

    raw_structures = data.get("structures", {})
    if not isinstance(raw_structures, dict):
        _fail("'structures' must be an object")
    resolved = {}
    for name, raw in raw_structures.items():
        if not isinstance(name, str) or not name:
            _fail(f"bad structure name {name!r}")
        resolved[name] = _parse_structure(field, scalar, name, raw, resolved)

    raw_tasks = data.get("tasks", [])
    if not isinstance(raw_tasks, list):
        _fail("'tasks' must be a list")
    kinds = {name: kind for name, (kind, _) in resolved.items()}
    declared = {name: obj for name, (_, obj) in resolved.items()}
    seen_names = set()
    tasks = []
    for index, raw in enumerate(raw_tasks):
        task = _validate_task(scalar, index, raw, kinds, declared)
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
    """Render a typed structure back into its file form; ``over_name`` names
    the base of a kind that has one."""
    cls = type(obj)
    if cls not in _KIND:
        raise ShapeError(f"cannot serialize {cls.__name__}")
    out = {"kind": _KIND[cls]}
    if cls.OVER:
        out["over"] = over_name
    if cls.ALPHA:
        out["dim"] = obj.dim
    for key, attr, _ in cls.MAPS:
        out[key] = _fmt(field, getattr(obj, attr).constants())
    if cls.ALPHA and not obj.alpha.is_identity():
        out["alpha"] = _fmt(field, obj.alpha.entries.tolist())
    return out


def document_to_json(doc: SpecDocument) -> dict:
    """The file form of a document; a structure whose base is not listed
    before it, as the same object or an equal one, raises ``SpecFileError``."""
    names = {}
    for name, obj in doc.structures.items():
        over_name = None
        if type(obj).OVER:
            earlier = [(n, doc.structures[n]) for n in names]
            matches = ([n for n, other in earlier if other is obj.over]
                       + [n for n, other in earlier if obj.over == other])
            if not matches:
                raise SpecFileError(
                    f"structure {name!r} sits over a {type(obj.over).__name__} "
                    f"that the document does not list before it"
                )
            over_name = matches[0]
        names[name] = structure_to_json(doc.field, obj, over_name)
    out = {"field": doc.field.descriptor, "structures": names,
           "tasks": [t.spec for t in doc.tasks]}
    if doc.meta:
        out["meta"] = doc.meta
    return out


def serialize_spec(doc: SpecDocument) -> str:
    return json.dumps(document_to_json(doc), indent=2, ensure_ascii=False) + "\n"
