"""Spans around homyd's public functions, installed from the benchmark's side.

``install(tracer)`` replaces the public functions of ``cli``, ``specfile``,
``runner``, ``structures``, ``modules``, ``yd``, ``quasitri``, ``linmap``,
``reports`` and ``fields`` (and the ``LinearMap`` and field methods named
below) with wrappers that record one span per call: name, start, end, parent
span and the task it ran in.  The wrappers are bound under every name a
function is imported as, so ``certify`` is counted however a module reached it.
Per-scalar field methods (``normalize``, ``parse``, ``add``...) are not
wrapped; a span per scalar would swamp what it measures.

Some wrappers also inspect arguments or results (fingerprints, cell counts).
That time is kept out of every open span, so it shows only in the tracing
overhead, never in a layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

TRACED_MODULES = (
    "cli", "specfile", "runner", "structures", "modules", "yd", "quasitri",
    "linmap", "reports", "fields",
)
LINMAP_OPS = {
    "compose": ("compose",),
    "tensor": ("tensor",),
    "permute": ("permute_codomain", "permute_domain"),
    "inverse": ("inverse",),
    "power": ("power",),
}
# LinearMap operations whose results materialise new entries; ``power`` only
# returns what ``identity``, ``inverse`` or ``compose`` already made.
MATERIALISING = ("compose", "tensor", "permute_codomain", "permute_domain", "inverse")
CONSTRUCTORS = ("identity", "permutation", "basis_map", "from_rows")
TASK_HEADS = ("check", "twist", "tensor", "coincide")

_perf = time.perf_counter
_SMALL_ZERO = id(0)


def _stored(lm):
    """Flat indices and values of the cells that are not the shared int 0.

    Object arrays store pointers; every cell left at its initial ``0`` points
    to the one cached int, so only the other cells need their values read.
    Those may still be zero, e.g. ``Fraction(0, 1)``.
    """
    ptrs = np.frombuffer(lm.entries.tobytes(), dtype=np.uintp)
    idx = np.flatnonzero(ptrs != _SMALL_ZERO)
    return idx, lm.entries.ravel()[idx]


def fingerprint(lm):
    """Value identity of a map: shapes, nonzero positions and their values."""
    idx, vals = _stored(lm)
    keep = np.fromiter((bool(v) for v in vals.tolist()), dtype=bool, count=len(vals))
    return (lm.dom, lm.cod, idx[keep].tobytes(), tuple(vals[keep].tolist()))


class Tracer:
    """Spans and counters of one process, written out when the run ends."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, task, excluded seconds)
        self._stack = []
        self._excluded = {}
        self._parent = {}
        self._next_id = 0
        self.task = None
        self.scope = None
        self.counters = Counter()
        self._task_scans = set()
        self._pass_inverses = set()
        self._producers = {}
        self._pass_start = 0
        self.report_type = type(None)  # homyd's CheckReport, set by install()

    # -- span bookkeeping ----------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        self._parent[sid] = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self._excluded[sid] = 0.0
        return sid

    def _close(self, sid, name, start, end):
        self._stack.pop()
        excluded = self._excluded.pop(sid)
        self.spans.append((sid, name, start, end, self._parent.pop(sid), self.task, excluded))
        return end - start - excluded

    def _inspect(self, hook, *args):
        start = _perf()
        hook(*args)
        spent = _perf() - start
        for sid in self._stack:
            self._excluded[sid] += spent

    @contextlib.contextmanager
    def span(self, name):
        """A span around benchmark-side code, such as serialising a report."""
        sid = self._open()
        start = _perf()
        try:
            yield
        finally:
            self._close(sid, name, start, _perf())

    def wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                self._inspect(before, args)
            sid = self._open()
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                net = self._close(sid, name, start, _perf())
            self._inspect(after or self._after_any, args, result, net)
            return result

        return functools.update_wrapper(traced, fn)

    # -- inspection hooks ------------------------------------------------

    def _after_any(self, args, result, net):
        if isinstance(result, self.report_type):
            self._producers[id(result)] = (result, net)

    def _before_task(self, args):
        task = args[0]
        self.task = f"{self.scope}/{task.name}"
        self._task_scans = set()
        self._producers = {}

    def _after_task(self, args, result, net):
        self.counters["runner.task_s." + args[0].kind.split(":")[0]] += net
        self.task = None

    def _before_certify(self, args):
        self.counters["laws.certify.calls"] += 1
        producer = self._producers.pop(id(args[0]), None)
        if producer is not None and producer[0] is args[0]:
            self.counters["laws.certify_s"] += producer[1]

    def _before_compare(self, args):
        _, lhs, rhs = args[:3]
        self.counters["reports.tuples"] += lhs.ncols
        key = (fingerprint(lhs), fingerprint(rhs))
        if key in self._task_scans:
            self.counters["reports.repeat_scans"] += 1
        self._task_scans.add(key)

    def _before_inverse(self, args):
        key = fingerprint(args[0])
        if key in self._pass_inverses:
            self.counters["linmap.inverse.repeat_calls"] += 1
        self._pass_inverses.add(key)

    def _after_result(self, args, result, net):
        if result is args[0]:
            return  # an identity shuffle hands back its own input
        _, vals = _stored(result)
        cells = result.nrows * result.ncols
        c = self.counters
        c["linmap.cells"] += cells
        c["linmap.max_cells"] = max(c["linmap.max_cells"], cells)
        values = vals.tolist()
        c["linmap.nonzero_cells"] += sum(1 for v in values if v)
        c["fields.unit_fraction_cells"] += sum(
            1 for v in values if type(v) is Fraction and v.denominator == 1
        )

    # -- passes ----------------------------------------------------------

    def begin_pass(self, scope):
        self.scope = scope
        self.counters = Counter()
        self._pass_inverses = set()
        self._pass_start = len(self.spans)

    def pass_metrics(self):
        """Per-layer metrics of the spans and counters since ``begin_pass``."""
        spans = self.spans[self._pass_start:]
        net = {sid: end - start - excl for sid, _, start, end, _, _, excl in spans}
        child = defaultdict(float)
        for sid, _, _, _, parent, _, _ in spans:
            if parent is not None:
                child[parent] += net[sid]
        calls, self_s, total = Counter(), defaultdict(float), defaultdict(float)
        for sid, name, *_ in spans:
            calls[name] += 1
            self_s[name] += net[sid] - child[sid]
            total[name] += net[sid]
        c = self.counters
        out = {f"runner.task_s.{h}": c[f"runner.task_s.{h}"] for h in TASK_HEADS}
        out["runner.render_s"] = total["runner.render"]
        out["laws.certify.calls"] = c["laws.certify.calls"]
        out["laws.certify_s"] = c["laws.certify_s"]
        out["reports.compare_maps.calls"] = calls["reports.compare_maps"]
        out["reports.compare_maps.self_s"] = self_s["reports.compare_maps"]
        out["reports.tuples"] = c["reports.tuples"]
        out["reports.repeat_scans"] = c["reports.repeat_scans"]
        for op, methods in LINMAP_OPS.items():
            out[f"linmap.{op}.calls"] = sum(calls[f"LinearMap.{m}"] for m in methods)
            out[f"linmap.{op}.self_s"] = sum(self_s[f"LinearMap.{m}"] for m in methods)
        out["linmap.inverse.repeat_calls"] = c["linmap.inverse.repeat_calls"]
        out["linmap.cells"] = c["linmap.cells"]
        out["linmap.max_cells"] = c["linmap.max_cells"]
        out["linmap.fill"] = c["linmap.nonzero_cells"] / max(c["linmap.cells"], 1)
        reduce = ("Rationals.reduce_array", "PrimeField.reduce_array")
        out["fields.reduce_array.calls"] = sum(calls[n] for n in reduce)
        out["fields.reduce_array.self_s"] = sum(self_s[n] for n in reduce)
        out["fields.unit_fraction_cells"] = c["fields.unit_fraction_cells"]
        return out

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, task, excl in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "task": task, "excluded": excl,
                }) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of homyd's layers; call after importing homyd."""
    import homyd  # noqa: F401
    from homyd.fields import PrimeField, Rationals
    from homyd.linmap import LinearMap
    from homyd.reports import CheckReport

    tracer.report_type = CheckReport
    modules = {name: sys.modules[f"homyd.{name}"] for name in TRACED_MODULES}
    special = {
        "runner.execute_task": (tracer._before_task, tracer._after_task),
        "structures.certify": (tracer._before_certify, None),
        "reports.compare_maps": (tracer._before_compare, None),
    }
    replaced = {}
    for short, module in modules.items():
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            before, after = special.get(f"{short}.{name}", (None, None))
            replaced[fn] = tracer.wrap(f"{short}.{name}", fn, before, after)
    # rebind every imported alias (``from .structures import certify`` ...)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("homyd"):
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, name, replaced[value])

    for name in MATERIALISING + ("power",):
        before = tracer._before_inverse if name == "inverse" else None
        after = tracer._after_result if name in MATERIALISING else None
        setattr(LinearMap, name,
                tracer.wrap(f"LinearMap.{name}", getattr(LinearMap, name), before, after))
    for name in CONSTRUCTORS:
        fn = LinearMap.__dict__[name].__func__
        wrapped = tracer.wrap(
            f"LinearMap.{name}", fn, None,
            lambda args, result, net: tracer._after_result((None,), result, net),
        )
        setattr(LinearMap, name, classmethod(wrapped))
    for cls in (Rationals, PrimeField):
        setattr(cls, "reduce_array",
                tracer.wrap(f"{cls.__name__}.reduce_array", cls.reduce_array))
