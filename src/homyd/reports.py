"""Check reports: every verification returns the full list of counterexamples.

A failed law is data, not an exception.  Each failure records the basis
multi-index at which the two sides of the law were evaluated together
with both evaluated value vectors, so a report is a complete certificate
either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .linmap import LinearMap


@dataclass(frozen=True)
class Failure:
    law: str
    index: tuple[int, ...]
    lhs: tuple
    rhs: tuple

    def __str__(self):
        return f"{self.law} at {self.index}: lhs={self.lhs} rhs={self.rhs}"


@dataclass(frozen=True)
class CheckReport:
    law: str
    failures: tuple[Failure, ...] = ()
    notes: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.failures

    def with_notes(self, *notes: str) -> "CheckReport":
        return CheckReport(self.law, self.failures, self.notes + tuple(notes))

    @staticmethod
    def combine(law: str, reports) -> "CheckReport":
        failures = tuple(f for r in reports for f in r.failures)
        notes = tuple(n for r in reports for n in r.notes)
        return CheckReport(law, failures, notes)

    def __str__(self):
        if self.passed:
            return f"{self.law}: pass"
        return f"{self.law}: {len(self.failures)} failure(s), first: {self.failures[0]}"


def compare_maps(law: str, lhs: LinearMap, rhs: LinearMap) -> CheckReport:
    """Exact equality of two maps, reported per domain basis multi-index."""
    if lhs.dom != rhs.dom or lhs.cod != rhs.cod or lhs.field != rhs.field:
        raise ShapeError(
            f"{law}: cannot compare map {lhs.dom} -> {lhs.cod} "
            f"with map {rhs.dom} -> {rhs.cod}"
        )
    if lhs == rhs:
        return CheckReport(law)
    failures = []
    for j in _differing_columns(lhs, rhs):
        index = _unravel(j, lhs.dom)
        failures.append(Failure(law, index, lhs.column(j), rhs.column(j)))
    return CheckReport(law, tuple(failures))


def _differing_columns(lhs: LinearMap, rhs: LinearMap) -> list[int]:
    """Domain indices where the two maps differ, read off their sorted
    coordinates: a position stored in one map only, or stored in both with
    different values (numerators cross-multiplied by the other denominator)."""
    ka = lhs.cols * lhs.nrows + lhs.rows
    kb = rhs.cols * rhs.nrows + rhs.rows
    _, ia, ib = np.intersect1d(ka, kb, assume_unique=True, return_indices=True)
    a, b = lhs.values[ia], rhs.values[ib]
    if lhs.den != rhs.den:
        a, b = a * rhs.den, b * lhs.den
    same = a == b
    only_a = np.ones(len(ka), dtype=bool)
    only_a[ia[same]] = False
    only_b = np.ones(len(kb), dtype=bool)
    only_b[ib[same]] = False
    return np.union1d(lhs.cols[only_a], rhs.cols[only_b]).tolist()


def _unravel(flat: int, dims) -> tuple[int, ...]:
    if not dims:
        return ()
    return tuple(int(i) for i in np.unravel_index(flat, dims))
