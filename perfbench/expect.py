"""Expected verdicts for the benchmark's structure files, derived without homyd.

Nothing here imports the program.  Scalars are read from the file's strings
and every law the evaluator covers is recomputed by explicit sums over the
structure constants, one basis tuple at a time; it never builds a matrix and
never composes, tensors or inverts one.  The evaluator covers the two task
kinds the benchmark perturbs on purpose:

- ``check: hom_bialgebra``: the seven laws of ``check_hom_bialgebra``;
- ``check: module``: ``action_alpha_compat`` and ``action_hom_associativity``.

Every other task is expected to pass: the shipped standard suites are
documented to exit 0, the generated files hold twisted Yetter-Drinfeld modules
and isomorphic transports of them, for which the paper's theorems give every
law, and a perturbed file may differ from its reference only in structures
that covered tasks alone reach (checked below).
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction


class Field:
    """Exact scalars parsed from the file's strings, formatted as homyd formats them."""

    def __init__(self, descriptor: str):
        self.p = int(descriptor.split(":", 1)[1]) if descriptor.startswith("prime:") else None

    def parse(self, text: str):
        if self.p is None:
            return Fraction(text)
        return int(text) % self.p

    def reduce(self, value):
        return value if self.p is None else value % self.p

    def format(self, value) -> str:
        return str(value)  # str(Fraction(3, 1)) == "3", as homyd prints the int 3


class Structure:
    """Constants of one structure; vectors are dicts from basis tuples to scalars."""

    def __init__(self, field: Field, raw: dict, base: "Structure | None" = None):
        self.field = field
        self.base = base
        self.dim = raw["dim"]
        parse3 = lambda t: [[[field.parse(x) for x in col] for col in sl] for sl in t]
        self.mu = parse3(raw["mu"]) if "mu" in raw else None
        self.delta = parse3(raw["delta"]) if "delta" in raw else None
        self.act = parse3(raw["act"]) if "act" in raw else None
        if "alpha" in raw:
            self.alpha = [[field.parse(x) for x in row] for row in raw["alpha"]]
        else:
            self.alpha = [[int(i == j) for j in range(self.dim)] for i in range(self.dim)]

    # Each operator replaces the factor(s) at ``pos`` of every basis tuple.

    def _emit(self, out, key, value):
        value = self.field.reduce(value)
        if value:
            out[key] = self.field.reduce(out.get(key, 0) + value)

    def apply_alpha(self, vec, pos, alpha=None):
        alpha = alpha or self.alpha
        out = {}
        for idx, v in vec.items():
            for r in range(len(alpha)):
                self._emit(out, idx[:pos] + (r,) + idx[pos + 1:], v * alpha[r][idx[pos]])
        return out

    def apply_mu(self, vec, pos):
        out = {}
        for idx, v in vec.items():
            for k, c in enumerate(self.mu[idx[pos]][idx[pos + 1]]):
                self._emit(out, idx[:pos] + (k,) + idx[pos + 2:], v * c)
        return out

    def apply_delta(self, vec, pos):
        out = {}
        for idx, v in vec.items():
            for j, row in enumerate(self.delta[idx[pos]]):
                for k, c in enumerate(row):
                    self._emit(out, idx[:pos] + (j, k) + idx[pos + 1:], v * c)
        return out

    def apply_act(self, vec, pos):
        """Act with the algebra factor at ``pos`` on the carrier factor after it."""
        out = {}
        for idx, v in vec.items():
            for n, c in enumerate(self.act[idx[pos]][idx[pos + 1]]):
                self._emit(out, idx[:pos] + (n,) + idx[pos + 2:], v * c)
        return out


def _shuffle(vec, perm):
    """Output factor t carries input factor perm[t]."""
    return {tuple(idx[p] for p in perm): v for idx, v in vec.items()}


def _dense(vec, dims):
    return tuple(vec.get(idx, 0) for idx in itertools.product(*map(range, dims)))


def _scan(field, law, dom, cod, lhs, rhs):
    """Failures of ``lhs == rhs`` over every domain basis tuple, in homyd's order."""
    failures = []
    for idx in itertools.product(*map(range, dom)):
        left = _dense(lhs({idx: 1}), cod)
        right = _dense(rhs({idx: 1}), cod)
        if left != right:
            failures.append(
                [law, list(idx), [field.format(x) for x in left], [field.format(x) for x in right]]
            )
    return failures


def hom_bialgebra_failures(h: Structure):
    d, f = h.dim, h.field
    coassoc = (
        lambda v: h.apply_alpha(h.apply_delta(h.apply_delta(v, 0), 0), 2),
        lambda v: h.apply_delta(h.apply_alpha(h.apply_delta(v, 0), 0), 1),
    )
    laws = [
        ("multiplicativity", (d, d), (d,),
         lambda v: h.apply_alpha(h.apply_mu(v, 0), 0),
         lambda v: h.apply_mu(h.apply_alpha(h.apply_alpha(v, 0), 1), 0)),
        ("hom_associativity", (d, d, d), (d,),
         lambda v: h.apply_mu(h.apply_alpha(h.apply_mu(v, 1), 0), 0),
         lambda v: h.apply_mu(h.apply_alpha(h.apply_mu(v, 0), 1), 0)),
        ("comultiplicativity", (d,), (d, d),
         lambda v: h.apply_alpha(h.apply_alpha(h.apply_delta(v, 0), 0), 1),
         lambda v: h.apply_delta(h.apply_alpha(v, 0), 0)),
        ("hom_coassociativity", (d,), (d, d, d)) + coassoc,
        ("delta_alpha_exchange", (d,), (d, d, d)) + coassoc,
        ("delta_multiplicative", (d, d), (d, d),
         lambda v: h.apply_delta(h.apply_mu(v, 0), 0),
         lambda v: h.apply_mu(h.apply_mu(
             _shuffle(h.apply_delta(h.apply_delta(v, 1), 0), (0, 2, 1, 3)), 0), 1)),
        ("delta_of_alpha", (d,), (d, d),
         lambda v: h.apply_delta(h.apply_alpha(v, 0), 0),
         lambda v: h.apply_alpha(h.apply_alpha(h.apply_delta(v, 0), 0), 1)),
    ]
    return [fail for law in laws for fail in _scan(f, *law)]


def module_failures(m: Structure):
    h, dh, dm, f = m.base, m.base.dim, m.dim, m.field
    laws = [
        ("action_alpha_compat", (dh, dm), (dm,),
         lambda v: m.apply_alpha(m.apply_act(v, 0), 0),
         lambda v: m.apply_act(m.apply_alpha(h.apply_alpha(v, 0), 1), 0)),
        ("action_hom_associativity", (dh, dh, dm), (dm,),
         lambda v: m.apply_act(h.apply_alpha(m.apply_act(v, 1), 0), 0),
         lambda v: m.apply_act(h.apply_mu(m.apply_alpha(v, 2), 0), 0)),
    ]
    return [fail for law in laws for fail in _scan(f, *law)]


def _structures(raw):
    field = Field(raw["field"])
    out = {}
    for name, spec in raw["structures"].items():
        base = out.get(spec.get("over"))
        if "dim" not in spec:  # r_element / sigma_form: never evaluated here
            continue
        out[name] = Structure(field, spec, base)
    return out


def _covered_failures(task, structures):
    """Brute-force failure list for a covered task, or None if not covered."""
    check = task.get("check")
    if check == "hom_bialgebra":
        return hom_bialgebra_failures(structures[task["target"]])
    if check == "module":
        return module_failures(structures[task["target"]])
    return None


REFERENCE_KEYS = ("target", "source", "r", "sigma", "modules", "comodules", "operands")


def _reached(task, raw_structures, results):
    """Every structure a task reads, following ``over`` links and construction results."""
    names = []
    for key in REFERENCE_KEYS:
        value = task.get(key)
        names.extend(value if isinstance(value, list) else [value] if value else [])
    seen = set()
    while names:
        name = names.pop()
        if name in seen:
            continue
        seen.add(name)
        names.extend(results.get(name, ()))
        over = raw_structures.get(name, {}).get("over")
        if over:
            names.append(over)
    return seen


def file_expectation(path, readme_exit=None, reference_path=None):
    """Expected outcome of one structure file.

    Returns ``{"refused": True}`` for a file that is not JSON, otherwise the
    expected status (and, for covered tasks, the exact failure list) of every
    task in document order together with the expected exit code.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        if readme_exit not in (None, 2):
            raise ValueError(f"{path}: not JSON, but documented to exit {readme_exit}")
        return {"refused": True, "exit": 2}
    structures = _structures(raw)
    changed = set()
    if reference_path is not None:
        with open(reference_path, encoding="utf-8") as fh:
            ref = json.load(fh)["structures"]
        changed = {n for n, s in raw["structures"].items() if ref.get(n) != s}
    results = {}  # construction result -> the names it was built from
    tasks = []
    for task in raw["tasks"]:
        failures = _covered_failures(task, structures)
        reached = _reached(task, raw["structures"], results)
        if failures is None and reached & changed:
            raise ValueError(
                f"{path}: task {task.get('name')!r} reads perturbed structures "
                f"{sorted(reached & changed)} but the evaluator does not cover it"
            )
        if task.get("result"):
            results[task["result"]] = reached
        tasks.append({
            "name": task["name"],
            "status": "fail" if failures else "pass",
            "failures": failures or [],
        })
    exit_code = 1 if any(t["status"] == "fail" for t in tasks) else 0
    if readme_exit is not None and readme_exit != exit_code:
        raise ValueError(f"{path}: derived exit {exit_code}, documented exit {readme_exit}")
    return {"refused": False, "exit": exit_code, "tasks": tasks}
