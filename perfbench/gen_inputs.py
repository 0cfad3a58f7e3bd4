#!/usr/bin/env python3
"""Write the generated structure files of the benchmark.

    python3 perfbench/gen_inputs.py [--seed N] [--out DIR]

Builds the fixtures with homyd's public fixture API and writes them with
``serialize_spec``; the program under test later sees only these files.

- ``coherence_ladder``: ``cyclic_graded_yd`` pairs (grades 1 and 2) over Q,
  twisted along g -> g^(n-1), at n = 5 and n = 7.  They do not depend on the
  seed.
- ``dense_transport``: the same kind of pair, at n = 3 over Q and n = 4 over
  GF(11), carried along a dense invertible change of basis P on H and Q on M.
  The seed chooses P and Q as a fixed dense matrix with its rows permuted, so
  every seed gives different files with the same scalar sizes and nearly the
  same arithmetic.

Each workload also carries one module copy with a single ``act`` constant
bumped, whose module task must fail.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_SEED = 1

# Dense change-of-basis matrices with determinant 2, so the inverse over Q
# is not integral; chosen so that every transported structure map is dense.
DENSE = {
    3: ([[2, 2, 1], [1, 2, 1], [1, 2, 0]], [[2, 2, 1], [2, 0, 1], [1, 2, 0]]),
    4: ([[0, 1, 1, 2], [2, 1, 0, 2], [1, 1, 1, 2], [2, 1, 2, 0]],
        [[1, 1, 1, 2], [1, 0, 1, 1], [0, 0, 2, 2], [1, 2, 0, 1]]),
}

COHERENCE_TASKS = [
    {"name": "yd_a", "check": "yd", "target": "A"},
    {"name": "yd_b", "check": "yd", "target": "B"},
    {"name": "hybe_aab", "check": "hybe", "modules": ["A", "A", "B"]},
    {"name": "braid_aba", "check": "braid_relation", "modules": ["A", "B", "A"]},
    {"name": "hexagons_hat", "check": "hexagons", "modules": ["A", "B", "A"], "flavor": "hat"},
    {"name": "hexagons_tilde", "check": "hexagons", "modules": ["A", "B", "A"],
     "flavor": "tilde"},
    {"name": "pentagon_hat", "check": "pentagon", "modules": ["A", "B", "A", "B"],
     "flavor": "hat"},
    {"name": "pentagon_tilde", "check": "pentagon", "modules": ["A", "B", "A", "B"],
     "flavor": "tilde"},
]
LADDER_TASKS = COHERENCE_TASKS + [
    {"name": "hat_ab", "tensor": "hat", "operands": ["A", "B"], "result": "AB"},
    {"name": "tilde_ab", "tensor": "tilde", "operands": ["A", "B"], "result": "AB2"},
    {"name": "hat_ab_yd", "check": "yd", "target": "AB"},
    {"name": "bridge_ab", "check": "bridge", "modules": ["A", "B"]},
]
DENSE_TASKS = [{"name": "base_laws", "check": "hom_bialgebra", "target": "H"}] + COHERENCE_TASKS
BUMPED_TASK = {"name": "bumped_module", "check": "module", "target": "M_bumped"}

WORKLOADS = {
    # workload -> [(file stem, field, n, bump (i, m, n) or None)]
    "coherence_ladder": [("ladder_n5", "rational", 5, (1, 0, 1)),
                         ("ladder_n7", "rational", 7, None)],
    "dense_transport": [("dense_q3", "rational", 3, (0, 0, 0)),
                        ("dense_gf11_4", 11, 4, None)],
}


def _bumped_module(field, base, yd, at):
    """A module copy of ``yd`` with the action constant at ``at`` raised by one."""
    from homyd.modules import ModuleStruct, action_constants

    constants = action_constants(yd.act)
    i, m, n = at
    constants[i][m][n] = field.normalize(constants[i][m][n] + 1)
    return ModuleStruct.from_constants(base, constants, yd.alpha.entries)


def _transport(yd, base, p, q):
    """Carry a Yetter-Drinfeld module along P on H and Q on M; returns the new
    base (built once) and the transported module."""
    from homyd.structures import HomBialgebra
    from homyd.yd import YDModule

    pi, qi = p.inverse(), q.inverse()
    if base is None:
        h = yd.over
        base = HomBialgebra(p @ h.mu @ pi.tensor(pi), p.tensor(p) @ h.delta @ pi,
                            p @ h.alpha @ pi)
    return base, YDModule(base, q @ yd.act @ pi.tensor(qi),
                          p.tensor(q) @ yd.coact @ qi, q @ yd.alpha @ qi)


def _row_permuted(field, rows, rng):
    from homyd.linmap import LinearMap

    order = list(range(len(rows)))
    rng.shuffle(order)
    return LinearMap.from_rows(field, (len(rows),), (len(rows),), [rows[i] for i in order])


def build_file(workload, stem, field_token, n, bump, rng):
    from homyd.fields import RATIONALS, PrimeField
    from homyd.fixtures import cyclic_graded_yd
    from homyd.specfile import SpecDocument, Task, serialize_spec

    field = RATIONALS if field_token == "rational" else PrimeField(field_token)
    a = cyclic_graded_yd(n, n - 1, 1, field)
    b = cyclic_graded_yd(n, n - 1, 2, field)
    if workload == "dense_transport":
        d_h, d_m = DENSE[n]
        p, q = _row_permuted(field, d_h, rng), _row_permuted(field, d_m, rng)
        base, a = _transport(a, None, p, q)
        _, b = _transport(b, base, p, q)
        tasks = DENSE_TASKS
    else:
        base = a.over
        tasks = LADDER_TASKS
    structures = {"H": base, "A": a, "B": b}
    if bump is not None:
        structures["M_bumped"] = _bumped_module(field, base, a, bump)
        tasks = tasks + [BUMPED_TASK]
    meta = {"generator": "perfbench/gen_inputs.py", "workload": workload, "file": stem}
    doc = SpecDocument(field, structures, [Task(t["name"], dict(t)) for t in tasks], meta)
    return serialize_spec(doc)


def generate(workload, seed, out_dir) -> list:
    """Write the files of one generated workload; returns their paths."""
    sys.path.insert(0, str(ROOT / "src"))  # the checkout's homyd, not an installed one
    rng = random.Random(seed)
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, field_token, n, bump in WORKLOADS[workload]:
        path = out_dir / f"{stem}.json"
        path.write_text(build_file(workload, stem, field_token, n, bump, rng), encoding="utf-8")
        paths.append(path)
    return paths


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "out" / "inputs"))
    args = parser.parse_args(argv)
    for workload in WORKLOADS:
        for path in generate(workload, args.seed, pathlib.Path(args.out) / workload):
            print(path)


if __name__ == "__main__":
    main()
