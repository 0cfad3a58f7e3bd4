#!/usr/bin/env python3
"""Regenerate the shipped fixture suites under suites/.

The outputs are deterministic; run from the repository root:

    python3 tools/gen_suites.py

The structures are built from the generators of ``homyd.fixtures``: the
regular module takes the base's own product as its action and is induced
along a pair of twists, and each graded comodule is the comodule half of
``cyclic_graded_yd``.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from homyd.fields import RATIONALS, PrimeField
from homyd.fixtures import (
    conjugation_yd,
    crossed_gset,
    cyclic_bicharacter_sigma,
    cyclic_endo_twist,
    cyclic_graded_yd,
    cyclic_group,
    cyclic_r_matrix,
    group_bialgebra,
    inner_automorphism,
    power_endomorphism,
    symmetric_group,
)
from homyd.linmap import LinearMap
from homyd.modules import ModuleStruct, induce_module
from homyd.specfile import SpecDocument, Task, serialize_spec

OUT = pathlib.Path(__file__).resolve().parents[1] / "suites"


def tasks(*specs):
    return [Task(s["name"], s) for s in specs]


def regular_module_over_twist(n, k, field, shift=0):
    """k[C_n] acting on itself by its product, induced along g -> g^k on the
    base and f_j -> f_{kj+shift} on the carrier."""
    base = group_bialgebra(cyclic_group(n), field)
    alpha_a = LinearMap.basis_map(field, power_endomorphism(n, k))
    alpha_m = LinearMap.basis_map(field, tuple((k * j + shift) % n for j in range(n)))
    return induce_module(ModuleStruct(base, base.mu, base.alpha), alpha_a, alpha_m)


def rational_suite():
    field = RATIONALS
    h6 = cyclic_endo_twist(6, 5, field)
    s3 = symmetric_group(3)
    transposition = next(
        t for t in range(6) if t != s3.identity and s3.cayley[t][t] == s3.identity
    )
    ys3 = conjugation_yd(s3, inner_automorphism(s3, transposition), field)
    a5 = cyclic_graded_yd(5, 4, 1, field)
    b5 = cyclic_graded_yd(5, 4, 2, field)
    h2, r2 = cyclic_r_matrix(2, field, -1, 1)
    m2 = regular_module_over_twist(2, 1, field)
    h3_classical = group_bialgebra(cyclic_group(3), field)
    ys3_classical = crossed_gset(s3, field)

    structures = {
        "H6": h6,
        "HS3": ys3.over,
        "YS3": ys3,
        "H5": a5.over,
        "A": a5,
        "B": b5,
        "H2": h2,
        "R2": r2,
        "M2": m2,
        "H3C": h3_classical,
        "HS3C": ys3_classical.over,
        "YS3C": ys3_classical,
    }
    alpha_sq = [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]
    # alpha(g) = g^2 on C3: column j carries g^{2j}: e0->e0, e1->e2, e2->e1
    task_list = tasks(
        {"name": "twist_closure_c6", "check": "hom_bialgebra", "target": "H6"},
        {"name": "s3_base_laws", "check": "hom_bialgebra", "target": "HS3"},
        {"name": "s3_yd", "check": "yd", "target": "YS3"},
        {"name": "classical_s3_yd", "check": "classical_yd", "target": "YS3C"},
        {"name": "c5_yd_a", "check": "yd", "target": "A"},
        {"name": "c5_yd_b", "check": "yd", "target": "B"},
        {"name": "hybe_aab", "check": "hybe", "modules": ["A", "A", "B"]},
        {"name": "hybe_s3", "check": "hybe", "modules": ["YS3", "YS3", "YS3"]},
        {"name": "braid_aba", "check": "braid_relation", "modules": ["A", "B", "A"]},
        {"name": "hexagons_hat", "check": "hexagons", "modules": ["A", "B", "A"],
         "flavor": "hat"},
        {"name": "hexagons_tilde", "check": "hexagons", "modules": ["A", "B", "A"],
         "flavor": "tilde"},
        {"name": "pentagon_hat", "check": "pentagon", "modules": ["A", "B", "A", "B"],
         "flavor": "hat"},
        {"name": "pentagon_tilde", "check": "pentagon",
         "modules": ["A", "B", "A", "B"], "flavor": "tilde"},
        {"name": "bridge_ab", "check": "bridge", "modules": ["A", "B"]},
        {"name": "braid_to_hybe", "check": "braid_implies_hybe",
         "modules": ["A", "B", "A"]},
        {"name": "z2_qt", "check": "qt", "target": "R2"},
        {"name": "z2_r_invariance", "check": "r_invariance", "target": "R2"},
        {"name": "z2_coincide", "coincide": "qt", "operands": ["M2", "M2"],
         "r": "R2"},
        {"name": "z2_qt_braiding", "check": "qt_braiding_matches",
         "modules": ["M2", "M2"], "r": "R2"},
        {"name": "z2_qt_hybe", "check": "qt_hybe", "modules": ["M2", "M2", "M2"],
         "r": "R2"},
        {"name": "twist_c3", "twist": "bialgebra", "source": "H3C",
         "alpha": alpha_sq, "result": "H3T"},
        {"name": "hat_ab", "tensor": "hat", "operands": ["A", "B"], "result": "AB"},
        {"name": "tilde_ab", "tensor": "tilde", "operands": ["A", "B"],
         "result": "AB2"},
        {"name": "hat_ab_yd", "check": "yd", "target": "AB"},
    )
    meta = {"description": "rational standard suite: twists, Yetter-Drinfeld "
                           "fixtures, braidings, coherence laws, Z2 R-matrix"}
    return SpecDocument(field, structures, task_list, meta)


def gf7_suite():
    base_r, r = cyclic_r_matrix(3, PrimeField(7), 2, 1)
    base_s, s = cyclic_bicharacter_sigma(3, 7, 2, 1)
    field = base_r.field
    m = regular_module_over_twist(3, 1, field)
    cm1 = cyclic_graded_yd(3, 1, 1, field).comodule
    cm2 = cyclic_graded_yd(3, 1, 2, field).comodule
    structures = {
        "H": base_r,
        "R": r,
        "S": s,
        "M": m,
        "CM1": cm1,
        "CM2": cm2,
    }
    task_list = tasks(
        {"name": "qt_laws", "check": "qt", "target": "R"},
        {"name": "r_invariance", "check": "r_invariance", "target": "R"},
        {"name": "qt_coincide", "coincide": "qt", "operands": ["M", "M"], "r": "R"},
        {"name": "qt_braiding", "check": "qt_braiding_matches",
         "modules": ["M", "M"], "r": "R"},
        {"name": "cqt_laws", "check": "cqt", "target": "S"},
        {"name": "sigma_invariance", "check": "sigma_invariance", "target": "S"},
        {"name": "cqt_coincide", "coincide": "cqt", "operands": ["CM1", "CM2"],
         "sigma": "S"},
        {"name": "cqt_braiding", "check": "cqt_braiding_matches",
         "comodules": ["CM1", "CM2"], "sigma": "S"},
        {"name": "cqt_hybe", "check": "cqt_hybe",
         "comodules": ["CM1", "CM2", "CM1"], "sigma": "S"},
    )
    meta = {"description": "GF(7) suite: order-3 root fixtures for the "
                           "quasitriangular and coquasitriangular laws"}
    return SpecDocument(field, structures, task_list, meta)


def gf11_suite():
    base, r = cyclic_r_matrix(5, PrimeField(11), 3, 4)
    _, s = cyclic_bicharacter_sigma(5, 11, 3, 4)
    field = base.field
    m0 = regular_module_over_twist(5, 4, field, shift=0)
    m1 = regular_module_over_twist(5, 4, field, shift=1)
    cm1 = cyclic_graded_yd(5, 4, 1, field).comodule
    cm2 = cyclic_graded_yd(5, 4, 2, field).comodule
    structures = {
        "H": base,
        "R": r,
        "S": s,
        "M0": m0,
        "M1": m1,
        "CM1": cm1,
        "CM2": cm2,
    }
    task_list = tasks(
        {"name": "qt_laws", "check": "qt", "target": "R"},
        {"name": "r_invariance", "check": "r_invariance", "target": "R"},
        {"name": "qt_coincide", "coincide": "qt", "operands": ["M0", "M1"], "r": "R"},
        {"name": "qt_braiding", "check": "qt_braiding_matches",
         "modules": ["M0", "M1"], "r": "R"},
        {"name": "qt_hybe", "check": "qt_hybe", "modules": ["M0", "M1", "M0"],
         "r": "R"},
        {"name": "cqt_laws", "check": "cqt", "target": "S"},
        {"name": "sigma_invariance", "check": "sigma_invariance", "target": "S"},
        {"name": "cqt_coincide", "coincide": "cqt", "operands": ["CM1", "CM2"],
         "sigma": "S"},
        {"name": "cqt_braiding", "check": "cqt_braiding_matches",
         "comodules": ["CM1", "CM2"], "sigma": "S"},
        {"name": "cqt_hybe", "check": "cqt_hybe",
         "comodules": ["CM1", "CM2", "CM1"], "sigma": "S"},
    )
    meta = {"description": "GF(11) suite: order-5 root fixtures twisted along "
                           "g -> g^4"}
    return SpecDocument(field, structures, task_list, meta)


def main():
    OUT.mkdir(exist_ok=True)
    files = {
        "standard_rational.json": rational_suite(),
        "standard_gf7.json": gf7_suite(),
        "standard_gf11.json": gf11_suite(),
    }
    for name, doc in files.items():
        (OUT / name).write_text(serialize_spec(doc), encoding="utf-8")
        print(f"wrote suites/{name}")

    # perturbed: one structure constant of the C6 twist bumped by +1
    data = json.loads((OUT / "standard_rational.json").read_text())
    entry = data["structures"]["H6"]["mu"][0][0]
    entry[1] = "1"  # e0*e0 gains a spurious e1 component
    data["meta"] = {"description": "standard rational suite with one structure "
                                   "constant bumped: must fail"}
    (OUT / "perturbed.json").write_text(
        json.dumps(data, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print("wrote suites/perturbed.json")

    (OUT / "malformed.json").write_text(
        '{"field": "rational", "structures": {\n', encoding="utf-8"
    )
    print("wrote suites/malformed.json")


if __name__ == "__main__":
    main()
