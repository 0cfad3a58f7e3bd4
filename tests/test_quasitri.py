from fractions import Fraction

import numpy as np
import pytest

from conftest import identity_rows
from homyd.errors import PreconditionError
from homyd.fields import RATIONALS, PrimeField
from homyd.fixtures import (
    cyclic_bicharacter_sigma,
    cyclic_endo_twist,
    cyclic_r_matrix,
    power_endomorphism,
)
from homyd.linmap import LinearMap
from homyd.modules import ComoduleStruct, ModuleStruct
from homyd.quasitri import (
    RElement,
    SigmaForm,
    check_cqt,
    check_cqt_tensor_coincide,
    check_qt,
    check_qt_tensor_coincide,
    check_r_invariance,
    check_sigma_invariance,
    cqt_B,
    cqt_braiding,
    qt_B,
    qt_braiding,
    yd_from_comodule,
    yd_from_module,
)
from homyd.yd import braiding_B, braiding_c, check_hybe, check_yd, yd_suite

Q = RATIONALS
H = Fraction(1, 2)


def regular_module(base, shift=0, power=1):
    """Left multiplication on a twisted cyclic group algebra, with the carrier
    map f_j -> f_{power*j + shift}; lawful whenever power matches the base
    twist exponent."""
    n = base.dim
    # the twisted product: g^i * f_j = alpha_M(g^{i+j}) = f_{power*(i+j)+shift}
    # is exactly what induced actions produce; build it directly
    act = [
        [
            [1 if p == (power * (i + j) + shift) % n else 0 for p in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    alpha = [
        [1 if i == (power * j + shift) % n else 0 for j in range(n)]
        for i in range(n)
    ]
    return ModuleStruct.from_constants(base, act, alpha)


def graded_comodule(base, grade=1, power=1):
    """The induced comodule of the classical grade-d diagonal coaction:
    f_j -> g^{power*grade*j} ⊗ f_{power*j} over the power-twisted base."""
    from homyd.fixtures import cyclic_group, group_bialgebra
    from homyd.linmap import LinearMap as LM
    from homyd.modules import induce_comodule

    n = base.dim
    classical = group_bialgebra(cyclic_group(n), base.field)
    coact = [
        [[1 if i == (grade * m) % n and p == m else 0 for p in range(n)]
         for i in range(n)]
        for m in range(n)
    ]
    com = ComoduleStruct.from_constants(classical, coact)
    alpha = LM.basis_map(base.field, power_endomorphism(n, power))
    return induce_comodule(com, alpha, alpha)


def test_zero_r_element_passes_everything():
    base = cyclic_endo_twist(3, 1)
    r = RElement.from_constants(base, [[0] * 3 for _ in range(3)])
    assert check_qt(r).passed
    assert check_r_invariance(r).passed


def test_z2_r_matrix_hand_expansion():
    # (1/n) sum omega^{-ij} g^i⊗g^j for n=2, omega=-1 expands to
    # (1/2)(1⊗1 + 1⊗g + g⊗1 - g⊗g)
    base, r = cyclic_r_matrix(2, Q, -1, 1)
    assert r.matrix() == [[H, H], [H, -H]]
    assert check_qt(r).passed
    assert check_r_invariance(r).passed


def test_c3_r_matrix_over_f7():
    # 1/3 = 5 mod 7 and 2 has order 3; frozen from the hand table
    f7 = PrimeField(7)
    base, r = cyclic_r_matrix(3, f7, 2, 1)
    assert r.matrix() == [[5, 5, 5], [5, 6, 3], [5, 3, 6]]
    assert check_qt(r).passed


def test_c5_r_matrix_invariance_depends_on_twist_square():
    f11 = PrimeField(11)
    base4, r4 = cyclic_r_matrix(5, f11, 3, 4)  # 4^2 = 16 = 1 mod 5
    assert check_qt(r4).passed
    assert check_r_invariance(r4).passed
    base2, r2 = cyclic_r_matrix(5, f11, 3, 2)  # 2^2 = 4 != 1 mod 5
    report = check_r_invariance(r2)
    assert not report.passed


def test_r_matrix_rejects_bad_roots():
    with pytest.raises(PreconditionError):
        cyclic_r_matrix(3, Q, -1, 1)  # -1 has order 2, not 3
    with pytest.raises(PreconditionError):
        cyclic_r_matrix(3, PrimeField(5), 2, 1)  # 3 does not divide 4


def test_yd_from_module_with_zero_r():
    base = cyclic_endo_twist(3, 1)
    r = RElement.from_constants(base, [[0] * 3 for _ in range(3)])
    mod = regular_module(base)
    out = yd_from_module(mod, r)
    assert len(out.coact.values) == 0
    assert check_yd(out).passed


def test_yd_from_module_classical_z2():
    base, r = cyclic_r_matrix(2, Q, -1, 1)
    mod = regular_module(base)
    out = yd_from_module(mod, r)
    assert yd_suite(out).passed


def test_yd_from_module_twisted_c5():
    f11 = PrimeField(11)
    base, r = cyclic_r_matrix(5, f11, 3, 4)
    for shift in (0, 1):
        mod = regular_module(base, shift=shift, power=4)
        out = yd_from_module(mod, r)
        assert yd_suite(out).passed


def test_yd_from_module_gates_on_broken_axioms():
    base = cyclic_endo_twist(2, 1)
    bad = RElement.from_constants(base, [[1, 1], [0, 1]])
    mod = regular_module(base)
    with pytest.raises(PreconditionError):
        yd_from_module(mod, bad)


def test_qt_tensor_coincidence():
    base, r = cyclic_r_matrix(2, Q, -1, 1)
    mod = regular_module(base)
    assert check_qt_tensor_coincide(mod, mod, r).passed
    f11 = PrimeField(11)
    base5, r5 = cyclic_r_matrix(5, f11, 3, 4)
    m5 = regular_module(base5, 0, 4)
    n5 = regular_module(base5, 1, 4)
    assert check_qt_tensor_coincide(m5, n5, r5).passed


def test_qt_tensor_coincidence_fails_for_perturbed_r():
    base, r = cyclic_r_matrix(2, Q, -1, 1)
    matrix = r.matrix()
    matrix[0][1] = matrix[0][1] + 1
    bad = RElement.from_constants(base, matrix)
    mod = regular_module(base)
    report = check_qt_tensor_coincide(mod, mod, bad)
    assert not report.passed


def test_qt_braiding_z2_hand_matrix_and_symmetry():
    # c(e_a ⊗ e_b) = (1/2) sum (-1)^{ij} e_{j+b} ⊗ e_{i+a}, expanded by hand
    base, r = cyclic_r_matrix(2, Q, -1, 1)
    mod = regular_module(base)
    c = qt_braiding(mod, mod, r)
    expected = LinearMap.from_rows(
        Q, (2, 2), (2, 2),
        [[H, H, H, -H],
         [H, -H, H, H],
         [H, H, -H, H],
         [-H, H, H, H]],
    )
    assert c == expected
    # the Z2 R-matrix is triangular: the braiding is a symmetry
    assert c @ c == LinearMap.identity(Q, (2, 2))


def test_qt_braiding_matches_induced_yd_braiding():
    f11 = PrimeField(11)
    base, r = cyclic_r_matrix(5, f11, 3, 4)
    m = regular_module(base, 0, 4)
    n = regular_module(base, 1, 4)
    assert qt_braiding(m, n, r) == braiding_c(yd_from_module(m, r), yd_from_module(n, r))
    assert qt_B(m, n, r) == braiding_B(yd_from_module(m, r), yd_from_module(n, r))


def test_qt_b_bridge_and_hybe():
    f11 = PrimeField(11)
    base, r = cyclic_r_matrix(5, f11, 3, 4)
    m = regular_module(base, 0, 4)
    n = regular_module(base, 1, 4)
    c = qt_braiding(m, n, r)
    bridge = n.alpha.tensor(m.alpha).with_shapes(c.cod, c.cod) @ c
    assert qt_B(m, n, r) == bridge
    report = check_hybe(
        qt_B(m, n, r), qt_B(m, m, r), qt_B(n, m, r), m.alpha, n.alpha, m.alpha
    )
    assert report.passed


# -- coquasitriangular mirror ------------------------------------------------


def test_zero_sigma_passes():
    base = cyclic_endo_twist(3, 1)
    s = SigmaForm.from_constants(base, [[0] * 3 for _ in range(3)])
    assert check_cqt(s).passed
    assert check_sigma_invariance(s).passed


def test_bicharacter_on_c3_over_f7():
    base, s = cyclic_bicharacter_sigma(3, 7, 2, 1)
    assert s.matrix() == [[1, 1, 1], [1, 2, 4], [1, 4, 2]]
    assert check_cqt(s).passed
    assert check_sigma_invariance(s).passed


def test_bicharacter_on_twisted_c5_over_f11():
    base, s = cyclic_bicharacter_sigma(5, 11, 3, 4)
    assert check_cqt(s).passed
    assert check_sigma_invariance(s).passed


def test_sigma_invariance_fails_when_twist_square_is_not_one():
    base, s = cyclic_bicharacter_sigma(5, 11, 3, 2)
    assert check_cqt(s).passed
    report = check_sigma_invariance(s)
    assert not report.passed


def test_bicharacter_rejects_bad_arithmetic():
    with pytest.raises(PreconditionError):
        cyclic_bicharacter_sigma(3, 5, 2, 1)  # 3 does not divide 4
    with pytest.raises(PreconditionError):
        cyclic_bicharacter_sigma(3, 7, 3, 1)  # 3 has order 6 mod 7


def test_yd_from_comodule_zero_sigma():
    base = cyclic_endo_twist(3, 1)
    s = SigmaForm.from_constants(base, [[0] * 3 for _ in range(3)])
    com = graded_comodule(base)
    out = yd_from_comodule(com, s)
    assert len(out.act.values) == 0
    assert check_yd(out).passed


def test_yd_from_comodule_regular_action_values():
    # lambda = diagonal grading, sigma(g^i⊗g^j)=2^{ij} over GF(7):
    # g acting on g^j multiplies by sigma(g^j ⊗ g) = 2^j
    base, s = cyclic_bicharacter_sigma(3, 7, 2, 1)
    com = graded_comodule(base)
    out = yd_from_comodule(com, s)
    assert yd_suite(out).passed
    act = out.act.entries
    for j in range(3):
        column = act[:, 1 * 3 + j]  # action of g on g^j
        assert column[j] == pow(2, j, 7)
        assert sum(1 for x in column if x) == 1


def test_yd_from_comodule_twisted_c5():
    base, s = cyclic_bicharacter_sigma(5, 11, 3, 4)
    for grade in (1, 2):
        com = graded_comodule(base, grade=grade, power=4)
        out = yd_from_comodule(com, s)
        assert yd_suite(out).passed


def test_cqt_tensor_coincidence_and_perturbation():
    base, s = cyclic_bicharacter_sigma(3, 7, 2, 1)
    m = graded_comodule(base, 1)
    n = graded_comodule(base, 2)
    assert check_cqt_tensor_coincide(m, n, s).passed
    matrix = s.matrix()
    matrix[1][1] = (matrix[1][1] + 1) % 7
    bad = SigmaForm.from_constants(base, matrix)
    assert not check_cqt_tensor_coincide(m, n, bad).passed


def test_cqt_braiding_is_anyonic():
    # c(g^i ⊗ g^j) = omega^{ij} g^j ⊗ g^i for the regular grading, alpha = id
    base, s = cyclic_bicharacter_sigma(3, 7, 2, 1)
    com = graded_comodule(base)
    c = cqt_braiding(com, com, s)
    n = 3
    for i in range(n):
        for j in range(n):
            col = c.entries[:, i * n + j]
            assert col[j * n + i] == pow(2, i * j, 7)
            assert sum(1 for x in col if x) == 1


def test_cqt_braiding_matches_induced_yd_braiding():
    base, s = cyclic_bicharacter_sigma(5, 11, 3, 4)
    m = graded_comodule(base, 1, 4)
    n = graded_comodule(base, 2, 4)
    assert cqt_braiding(m, n, s) == braiding_c(yd_from_comodule(m, s), yd_from_comodule(n, s))
    assert cqt_B(m, n, s) == braiding_B(yd_from_comodule(m, s), yd_from_comodule(n, s))


def test_cqt_b_bridge_and_hybe():
    base, s = cyclic_bicharacter_sigma(5, 11, 3, 4)
    m = graded_comodule(base, 1, 4)
    n = graded_comodule(base, 2, 4)
    c = cqt_braiding(m, n, s)
    bridge = n.alpha.tensor(m.alpha).with_shapes(c.cod, c.cod) @ c
    assert cqt_B(m, n, s) == bridge
    report = check_hybe(
        cqt_B(m, n, s), cqt_B(m, m, s), cqt_B(n, m, s), m.alpha, n.alpha, m.alpha
    )
    assert report.passed


def test_braid_relation_for_anyonic_braiding():
    from homyd.yd import check_braid_relation

    base, s = cyclic_bicharacter_sigma(3, 7, 2, 1)
    com = graded_comodule(base)
    c = cqt_braiding(com, com, s)
    assert check_braid_relation(c, c, c).passed


@pytest.mark.parametrize("route", ["qt", "cqt"])
def test_induced_braidings_scan_the_axioms_once(route, monkeypatch):
    # the first induction gates on the axioms of R or sigma; the second
    # carrier is induced without scanning them again
    from homyd import quasitri

    if route == "qt":
        base, x = cyclic_r_matrix(5, PrimeField(11), 3, 4)
        m, n = regular_module(base, 0, 4), regular_module(base, 1, 4)
        axioms = ["qt_coproduct_first_leg", "qt_coproduct_second_leg",
                  "qt_opposite_coproduct_intertwines", "r_invariance"]
    else:
        base, x = cyclic_bicharacter_sigma(5, 11, 3, 4)
        m, n = graded_comodule(base, 1, 4), graded_comodule(base, 2, 4)
        axioms = ["cqt_product_first_slot", "cqt_product_second_slot",
                  "cqt_intertwines_products", "sigma_invariance"]
    scanned = []
    compare = quasitri.compare_maps

    def recording(law, lhs, rhs):
        scanned.append(law)
        return compare(law, lhs, rhs)

    monkeypatch.setattr(quasitri, "compare_maps", recording)
    assert quasitri.check_induced_braidings(m, n, x).passed
    assert [law for law in scanned if law in axioms] == axioms
