import numpy as np
import pytest

import oracles
from homyd.errors import PreconditionError, ShapeError
from homyd.fields import RATIONALS, PrimeField
from homyd.fixtures import (
    GroupPresentation,
    conjugation_yd,
    crossed_gset,
    cyclic_bicharacter_sigma,
    cyclic_endo_twist,
    cyclic_graded_yd,
    cyclic_group,
    cyclic_r_matrix,
    group_bialgebra,
    group_by_name,
    inner_automorphism,
    is_group_automorphism,
    power_endomorphism,
    symmetric_group,
)
from homyd.linmap import LinearMap
from homyd.modules import ComoduleStruct, ModuleStruct, induce_comodule, induce_module
from homyd.structures import HomBialgebra, check_classical_bialgebra, check_hom_bialgebra
from homyd.yd import YDModule, check_classical_yd, check_yd, twist_yd, yd_suite

Q = RATIONALS
GF7, GF11 = PrimeField(7), PrimeField(11)


def test_group_table_validation():
    with pytest.raises(PreconditionError):
        GroupPresentation(2, ((0, 1), (1, 1)))  # 1*1=1 has no inverse row
    with pytest.raises(PreconditionError):
        GroupPresentation(3, ((0, 1, 2), (1, 2, 0), (2, 1, 0)))  # not associative
    with pytest.raises(ShapeError):
        GroupPresentation(2, ((0, 1),))


def test_cyclic_and_symmetric_groups():
    c4 = cyclic_group(4)
    assert c4.identity == 0
    assert c4.inverse(1) == 3
    s3 = symmetric_group(3)
    assert s3.order == 6
    # noncommutative witness
    assert any(
        s3.cayley[a][b] != s3.cayley[b][a] for a in range(6) for b in range(6)
    )


def test_inner_automorphism_is_automorphism():
    s3 = symmetric_group(3)
    for t in range(6):
        assert is_group_automorphism(s3, inner_automorphism(s3, t))
    assert not is_group_automorphism(s3, (1, 0, 2, 3, 4, 5))


def test_group_bialgebra_scales():
    assert group_bialgebra(cyclic_group(1)).dim == 1
    c2 = group_bialgebra(cyclic_group(2))
    # delta is forced diagonal: delta(g) = g ⊗ g
    assert c2.delta.entries[1 * 2 + 1, 1] == 1
    s3 = group_bialgebra(symmetric_group(3))
    assert check_classical_bialgebra(s3).passed


def test_cyclic_endo_twist_certification():
    classical = cyclic_endo_twist(3, 1)
    assert classical.alpha.is_identity()
    inv = cyclic_endo_twist(6, 5)
    assert check_hom_bialgebra(inv).passed
    assert inv.alpha.is_invertible()
    noninv = cyclic_endo_twist(4, 2)
    assert check_hom_bialgebra(noninv).passed
    assert not noninv.alpha.is_invertible()


def test_conjugation_yd_fixtures():
    # abelian: conjugation is trivial, diagonal coaction; identity twist
    abelian = conjugation_yd(cyclic_group(4), power_endomorphism(4, 1))
    assert check_yd(abelian).passed

    s3 = symmetric_group(3)
    classical = crossed_gset(s3)
    assert check_classical_yd(classical).passed
    ident = tuple(range(6))
    trivial = conjugation_yd(s3, ident)
    assert check_yd(trivial).passed

    transposition = next(
        t for t in range(6) if t != s3.identity and s3.cayley[t][t] == s3.identity
    )
    twisted = conjugation_yd(s3, inner_automorphism(s3, transposition))
    assert yd_suite(twisted).passed

    with pytest.raises(PreconditionError):
        conjugation_yd(s3, (1, 0, 2, 3, 4, 5))


def test_cyclic_graded_yd_distinct_fixtures_share_base():
    a = cyclic_graded_yd(5, 4, 1)
    b = cyclic_graded_yd(5, 4, 2)
    assert yd_suite(a).passed and yd_suite(b).passed
    assert a.over.mu == b.over.mu and a.over.delta == b.over.delta
    assert a.coact != b.coact


def test_generators_are_deterministic():
    x1 = cyclic_endo_twist(6, 5)
    x2 = cyclic_endo_twist(6, 5)
    assert x1.mu == x2.mu and x1.delta == x2.delta and x1.alpha == x2.alpha
    r1 = cyclic_r_matrix(5, PrimeField(11), 3, 4)[1]
    r2 = cyclic_r_matrix(5, PrimeField(11), 3, 4)[1]
    assert r1.element == r2.element
    s1 = cyclic_bicharacter_sigma(3, 7, 2, 1)[1]
    s2 = cyclic_bicharacter_sigma(3, 7, 2, 1)[1]
    assert s1.form == s2.form


def test_group_by_name():
    assert group_by_name("c6").order == 6
    assert group_by_name("s3").order == 6
    with pytest.raises(ShapeError):
        group_by_name("d4")


def test_twisting_closure_matches_acceptance_sweep():
    # small version of the full sweep: every endomorphism twist certifies
    for n in (2, 3, 5):
        for k in range(n):
            assert check_hom_bialgebra(cyclic_endo_twist(n, k)).passed


def test_s3_inner_automorphism_twist_passes():
    from homyd.structures import twist_bialgebra

    s3 = symmetric_group(3)
    bia = group_bialgebra(s3)
    for t in range(6):
        alpha = LinearMap.basis_map(RATIONALS, inner_automorphism(s3, t))
        assert check_hom_bialgebra(twist_bialgebra(bia, alpha)).passed


# -- the index-map generators against their dense references (tests/oracles.py)

def _reference_base(group, field):
    return HomBialgebra.from_constants(
        field, oracles.group_mu(group, field), oracles.group_delta(group.order, field))


@pytest.mark.parametrize("field", [Q, GF11], ids=["Q", "GF11"])
@pytest.mark.parametrize(
    "group",
    [cyclic_group(1), cyclic_group(2), cyclic_group(5), cyclic_group(16), symmetric_group(3)],
    ids=lambda g: g.name,
)
def test_group_bialgebra_and_crossed_gset_match_their_dense_references(group, field):
    base = _reference_base(group, field)
    assert group_bialgebra(group, field) == base
    reference = YDModule.from_constants(
        base, oracles.conjugation_act(group, field), oracles.diagonal_coact(group.order, field))
    assert crossed_gset(group, field) == reference


# (n, k, grade, field): the graded modules and comodules of tools/gen_suites.py
# and perfbench/gen_inputs.py, and the golden example cyclic_graded_yd 5 4 2 11
GRADED = [(5, 4, 1, Q), (5, 4, 2, Q), (3, 1, 1, GF7), (3, 1, 2, GF7), (5, 4, 1, GF11),
          (5, 4, 2, GF11), (3, 2, 1, Q), (3, 2, 2, Q), (4, 3, 1, GF11), (4, 3, 2, GF11),
          (7, 6, 1, Q), (7, 6, 2, Q)]


@pytest.mark.parametrize("n, k, grade, field", GRADED,
                         ids=lambda x: getattr(x, "descriptor", str(x)))
def test_cyclic_graded_yd_and_its_comodule_match_their_dense_references(n, k, grade, field):
    base = _reference_base(cyclic_group(n), field)
    alpha = LinearMap.basis_map(field, power_endomorphism(n, k))
    classical = YDModule.from_constants(
        base, oracles.trivial_act(n, field), oracles.graded_coact(n, grade, field))
    yd = cyclic_graded_yd(n, k, grade, field)
    assert yd == twist_yd(classical, alpha, alpha)
    comodule = ComoduleStruct.from_constants(base, oracles.graded_coact(n, grade, field))
    assert yd.comodule == induce_comodule(comodule, alpha, alpha)


# (n, k, shift, field): the regular modules of tools/gen_suites.py
@pytest.mark.parametrize("n, k, shift, field",
                         [(2, 1, 0, Q), (3, 1, 0, GF7), (5, 4, 0, GF11), (5, 4, 1, GF11)],
                         ids=lambda x: getattr(x, "descriptor", str(x)))
def test_regular_module_from_the_product_matches_its_dense_reference(n, k, shift, field):
    # the regular action of k[C_n] is its product, so the generated suites
    # take the base's own mu as the action
    alpha_a = LinearMap.basis_map(field, power_endomorphism(n, k))
    alpha_m = LinearMap.basis_map(field, [(k * j + shift) % n for j in range(n)])
    base = group_bialgebra(cyclic_group(n), field)
    reference = ModuleStruct.from_constants(
        _reference_base(cyclic_group(n), field), oracles.group_mu(cyclic_group(n), field))
    assert (induce_module(ModuleStruct(base, base.mu, base.alpha), alpha_a, alpha_m)
            == induce_module(reference, alpha_a, alpha_m))


def test_group_presentation_keeps_the_identity_and_inverses_it_validated():
    s3 = symmetric_group(3)
    assert s3.identity == 0
    assert [s3.inverse(a) for a in range(6)] == oracles.group_inverses(s3)
    assert [s3.inverse(a) for a in range(6)] != list(range(6))  # 3-cycles are not involutions
    # neither kept value takes part in equality or the repr
    assert s3 == symmetric_group(3) and "inverses" not in repr(s3)
