import numpy as np
import pytest

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
from homyd.structures import check_classical_bialgebra, check_hom_bialgebra
from homyd.yd import check_classical_yd, check_yd, twist_yd, yd_suite

Q = RATIONALS


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
    from homyd.linmap import LinearMap
    from homyd.structures import twist_bialgebra

    s3 = symmetric_group(3)
    bia = group_bialgebra(s3)
    for t in range(6):
        alpha = LinearMap.basis_map(RATIONALS, inner_automorphism(s3, t))
        assert check_hom_bialgebra(twist_bialgebra(bia, alpha)).passed
