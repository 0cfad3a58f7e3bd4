from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import carried_yd, identity_rows
from homyd.errors import InapplicableError, PreconditionError, ShapeError
from homyd.fields import RATIONALS, PrimeField
import homyd.yd as ydmod
from homyd.fixtures import (
    crossed_gset,
    conjugation_yd,
    cyclic_endo_twist,
    cyclic_graded_yd,
    cyclic_group,
    group_bialgebra,
    inner_automorphism,
    symmetric_group,
)
from homyd.linmap import LinearMap, memoised, run_memo
from homyd.modules import (
    check_comodule_morphism,
    check_module_morphism,
    tensor_comodules,
    tensor_modules,
    tensor_raw,
)
from homyd.reports import CheckReport, compare_maps
from homyd.runner import execute_task
from homyd.specfile import Task
from homyd.yd import (
    YDModule,
    _compare_factors,
    _exponent,
    _kron,
    _pentagon_factors,
    associator_a,
    associator_frak_a,
    b_from_c,
    braiding_B,
    braiding_c,
    check_braid_implies_hybe,
    check_braid_implies_hybe_single,
    check_braid_relation,
    check_braid_relation_for,
    check_classical_yd,
    check_hexagons,
    check_hybe,
    check_hybe_for,
    check_pentagon,
    check_yd,
    hat_tensor,
    tilde_tensor,
    twist_yd,
    yd_suite,
)
from oracles import oracle_braiding_B, oracle_braiding_c, oracle_hat_coaction, oracle_yd_sides

Q = RATIONALS

S3 = symmetric_group(3)


@pytest.fixture(scope="module")
def s3_classical():
    return crossed_gset(S3, Q)


@pytest.fixture(scope="module")
def s3_twisted():
    # conjugation by a transposition as both structure maps
    transposition = next(
        t for t in range(6) if S3.cayley[t][t] == S3.identity and t != S3.identity
    )
    return conjugation_yd(S3, inner_automorphism(S3, transposition), Q)


@pytest.fixture(scope="module")
def s3_order3():
    # conjugation by a 3-cycle: α_H has order 3, so α_H^{-1} differs from α_H,
    # which no involutive or trivially acting fixture can tell apart
    yd = conjugation_yd(S3, inner_automorphism(S3, 3), Q)
    assert yd.over.alpha.power(3) == LinearMap.identity(Q, (6,)) != yd.over.alpha.power(2)
    return yd


@pytest.fixture(scope="module")
def c5_pair():
    return cyclic_graded_yd(5, 4, 1, Q), cyclic_graded_yd(5, 4, 2, Q)


def test_abelian_trivial_conjugation_passes_classically():
    fixture = crossed_gset(cyclic_group(4), Q)
    assert check_classical_yd(fixture).passed


def test_s3_crossed_gset_passes_classically(s3_classical):
    assert check_classical_yd(s3_classical).passed


def test_classical_yd_on_nonabelian_group_mutations(s3_classical):
    # the unit coaction m -> 1 ⊗ m keeps compatibility (both sides are
    # h ⊗ hmh^{-1}); what breaks on a nonabelian group is the trivial action
    # with the diagonal coaction, where the sides become mh⊗m and hm⊗m
    n = S3.order
    e = S3.identity
    unit_coact = [
        [[1 if i == e and p == m else 0 for p in range(n)] for i in range(n)]
        for m in range(n)
    ]
    from homyd.modules import ComoduleStruct, ModuleStruct

    com = ComoduleStruct.from_constants(
        s3_classical.over, unit_coact, identity_rows(n)
    )
    still_fine = YDModule(s3_classical.over, s3_classical.act, com.coact, s3_classical.alpha)
    assert check_classical_yd(still_fine).passed

    trivial_act = [
        [[1 if p == m else 0 for p in range(n)] for m in range(n)] for _ in range(n)
    ]
    mod = ModuleStruct.from_constants(
        s3_classical.over, trivial_act, identity_rows(n)
    )
    bad = YDModule(s3_classical.over, mod.act, s3_classical.coact, s3_classical.alpha)
    report = check_classical_yd(bad)
    assert not report.passed
    first = report.failures[0]
    assert first.lhs != first.rhs


def test_check_yd_agrees_with_classical_on_identity_fixture(s3_classical):
    gated = check_yd(s3_classical)
    classical = check_classical_yd(s3_classical)
    assert gated.passed == classical.passed
    assert [f.index for f in gated.failures] == [f.index for f in classical.failures]


def test_twisted_s3_fixture_passes_check_yd(s3_twisted):
    assert check_yd(s3_twisted).passed
    assert yd_suite(s3_twisted).passed


def test_twisted_fixture_matches_oracle_sides(s3_twisted):
    lhs, rhs = oracle_yd_sides(s3_twisted)
    assert np.array_equal(lhs, rhs)
    from homyd.yd import _yd_sides

    built_lhs, built_rhs = _yd_sides(
        s3_twisted.over, s3_twisted.act, s3_twisted.coact, s3_twisted.over.alpha.power(2)
    )
    assert np.array_equal(built_lhs.entries, lhs)
    assert np.array_equal(built_rhs.entries, rhs)


def test_twist_yd_of_c5_trivial_action_passes():
    out = cyclic_graded_yd(5, 4, 1, Q)
    assert check_yd(out).passed


def test_identity_twist_keeps_yd_data(s3_classical):
    ident = LinearMap.identity(Q, (6,))
    out = twist_yd(s3_classical, ident, ident)
    assert out.act == s3_classical.act
    assert out.coact == s3_classical.coact


def test_twist_yd_rejects_non_bijective_maps(s3_classical):
    squash = LinearMap.from_rows(Q, (6,), (6,), [[1] * 6] * 6)
    with pytest.raises(PreconditionError):
        twist_yd(s3_classical, squash, squash)


def test_check_yd_gates_on_non_invertible_base():
    base = cyclic_endo_twist(4, 2)  # alpha not invertible
    n = 4
    act = [[[1 if p == m else 0 for p in range(n)] for m in range(n)] for _ in range(n)]
    coact = [
        [[1 if i == m and p == m else 0 for p in range(n)] for i in range(n)]
        for m in range(n)
    ]
    from homyd.modules import ComoduleStruct, ModuleStruct

    mod = ModuleStruct.from_constants(base, act, identity_rows(n))
    com = ComoduleStruct.from_constants(base, coact, identity_rows(n))
    candidate = YDModule(base, mod.act, com.coact, mod.alpha)
    with pytest.raises(InapplicableError):
        check_yd(candidate)


def test_check_yd_gates_on_non_invertible_carrier_map(s3_classical):
    squash = LinearMap.from_rows(Q, (6,), (6,), [[0] * 6] * 6)
    candidate = YDModule(
        s3_classical.over, s3_classical.act, s3_classical.coact, squash
    )
    with pytest.raises(InapplicableError):
        check_yd(candidate)


def _doubled(m: YDModule) -> YDModule:
    """``m`` with its action doubled: h·(k·x) picks up 4 where the
    Hom-associativity law wants 2, while both sides of the compatibility law
    hold the action once and stay equal."""
    return YDModule(m.over, m.act.scaled(2), m.coact, m.alpha)


DOUBLED = {
    "crossed_gset": lambda: _doubled(crossed_gset(S3, Q)),
    "conjugation": lambda: _doubled(conjugation_yd(S3, inner_automorphism(S3, 1), Q)),
}


@pytest.mark.parametrize("carrier", DOUBLED)
def test_check_yd_scans_the_module_law_of_a_doubled_action(carrier):
    m = DOUBLED[carrier]()
    assert compare_maps("yd_compatibility", *ydmod._yd_sides(
        m.over, m.act, m.coact, m.over.alpha.power(2))).passed
    report = check_yd(m)
    assert not report.passed
    assert {f.law for f in report.failures} == {"action_hom_associativity"}
    assert len(report.failures) == 216  # every (h, k, x) of S3
    assert report == yd_suite(m)


def test_classical_yd_scans_the_module_law_of_a_doubled_action():
    m = DOUBLED["crossed_gset"]()
    report = check_classical_yd(m)
    assert report.law == "classical_yd_compatibility"
    assert report.failures == yd_suite(m).failures
    assert {f.law for f in report.failures} == {"action_hom_associativity"}


def test_yd_and_classical_yd_tasks_fail_alike_on_a_doubled_action():
    names = {"M": DOUBLED["crossed_gset"]()}
    yd, classical = (execute_task(Task(kind, {"check": kind, "target": "M"}), names)[0]
                     for kind in ("yd", "classical_yd"))
    assert yd.status == classical.status == "fail"
    assert len(classical.report.failures) == 216
    assert classical.report.failures == yd.report.failures


# -- braiding B and HYBE ---------------------------------------------------


def test_braiding_B_is_flip_on_abelian_identity_fixture():
    fixture = crossed_gset(cyclic_group(3), Q)
    b = braiding_B(fixture, fixture)
    assert b == LinearMap.permutation(Q, (3, 3), (1, 0))


def test_braiding_B_matches_oracle(s3_twisted, s3_order3, c5_pair):
    m, n = c5_pair
    for x, y in [(s3_twisted, s3_twisted), (s3_order3, s3_order3), (m, n), (n, m), (m, m)]:
        built = braiding_B(x, y)
        assert np.array_equal(built.entries, oracle_braiding_B(x, y))


def test_braiding_B_commutation_square(s3_twisted, c5_pair):
    m, n = c5_pair
    for x, y in [(s3_twisted, s3_twisted), (m, n), (n, m)]:
        b = braiding_B(x, y)
        lhs = y.alpha.tensor(x.alpha) @ b
        rhs = b @ x.alpha.tensor(y.alpha)
        assert lhs == rhs


def test_hybe_for_flips_and_identities():
    flip = LinearMap.permutation(Q, (2, 2), (1, 0))
    ident = LinearMap.identity(Q, (2,))
    assert check_hybe(flip, flip, flip, ident, ident, ident).passed


def test_hybe_fails_for_random_non_braiding():
    bad = LinearMap.from_rows(
        Q, (2, 2), (2, 2),
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]],
    )
    ident = LinearMap.identity(Q, (2,))
    report = check_hybe(bad, bad, bad, ident, ident, ident)
    assert not report.passed
    assert all(f.lhs != f.rhs for f in report.failures)


def test_hybe_passes_on_yd_triples(s3_twisted, s3_order3, c5_pair):
    m, n = c5_pair
    assert check_hybe_for(s3_twisted, s3_twisted, s3_twisted).passed
    assert check_hybe_for(s3_order3, s3_order3, s3_order3).passed
    assert check_hybe_for(m, n, m).passed
    assert check_hybe_for(n, m, m).passed


# -- tensor structures -----------------------------------------------------


def test_hat_tensor_classical_limit_is_plain_tensor(s3_classical):
    hom = s3_classical
    hat = hat_tensor(hom, hom)
    assert hat.act == tensor_modules(hom.module, hom.module).act
    assert hat.coact == tensor_comodules(hom.comodule, hom.comodule).coact


def test_hat_tensor_passes_and_matches_oracle(c5_pair):
    m, n = c5_pair
    hat = hat_tensor(m, n)
    assert yd_suite(hat).passed
    assert np.array_equal(hat.coact.entries, oracle_hat_coaction(m, n))


def test_hat_coaction_differs_from_plain_by_alpha_square(c5_pair):
    m, n = c5_pair
    hat = hat_tensor(m, n)
    plain = tensor_comodules(m.comodule, n.comodule)
    twist = m.over.alpha.power(-2).tensor(LinearMap.identity(Q, (m.dim * n.dim,)))
    assert hat.coact == twist @ plain.coact


def test_tilde_tensor_classical_limit_equals_hat(s3_classical):
    hom = s3_classical
    assert tilde_tensor(hom, hom).act == hat_tensor(hom, hom).act
    assert tilde_tensor(hom, hom).coact == hat_tensor(hom, hom).coact


def test_tilde_action_is_plain_action_with_twisted_algebra_leg(c5_pair):
    m, n = c5_pair
    tilde = tilde_tensor(m, n)
    assert yd_suite(tilde).passed
    plain = tensor_modules(m.module, n.module)
    shifted = plain.act @ m.over.alpha.power(-2).tensor(
        LinearMap.identity(Q, (m.dim * n.dim,))
    )
    assert tilde.act == shifted


# -- associators -----------------------------------------------------------


def test_associators_collapse_to_identity_for_identity_maps(s3_classical):
    hom = s3_classical
    a = associator_a(hom, hom, hom)
    assert a == LinearMap.identity(Q, (6, 6, 6))
    fa = associator_frak_a(hom, hom, hom)
    assert fa == LinearMap.identity(Q, (6, 6, 6))


def test_associator_times_inverse_is_identity(c5_pair):
    m, n = c5_pair
    a = associator_a(m, n, m)
    assert a @ a.inverse() == LinearMap.identity(Q, a.cod)
    assert a.inverse() @ a == LinearMap.identity(Q, a.dom)


def test_associator_is_certified_yd_morphism(c5_pair):
    m, n = c5_pair
    a = associator_a(m, n, n)
    left = hat_tensor(hat_tensor(m, n), n)
    right = hat_tensor(m, hat_tensor(n, n))
    assert check_module_morphism(a, left.module, right.module).passed
    assert check_comodule_morphism(a, left.comodule, right.comodule).passed


def test_frak_associator_is_certified_for_tilde_towers(c5_pair):
    m, n = c5_pair
    fa = associator_frak_a(m, n, m)
    left = tilde_tensor(tilde_tensor(m, n), m)
    right = tilde_tensor(m, tilde_tensor(n, m))
    assert check_module_morphism(fa, left.module, right.module).passed
    assert check_comodule_morphism(fa, left.comodule, right.comodule).passed


# -- braiding c ------------------------------------------------------------


def test_braiding_c_classical_limit_is_braiding_B(s3_classical):
    hom = s3_classical
    assert braiding_c(hom, hom) == braiding_B(hom, hom)


def test_braiding_c_matches_oracle(s3_twisted, s3_order3, c5_pair):
    m, n = c5_pair
    for x, y in [(s3_twisted, s3_twisted), (s3_order3, s3_order3), (m, n), (n, m)]:
        built = braiding_c(x, y)
        assert np.array_equal(built.entries, oracle_braiding_c(x, y))


def test_bridge_identity_b_equals_alpha_pair_after_c(s3_twisted, s3_order3, c5_pair):
    m, n = c5_pair
    for x, y in [(s3_twisted, s3_twisted), (s3_order3, s3_order3), (m, n), (n, m), (m, m)]:
        c = braiding_c(x, y)
        assert braiding_B(x, y) == b_from_c(c, x.alpha, y.alpha)


def test_braiding_c_needs_invertible_maps(s3_classical):
    squash = LinearMap.from_rows(Q, (6,), (6,), [[0] * 6] * 6)
    candidate = YDModule(
        s3_classical.over, s3_classical.act, s3_classical.coact, squash
    )
    with pytest.raises(InapplicableError):
        braiding_c(candidate, candidate)


# -- coherence laws ----------------------------------------------------------


def test_pentagon_identity_case(s3_classical):
    hom = s3_classical
    report = check_pentagon(hom, hom, hom, hom, "hat")
    assert report.passed


def test_pentagon_twisted_fixture_both_flavors():
    m = cyclic_graded_yd(3, 2, 1, Q)
    for flavor in ("hat", "tilde"):
        report = check_pentagon(m, m, m, m, flavor)
        assert report.passed, flavor


def _materialised_pentagon(e, m, n, p, q):
    """Both pentagon composites and the diagonal, built in full."""
    def assoc(x, middle, z):
        return x.power(e).tensor(LinearMap.identity(x.field, middle)).tensor(z.power(-e))

    ident_m = LinearMap.identity(m.field, (m.dim,))
    ident_q = LinearMap.identity(m.field, (q.dim,))
    lhs = (
        ident_m.tensor(assoc(n.alpha, (p.dim,), q.alpha))
        @ assoc(m.alpha, (n.dim, p.dim), q.alpha)
        @ assoc(m.alpha, (n.dim,), p.alpha).tensor(ident_q)
    )
    rhs = (
        assoc(m.alpha, (n.dim,), p.alpha.tensor(q.alpha))
        @ assoc(m.alpha.tensor(n.alpha), (p.dim,), q.alpha)
    )
    diagonal = (
        m.alpha.power(2 * e).tensor(n.alpha.power(e))
        .tensor(p.alpha.power(-e)).tensor(q.alpha.power(-2 * e))
    )
    return lhs, rhs, diagonal


# dense and invertible over Q with a non-integral inverse
DENSE_Q3 = LinearMap.from_rows(Q, (3,), (3,), [[2, 2, 1], [1, 2, 1], [1, 2, 0]])


def _pentagon_quads():
    """``id -> (m, n, p, q)``: cyclic_graded_yd pairs at n <= 5, carriers of
    two dimensions over one base and a pair carried along a dense change of
    basis."""
    quads = {}
    for n, k in ((2, 1), (3, 2), (4, 3), (5, 2), (5, 4)):
        a, b = cyclic_graded_yd(n, k, 1, Q), cyclic_graded_yd(n, k, 2, Q)
        quads[f"cyclic_{n}_{k}"] = (a, b, a, b)
    a, b = cyclic_graded_yd(3, 2, 1, Q), cyclic_graded_yd(3, 2, 2, Q)
    quads["dims_3939"] = (a, hat_tensor(a, b), b, tilde_tensor(b, a))
    a, b = (carried_yd(cyclic_graded_yd(3, 2, g, Q), DENSE_Q3) for g in (1, 2))
    assert len(a.alpha.values) == 9  # every entry of the structure map is nonzero
    quads["dense_q3"] = (a, b, a, b)
    return quads


PENTAGON_QUADS = _pentagon_quads()


@pytest.mark.parametrize("flavor", ["hat", "tilde"])
@pytest.mark.parametrize("quad", PENTAGON_QUADS.values(), ids=PENTAGON_QUADS.keys())
def test_factored_pentagon_matches_the_materialised_composites(quad, flavor):
    e = _exponent(flavor)
    factors = _pentagon_factors(e, *quad)
    full = _materialised_pentagon(e, *quad)
    for got, want in zip(factors, full):
        assert len(got) == 4
        assert _kron(got) == want
    lhs, rhs, diagonal = full
    assert check_pentagon(*quad, flavor) == CheckReport.combine(
        f"pentagon_{flavor}",
        [
            compare_maps("pentagon_composites_equal", lhs, rhs),
            compare_maps("pentagon_equals_diagonal", lhs, diagonal),
        ],
    )


def test_factor_scan_passes_a_scalar_moved_between_factors():
    x = carried_yd(cyclic_graded_yd(3, 2, 1, Q), DENSE_Q3).alpha
    y = LinearMap.identity(Q, (2,))
    lhs, rhs = [x.scaled(2), y, x], [x, y.scaled(Fraction(2, 3)), x.scaled(3)]
    assert all(a != b for a, b in zip(lhs, rhs))
    assert _compare_factors("moved_scalar", lhs, rhs) == CheckReport("moved_scalar")


def test_factor_scan_reports_what_compare_maps_reports():
    x = carried_yd(cyclic_graded_yd(3, 2, 1, Q), DENSE_Q3).alpha
    y = cyclic_graded_yd(2, 1, 1, Q).alpha
    lhs, rhs = [x, y, x], [x, y, x.power(2)]
    report = _compare_factors("differs", lhs, rhs)
    assert not report.passed
    assert report == compare_maps("differs", _kron(lhs), _kron(rhs))


def _with_alpha(yd, rows):
    return YDModule(yd.over, yd.act, yd.coact, LinearMap.from_rows(Q, (yd.dim,), (yd.dim,), rows))


@pytest.mark.parametrize("flavor, slot", [("hat", 0), ("tilde", 2)])
def test_pentagon_on_a_singular_structure_map_is_inapplicable(flavor, slot):
    # the hat associators invert the structure maps of M and N, the tilde ones
    # those of P and Q; both slots are singular and the first is reported
    a, b = cyclic_graded_yd(3, 2, 1, Q), cyclic_graded_yd(3, 2, 2, Q)
    quad = [a, b, a, b]
    quad[slot] = _with_alpha(a, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    quad[slot + 1] = _with_alpha(b, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    task = Task("pentagon", {"check": "pentagon", "modules": list("MNPQ"), "flavor": flavor})
    result, _ = execute_task(task, dict(zip("MNPQ", quad)))
    assert result.status == "inapplicable"
    name = "first" if flavor == "hat" else "third"
    assert result.reason == f"inapplicable: {flavor} pentagon needs a bijective {name} structure map"
    # the other flavor inverts the other two slots, and runs
    other = {"hat": "tilde", "tilde": "hat"}[flavor]
    task = Task("pentagon", {"check": "pentagon", "modules": list("MNPQ"), "flavor": other})
    result, _ = execute_task(task, dict(zip("MNPQ", quad)))
    assert result.status in ("pass", "fail")


# -- one base for every operand ---------------------------------------------

# equal dimensions, but the bases k[C3] carry the structure maps g -> g^2 and
# the identity
MIXED = (cyclic_graded_yd(3, 2, 1, Q), cyclic_graded_yd(3, 1, 1, Q))
BASE_REFUSAL = "operands live over different base structures"


@pytest.mark.parametrize("slot", [0, -1])
@pytest.mark.parametrize(
    "check, arity",
    [pytest.param(check, arity, id=check.__name__) for check, arity in (
        (check_pentagon, 4), (check_hexagons, 3), (check_braid_relation_for, 3),
        (associator_a, 3), (associator_frak_a, 3),
    )],
)
def test_coherence_laws_refuse_operands_over_different_bases(check, arity, slot):
    operands = [MIXED[0]] * arity
    operands[slot] = MIXED[1]
    with pytest.raises(ShapeError) as exc:
        check(*operands)
    assert str(exc.value) == BASE_REFUSAL


@pytest.mark.parametrize("kind, arity", [("pentagon", 4), ("hexagons", 3), ("braid_relation", 3)])
def test_coherence_tasks_over_different_bases_are_inapplicable(kind, arity):
    task = Task(kind, {"check": kind, "modules": ["M"] * (arity - 1) + ["N"]})
    result, _ = execute_task(task, dict(zip("MN", MIXED)))
    assert result.status == "inapplicable"
    assert result.reason == f"inapplicable: {BASE_REFUSAL}"


# cyclic_graded_yd(n, k, grade, field) for n in {2, 3}, k prime to n, grade in
# {1, 2} and field in {Q, GF(7)}: two modules over each of six bases
GRADED_FAMILY = [
    cyclic_graded_yd(n, k, grade, field)
    for n, k in ((2, 1), (3, 1), (3, 2)) for grade in (1, 2) for field in (Q, PrimeField(7))
]
# (arity, check) of every law and construction of several modules
MULTI_OPERAND = [
    (3, check_hybe_for), (3, check_braid_relation_for),
    (3, partial(check_hexagons, flavor="hat")), (3, partial(check_hexagons, flavor="tilde")),
    (4, partial(check_pentagon, flavor="hat")), (4, partial(check_pentagon, flavor="tilde")),
    (3, associator_a), (3, associator_frak_a), (2, hat_tensor), (2, tilde_tensor),
    (2, braiding_B), (2, braiding_c),
]


@given(st.lists(st.sampled_from(GRADED_FAMILY), min_size=2, max_size=4))
def test_multi_operand_checks_run_exactly_over_one_base(drawn):
    for arity, check in MULTI_OPERAND:
        operands = [drawn[i % len(drawn)] for i in range(arity)]
        if all(operands[0].over == x.over for x in operands):
            out = check(*operands)  # a construction certifies itself
            assert not isinstance(out, CheckReport) or out.passed
        else:
            with pytest.raises(ShapeError, match=f"^{BASE_REFUSAL}$"):
                check(*operands)


def test_hexagons_classical_and_twisted(s3_classical, s3_order3, c5_pair):
    hom = s3_classical
    assert check_hexagons(hom, hom, hom, "hat").passed
    m, n = c5_pair
    for flavor in ("hat", "tilde"):
        assert check_hexagons(m, n, m, flavor).passed, flavor
        assert check_hexagons(s3_order3, s3_order3, s3_order3, flavor).passed, flavor


def _vandermonde(*points):
    return LinearMap.from_rows(Q, (len(points),), (len(points),),
                               [[x**j for j in range(len(points))] for x in points])


@pytest.mark.parametrize("flavor", ["hat", "tilde"])
def test_hexagons_eliminate_no_map_beyond_the_factors(flavor):
    # the inverses of α_N⊗α_P and α_M⊗α_N are the Kronecker products of the
    # factors' inverses, which the memo keeps from the bijectivity gate: one
    # elimination per distinct factor map (α_H, α_M, α_N, α_P).  Carried
    # along three dense changes of basis, the structure maps are dense,
    # distinct and of order 4, so a factor left uninverted or out of order
    # breaks the hexagons
    qs = [_vandermonde(1, 2, 3, 4, 5), _vandermonde(-2, -1, 1, 2, 3), _vandermonde(3, 1, 4, 5, 9)]
    triple = [carried_yd(cyclic_graded_yd(5, 2, g, Q), q) for g, q in zip((1, 2, 3), qs)]
    assert all(len(x.alpha.values) >= 20 for x in triple)
    assert len({tuple(x.alpha.entries.flat) for x in triple}) == 3
    body, eliminated = LinearMap._gauss_jordan.__wrapped__, []

    def counted(m):
        eliminated.append(m)
        return body(m)

    with mock.patch.object(LinearMap, "_gauss_jordan", memoised(counted)), run_memo():
        report = check_hexagons(*triple, flavor)
    assert report.passed
    factors = [triple[0].over.alpha] + [x.alpha for x in triple]
    assert len(eliminated) == len(factors)
    assert all(sum(m == f for m in eliminated) == 1 for f in factors)


def test_flip_is_no_braiding_on_noncommutative_coactions(s3_twisted):
    # the bare flip satisfies the hexagon composites for any structure maps
    # (both sides reduce to the same alpha-weighted shuffle), but it is not a
    # comodule morphism between the twisted tensor towers: the first output
    # leg would need m_(-1)n_(-1) = n_(-1)m_(-1)
    flip = LinearMap.permutation(Q, (6, 6), (1, 0))
    left = tensor_raw("hat", s3_twisted, s3_twisted)
    report = check_comodule_morphism(
        flip.with_shapes((36,), (36,)), left.comodule, left.comodule
    )
    assert not report.passed


def test_hexagon_fails_for_rescaled_braiding(c5_pair):
    # the hexagon sides are linear and quadratic in c respectively, so any
    # nonzero rescaling of a true braiding must break them; every c of both
    # hexagons, c_{M,N⊗P} and c_{M⊗N,P} too, comes out of the one kernel
    m, _ = c5_pair
    real = ydmod._yd_paired
    with mock.patch.object(ydmod, "_yd_paired", lambda *legs: real(*legs).scaled(2)):
        report = check_hexagons(m, m, m, "hat")
    assert not report.passed
    assert all(f.lhs != f.rhs for f in report.failures)


def _hexagon_triples():
    """``id -> (m, n, p)``: pairs carried along a dense change of basis and the
    module whose α_H has order 3, over Q and GF(11), and the dense triple of
    distinct structure maps over Q."""
    triples = {}
    for name, field in (("q", Q), ("gf11", PrimeField(11))):
        q = LinearMap.from_rows(field, (3,), (3,), [[2, 2, 1], [1, 2, 1], [1, 2, 0]])
        a, b = (carried_yd(cyclic_graded_yd(3, 2, g, field), q) for g in (1, 2))
        triples[f"dense_{name}"] = (a, b, a)
        y = conjugation_yd(S3, inner_automorphism(S3, 3), field)
        triples[f"s3_order3_{name}"] = (y, y, y)
    qs = [_vandermonde(1, 2, 3, 4, 5), _vandermonde(-2, -1, 1, 2, 3), _vandermonde(3, 1, 4, 5, 9)]
    triples["vandermonde_q"] = tuple(
        carried_yd(cyclic_graded_yd(5, 2, g, Q), q) for g, q in zip((1, 2, 3), qs))
    return triples


HEXAGON_TRIPLES = _hexagon_triples()


@pytest.mark.parametrize("flavor", ["hat", "tilde"])
@pytest.mark.parametrize("triple", HEXAGON_TRIPLES.values(), ids=HEXAGON_TRIPLES.keys())
def test_hexagon_braidings_on_tensor_carriers_are_c_of_those_carriers(triple, flavor):
    # the hexagons build c_{M,N⊗P} and c_{M⊗N,P} with the kernel from the
    # tensor action or coaction alone; each must equal c of the carrier that
    # tensor_raw assembles, whose structure map is inverted by elimination
    m, n, p = triple
    real, built = ydmod._yd_paired, []

    def record(*legs):
        built.append(real(*legs))
        return built[-1]

    with mock.patch.object(ydmod, "_yd_paired", record):
        assert check_hexagons(m, n, p, flavor).passed
    c_m_np = [c for c in built if c.dom == (m.dim, n.dim * p.dim)]
    c_mn_p = [c for c in built if c.dom == (m.dim * n.dim, p.dim)]
    assert c_m_np == [ydmod._braiding_c_matrix(m, tensor_raw(flavor, n, p))]
    assert c_mn_p == [ydmod._braiding_c_matrix(tensor_raw(flavor, m, n), p)]


def test_braid_relation_for_flips_and_fixtures(s3_twisted, s3_order3, c5_pair):
    flip = LinearMap.permutation(Q, (2, 2), (1, 0))
    assert check_braid_relation(flip, flip, flip).passed
    m, n = c5_pair
    assert check_braid_relation_for(m, n, m).passed
    assert check_braid_relation_for(s3_twisted, s3_twisted, s3_twisted).passed
    assert check_braid_relation_for(s3_order3, s3_order3, s3_order3).passed


def test_braid_relation_fails_for_random_maps():
    bad = LinearMap.from_rows(
        Q, (2, 2), (2, 2),
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    )
    assert not check_braid_relation(bad, bad, bad).passed


def test_braid_implies_hybe_for_flip():
    flip = LinearMap.permutation(Q, (2, 2), (1, 0))
    ident = LinearMap.identity(Q, (2,))
    report = check_braid_implies_hybe(flip, flip, flip, ident, ident, ident)
    assert report.passed
    assert b_from_c(flip, ident, ident) == flip


def test_braid_implies_hybe_from_fixture_braidings(c5_pair):
    m, n = c5_pair
    report = check_braid_implies_hybe(
        braiding_c(m, n), braiding_c(m, m), braiding_c(n, m),
        m.alpha, n.alpha, m.alpha,
    )
    assert report.passed


def test_braid_implies_hybe_rejects_failing_hypotheses():
    # the identity map cannot commute with alpha⊗beta against beta⊗alpha
    # unless the two structure maps agree, so the hypothesis scan trips
    c = LinearMap.identity(Q, (2, 2))
    alpha = LinearMap.from_rows(Q, (2,), (2,), [[1, 0], [0, 2]])
    beta = LinearMap.identity(Q, (2,))
    with pytest.raises(PreconditionError) as exc:
        check_braid_implies_hybe(c, c, c, alpha, beta, beta)
    assert "commutes" in exc.value.law


def test_braid_implies_hybe_rejects_broken_braid_relation():
    shear = LinearMap.from_rows(
        Q, (2, 2), (2, 2),
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    )
    ident = LinearMap.identity(Q, (2,))
    with pytest.raises(PreconditionError) as exc:
        check_braid_implies_hybe(shear, shear, shear, ident, ident, ident)
    assert exc.value.law == "braid_relation"


def test_single_space_corollary_on_c3_fixture():
    m = cyclic_graded_yd(3, 2, 1, Q)
    c = braiding_c(m, m)
    report = check_braid_implies_hybe_single(c, m.alpha)
    assert report.passed
    assert b_from_c(c, m.alpha, m.alpha) == braiding_B(m, m)


def test_classical_limit_coherence(s3_classical):
    # with identity structure maps the two flavors and both associators agree,
    # and c is the classical braiding m_(-1)·n ⊗ m_(0)
    hom = s3_classical
    assert check_pentagon(hom, hom, hom, hom, "hat").passed
    assert check_pentagon(hom, hom, hom, hom, "tilde").passed
    a = associator_a(hom, hom, hom)
    fa = associator_frak_a(hom, hom, hom)
    assert a == fa
    c = braiding_c(hom, hom)
    classical = braiding_B(hom, hom)  # alpha^{-1} = id here
    assert c == classical


def test_inverse_is_computed_once_per_map(c5_pair):
    # only the memo keeps an inverse: within a run every call returns the one
    # map it eliminated, and outside one each call eliminates an equal map
    alpha = c5_pair[0].alpha
    with run_memo():
        inverse = alpha.inverse()
        assert alpha.inverse() is inverse
        assert alpha.is_invertible() and alpha.inverse() is inverse
    again = alpha.inverse()
    assert again == inverse and again is not inverse


@pytest.mark.parametrize("k", range(-3, 6))
def test_power_equals_iterated_compose(c5_pair, k):
    dense = LinearMap.from_rows(Q, (3,), (3,), [[2, 1, 0], [1, 1, 3], [0, 1, 1]])
    for alpha in (c5_pair[0].alpha, dense):
        step = alpha if k >= 0 else alpha.inverse()
        expected = LinearMap.identity(Q, alpha.dom)
        for _ in range(abs(k)):
            expected = expected @ step
        assert alpha.power(k) == expected
