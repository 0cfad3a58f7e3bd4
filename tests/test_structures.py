import inspect
import itertools
import math
from fractions import Fraction

import pytest

from conftest import cyclic_mu, grouplike_delta, identity_rows, perturbed, power_rows
from homyd.errors import CertificationError, InapplicableError, PreconditionError, ShapeError
from homyd.fields import RATIONALS, PrimeField
from homyd.fixtures import crossed_gset, cyclic_group
from homyd.linmap import LinearMap
from homyd.modules import ComoduleStruct, ModuleStruct, induce_comodule, induce_module
from homyd.quasitri import RElement, SigmaForm
from homyd.reports import compare_maps
from homyd.structures import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    check_classical_bialgebra,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    componentwise_product,
    tensor_algebra,
    twist_algebra,
    twist_bialgebra,
    twist_coalgebra,
)
from homyd.yd import YDModule, check_classical_yd, twist_yd

Q = RATIONALS


def cyclic_classical_bialgebra(n, field=Q):
    return HomBialgebra.from_constants(field, cyclic_mu(n), grouplike_delta(n))


def oracle_is_associative(field, mu_constants):
    """Direct triple-loop associativity scan on raw structure constants."""
    n = len(mu_constants)
    for a, b, c in itertools.product(range(n), repeat=3):
        for out in range(n):
            lhs = sum(
                (field.mul(mu_constants[b][c][m], mu_constants[a][m][out])
                 for m in range(n)),
                start=field.zero,
            )
            rhs = sum(
                (field.mul(mu_constants[a][b][m], mu_constants[m][c][out])
                 for m in range(n)),
                start=field.zero,
            )
            if field.normalize(lhs) != field.normalize(rhs):
                return False
    return True


def test_group_algebra_with_identity_structure_map_passes():
    alg = HomAlgebra.from_constants(Q, cyclic_mu(2), identity_rows(2))
    assert check_hom_algebra(alg).passed


def test_untwisted_product_with_nontrivial_alpha_fails_hom_associativity():
    # alpha(g) = g^2 on k[C3] with the untwisted product:
    # at (g, g, g^2) the two sides are g^2 and 1
    alg = HomAlgebra.from_constants(Q, cyclic_mu(3), power_rows(3, 2))
    report = check_hom_algebra(alg)
    assert not report.passed
    laws = {f.law for f in report.failures}
    assert laws == {"hom_associativity"}
    witness = [f for f in report.failures if f.index == (1, 1, 2)]
    assert witness
    assert witness[0].lhs == (0, 0, 1)  # g^2
    assert witness[0].rhs == (1, 0, 0)  # 1


def test_twist_algebra_identity_is_noop():
    alg = HomAlgebra.from_constants(Q, cyclic_mu(3))
    out = twist_algebra(alg, LinearMap.identity(Q, (3,)))
    assert out.mu == alg.mu
    assert out.alpha.is_identity()


def test_twist_algebra_hand_values():
    # k[C3], alpha(g)=g^2: g*g = alpha(g^2) = g^4 = g
    out = twist_algebra(
        HomAlgebra.from_constants(Q, cyclic_mu(3)),
        LinearMap.from_rows(Q, (3,), (3,), power_rows(3, 2)),
    )
    assert out.mu.constants()[1][1] == [0, 1, 0]
    # k[C4], alpha(g)=g^2: g*g = alpha(g^2) = g^4 = 1
    out4 = twist_algebra(
        HomAlgebra.from_constants(Q, cyclic_mu(4)),
        LinearMap.from_rows(Q, (4,), (4,), power_rows(4, 2)),
    )
    assert out4.mu.constants()[1][1] == [1, 0, 0, 0]


def test_twist_algebra_rejects_non_endomorphism():
    alg = HomAlgebra.from_constants(Q, cyclic_mu(3))
    bad = LinearMap.from_rows(Q, (3,), (3,), [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    with pytest.raises(PreconditionError) as exc:
        twist_algebra(alg, bad)
    assert exc.value.law == "algebra_endomorphism"
    assert exc.value.index is not None


def test_twist_closure_over_cyclic_endomorphisms():
    # every power map is a bialgebra endomorphism of k[C_n]; the twisted
    # structure must pass the exhaustive checker (the checker is the oracle)
    for n in (2, 3, 4, 6):
        bia = cyclic_classical_bialgebra(n)
        for k in range(n):
            alpha = LinearMap.from_rows(Q, (n,), (n,), power_rows(n, k))
            out = twist_bialgebra(bia, alpha)
            assert check_hom_bialgebra(out).passed


def test_grouplike_coalgebra_twisted_by_basis_permutation_passes():
    # on grouplikes, twisting the diagonal coproduct along any basis
    # permutation makes both twisted-coassociativity legs alpha^2(e) thrice
    perm = LinearMap.basis_map(Q, [2, 0, 3, 1])
    out = twist_coalgebra(HomCoalgebra.from_constants(Q, grouplike_delta(4)), perm)
    assert check_hom_coalgebra(out).passed
    # whereas the untwisted diagonal with a nontrivial permutation has
    # mismatched outer legs e⊗e⊗alpha(e) vs alpha(e)⊗e⊗e
    raw = HomCoalgebra.from_constants(Q, grouplike_delta(4), power_rows(4, 3))
    report = check_hom_coalgebra(raw)
    assert any(f.law == "hom_coassociativity" for f in report.failures)


def test_delta_of_cyclic_group_algebra_with_identity_passes():
    coalg = HomCoalgebra.from_constants(Q, grouplike_delta(2), identity_rows(2))
    assert check_hom_coalgebra(coalg).passed


def test_perturbed_delta_entry_fails_at_that_index():
    data = perturbed(grouplike_delta(3), (1, 1, 2))  # delta(g) gains +1 * g⊗g^2
    coalg = HomCoalgebra.from_constants(Q, data, identity_rows(3))
    report = check_hom_coalgebra(coalg)
    assert not report.passed
    assert any(f.index == (1,) for f in report.failures)


def test_check_hom_bialgebra_on_classical_and_twisted():
    bia = cyclic_classical_bialgebra(6)
    assert check_classical_bialgebra(bia).passed
    assert check_hom_bialgebra(bia).passed
    twisted = twist_bialgebra(bia, LinearMap.from_rows(Q, (6,), (6,), power_rows(6, 5)))
    assert check_hom_bialgebra(twisted).passed


def test_non_bijective_twist_still_passes_bialgebra_checks():
    bia = cyclic_classical_bialgebra(4)
    alpha = LinearMap.from_rows(Q, (4,), (4,), power_rows(4, 2))
    out = twist_bialgebra(bia, alpha)
    assert check_hom_bialgebra(out).passed
    assert not out.alpha.is_invertible()


def test_alpha_identity_reduction_matches_direct_associativity_scan():
    mu_good = cyclic_mu(3)
    mu_bad = perturbed(cyclic_mu(3), (1, 2, 0))
    for mu in (mu_good, mu_bad):
        alg = HomAlgebra.from_constants(Q, mu, identity_rows(3))
        assert check_hom_algebra(alg).passed == oracle_is_associative(Q, mu)


def test_checker_soundness_single_entry_perturbations():
    # bumping any single structure constant of a passing fixture must break
    # at least one law
    n = 3
    for index in itertools.product(range(n), repeat=3):
        alg = HomAlgebra.from_constants(
            Q, perturbed(cyclic_mu(n), index), identity_rows(n)
        )
        assert not check_hom_algebra(alg).passed, index


def test_tensor_with_zero_product_algebra_kills_products():
    zero = HomAlgebra.from_constants(Q, [[[0]]], [[1]])
    alg = twist_algebra(
        HomAlgebra.from_constants(Q, cyclic_mu(2)),
        LinearMap.identity(Q, (2,)),
    )
    out = tensor_algebra(alg, zero)
    assert out.dim == 2
    assert out.mu.is_zero()


def test_tensor_algebra_of_twisted_c2_passes_checks():
    alpha = LinearMap.from_rows(Q, (2,), (2,), power_rows(2, 1))
    a = twist_algebra(HomAlgebra.from_constants(Q, cyclic_mu(2)), alpha)
    out = tensor_algebra(a, a)
    assert out.dim == 4
    assert check_hom_algebra(out).passed


def test_componentwise_product_is_the_shuffled_tensor_of_products():
    # (x⊗y)(x'⊗y') = xx'⊗yy' on basis tuples, against the factor shuffle as a
    # permutation matrix, for products of different dims with fractions; the
    # first is not associative, so tensor_algebra is read through .build
    a = HomAlgebra.from_constants(
        Q, [[[1, Fraction(1, 2)], [0, 3]], [[Fraction(-2, 3), 0], [1, 1]]])
    b = HomAlgebra.from_constants(Q, cyclic_mu(3))
    perm = LinearMap.permutation(Q, (2, 3, 2, 3), (0, 2, 1, 3))
    prod = componentwise_product(a.mu, b.mu)
    assert prod == a.mu.tensor(b.mu) @ perm
    assert tensor_algebra.build(a, b)[0].mu == prod.with_shapes((6, 6), (6,))


def test_twist_works_over_prime_fields():
    f7 = PrimeField(7)
    bia = cyclic_classical_bialgebra(3, f7)
    out = twist_bialgebra(bia, LinearMap.from_rows(f7, (3,), (3,), power_rows(3, 2)))
    assert check_hom_bialgebra(out).passed


def test_certification_error_carries_report():
    # force an internal certification failure by calling certify on a failing
    # report
    from homyd.structures import certify

    bad = HomAlgebra.from_constants(Q, cyclic_mu(3), power_rows(3, 2))
    with pytest.raises(CertificationError):
        certify(check_hom_algebra(bad))


def test_restated_bialgebra_laws_match_direct_scans():
    # delta_alpha_exchange and delta_of_alpha are read off the coassociativity
    # and comultiplicativity scans; a bumped coproduct constant must give the
    # failure lists that scanning their own composites gives
    bumped = perturbed(grouplike_delta(3), (1, 0, 2))
    bia = HomBialgebra.from_constants(Q, cyclic_mu(3), bumped, power_rows(3, 2))
    mu, delta, alpha = bia.mu, bia.delta, bia.alpha
    report = check_hom_bialgebra(bia)
    direct = {
        "delta_alpha_exchange": compare_maps(
            "delta_alpha_exchange", delta.tensor(alpha) @ delta, alpha.tensor(delta) @ delta
        ),
        "delta_of_alpha": compare_maps(
            "delta_of_alpha", delta @ alpha, alpha.tensor(alpha) @ delta
        ),
    }
    for law, scan in direct.items():
        assert scan.failures
        assert [f for f in report.failures if f.law == law] == list(scan.failures)
    order = [
        "multiplicativity", "hom_associativity", "comultiplicativity",
        "hom_coassociativity", "delta_alpha_exchange", "delta_multiplicative",
        "delta_of_alpha",
    ]
    ranks = [order.index(f.law) for f in report.failures]
    assert ranks == sorted(ranks)


# -- the one validation path of every structure class -------------------

F7 = PrimeField(7)
H, D = 2, 3  # base and carrier dims differ, so a misread factor is caught
MU, DELTA = ("mu", (H, H), (H,)), ("delta", (H,), (H, H))
ACT, COACT = ("act", (H, D), (D,)), ("coact", (D,), (H, D))

# class -> (base class, (attribute, dom, cod) of each map in argument order,
# alpha dim, a base of the wrong class); built as ``cls(base?, *maps, alpha?)``
SHAPES = {
    HomAlgebra: (None, (MU,), H, None),
    HomCoalgebra: (None, (DELTA,), H, None),
    HomBialgebra: (None, (MU, DELTA), H, None),
    ModuleStruct: (HomAlgebra, (ACT,), D, HomCoalgebra),
    ComoduleStruct: (HomCoalgebra, (COACT,), D, HomAlgebra),
    YDModule: (HomBialgebra, (ACT, COACT), D, HomAlgebra),
    RElement: (HomBialgebra, (("element", (), (H, H)),), None, HomAlgebra),
    SigmaForm: (HomBialgebra, (("form", (H, H), ()),), None, HomAlgebra),
}


def _map(field, dom, cod):
    """A map of the given shape with distinct entries."""
    nrows, ncols = math.prod(cod), math.prod(dom)
    rows = [[field.normalize(1 + i + nrows * j) for j in range(ncols)] for i in range(nrows)]
    return LinearMap.from_rows(field, dom, cod, rows)


def _args(cls, field=Q, odd=None):
    """Valid arguments for ``cls`` over ``field``, but with part number ``odd``
    (counting the base, the maps and alpha) over another field."""
    base, maps, alpha, _ = SHAPES[cls]
    parts = ([base] if base else []) + list(maps)
    parts += [("alpha", (alpha,), (alpha,))] if alpha else []
    return [
        _make(part, f) if isinstance(part, type) else _map(f, *part[1:])
        for i, part in enumerate(parts)
        for f in [F7 if i == odd else field]
    ]


def _make(cls, field=Q):
    return cls(*_args(cls, field))


def _bumped(dom, cod):
    """The shape with its last codomain factor, or else its last domain
    factor, one larger."""
    if cod:
        return dom, cod[:-1] + (cod[-1] + 1,)
    return dom[:-1] + (dom[-1] + 1,), cod


@pytest.mark.parametrize("cls", list(SHAPES), ids=lambda cls: cls.__name__)
def test_every_structure_class_refuses_bad_data(cls):
    base, maps, alpha, wrong_base = SHAPES[cls]
    args = _args(cls)
    obj = cls(*args)
    first = 1 if base else 0
    for i, (_, dom, cod) in enumerate(maps):
        bad = list(args)
        bad[first + i] = _map(Q, *_bumped(dom, cod))
        with pytest.raises(ShapeError):
            cls(*bad)
    if wrong_base:
        with pytest.raises(ShapeError):
            cls(_make(wrong_base), *args[1:])
    if alpha:
        with pytest.raises(ShapeError):
            cls(*args[:-1], _map(Q, (alpha + 1,), (alpha + 1,)))
    if len(args) > 1:
        for i in range(len(args)):
            with pytest.raises(ShapeError):
                cls(*_args(cls, odd=i))
    # from the base (or the field), each map's constants and alpha's rows,
    # from_constants rebuilds the same object
    constants = [getattr(obj, attr).constants() for attr, _, _ in maps]
    rows = [obj.alpha.entries.tolist()] if alpha else []
    again = cls.from_constants(args[0] if base else Q, *constants, *rows)
    for attr, _, _ in maps:
        assert getattr(again, attr) == getattr(obj, attr)
    assert getattr(again, "over", None) is getattr(obj, "over", None)
    assert getattr(again, "alpha", None) == getattr(obj, "alpha", None)


# -- a classical structure is a Hom structure with identity maps ------------

G2 = LinearMap.basis_map(Q, [0, 2, 1])  # g -> g^2, an automorphism of k[C3]
ID3 = LinearMap.identity(Q, (3,))


def _crossed_c3(base=ID3, carrier=ID3):
    """The crossed C3-set with the given base and carrier structure maps."""
    y = crossed_gset(cyclic_group(3), Q)
    return YDModule(HomBialgebra(y.over.mu, y.over.delta, base), y.act, y.coact, carrier)


# entry point -> (what it refuses, its call on the crossed C3-set's structures
# with the named structure maps, the identity when omitted)
CLASSICAL_ENTRY_POINTS = {
    "twist_algebra": (
        "twisting", lambda source=ID3: twist_algebra(_crossed_c3(source).over.algebra, G2)),
    "twist_coalgebra": (
        "twisting", lambda source=ID3: twist_coalgebra(_crossed_c3(source).over.coalgebra, G2)),
    "twist_bialgebra": (
        "twisting", lambda source=ID3: twist_bialgebra(_crossed_c3(source).over, G2)),
    "check_classical_bialgebra": (
        "classical bialgebra check",
        lambda carrier=ID3: check_classical_bialgebra(_crossed_c3(carrier).over)),
    "induce_module": (
        "module induction",
        lambda base=ID3, carrier=ID3: induce_module(_crossed_c3(base, carrier).module, G2, G2)),
    "induce_comodule": (
        "comodule induction",
        lambda base=ID3, carrier=ID3: induce_comodule(
            _crossed_c3(base, carrier).comodule, G2, G2)),
    "twist_yd": (
        "Yetter-Drinfeld twisting",
        lambda base=ID3, carrier=ID3: twist_yd(_crossed_c3(base, carrier), G2, G2)),
    "check_classical_yd": (
        "classical Yetter-Drinfeld check",
        lambda base=ID3, carrier=ID3: check_classical_yd(_crossed_c3(base, carrier))),
}


@pytest.mark.parametrize("entry", list(CLASSICAL_ENTRY_POINTS))
def test_every_classical_entry_point_refuses_a_non_identity_structure_map(entry):
    what, call = CLASSICAL_ENTRY_POINTS[entry]
    out = call()  # identity structure maps are classical
    assert out.passed if hasattr(out, "passed") else out.alpha == G2
    for name in inspect.signature(call).parameters:
        with pytest.raises(InapplicableError) as exc:
            call(**{name: G2})
        assert str(exc.value) == f"{what} needs an identity {name} structure map"
