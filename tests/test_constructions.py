"""Every construction is one builder that returns ``(object, report)``, made a
certifying constructor by ``structures.constructor``; twisting and the tensor
product are each written once, for modules, comodules and Yetter-Drinfeld
modules alike (twisting for algebras, coalgebras and bialgebras too)."""

import ast
import importlib
import pathlib

import pytest

from conftest import carried_yd
from homyd.errors import CertificationError, PreconditionError
from homyd.fields import RATIONALS, PrimeField
from homyd.fixtures import (
    crossed_gset,
    cyclic_bicharacter_sigma,
    conjugation_yd,
    cyclic_group,
    cyclic_r_matrix,
    group_bialgebra,
    inner_automorphism,
    symmetric_group,
)
from homyd.linmap import LinearMap
from homyd.modules import (
    ComoduleStruct,
    ModuleStruct,
    induce_comodule,
    induce_module,
    tensor,
    tensor_comodules,
    tensor_modules,
)
from homyd.quasitri import yd_from, yd_from_comodule, yd_from_module
from homyd.reports import CheckReport, Failure
from homyd.structures import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    tensor_algebra,
    twist,
    twist_algebra,
    twist_bialgebra,
    twist_coalgebra,
)
from homyd.yd import braiding_c, hat_tensor, tilde_tensor, twist_yd, yd_associator, yd_tensor

Q = RATIONALS
F7 = PrimeField(7)
S3 = symmetric_group(3)
SRC = pathlib.Path(__file__).parents[1] / "src" / "homyd"


def _conjugation(field):
    """The classical crossed S3-set and the inner automorphism by a
    transposition, a structure map for its base and its carrier alike."""
    alpha = LinearMap.basis_map(field, inner_automorphism(S3, 1))
    return crossed_gset(S3, field), alpha


# -- one twisting construction --------------------------------------------

def test_the_three_twist_names_are_one_function_keeping_the_source_kind():
    assert twist_algebra is twist_coalgebra is twist_bialgebra is twist
    y, alpha = _conjugation(Q)
    assert type(twist_algebra(y.over, alpha)) is HomBialgebra
    assert type(twist_bialgebra(y.over.algebra, alpha)) is HomAlgebra
    assert type(twist_bialgebra(y.over.coalgebra, alpha)) is HomCoalgebra


@pytest.mark.parametrize("field", [Q, F7], ids=lambda f: f.descriptor)
def test_twisted_maps_match_the_textbook_formulas(field):
    y, alpha = _conjugation(field)
    h = y.over
    mu, delta = alpha @ h.mu, h.delta @ alpha  # α∘μ and δ∘α
    act, coact = alpha @ y.act, alpha.tensor(alpha) @ y.coact  # α_M∘act, (α_H⊗α_M)∘coact
    over_algebra = ModuleStruct(h.algebra, y.act, y.alpha)
    over_coalgebra = ComoduleStruct(h.coalgebra, y.coact, y.alpha)
    # kind -> (twisted object, its maps by the textbook, the base it must sit over)
    twisted = {
        "algebra": (twist(h.algebra, alpha), {"mu": mu}, None),
        "coalgebra": (twist(h.coalgebra, alpha), {"delta": delta}, None),
        "bialgebra": (twist(h, alpha), {"mu": mu, "delta": delta}, None),
        "module": (induce_module(y.module, alpha, alpha), {"act": act}, h),
        "module over an algebra": (
            induce_module(over_algebra, alpha, alpha), {"act": act}, h.algebra),
        "comodule": (induce_comodule(y.comodule, alpha, alpha), {"coact": coact}, h),
        "comodule over a coalgebra": (
            induce_comodule(over_coalgebra, alpha, alpha), {"coact": coact}, h.coalgebra),
        "yd": (twist_yd(y, alpha, alpha), {"act": act, "coact": coact}, h),
    }
    for kind, (out, expected, base) in twisted.items():
        assert out.alpha == alpha, kind
        for attr, textbook in expected.items():
            assert getattr(out, attr) == textbook, (kind, attr)
        if base is not None:
            # the base twisted on the way is the base twisted on its own
            assert out.over == twist(base, alpha), kind


def _broken(field):
    """Calls whose first unmet hypothesis is on the named map, with the law
    and basis index that it fails at."""
    h = group_bialgebra(cyclic_group(3), field)
    third = field.inv(field.normalize(3) if field.characteristic else 3)
    shear = LinearMap.from_rows(field, (3,), (3,), [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    # every basis element to the idempotent (1 + g + g^2)/3: multiplicative,
    # not comultiplicative
    average = LinearMap.from_rows(field, (3,), (3,), [[third] * 3] * 3)
    g2 = LinearMap.basis_map(field, [0, 2, 1])
    ident3, ident6 = LinearMap.identity(field, (3,)), LinearMap.identity(field, (6,))
    regular = ModuleStruct(h, h.mu, h.alpha)
    diagonal = ComoduleStruct(h, h.delta, h.alpha)
    trivial = ModuleStruct(h, LinearMap.zero(field, (3, 3), (3,)), h.alpha)
    y, _ = _conjugation(field)
    swap = LinearMap.basis_map(field, [1, 0, 2, 3, 4, 5])
    # every carrier element to the identity: linear but not colinear, and
    # singular, so the hypothesis is refused before the bijectivity gate
    collapse = LinearMap.basis_map(field, [0] * 6)
    return {
        "mu": (lambda: twist(h.algebra, shear), "algebra_endomorphism", (1, 1)),
        "delta": (lambda: twist(h.coalgebra, shear), "coalgebra_endomorphism", (2,)),
        "bialgebra_mu": (lambda: twist(h, shear), "algebra_endomorphism", (1, 1)),
        "bialgebra_delta": (lambda: twist(h, average), "coalgebra_endomorphism", (0,)),
        "act": (lambda: induce_module(regular, g2, LinearMap.basis_map(field, [1, 2, 0])),
                "module_twist_compat", (1, 0)),
        "coact": (lambda: induce_comodule(diagonal, g2, LinearMap.basis_map(field, [1, 0, 2])),
                  "comodule_twist_compat", (0,)),
        # a carrier that meets its hypotheses, over a base that does not
        "module_base": (lambda: induce_module(trivial, shear, ident3),
                        "algebra_endomorphism", (1, 1)),
        "yd_act": (lambda: twist_yd(y, ident6, swap), "module_twist_compat", (2, 0)),
        "yd_coact": (lambda: twist_yd(y, ident6, collapse), "comodule_twist_compat", (1,)),
    }


@pytest.mark.parametrize("field", [Q, F7], ids=lambda f: f.descriptor)
@pytest.mark.parametrize("case", list(_broken(Q)))
def test_a_broken_hypothesis_names_its_law_and_basis_index(field, case):
    call, law, index = _broken(field)[case]
    with pytest.raises(PreconditionError) as exc:
        call()
    assert (exc.value.law, exc.value.index) == (law, index)


# -- one tensor product ---------------------------------------------------

def test_the_tensor_names_are_one_constructor():
    assert yd_tensor is tensor
    for alias, flavor in ((tensor_modules, "hat"), (tensor_comodules, "tilde"),
                          (hat_tensor, "hat"), (tilde_tensor, "tilde")):
        assert (alias.func, alias.args) == (tensor, (flavor,))


def test_the_induced_names_are_one_constructor():
    assert yd_from_module is yd_from_comodule is yd_from


def _tensor_pairs(field):
    """The crossed S3-set twisted along conjugation by a 3-cycle, whose α_H^{-2}
    is not the identity, twice, and carried along two dense changes of basis."""
    cube = next(t for t in range(6) if S3.cayley[t][t] != S3.identity
                and S3.cayley[S3.cayley[t][t]][t] == S3.identity)
    y = conjugation_yd(S3, inner_automorphism(S3, cube), field)
    # I + J and I + 2J, of determinants 7 and 13 over Q, with no zero entry
    dense = [LinearMap.from_rows(field, (6,), (6,),
                                 [[c + (i == j) for j in range(6)] for i in range(6)])
             for c in (1, 2)]
    return {"fixture": [y, y], "dense": [carried_yd(y, q) for q in dense]}


@pytest.mark.parametrize("field", [Q, PrimeField(11)], ids=lambda f: f.descriptor)
@pytest.mark.parametrize("pair", ["fixture", "dense"])
def test_modules_sit_inside_hat_and_comodules_inside_tilde(field, pair):
    m, n = _tensor_pairs(field)[pair]
    hat, tilde = hat_tensor(m, n), tilde_tensor(m, n)
    assert tensor_modules(m.module, n.module).act == hat.act
    assert tensor_comodules(m.comodule, n.comodule).coact == tilde.coact
    # the other flavour twists the map, so the statement is not vacuous
    assert tensor_modules(m.module, n.module).act != tilde.act
    assert tensor_comodules(m.comodule, n.comodule).coact != hat.coact


# -- one certifying-constructor protocol ----------------------------------

FORCED = CheckReport("forced", (Failure("forced", (0,), (1,), (0,)),))


def _constructor_calls():
    """Each certifying constructor: the checker its report comes from, as
    ``(module, name)``, and arguments it builds a sound object from."""
    y = crossed_gset(cyclic_group(3), Q)
    g2 = LinearMap.basis_map(Q, [0, 2, 1])
    r_base, r = cyclic_r_matrix(2, Q, -1, 1)
    s_base, s = cyclic_bicharacter_sigma(2, 3, 2, 1)
    return {
        "twist": (twist, ("structures", "check_hom_bialgebra"), (y.over, g2)),
        "tensor_algebra": (tensor_algebra, ("structures", "check_hom_algebra"),
                           (y.over.algebra, y.over.algebra)),
        "induce_module": (induce_module, ("modules", "check_module"), (y.module, g2, g2)),
        "induce_comodule": (induce_comodule, ("modules", "check_comodule"),
                            (y.comodule, g2, g2)),
        "twist_yd": (twist_yd, ("yd", "yd_suite"), (y, g2, g2)),
        "tensor_modules": (tensor, ("modules", "check_module"), ("hat", y.module, y.module)),
        "tensor_comodules": (tensor, ("modules", "check_comodule"),
                             ("tilde", y.comodule, y.comodule)),
        "yd_tensor_hat": (tensor, ("yd", "yd_suite"), ("hat", y, y)),
        "yd_tensor_tilde": (tensor, ("yd", "yd_suite"), ("tilde", y, y)),
        "associator_hat": (yd_associator, ("yd", "_morphism_report"), ("hat", y, y, y)),
        "associator_tilde": (yd_associator, ("yd", "_morphism_report"), ("tilde", y, y, y)),
        "braiding_c": (braiding_c, ("yd", "_morphism_report"), (y, y)),
        "yd_from_module": (yd_from_module, ("quasitri", "yd_suite"),
                           (ModuleStruct(r_base, r_base.mu, r_base.alpha), r)),
        "yd_from_comodule": (yd_from_comodule, ("quasitri", "yd_suite"),
                             (ComoduleStruct(s_base, s_base.delta, s_base.alpha), s)),
        "group_bialgebra": (group_bialgebra, ("fixtures", "check_classical_bialgebra"),
                            (cyclic_group(3),)),
    }


CONSTRUCTORS = _constructor_calls()


def test_every_certifying_constructor_is_covered():
    found = {
        obj
        for module in ("structures", "modules", "yd", "quasitri", "fixtures")
        for obj in vars(importlib.import_module(f"homyd.{module}")).values()
        if hasattr(obj, "build")
    }
    assert found == {fn for fn, _, _ in CONSTRUCTORS.values()}


@pytest.mark.parametrize("name", list(CONSTRUCTORS))
def test_a_failed_certification_raises_with_the_report_that_build_returns(name, monkeypatch):
    public, (module, check), args = CONSTRUCTORS[name]
    _, report = public.build(*args)
    assert report.passed
    monkeypatch.setattr(f"homyd.{module}.{check}", lambda *a, **k: FORCED)
    _, report = public.build(*args)
    assert FORCED.failures[0] in report.failures
    with pytest.raises(CertificationError) as exc:
        public(*args)
    assert exc.value.report == report


# -- the task layer --------------------------------------------------------

def test_the_runner_imports_only_public_names():
    tree = ast.parse((SRC / "runner.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
