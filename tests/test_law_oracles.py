"""The per-map laws against brute-force summation over structure constants.

Each example draws a Hom-bialgebra H, two modules and two comodules over it
on carriers M and N, and a candidate map f: M -> N, over Q or a small prime
field.  The data are either random or the twisted cyclic group algebras of
``homyd.fixtures`` with their graded and regular (co)modules, where every
law holds; either may then get one entry bumped.  The failure lists of the
algebra, coalgebra, module, comodule and morphism checkers, law by law with
index and both sides, must equal those that ``tests/oracles.py`` sums out.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from homyd.fields import RATIONALS as Q, PrimeField
from homyd.fixtures import cyclic_endo_twist, cyclic_graded_yd
from homyd.linmap import LinearMap
from homyd.modules import (
    ComoduleStruct,
    ModuleStruct,
    check_comodule,
    check_comodule_morphism,
    check_module,
    check_module_morphism,
)
from homyd.structures import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    check_hom_algebra,
    check_hom_coalgebra,
)

from oracles import (
    oracle_coproduct_laws,
    oracle_morphism_laws,
    oracle_product_laws,
)

FIELDS = st.sampled_from([Q, PrimeField(2), PrimeField(3), PrimeField(5)])

# shape letters: h the base, m and n the two carriers; domain letters first
SHAPES = {
    "mu": "hhh", "delta": "hhh", "alpha_h": "hh",
    "act_m": "hmm", "coact_m": "mhm", "alpha_m": "mm",
    "act_n": "hnn", "coact_n": "nhn", "alpha_n": "nn", "f": "mn",
}
NDOM = {"mu": 2, "act_m": 2, "act_n": 2}


def scalars(field):
    if field is Q:
        return st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    return st.sampled_from([0, 0, 1, field.p - 1])


def _nested(draw, field, dims):
    if not dims:
        return draw(scalars(field))
    return [_nested(draw, field, dims[1:]) for _ in range(dims[0])]


def _random_constants(draw, field):
    dims = {c: draw(st.integers(1, 3)) for c in "hmn"}
    return {key: _nested(draw, field, [dims[c] for c in shape])
            for key, shape in SHAPES.items()}


def _fixture_constants(draw, field):
    """A twisted cyclic group algebra with graded or regular (co)modules as M
    and N, and f a power of the base's structure map (the identity at 0)."""
    n, k = draw(st.sampled_from([(2, 1), (3, 1), (3, 2)]))
    base = cyclic_endo_twist(n, k, field)
    regular = (ModuleStruct(base, base.mu, base.alpha),
               ComoduleStruct(base, base.delta, base.alpha))

    def carrier():
        grade = draw(st.sampled_from([None, *range(n)]))
        if grade is None:
            return regular
        yd = cyclic_graded_yd(n, k, grade, field)
        return yd.module, yd.comodule

    (mod_m, com_m), (mod_n, com_n) = carrier(), carrier()
    maps = {
        "mu": base.mu, "delta": base.delta, "alpha_h": base.alpha,
        "act_m": mod_m.act, "coact_m": com_m.coact, "alpha_m": mod_m.alpha,
        "act_n": mod_n.act, "coact_n": com_n.coact, "alpha_n": mod_n.alpha,
        "f": base.alpha.power(draw(st.integers(0, 2))),
    }
    return {key: lm.constants() for key, lm in maps.items()}


def _bump(draw, field, constants):
    """Raise one entry of one map by a nonzero scalar."""
    key = draw(st.sampled_from(sorted(constants)))
    target = constants[key]
    while isinstance(target[0], list):
        target = target[draw(st.integers(0, len(target) - 1))]
    i = draw(st.integers(0, len(target) - 1))
    step = draw(st.sampled_from([1, Fraction(1, 2)] if field is Q else [1]))
    target[i] = field.normalize(target[i] + step)


@st.composite
def law_data(draw):
    field = draw(FIELDS)
    if draw(st.booleans()):
        constants = _fixture_constants(draw, field)
    else:
        constants = _random_constants(draw, field)
    if draw(st.booleans()):
        _bump(draw, field, constants)
    return {key: LinearMap.from_constants(field, data, NDOM.get(key, 1))
                   for key, data in constants.items()}


def _failures(report):
    return [(f.law, f.index, f.lhs, f.rhs) for f in report.failures]


@settings(max_examples=60)
@given(law_data())
def test_per_map_law_failures_equal_the_oracle(maps):
    mu, delta, alpha_h = maps["mu"], maps["delta"], maps["alpha_h"]
    base = HomBialgebra(mu, delta, alpha_h)
    mod_m = ModuleStruct(base, maps["act_m"], maps["alpha_m"])
    mod_n = ModuleStruct(base, maps["act_n"], maps["alpha_n"])
    com_m = ComoduleStruct(base, maps["coact_m"], maps["alpha_m"])
    com_n = ComoduleStruct(base, maps["coact_n"], maps["alpha_n"])
    f = maps["f"]

    assert _failures(check_hom_algebra(HomAlgebra(mu, alpha_h))) == oracle_product_laws(
        mu, alpha_h, mu, alpha_h, ("multiplicativity", "hom_associativity"))
    assert _failures(check_hom_coalgebra(HomCoalgebra(delta, alpha_h))) == oracle_coproduct_laws(
        delta, alpha_h, delta, alpha_h, ("comultiplicativity", "hom_coassociativity"))
    assert _failures(check_module(mod_m)) == oracle_product_laws(
        mod_m.act, alpha_h, mu, mod_m.alpha,
        ("action_alpha_compat", "action_hom_associativity"))
    assert _failures(check_comodule(com_m)) == oracle_coproduct_laws(
        com_m.coact, alpha_h, delta, com_m.alpha,
        ("coaction_alpha_compat", "coaction_hom_coassociativity"))
    assert _failures(check_module_morphism(f, mod_m, mod_n)) == oracle_morphism_laws(
        f, mod_m, mod_n, "act")
    assert _failures(check_comodule_morphism(f, com_m, com_n)) == oracle_morphism_laws(
        f, com_m, com_n, "coact")


def test_the_fixture_family_satisfies_every_law():
    # the unbumped fixture data are sound, so the differential above also
    # compares passing reports
    base = cyclic_endo_twist(3, 2, Q)
    yd = cyclic_graded_yd(3, 2, 1, Q)
    regular = ModuleStruct(base, base.mu, base.alpha)
    assert check_hom_algebra(base.algebra).passed
    assert check_hom_coalgebra(base.coalgebra).passed
    assert check_module(regular).passed
    assert check_comodule(ComoduleStruct(base, base.delta, base.alpha)).passed
    ident = LinearMap.identity(Q, (3,))
    assert check_module_morphism(ident, regular, regular).passed
    assert check_comodule_morphism(ident, yd.comodule, yd.comodule).passed
