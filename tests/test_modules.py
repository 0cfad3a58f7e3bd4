import pytest

from conftest import cyclic_mu, grouplike_delta, identity_rows, perturbed, power_rows
from homyd.errors import PreconditionError, ShapeError
from homyd.fields import RATIONALS
from homyd.linmap import LinearMap
from homyd.modules import (
    ComoduleStruct,
    ModuleStruct,
    check_comodule,
    check_comodule_morphism,
    check_module,
    check_module_morphism,
    induce_comodule,
    induce_module,
    tensor_comodules,
    tensor_modules,
)
from homyd.structures import HomBialgebra, twist_bialgebra

Q = RATIONALS


def cyclic_bialgebra(n):
    return HomBialgebra.from_constants(Q, cyclic_mu(n), grouplike_delta(n))


def regular_action(n):
    """e_i acting on the group algebra by left multiplication."""
    return [
        [[1 if k == (i + j) % n else 0 for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def diagonal_coaction(n, grade=1):
    """f_m -> e_{grade*m} ⊗ f_m."""
    return [
        [[1 if i == (grade * m) % n and p == m else 0 for p in range(n)] for i in range(n)]
        for m in range(n)
    ]


def test_zero_action_passes_for_any_structure_map():
    base = cyclic_bialgebra(3)
    zero = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    mod = ModuleStruct.from_constants(base, zero, power_rows(3, 2))
    assert check_module(mod).passed


def test_regular_classical_module_passes():
    base = cyclic_bialgebra(3)
    mod = ModuleStruct.from_constants(base, regular_action(3), identity_rows(3))
    assert check_module(mod).passed


def test_induced_regular_module_hand_values():
    # k[C3] acting on itself, alpha_A = alpha_M = (g -> g^2): g ▷ g = alpha(g^2) = g
    classical = ModuleStruct.from_constants(cyclic_bialgebra(3), regular_action(3))
    alpha = LinearMap.from_rows(Q, (3,), (3,), power_rows(3, 2))
    out = induce_module(classical, alpha, alpha)
    assert check_module(out).passed
    from homyd.modules import action_constants

    assert action_constants(out.act)[1][1] == [0, 1, 0]


def test_induce_module_identity_twist_is_noop():
    classical = ModuleStruct.from_constants(cyclic_bialgebra(3), regular_action(3))
    ident = LinearMap.identity(Q, (3,))
    out = induce_module(classical, ident, ident)
    assert out.act == classical.act


def test_induce_module_rejects_incompatible_alpha_m():
    classical = ModuleStruct.from_constants(cyclic_bialgebra(3), regular_action(3))
    alpha_a = LinearMap.from_rows(Q, (3,), (3,), power_rows(3, 2))
    # the cyclic shift j -> j+1 has slope 1, not 2, so it cannot intertwine
    alpha_m = LinearMap.basis_map(Q, [1, 2, 0])
    with pytest.raises(PreconditionError) as exc:
        induce_module(classical, alpha_a, alpha_m)
    assert exc.value.law == "module_twist_compat"


def test_induced_diagonal_comodule_hand_values():
    # diagonal coaction on k[C3], alpha(g)=g^2: new coaction of g is g^2 ⊗ g^2
    com = ComoduleStruct.from_constants(cyclic_bialgebra(3), diagonal_coaction(3))
    alpha = LinearMap.from_rows(Q, (3,), (3,), power_rows(3, 2))
    out = induce_comodule(com, alpha, alpha)
    assert check_comodule(out).passed
    constants = out.coact.constants()
    assert constants[1][2][2] == 1  # coact(g) = g^2 ⊗ g^2
    assert sum(1 for i in range(3) for n in range(3) if constants[1][i][n]) == 1


def test_induce_comodule_rejects_non_colinear_alpha():
    com = ComoduleStruct.from_constants(cyclic_bialgebra(3), diagonal_coaction(3))
    alpha_c = LinearMap.from_rows(Q, (3,), (3,), power_rows(3, 2))
    alpha_m = LinearMap.basis_map(Q, [1, 0, 2])
    with pytest.raises(PreconditionError) as exc:
        induce_comodule(com, alpha_c, alpha_m)
    assert exc.value.law == "comodule_twist_compat"


def test_diagonal_comodule_passes_and_perturbation_fails():
    base = cyclic_bialgebra(4)
    com = ComoduleStruct.from_constants(base, diagonal_coaction(4), identity_rows(4))
    assert check_comodule(com).passed
    bumped = ComoduleStruct.from_constants(
        base, perturbed(diagonal_coaction(4), (2, 1, 1)), identity_rows(4)
    )
    report = check_comodule(bumped)
    assert not report.passed
    assert any(f.index == (2,) for f in report.failures)


def test_tensor_modules_and_dims():
    base = cyclic_bialgebra(3)
    m = ModuleStruct.from_constants(base, regular_action(3), identity_rows(3))
    out = tensor_modules(m, m)
    assert out.dim == 9
    assert check_module(out).passed


def test_tensor_comodules_grouplike_product_rule():
    # diagonal ⊗ diagonal over grouplike k[C_n]: (g^i ⊗ g^j) -> g^{i+j} ⊗ (g^i⊗g^j)
    n = 3
    base = cyclic_bialgebra(n)
    com = ComoduleStruct.from_constants(base, diagonal_coaction(n), identity_rows(n))
    out = tensor_comodules(com, com)
    assert check_comodule(out).passed
    constants = out.coact.constants()
    for i in range(n):
        for j in range(n):
            m_idx = i * n + j
            nonzero = [
                (h, t)
                for h in range(n)
                for t in range(n * n)
                if constants[m_idx][h][t]
            ]
            assert nonzero == [((i + j) % n, m_idx)]


def test_tensor_requires_matching_bases():
    base3 = cyclic_bialgebra(3)
    base3b = cyclic_bialgebra(3)
    m = ModuleStruct.from_constants(base3, regular_action(3), identity_rows(3))
    m2 = ModuleStruct.from_constants(base3b, regular_action(3), identity_rows(3))
    # same constants, different objects: accepted (bases match by value)
    assert tensor_modules(m, m2).dim == 9
    twisted = cyclic_bialgebra(3)
    other_base = ModuleStruct.from_constants(
        cyclic_bialgebra(4), regular_action(4), identity_rows(4)
    )
    with pytest.raises(ShapeError):
        tensor_modules(m, other_base)


def test_module_morphism_checks():
    base = cyclic_bialgebra(3)
    m = ModuleStruct.from_constants(base, regular_action(3), identity_rows(3))
    ident = LinearMap.identity(Q, (3,))
    assert check_module_morphism(ident, m, m).passed
    # alpha_M is always a self-morphism of a lawful module
    assert check_module_morphism(m.alpha, m, m).passed
    skew = LinearMap.from_rows(Q, (3,), (3,), [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert not check_module_morphism(skew, m, m).passed


def test_comodule_morphism_checks():
    base = cyclic_bialgebra(3)
    com = ComoduleStruct.from_constants(base, diagonal_coaction(3), identity_rows(3))
    ident = LinearMap.identity(Q, (3,))
    assert check_comodule_morphism(ident, com, com).passed
    assert check_comodule_morphism(com.alpha, com, com).passed
    skew = LinearMap.basis_map(Q, [1, 0, 2])
    assert not check_comodule_morphism(skew, com, com).passed


def test_morphism_checks_refuse_carriers_over_different_bases():
    # the trivial action with identity carrier map is a lawful module over k[C3]
    # twisted along g -> g^2 and over k[C3] itself, so only the base contract
    # tells that the identity is no morphism between them
    classical = cyclic_bialgebra(3)
    twisted = twist_bialgebra(classical, LinearMap.from_rows(Q, (3,), (3,), power_rows(3, 2)))
    trivial = [[[1 if p == m else 0 for p in range(3)] for m in range(3)] for _ in range(3)]
    m, n = (ModuleStruct.from_constants(b, trivial, identity_rows(3))
            for b in (twisted, classical))
    assert check_module(m).passed and check_module(n).passed
    ident = LinearMap.identity(Q, (3,))
    with pytest.raises(ShapeError, match="^operands live over different base structures$"):
        check_module_morphism(ident, m, n)
    c, d = (ComoduleStruct.from_constants(b, diagonal_coaction(3), identity_rows(3))
            for b in (twisted, classical))
    with pytest.raises(ShapeError, match="^operands live over different base structures$"):
        check_comodule_morphism(ident, c, d)


def test_alpha_m_self_morphism_where_the_laws_allow_it():
    # with an identity base structure map, alpha_M(a·m)=alpha_A(a)·alpha_M(m)
    # collapses to the morphism condition alpha_M(a·m)=a·alpha_M(m); on the
    # zero-action module any alpha_M is lawful and a self-morphism
    base = cyclic_bialgebra(3)
    zero = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    mod = ModuleStruct.from_constants(base, zero, power_rows(3, 2))
    assert check_module(mod).passed
    assert check_module_morphism(mod.alpha, mod, mod).passed

    # over a twisted base alpha_M need not be a self-morphism:
    # alpha_M(g ▷ g) = g^2 while g ▷ alpha_M(g) = 1
    classical = ModuleStruct.from_constants(cyclic_bialgebra(3), regular_action(3))
    alpha = LinearMap.from_rows(Q, (3,), (3,), power_rows(3, 2))
    twisted = induce_module(classical, alpha, alpha)
    report = check_module_morphism(twisted.alpha, twisted, twisted)
    witness = [f for f in report.failures if f.index == (1, 1)]
    assert witness and witness[0].lhs == (0, 0, 1) and witness[0].rhs == (1, 0, 0)
