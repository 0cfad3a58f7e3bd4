"""Every operand contract is refused by its one helper, with one message form:
``require_same_base``, ``require_bijective``, ``require_identity`` and
``require`` from ``homyd.structures``."""

import pytest

from homyd.errors import InapplicableError, PreconditionError, ShapeError
from homyd.fields import RATIONALS, PrimeField
from homyd.fixtures import (
    crossed_gset,
    cyclic_bicharacter_sigma,
    cyclic_endo_twist,
    cyclic_graded_yd,
    cyclic_group,
    cyclic_r_matrix,
    power_endomorphism,
)
from homyd.linmap import LinearMap
from homyd.modules import ComoduleStruct, ModuleStruct, tensor_comodules, tensor_modules
from homyd.quasitri import (
    RElement,
    SigmaForm,
    check_cqt_tensor_coincide,
    check_induced_hybe,
    check_qt_tensor_coincide,
    check_tensor_coincide,
    yd_from,
    yd_from_comodule,
    yd_from_module,
)
from homyd.runner import TASKS, execute_task
from homyd.specfile import Task
from homyd.yd import (
    YDModule,
    associator_a,
    associator_frak_a,
    braiding_B,
    braiding_c,
    check_braid_relation_for,
    check_hexagons,
    check_pentagon,
    check_yd,
    hat_tensor,
    tilde_tensor,
    twist_yd,
    yd_tensor,
)

Q = RATIONALS

# k[C4] twisted along g -> g^2: a Hom-bialgebra whose structure map is singular
SINGULAR_BASE = cyclic_endo_twist(4, 2)
# k[C2] with identity structure map, a bijective base
C2 = cyclic_endo_twist(2, 1)


def _graded_c4():
    """The trivial-action graded module over k[C4], with identity structure maps."""
    return cyclic_graded_yd(4, 1, 1, Q)  # twisted along the identity


def _over_singular_base():
    """A Yetter-Drinfeld candidate with identity carrier map over SINGULAR_BASE."""
    y = _graded_c4()
    return YDModule(SINGULAR_BASE, y.act, y.coact, LinearMap.identity(Q, (4,)))


C3_HOM = crossed_gset(cyclic_group(3), Q)
C3_SQUASHED = YDModule(C3_HOM.over, C3_HOM.act, C3_HOM.coact, LinearMap.zero(Q, (3,), (3,)))
SQUARE_C4 = LinearMap.basis_map(Q, power_endomorphism(4, 2))
SQUARE_C3 = [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]
IDENTITY_C3 = [["1" if i == j else "0" for j in range(3)] for i in range(3)]


def _run(key, spec, *operands):
    """A task kind's run, so that the exception it raises stays visible."""
    return TASKS[key].run(spec, *operands)


def _coincide(check, struct, form):
    """A coincidence check of two regular (co)modules over SINGULAR_BASE."""
    base = SINGULAR_BASE
    maps = base.mu if struct is ModuleStruct else base.delta
    x = struct(base, maps, LinearMap.identity(Q, (4,)))
    return check(x, x, form.from_constants(base, [[0] * 4] * 4))


def _bad_axioms(induce, struct, form):
    """A regular (co)module over k[C2] with an R element or sigma form that
    breaks its first axiom."""
    maps = C2.mu if struct is ModuleStruct else C2.delta
    return induce(struct(C2, maps, C2.alpha), form.from_constants(C2, [[1, 1], [0, 1]]))


def _regular(struct, form):
    """The regular module or comodule over the base of an R element or a sigma
    form (``form`` names the class) over k[C2] over GF(5), and that R or sigma."""
    base, x = (cyclic_r_matrix(2, PrimeField(5), 4, 1) if form is RElement
               else cyclic_bicharacter_sigma(2, 5, 4, 1))
    maps = base.mu if struct is ModuleStruct else base.delta
    return struct(base, maps, base.alpha), x


def _wrong_kind(check, struct, form, count):
    """``check`` on ``count`` regular ``struct`` carriers and an R element or
    sigma form that induces on the other kind."""
    carrier, x = _regular(struct, form)
    return check(*[carrier] * count, x)


def _squashed_braiding(key, struct, position):
    """The ``key`` task on two regular (co)modules over k[C2] over GF(5), the
    one at ``position`` with a zero structure map."""
    carrier, x = _regular(struct, RElement if struct is ModuleStruct else SigmaForm)
    carriers = [carrier] * 2
    carriers[position] = struct(carrier.over, getattr(carrier, struct.MAPS[0][1]),
                                LinearMap.zero(carrier.field, (2,), (2,)))
    return _run(key, {}, carriers, x)


def _needs(what, adjective, name):
    return InapplicableError, f"{what} needs {adjective} {name} structure map"


REFUSALS = {
    "check_yd_base": (
        lambda: check_yd(_over_singular_base()),
        _needs("the Yetter-Drinfeld category", "a bijective", "base")),
    "check_yd_carrier": (
        lambda: check_yd(C3_SQUASHED),
        _needs("the Yetter-Drinfeld category", "a bijective", "carrier")),
    "twist_yd_base": (
        lambda: twist_yd(_graded_c4(), SQUARE_C4, SQUARE_C4),
        _needs("Yetter-Drinfeld twisting", "a bijective", "base")),
    "twist_yd_carrier": (
        lambda: twist_yd(_graded_c4(), LinearMap.identity(Q, (4,)),
                         LinearMap.from_rows(Q, (4,), (4,), [[1, 0, 0, 0]] + [[0] * 4] * 3)),
        _needs("Yetter-Drinfeld twisting", "a bijective", "carrier")),
    "braiding_B_base": (
        lambda: braiding_B(_over_singular_base(), _over_singular_base()),
        _needs("braiding", "a bijective", "base")),
    "hat_tensor_base": (
        lambda: hat_tensor(_over_singular_base(), _over_singular_base()),
        _needs("hat tensor product", "a bijective", "base")),
    "tilde_tensor_base": (
        lambda: tilde_tensor(_over_singular_base(), _over_singular_base()),
        _needs("tilde tensor product", "a bijective", "base")),
    "tensor_modules_base": (
        lambda: tensor_modules(*[ModuleStruct(C2.algebra, C2.mu, C2.alpha)] * 2),
        (ShapeError, "tensor of modules needs a Hom-bialgebra base")),
    "tensor_comodules_base": (
        lambda: tensor_comodules(*[ComoduleStruct(C2.coalgebra, C2.delta, C2.alpha)] * 2),
        (ShapeError, "tensor of comodules needs a Hom-bialgebra base")),
    "tensor_flavor": (
        lambda: yd_tensor("sideways", C3_HOM, C3_HOM),
        (ShapeError, "tensor flavor must be 'hat' or 'tilde', got 'sideways'")),
    "pentagon_flavor": (
        lambda: check_pentagon(*[C3_HOM] * 4, "sideways"),
        (ShapeError, "tensor flavor must be 'hat' or 'tilde', got 'sideways'")),
    "braiding_c_base": (
        lambda: braiding_c(_over_singular_base(), _over_singular_base()),
        _needs("braiding", "a bijective", "base")),
    "braiding_c_first": (
        lambda: braiding_c(C3_SQUASHED, C3_HOM),
        _needs("braiding", "a bijective", "first")),
    "braiding_c_second": (
        lambda: braiding_c(C3_HOM, C3_SQUASHED),
        _needs("braiding", "a bijective", "second")),
    "associator_a_base": (
        lambda: associator_a(*[_over_singular_base()] * 3),
        _needs("hat associator", "a bijective", "base")),
    "associator_a_first": (
        lambda: associator_a(C3_SQUASHED, C3_HOM, C3_HOM),
        _needs("hat associator", "a bijective", "first")),
    "associator_frak_a_third": (
        lambda: associator_frak_a(C3_HOM, C3_HOM, C3_SQUASHED),
        _needs("tilde associator", "a bijective", "third")),
    "pentagon_hat_second": (
        lambda: check_pentagon(C3_HOM, C3_SQUASHED, C3_HOM, C3_HOM, "hat"),
        _needs("hat pentagon", "a bijective", "second")),
    "pentagon_tilde_fourth": (
        lambda: check_pentagon(C3_HOM, C3_HOM, C3_HOM, C3_SQUASHED, "tilde"),
        _needs("tilde pentagon", "a bijective", "fourth")),
    "hexagons_base": (
        lambda: check_hexagons(*[_over_singular_base()] * 3),
        _needs("hat hexagons", "a bijective", "base")),
    "hexagons_third": (
        lambda: check_hexagons(C3_HOM, C3_HOM, C3_SQUASHED, "tilde"),
        _needs("tilde hexagons", "a bijective", "third")),
    "braid_relation_base": (
        lambda: check_braid_relation_for(*[_over_singular_base()] * 3),
        _needs("braid relation", "a bijective", "base")),
    "braid_relation_second": (
        lambda: check_braid_relation_for(C3_HOM, C3_SQUASHED, C3_HOM),
        _needs("braid relation", "a bijective", "second")),
    "qt_coincidence_base": (
        lambda: _coincide(check_qt_tensor_coincide, ModuleStruct, RElement),
        _needs("coincidence check", "a bijective", "base")),
    "cqt_coincidence_base": (
        lambda: _coincide(check_cqt_tensor_coincide, ComoduleStruct, SigmaForm),
        _needs("coincidence check", "a bijective", "base")),
    "qt_braiding_task_first": (
        lambda: _squashed_braiding(("check", "qt_braiding_matches"), ModuleStruct, 0),
        _needs("braiding", "a bijective", "first")),
    "cqt_braiding_task_second": (
        lambda: _squashed_braiding(("check", "cqt_braiding_matches"), ComoduleStruct, 1),
        _needs("braiding", "a bijective", "second")),
    "classical_yd_task_base": (
        lambda: _run(("check", "classical_yd"), {}, cyclic_graded_yd(3, 2, 1, Q)),
        _needs("classical Yetter-Drinfeld check", "an identity", "base")),
    "classical_yd_task_carrier": (
        lambda: _run(("check", "classical_yd"), {}, C3_SQUASHED),
        _needs("classical Yetter-Drinfeld check", "an identity", "carrier")),
    "twist_bialgebra_task_source": (
        lambda: _run(("twist", "bialgebra"), {"alpha": SQUARE_C3}, cyclic_endo_twist(3, 2)),
        _needs("twisting", "an identity", "source")),
    "twist_yd_task_base": (
        lambda: _run(("twist", "yd"), {"alpha_h": SQUARE_C3, "alpha_m": SQUARE_C3},
                     cyclic_graded_yd(3, 2, 1, Q)),
        _needs("Yetter-Drinfeld twisting", "an identity", "base")),
    "twist_yd_task_carrier": (
        lambda: _run(("twist", "yd"), {"alpha_h": SQUARE_C3, "alpha_m": SQUARE_C3},
                     C3_SQUASHED),
        _needs("Yetter-Drinfeld twisting", "an identity", "carrier")),
    # a constructed source (here a hat tensor, 9-dimensional) is sized only at
    # run time, so a 3x3 alpha_m reaches the runner
    "twist_yd_task_matrix_size": (
        lambda: _run(("twist", "yd"), {"alpha_h": IDENTITY_C3, "alpha_m": IDENTITY_C3},
                     hat_tensor(C3_HOM, C3_HOM)),
        (ShapeError, "alpha_m must be a 9x9 matrix of scalar strings")),
    "yd_from_comodule_with_r": (
        lambda: _wrong_kind(yd_from, ComoduleStruct, RElement, 1),
        (ShapeError, "RElement induces on ModuleStruct, not on ComoduleStruct")),
    "yd_from_module_with_sigma": (
        lambda: _wrong_kind(yd_from, ModuleStruct, SigmaForm, 1),
        (ShapeError, "SigmaForm induces on ComoduleStruct, not on ModuleStruct")),
    "coincidence_comodules_with_r": (
        lambda: _wrong_kind(check_tensor_coincide, ComoduleStruct, RElement, 2),
        (ShapeError, "RElement induces on ModuleStruct, not on ComoduleStruct")),
    "induced_hybe_modules_with_sigma": (
        lambda: _wrong_kind(check_induced_hybe, ModuleStruct, SigmaForm, 3),
        (ShapeError, "SigmaForm induces on ComoduleStruct, not on ModuleStruct")),
    "yd_from_algebra_base": (
        lambda: yd_from(ModuleStruct(C2.algebra, C2.mu, C2.alpha),
                        RElement.from_constants(C2, [[0, 0], [0, 0]])),
        (ShapeError, "induced Yetter-Drinfeld structure needs a Hom-bialgebra base")),
    "r_axioms": (
        lambda: _bad_axioms(yd_from_module, ModuleStruct, RElement),
        (PreconditionError,
         "precondition 'qt_coproduct_first_leg' fails at basis index ()")),
    "sigma_axioms": (
        lambda: _bad_axioms(yd_from_comodule, ComoduleStruct, SigmaForm),
        (PreconditionError,
         "precondition 'cqt_product_first_slot' fails at basis index (1, 1, 0)")),
}


@pytest.mark.parametrize("call, expected", REFUSALS.values(), ids=REFUSALS.keys())
def test_each_refusal_has_its_helper_type_and_message(call, expected):
    exc_type, message = expected
    with pytest.raises(exc_type) as exc:
        call()
    assert type(exc.value) is exc_type
    assert str(exc.value) == message


def test_hat_tensor_of_singular_carriers_is_noted_outside_the_category():
    # zero action and coaction satisfy every law whatever the carrier map, so
    # the tensor certifies and only its note tells that the map is singular
    zero = YDModule(C2, LinearMap.zero(Q, (2, 2), (2,)), LinearMap.zero(Q, (2,), (2, 2)),
                    LinearMap.zero(Q, (2,), (2,)))
    task = Task("hat", {"tensor": "hat", "operands": ["Z", "Z"]})
    result, _ = execute_task(task, {"Z": zero})
    assert result.status == "pass"
    assert result.report.notes == (
        "structure maps are not all bijective: compatibility verified directly, "
        "object lies outside the bijective-structure category",
    )
