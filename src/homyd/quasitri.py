"""Quasitriangular and coquasitriangular Hom-bialgebras.

An element R in H⊗H (respectively a form sigma: H⊗H -> k) is a plain
dim x dim matrix in the chosen basis; no normalization beyond the three
defining axioms is imposed, matching the unit-free setting.  Both induce
Yetter-Drinfeld structures on modules (respectively comodules) and
braidings on their categories; ``yd_from_module`` and ``yd_from_comodule``
are certifying constructors (see ``structures.constructor``).  Modules sit
inside the hat tensor product and comodules inside the tilde one, so one
check, ``check_tensor_coincide``, compares the map that R or sigma induces
on a tensor product with that of the tensor of the induced modules.
"""

from __future__ import annotations

from .errors import ShapeError
from .linmap import LinearMap
from .modules import ComoduleStruct, ModuleStruct, tensor_raw
from .reports import CheckReport, compare_maps
from .structures import (
    HomBialgebra,
    Structure,
    constructor,
    require,
    require_bijective,
    require_same_base,
    tensor_square_product,
)
from .yd import YDModule, yd_suite


class RElement(Structure):
    """R = sum R[i][j] e_i ⊗ e_j in H⊗H."""

    __slots__ = ("over", "element")
    MAPS = (("matrix", "element", "->hh"),)
    OVER = (HomBialgebra,)

    def matrix(self):
        return self.element.constants()


class SigmaForm(Structure):
    """sigma(e_i ⊗ e_j) = matrix[i][j], a bilinear form H⊗H -> k."""

    __slots__ = ("over", "form")
    MAPS = (("matrix", "form", "hh->"),)
    OVER = (HomBialgebra,)

    def matrix(self):
        return self.form.constants()


# -- quasitriangular axioms ------------------------------------------------

def check_qt(r: RElement) -> CheckReport:
    """The three axioms: coproduct splittings of R against the double copy
    of R, and the intertwining of the opposite coproduct."""
    h = r.over
    alpha, delta, mu = h.alpha, h.delta, h.mu
    rr = r.element.tensor(r.element)  # (R1, R2, r1, r2)
    lhs1 = delta.tensor(alpha) @ r.element
    rhs1 = (
        alpha.tensor(alpha).tensor(mu) @ rr.permute_codomain((0, 2, 1, 3))
    )
    lhs2 = alpha.tensor(delta) @ r.element
    rhs2 = mu.tensor(alpha).tensor(alpha) @ rr.permute_codomain((0, 2, 3, 1))

    delta_cop = delta.permute_codomain((1, 0))
    mu2 = tensor_square_product(mu)
    lhs3 = mu2 @ delta_cop.tensor(r.element)
    rhs3 = mu2 @ r.element.tensor(delta)
    return CheckReport.combine(
        "quasitriangular",
        [
            compare_maps("qt_coproduct_first_leg", lhs1, rhs1),
            compare_maps("qt_coproduct_second_leg", lhs2, rhs2),
            compare_maps("qt_opposite_coproduct_intertwines", lhs3, rhs3),
        ],
    )


def check_r_invariance(r: RElement) -> CheckReport:
    """(alpha⊗alpha)(R) = R."""
    h = r.over
    lhs = h.alpha.tensor(h.alpha) @ r.element
    return compare_maps("r_invariance", lhs, r.element)


def _induce(carrier, x) -> YDModule:
    """The Yetter-Drinfeld module, unchecked, that an R element induces on a
    module, with coaction m -> alpha(R2) ⊗ R1·m, or a sigma form on a
    comodule, with action h·m = sigma(m_(-1) ⊗ alpha(h)) m_(0)."""
    h, ident_m = carrier.over, LinearMap.identity(carrier.field, (carrier.dim,))
    if isinstance(x, RElement):
        spread = x.element.tensor(ident_m).permute_codomain((1, 0, 2))  # (R2, R1, m)
        return YDModule(h, carrier.act, h.alpha.tensor(carrier.act) @ spread, carrier.alpha)
    spread = h.alpha.tensor(carrier.coact).permute_codomain((1, 0, 2))  # (m-1, alpha h, m0)
    return YDModule(h, x.form.tensor(ident_m) @ spread, carrier.coact, carrier.alpha)


@constructor
def yd_from_module(mod: ModuleStruct, r: RElement):
    """Coaction m -> alpha(R2) ⊗ R1·m on a module over a quasitriangular base."""
    if not isinstance(mod.over, HomBialgebra):
        raise ShapeError("induced Yetter-Drinfeld structure needs a Hom-bialgebra base")
    require_same_base(mod, r)
    require(check_qt(r))
    require(check_r_invariance(r))
    out = _induce(mod, r)
    return out, yd_suite(out)


def qt_braiding(m: ModuleStruct, n: ModuleStruct, r: RElement) -> LinearMap:
    """c(m⊗n) = alpha_N^{-1}(R2·n) ⊗ alpha_M^{-1}(R1·m)."""
    require_same_base(m, n, r)
    require_bijective("braiding", first=m.alpha, second=n.alpha)
    first = n.alpha.inverse() @ n.act
    second = m.alpha.inverse() @ m.act
    return _r_paired(first, second, m, n, r)


def qt_B(m: ModuleStruct, n: ModuleStruct, r: RElement) -> LinearMap:
    """B(m⊗n) = R2·n ⊗ R1·m; no bijectivity needed."""
    require_same_base(m, n, r)
    return _r_paired(n.act, m.act, m, n, r)


def _r_paired(first_leg, second_leg, m, n, r):
    ident = LinearMap.identity(m.field, (m.dim, n.dim))
    spread = r.element.tensor(ident).permute_codomain((1, 3, 0, 2))  # (R2, n, R1, m)
    return first_leg.tensor(second_leg) @ spread


# -- coquasitriangular axioms ----------------------------------------------

def check_cqt(s: SigmaForm) -> CheckReport:
    """sigma(xy⊗alpha z)=sigma(alpha x⊗z_1)sigma(alpha y⊗z_2),
    sigma(alpha x⊗yz)=sigma(x_1⊗alpha z)sigma(x_2⊗alpha y), and
    y_1x_1 sigma(x_2⊗y_2) = sigma(x_1⊗y_1) x_2y_2."""
    h = s.over
    alpha, delta, mu, sigma = h.alpha, h.delta, h.mu, s.form
    ident = LinearMap.identity(h.field, (h.dim,))

    lhs1 = sigma @ mu.tensor(alpha)
    rhs1 = (
        sigma.tensor(sigma)
        @ alpha.tensor(ident).tensor(alpha).tensor(ident)
        @ ident.tensor(ident).tensor(delta).permute_codomain((0, 2, 1, 3))
    )
    lhs2 = sigma @ alpha.tensor(mu)
    rhs2 = (
        sigma.tensor(sigma)
        @ ident.tensor(alpha).tensor(ident).tensor(alpha)
        @ delta.tensor(ident).tensor(ident).permute_codomain((0, 3, 1, 2))
    )
    paired = delta.tensor(delta)  # (x1, x2, y1, y2)
    lhs3 = mu.tensor(sigma) @ paired.permute_codomain((2, 0, 1, 3))
    rhs3 = sigma.tensor(mu) @ paired.permute_codomain((0, 2, 1, 3))
    return CheckReport.combine(
        "coquasitriangular",
        [
            compare_maps("cqt_product_first_slot", lhs1, rhs1),
            compare_maps("cqt_product_second_slot", lhs2, rhs2),
            compare_maps("cqt_intertwines_products", lhs3, rhs3),
        ],
    )


def check_sigma_invariance(s: SigmaForm) -> CheckReport:
    """sigma = sigma∘(alpha⊗alpha)."""
    h = s.over
    rhs = s.form @ h.alpha.tensor(h.alpha)
    return compare_maps("sigma_invariance", s.form, rhs)


@constructor
def yd_from_comodule(com: ComoduleStruct, s: SigmaForm):
    """Action h·m = sigma(m_(-1) ⊗ alpha(h)) m_(0) on a comodule over a
    coquasitriangular base."""
    if not isinstance(com.over, HomBialgebra):
        raise ShapeError("induced Yetter-Drinfeld structure needs a Hom-bialgebra base")
    require_same_base(com, s)
    require(check_cqt(s))
    require(check_sigma_invariance(s))
    out = _induce(com, s)
    return out, yd_suite(out)


def cqt_braiding(m: ComoduleStruct, n: ComoduleStruct, s: SigmaForm) -> LinearMap:
    """c(m⊗n) = sigma(n_(-1)⊗m_(-1)) alpha_N^{-1}(n_(0)) ⊗ alpha_M^{-1}(m_(0))."""
    require_same_base(m, n, s)
    require_bijective("braiding", first=m.alpha, second=n.alpha)
    return _sigma_paired(n.alpha.inverse(), m.alpha.inverse(), m, n, s)


def cqt_B(m: ComoduleStruct, n: ComoduleStruct, s: SigmaForm) -> LinearMap:
    """B(m⊗n) = sigma(n_(-1)⊗m_(-1)) n_(0) ⊗ m_(0)."""
    require_same_base(m, n, s)
    ident_n = LinearMap.identity(m.field, (n.dim,))
    ident_m = LinearMap.identity(m.field, (m.dim,))
    return _sigma_paired(ident_n, ident_m, m, n, s)


def _sigma_paired(first_leg, second_leg, m, n, s):
    paired = m.coact.tensor(n.coact).permute_codomain((2, 0, 3, 1))  # (n-1, m-1, n0, m0)
    return s.form.tensor(first_leg).tensor(second_leg) @ paired


# -- the induced tensor structures ------------------------------------------

# per inducing structure: its route, the tensor flavour its carriers sit in,
# the map it induces and the law that compares it
_ROUTES = {
    RElement: ("qt", "hat", "coact", "induced_coaction_equals_hat_coaction"),
    SigmaForm: ("cqt", "tilde", "act", "induced_action_equals_tilde_action"),
}


def check_tensor_coincide(m, n, x) -> CheckReport:
    """The map that R (on modules) or sigma (on comodules) induces on their
    tensor product equals that map of the tensor product of the two induced
    Yetter-Drinfeld modules, in the flavour the carriers sit in: the hat
    coaction for R, the tilde action for sigma.

    No gate on the axioms of R or sigma: a perturbed one shows up as a
    coincidence failure, which is the point of the scan."""
    require_same_base(m, n, x)
    require_bijective("coincidence check", base=m.over.alpha)
    route, flavor, attr, law = _ROUTES[type(x)]
    lhs = getattr(_induce(tensor_raw(flavor, m, n), x), attr)
    rhs = getattr(tensor_raw(flavor, _induce(m, x), _induce(n, x)), attr)
    return CheckReport.combine(f"{route}_tensor_coincidence", [compare_maps(law, lhs, rhs)])


check_qt_tensor_coincide = check_cqt_tensor_coincide = check_tensor_coincide


__all__ = [
    "RElement",
    "SigmaForm",
    "check_qt",
    "check_r_invariance",
    "yd_from_module",
    "check_tensor_coincide",
    "check_qt_tensor_coincide",
    "qt_braiding",
    "qt_B",
    "check_cqt",
    "check_sigma_invariance",
    "yd_from_comodule",
    "check_cqt_tensor_coincide",
    "cqt_braiding",
    "cqt_B",
]
