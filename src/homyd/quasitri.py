"""Quasitriangular and coquasitriangular Hom-bialgebras.

An element R in H⊗H (respectively a form sigma: H⊗H -> k) is a plain
dim x dim matrix in the chosen basis; no normalization beyond the three
defining axioms is imposed, matching the unit-free setting.  Both induce
Yetter-Drinfeld structures on modules (respectively comodules) and
braidings on their categories; ``yd_from_module`` and ``yd_from_comodule``
are certifying constructors (see ``structures.constructor``).
"""

from __future__ import annotations

from .errors import ShapeError
from .linmap import LinearMap
from .modules import (
    ComoduleStruct,
    ModuleStruct,
    _tensor_comodule_raw,
    _tensor_module_raw,
)
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
from .yd import YDModule, _hat_raw, _tilde_raw, yd_suite


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


def _r_coaction(mod: ModuleStruct, r: RElement) -> LinearMap:
    h = mod.over
    ident_m = LinearMap.identity(mod.field, (mod.dim,))
    spread = r.element.tensor(ident_m).permute_codomain((1, 0, 2))  # (R2, R1, m)
    return h.alpha.tensor(mod.act) @ spread


@constructor
def yd_from_module(mod: ModuleStruct, r: RElement):
    """Coaction m -> alpha(R2) ⊗ R1·m on a module over a quasitriangular base."""
    if not isinstance(mod.over, HomBialgebra):
        raise ShapeError("induced Yetter-Drinfeld structure needs a Hom-bialgebra base")
    require_same_base(mod, r)
    require(check_qt(r))
    require(check_r_invariance(r))
    out = YDModule(mod.over, mod.act, _r_coaction(mod, r), mod.alpha)
    return out, yd_suite(out, gate=False)


def check_qt_tensor_coincide(m: ModuleStruct, n: ModuleStruct, r: RElement) -> CheckReport:
    """The R-induced coaction on the standard tensor module M⊗N equals the
    hat-tensor coaction of the two R-induced Yetter-Drinfeld modules.

    No gate on the quasitriangular axioms: a perturbed R shows up as a
    coincidence failure, which is the point of the scan."""
    require_same_base(m, n, r)
    h = m.over
    require_bijective("coincidence check", base=h.alpha)
    lhs = _r_coaction(_tensor_module_raw(m, n), r)
    hat = _hat_raw(
        YDModule(h, m.act, _r_coaction(m, r), m.alpha),
        YDModule(h, n.act, _r_coaction(n, r), n.alpha),
    )
    return CheckReport.combine(
        "qt_tensor_coincidence",
        [compare_maps("induced_coaction_equals_hat_coaction", lhs, hat.coact)],
    )


def qt_braiding(m: ModuleStruct, n: ModuleStruct, r: RElement) -> LinearMap:
    """c(m⊗n) = alpha_N^{-1}(R2·n) ⊗ alpha_M^{-1}(R1·m)."""
    require_same_base(m, n, r)
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


def _sigma_action(com: ComoduleStruct, s: SigmaForm) -> LinearMap:
    h = com.over
    ident_m = LinearMap.identity(com.field, (com.dim,))
    spread = h.alpha.tensor(com.coact).permute_codomain((1, 0, 2))  # (m-1, alpha h, m0)
    return s.form.tensor(ident_m) @ spread


@constructor
def yd_from_comodule(com: ComoduleStruct, s: SigmaForm):
    """Action h·m = sigma(m_(-1) ⊗ alpha(h)) m_(0) on a comodule over a
    coquasitriangular base."""
    if not isinstance(com.over, HomBialgebra):
        raise ShapeError("induced Yetter-Drinfeld structure needs a Hom-bialgebra base")
    require_same_base(com, s)
    require(check_cqt(s))
    require(check_sigma_invariance(s))
    out = YDModule(com.over, _sigma_action(com, s), com.coact, com.alpha)
    return out, yd_suite(out, gate=False)


def check_cqt_tensor_coincide(m: ComoduleStruct, n: ComoduleStruct, s: SigmaForm) -> CheckReport:
    """The sigma-induced action on the standard tensor comodule M⊗N equals
    the tilde-tensor action of the two sigma-induced Yetter-Drinfeld modules.

    As with the quasitriangular side, the scan is not gated on the sigma
    axioms, so a perturbed sigma is reported as a coincidence failure."""
    require_same_base(m, n, s)
    h = m.over
    require_bijective("coincidence check", base=h.alpha)
    lhs = _sigma_action(_tensor_comodule_raw(m, n), s)
    tilde = _tilde_raw(
        YDModule(h, _sigma_action(m, s), m.coact, m.alpha),
        YDModule(h, _sigma_action(n, s), n.coact, n.alpha),
    )
    return CheckReport.combine(
        "cqt_tensor_coincidence",
        [compare_maps("induced_action_equals_tilde_action", lhs, tilde.act)],
    )


def cqt_braiding(m: ComoduleStruct, n: ComoduleStruct, s: SigmaForm) -> LinearMap:
    """c(m⊗n) = sigma(n_(-1)⊗m_(-1)) alpha_N^{-1}(n_(0)) ⊗ alpha_M^{-1}(m_(0))."""
    require_same_base(m, n, s)
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


__all__ = [
    "RElement",
    "SigmaForm",
    "check_qt",
    "check_r_invariance",
    "yd_from_module",
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
