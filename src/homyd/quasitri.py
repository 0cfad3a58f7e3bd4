"""Quasitriangular and coquasitriangular Hom-bialgebras.

An element R in H⊗H (respectively a form sigma: H⊗H -> k) is a plain
dim x dim matrix in the chosen basis; no normalization beyond the three
defining axioms is imposed, matching the unit-free setting.  R makes
modules, and sigma comodules, Yetter-Drinfeld modules with braidings c and
B.  ``_ROUTES`` holds all that tells the two routes apart, and every
function that takes R or sigma with carriers reads it through ``_route``,
which refuses a carrier of the other kind.  So the certifying constructor
``yd_from`` (also named ``yd_from_module`` and ``yd_from_comodule``),
``check_tensor_coincide``, ``check_induced_hybe`` and
``check_induced_braidings`` each serve both routes.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ShapeError
from .linmap import LinearMap, memoised
from .modules import ComoduleStruct, ModuleStruct, tensor_raw
from .reports import CheckReport, compare_maps
from .structures import (
    HomBialgebra,
    Structure,
    commuting_sides,
    componentwise_product,
    constructor,
    require,
    require_bijective,
    require_same_base,
)
from .yd import YDModule, braiding_B, braiding_c, check_hybe, yd_suite


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

@memoised
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
    mu2 = componentwise_product(mu, mu)
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


@memoised
def check_r_invariance(r: RElement) -> CheckReport:
    """(alpha⊗alpha)(R) = R."""
    return compare_maps("r_invariance", *commuting_sides(r.element, "->hh", {"h": r.over.alpha}))


@memoised
def qt_braiding(m: ModuleStruct, n: ModuleStruct, r: RElement) -> LinearMap:
    """c(m⊗n) = alpha_N^{-1}(R2·n) ⊗ alpha_M^{-1}(R1·m)."""
    _route(r, m, n)
    require_bijective("braiding", first=m.alpha, second=n.alpha)
    first = n.alpha.inverse() @ n.act
    second = m.alpha.inverse() @ m.act
    return _r_paired(first, second, m, n, r)


@memoised
def qt_B(m: ModuleStruct, n: ModuleStruct, r: RElement) -> LinearMap:
    """B(m⊗n) = R2·n ⊗ R1·m; no bijectivity needed."""
    _route(r, m, n)
    return _r_paired(n.act, m.act, m, n, r)


def _r_paired(first_leg, second_leg, m, n, r):
    ident = LinearMap.identity(m.field, (m.dim, n.dim))
    spread = r.element.tensor(ident).permute_codomain((1, 3, 0, 2))  # (R2, n, R1, m)
    return first_leg.tensor(second_leg) @ spread


# -- coquasitriangular axioms ----------------------------------------------

@memoised
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


@memoised
def check_sigma_invariance(s: SigmaForm) -> CheckReport:
    """sigma = sigma∘(alpha⊗alpha)."""
    return compare_maps("sigma_invariance", *commuting_sides(s.form, "hh->", {"h": s.over.alpha}))


@memoised
def cqt_braiding(m: ComoduleStruct, n: ComoduleStruct, s: SigmaForm) -> LinearMap:
    """c(m⊗n) = sigma(n_(-1)⊗m_(-1)) alpha_N^{-1}(n_(0)) ⊗ alpha_M^{-1}(m_(0))."""
    _route(s, m, n)
    require_bijective("braiding", first=m.alpha, second=n.alpha)
    return _sigma_paired(n.alpha.inverse(), m.alpha.inverse(), m, n, s)


@memoised
def cqt_B(m: ComoduleStruct, n: ComoduleStruct, s: SigmaForm) -> LinearMap:
    """B(m⊗n) = sigma(n_(-1)⊗m_(-1)) n_(0) ⊗ m_(0)."""
    _route(s, m, n)
    ident_n = LinearMap.identity(m.field, (n.dim,))
    ident_m = LinearMap.identity(m.field, (m.dim,))
    return _sigma_paired(ident_n, ident_m, m, n, s)


def _sigma_paired(first_leg, second_leg, m, n, s):
    paired = m.coact.tensor(n.coact).permute_codomain((2, 0, 3, 1))  # (n-1, m-1, n0, m0)
    return s.form.tensor(first_leg).tensor(second_leg) @ paired


# -- the two routes --------------------------------------------------------

# per inducing structure: its route, the carrier kind it induces on, its
# axioms, the tensor flavour its carriers sit in, the map it induces there
# and the law that compares it, and its braidings c and B
_Route = namedtuple("_Route", "name carrier axioms flavor induced law braiding braiding_b")
_ROUTES = {
    RElement: _Route("qt", ModuleStruct, (check_qt, check_r_invariance), "hat", "coact",
                     "induced_coaction_equals_hat_coaction", qt_braiding, qt_B),
    SigmaForm: _Route("cqt", ComoduleStruct, (check_cqt, check_sigma_invariance), "tilde", "act",
                      "induced_action_equals_tilde_action", cqt_braiding, cqt_B),
}


def _route(x, *carriers) -> _Route:
    """The route of R or sigma, once every carrier is of the kind it induces
    on and lives over its base."""
    route = _ROUTES[type(x)]
    wrong = next((c for c in carriers if not isinstance(c, route.carrier)), None)
    if wrong is not None:
        raise ShapeError(f"{type(x).__name__} induces on {route.carrier.__name__}, "
                         f"not on {type(wrong).__name__}")
    require_same_base(*carriers, x)
    return route


@memoised
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
def yd_from(carrier, x):
    """The Yetter-Drinfeld module that R induces on a module over a
    quasitriangular base, or sigma on a comodule over a coquasitriangular one."""
    if not isinstance(carrier.over, HomBialgebra):
        raise ShapeError("induced Yetter-Drinfeld structure needs a Hom-bialgebra base")
    for axioms in _route(x, carrier).axioms:
        require(axioms(x))
    out = _induce(carrier, x)
    return out, yd_suite(out)


yd_from_module = yd_from_comodule = yd_from


def check_tensor_coincide(m, n, x) -> CheckReport:
    """The map that R (on modules) or sigma (on comodules) induces on their
    tensor product equals that map of the tensor product of the two induced
    Yetter-Drinfeld modules, in the flavour the carriers sit in: the hat
    coaction for R, the tilde action for sigma.

    No gate on the axioms of R or sigma: a perturbed one shows up as a
    coincidence failure, which is the point of the scan."""
    route = _route(x, m, n)
    require_bijective("coincidence check", base=m.over.alpha)
    lhs = getattr(_induce(tensor_raw(route.flavor, m, n), x), route.induced)
    rhs = getattr(tensor_raw(route.flavor, _induce(m, x), _induce(n, x)), route.induced)
    return CheckReport.combine(
        f"{route.name}_tensor_coincidence", [compare_maps(route.law, lhs, rhs)]
    )


check_qt_tensor_coincide = check_cqt_tensor_coincide = check_tensor_coincide


def check_induced_hybe(m, n, p, x) -> CheckReport:
    """HYBE for the braidings B that R or sigma induces on three carriers."""
    braiding = _route(x, m, n, p).braiding_b
    return check_hybe(
        braiding(m, n, x), braiding(m, p, x), braiding(n, p, x), m.alpha, n.alpha, p.alpha
    )


def check_induced_braidings(m, n, x) -> CheckReport:
    """The braidings c and B that R or sigma induces equal those of the
    induced Yetter-Drinfeld modules; each carrier is induced once, and the
    certifications of the induced modules and of their c come first.  Only
    the first induction scans the axioms of R or sigma."""
    route = _route(x, m, n)
    c = route.braiding(m, n, x)
    (ym, m_report), yn = yd_from.build(m, x), _induce(n, x)
    n_report = yd_suite(yn)
    induced_c, c_report = braiding_c.build(ym, yn)
    reports = [
        m_report,
        n_report,
        c_report,
        compare_maps(f"{route.name}_braiding_equals_induced_c", c, induced_c),
        compare_maps(f"{route.name}_b_equals_induced_b",
                     route.braiding_b(m, n, x), braiding_B(ym, yn)),
    ]
    return CheckReport.combine(f"{route.name}_braiding_matches", reports)


__all__ = [
    "RElement",
    "SigmaForm",
    "check_qt",
    "check_r_invariance",
    "qt_braiding",
    "qt_B",
    "check_cqt",
    "check_sigma_invariance",
    "cqt_braiding",
    "cqt_B",
    "yd_from",
    "yd_from_module",
    "yd_from_comodule",
    "check_tensor_coincide",
    "check_qt_tensor_coincide",
    "check_cqt_tensor_coincide",
    "check_induced_hybe",
    "check_induced_braidings",
]
