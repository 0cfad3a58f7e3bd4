"""Yetter-Drinfeld modules over a Hom-bialgebra and their braided structure.

A Yetter-Drinfeld candidate is a carrier that is simultaneously a module
and a comodule over one Hom-bialgebra, with a single carrier structure
map, whose module and comodule laws are ``structures.map_laws``.  The
compatibility law, both associators, the braidings B and c, and
every coherence law (HYBE, pentagon, hexagons, braid relation) are realized
as exact matrix identities between composites of the structure maps.  The
two tensor-product structures are ``modules.tensor`` in its hat and tilde
flavours, kept here under the names ``yd_tensor``, ``hat_tensor`` and
``tilde_tensor``.

Both braidings are one kernel, ``_yd_paired``, which reads maps only.  The
hexagons feed it the action of N⊗P or the coaction of M⊗N from
``modules.tensor_map`` to build c_{M,N⊗P} and c_{M⊗N,P}.

An associator is built as its Kronecker factors, one per tensor factor, and
``_kron`` multiplies them out where a law needs the full map.  By the
mixed-product rule (A⊗B)∘(C⊗D) = (A∘C)⊗(B∘D) the pentagon's sides and
diagonal are Kronecker products of d × d composites, so equal factors prove
it; only if some factor differs (a scalar may have moved between factors)
are the full maps built and compared, for the exact failure list.

The bijectivity gates follow the category definition: ``check_yd``
refuses non-invertible structure maps with an error rather than a
failure, while the compatibility equation itself (which only involves
nonnegative powers of the base map) can be scanned without the gate, as
``yd_suite`` does, noting an object outside the category.  Every
braiding, associator and coherence law refuses, by name, each structure
map it inverts that is not bijective.  A classical Yetter-Drinfeld module
is one whose structure maps, its own and its base's, are identities; the
classical check and twisting refuse any other.  Twisting is the module and
comodule induction on one carrier, with the category's bijectivity gate.
"""

from __future__ import annotations

from functools import partial, reduce

from .linmap import LinearMap, memoised
from .modules import (
    FLAVORS,
    ComoduleStruct,
    ModuleStruct,
    _flavor,
    _morphism_report,
    induction,
    tensor,
    tensor_map,
    tensor_raw,
)
from .reports import CheckReport, compare_maps
from .structures import (
    HomBialgebra,
    Structure,
    commuting_sides,
    constructor,
    map_laws,
    require,
    require_bijective,
    require_identity,
    require_same_base,
)


class YDModule(Structure):
    """Module + comodule on one carrier over a shared Hom-bialgebra."""

    __slots__ = ("over", "dim", "act", "coact", "alpha")
    MAPS = ModuleStruct.MAPS + ComoduleStruct.MAPS
    OVER = (HomBialgebra,)
    ALPHA = True

    @property
    def module(self) -> ModuleStruct:
        return ModuleStruct(self.over, self.act, self.alpha)

    @property
    def comodule(self) -> ComoduleStruct:
        return ComoduleStruct(self.over, self.coact, self.alpha)

    def check(self) -> CheckReport:
        return yd_suite(self)


# -- the compatibility law ----------------------------------------------

def _yd_sides(base: HomBialgebra, act, coact, alpha_h_sq):
    """Both sides of the compatibility law as maps H⊗M -> H⊗M.

    left:  (h_1·m)_(-1) α_H^2(h_2) ⊗ (h_1·m)_(0)
    right: α_H^2(h_1) α_H(m_(-1)) ⊗ α_H(h_2)·m_(0)
    """
    dm = act.cod[0]
    ident_m = LinearMap.identity(base.field, (dm,))
    spread = base.delta.tensor(ident_m).permute_codomain((0, 2, 1))  # (h1, m, h2)
    lhs = (
        base.mu.tensor(ident_m)
        @ ((coact @ act).tensor(alpha_h_sq)).permute_codomain((0, 2, 1))
        @ spread
    )
    alpha = base.alpha
    left_leg = base.mu @ alpha_h_sq.tensor(alpha)
    right_leg = act @ alpha.tensor(ident_m)
    rhs = (
        left_leg.tensor(right_leg)
        @ base.delta.tensor(coact).permute_codomain((0, 2, 1, 3))
    )
    return lhs, rhs


def yd_compatibility_report(m: YDModule) -> CheckReport:
    """The compatibility scan itself, with no bijectivity gate."""
    lhs, rhs = _yd_sides(m.over, m.act, m.coact, m.over.alpha.power(2))
    return compare_maps("yd_compatibility", lhs, rhs)


def check_yd(m: YDModule) -> CheckReport:
    """Gate on bijective structure maps, then scan the compatibility law over
    all (algebra basis, carrier basis) pairs."""
    require_bijective("the Yetter-Drinfeld category", base=m.over.alpha, carrier=m.alpha)
    return yd_compatibility_report(m)


def check_classical_yd(m: YDModule) -> CheckReport:
    """(h_1·m)_(-1) h_2 ⊗ (h_1·m)_(0) = h_1 m_(-1) ⊗ h_2·m_(0): the
    compatibility law at the identity structure maps that the check requires."""
    require_identity("classical Yetter-Drinfeld check", base=m.over.alpha, carrier=m.alpha)
    lhs, rhs = _yd_sides(m.over, m.act, m.coact, m.over.alpha)
    return compare_maps("classical_yd_compatibility", lhs, rhs)


@memoised
def yd_suite(m: YDModule) -> CheckReport:
    """Module laws, comodule laws and the compatibility law, aggregated; an
    object with a singular structure map is noted as outside the category."""
    reports = [*map_laws(m), yd_compatibility_report(m)]
    if not (m.over.alpha.is_invertible() and m.alpha.is_invertible()):
        reports[-1] = reports[-1].with_notes(
            "structure maps are not all bijective: compatibility verified "
            "directly, object lies outside the bijective-structure category"
        )
    return CheckReport.combine("yd_module", reports)


# carry a classical Yetter-Drinfeld module to one over the twisted base,
# with action alpha_M∘act and coaction (alpha_H⊗alpha_M)∘coact
twist_yd = induction("Yetter-Drinfeld twisting", bijective=True)


# -- the braiding B and the Hom-Yang-Baxter equation ----------------------

@memoised
def braiding_B(m: YDModule, n: YDModule) -> LinearMap:
    """B(m⊗n) = α_H^{-1}(m_(-1))·n ⊗ m_(0), as a matrix M⊗N -> N⊗M."""
    require_same_base(m, n)
    require_bijective("braiding", base=m.over.alpha)
    return _yd_paired(n.act, LinearMap.identity(m.field, (m.dim,)), m.over.alpha, m.coact)


def _yd_paired(first_leg, second_leg, alpha_h, coact) -> LinearMap:
    """(first_leg⊗second_leg) ∘ (m⊗n -> α_H^{-1}(m_(-1))⊗n⊗m_(0)), with
    ``coact`` the coaction of M, ``first_leg`` a map on H⊗N and ``second_leg``
    one on M.  B takes the legs (act_N, id_M), c (α_N^{-1}∘act_N, α_M^{-1})."""
    field, dm, dn = coact.field, coact.dom[0], first_leg.dom[1]
    tagged = alpha_h.inverse().tensor(LinearMap.identity(field, (dm,))) @ coact
    spread = tagged.tensor(LinearMap.identity(field, (dn,))).permute_codomain((0, 2, 1))
    return first_leg.tensor(second_leg) @ spread


def check_hybe(
    b_mn: LinearMap,
    b_mp: LinearMap,
    b_np: LinearMap,
    alpha_m: LinearMap,
    alpha_n: LinearMap,
    alpha_p: LinearMap,
) -> CheckReport:
    """(α_P⊗B_MN)∘(B_MP⊗α_N)∘(α_M⊗B_NP) = (B_NP⊗α_M)∘(α_N⊗B_MP)∘(B_MN⊗α_P)."""
    return _yang_baxter("hybe", b_mn, b_mp, b_np, alpha_m, alpha_n, alpha_p)


def _yang_baxter(law, c_mn, c_mp, c_np, x_m, x_n, x_p) -> CheckReport:
    """(x_P⊗c_MN)∘(c_MP⊗x_N)∘(x_M⊗c_NP) = (c_NP⊗x_M)∘(x_N⊗c_MP)∘(c_MN⊗x_P),
    scanned as ``law``: the HYBE with the structure maps as ``x``, the braid
    relation with identities."""
    lhs = x_p.tensor(c_mn) @ c_mp.tensor(x_n) @ x_m.tensor(c_np)
    rhs = c_np.tensor(x_m) @ x_n.tensor(c_mp) @ c_mn.tensor(x_p)
    return compare_maps(law, lhs, rhs)


def check_hybe_for(m: YDModule, n: YDModule, p: YDModule) -> CheckReport:
    """HYBE for the braidings B of a triple of Yetter-Drinfeld modules."""
    return check_hybe(
        braiding_B(m, n), braiding_B(m, p), braiding_B(n, p),
        m.alpha, n.alpha, p.alpha,
    )


# -- the two tensor-product structures ------------------------------------

# M ⊗̂ N: componentwise action, coaction α_H^{-2}(m_(-1)n_(-1)) ⊗ (m_(0)⊗n_(0));
# M ⊗̃ N: action α_H^{-2}(h_1)·m ⊗ α_H^{-2}(h_2)·n, componentwise coaction
yd_tensor = tensor
hat_tensor = partial(tensor, "hat")
tilde_tensor = partial(tensor, "tilde")


def _exponent(flavor) -> int:
    """The exponent e of the flavour's associator (m⊗n)⊗p -> α_M^e(m)⊗(n⊗α_P^{-e}(p)):
    -1 for hat, which twists the coaction, +1 for tilde, which twists the action."""
    return -1 if _flavor(flavor) == "coact" else 1


# -- associators ----------------------------------------------------------

def _associator(e, left, middle_dims, right) -> list:
    """The factors of α_L^e ⊗ id_middle ⊗ α_R^{-e}, one map per tensor factor:
    the associator of the flavor whose exponent is ``e``, or the inverse of the
    one whose exponent is ``-e``.  ``left`` and ``right`` list the structure
    maps of the outer factors, since (α_M⊗α_N)^e = α_M^e⊗α_N^e."""
    return ([a.power(e) for a in left]
            + [LinearMap.identity(left[0].field, (d,)) for d in middle_dims]
            + [a.power(-e) for a in right])


def _kron(factors) -> LinearMap:
    """The Kronecker product of a factor list, as one map."""
    return reduce(LinearMap.tensor, factors)


def _assoc(e, x, y, z) -> LinearMap:
    """α_X^e ⊗ id_Y ⊗ α_Z^{-e} on X⊗Y⊗Z, as one map."""
    return _kron(_associator(e, [x.alpha], [y.dim], [z.alpha]))


def associator_a(m: YDModule, n: YDModule, p: YDModule) -> LinearMap:
    """(M⊗̂N)⊗̂P -> M⊗̂(N⊗̂P), (m⊗n)⊗p -> α_M^{-1}(m)⊗(n⊗α_P(p))."""
    return yd_associator("hat", m, n, p)


def associator_frak_a(m: YDModule, n: YDModule, p: YDModule) -> LinearMap:
    """(M⊗̃N)⊗̃P -> M⊗̃(N⊗̃P), (m⊗n)⊗p -> α_M(m)⊗(n⊗α_P^{-1}(p))."""
    return yd_associator("tilde", m, n, p)


@constructor
def yd_associator(flavor: str, m: YDModule, n: YDModule, p: YDModule):
    """The associator of the ``"hat"`` or ``"tilde"`` tensor product, certified
    as a morphism of modules and comodules between the two towers."""
    require_same_base(m, n, p)
    e = _exponent(flavor)
    inverted = {"first": m.alpha} if e < 0 else {"third": p.alpha}
    require_bijective(f"{flavor} associator", base=m.over.alpha, **inverted)
    a = _assoc(e, m, n, p)
    # raw towers: the inputs are certified already and the morphism scans
    # below are the verification this constructor owes
    left = tensor_raw(flavor, tensor_raw(flavor, m, n), p)
    right = tensor_raw(flavor, m, tensor_raw(flavor, n, p))
    return a, _morphism_report("associator_morphism", a, [(left, right)])


# -- the braiding c -------------------------------------------------------

@memoised
def _braiding_c_matrix(m: YDModule, n: YDModule) -> LinearMap:
    """c as a map M⊗N -> N⊗M."""
    return _yd_paired(n.alpha.inverse() @ n.act, m.alpha.inverse(), m.over.alpha, m.coact)


@constructor
def braiding_c(m: YDModule, n: YDModule):
    """c(m⊗n) = α_N^{-1}(α_H^{-1}(m_(-1))·n) ⊗ α_M^{-1}(m_(0)); certified as a
    morphism for both tensor-product structures."""
    require_same_base(m, n)
    require_bijective("braiding", base=m.over.alpha, first=m.alpha, second=n.alpha)
    c = _braiding_c_matrix(m, n)
    pairs = [(tensor_raw(flavor, m, n), tensor_raw(flavor, n, m)) for flavor in FLAVORS]
    return c, _morphism_report("braiding_morphism", c, pairs)


def b_from_c(c: LinearMap, alpha_m: LinearMap, alpha_n: LinearMap) -> LinearMap:
    """B := (α_N⊗α_M)∘c."""
    return alpha_n.tensor(alpha_m).with_shapes(c.cod, c.cod) @ c


# -- coherence checkers ----------------------------------------------------

def check_pentagon(
    m: YDModule, n: YDModule, p: YDModule, q: YDModule, flavor: str = "hat"
) -> CheckReport:
    """Both pentagon composites agree and equal the diagonal
    α_M^{∓2}⊗α_N^{∓1}⊗α_P^{±1}⊗α_Q^{±2} (upper signs for the hat flavor).

    Both laws are compared on the factors on M, N, P and Q, which is exact
    by the mixed-product rule: equal factors prove equal maps.  Where some
    factor differs, the two full d⁴ × d⁴ maps are built and compared, since
    a scalar moved between factors leaves their product unchanged."""
    require_same_base(m, n, p, q)
    e = _exponent(flavor)
    # the associators of exponent e invert the outer factors of sign e
    inverted = ({"first": m.alpha, "second": n.alpha} if e < 0
                else {"third": p.alpha, "fourth": q.alpha})
    require_bijective(f"{flavor} pentagon", **inverted)
    lhs, rhs, diagonal = _pentagon_factors(e, m, n, p, q)
    return CheckReport.combine(
        f"pentagon_{flavor}",
        [
            _compare_factors("pentagon_composites_equal", lhs, rhs),
            _compare_factors("pentagon_equals_diagonal", lhs, diagonal),
        ],
    )


def _pentagon_factors(e, m, n, p, q):
    """The pentagon's two sides and diagonal as factors on M, N, P and Q."""
    ident_m = [LinearMap.identity(m.field, (m.dim,))]
    ident_q = [LinearMap.identity(m.field, (q.dim,))]
    a_mnp = _associator(e, [m.alpha], [n.dim], [p.alpha])
    a_m_np_q = _associator(e, [m.alpha], [n.dim, p.dim], [q.alpha])
    a_npq = _associator(e, [n.alpha], [p.dim], [q.alpha])
    a_mn_p_q = _associator(e, [m.alpha, n.alpha], [p.dim], [q.alpha])
    a_m_n_pq = _associator(e, [m.alpha], [n.dim], [p.alpha, q.alpha])
    # (id_M⊗a_NPQ)∘a_{M,NP,Q}∘(a_MNP⊗id_Q) and a_{M,N,PQ}∘a_{MN,P,Q}
    lhs = [x @ y @ z for x, y, z in zip(ident_m + a_npq, a_m_np_q, a_mnp + ident_q)]
    rhs = [x @ y for x, y in zip(a_m_n_pq, a_mn_p_q)]
    diagonal = [m.alpha.power(2 * e), n.alpha.power(e), p.alpha.power(-e),
                q.alpha.power(-2 * e)]
    return lhs, rhs, diagonal


def _compare_factors(law, lhs, rhs) -> CheckReport:
    """``compare_maps`` of the Kronecker products of two factor lists, which
    are built only when some pair of factors differs."""
    if len(lhs) == len(rhs) and all(a == b for a, b in zip(lhs, rhs)):
        return CheckReport(law)
    return compare_maps(law, _kron(lhs), _kron(rhs))


def check_hexagons(m: YDModule, n: YDModule, p: YDModule, flavor: str = "hat") -> CheckReport:
    """The two hexagon relations tying c to the associator of the given flavor."""
    require_same_base(m, n, p)
    e = _exponent(flavor)
    require_bijective(f"{flavor} hexagons", base=m.over.alpha,
                      first=m.alpha, second=n.alpha, third=p.alpha)
    ident_m, ident_n, ident_p = (LinearMap.identity(m.field, (x.dim,)) for x in (m, n, p))

    def inverse_of(x, y):
        # (α_X⊗α_Y)^{-1} = α_X^{-1}⊗α_Y^{-1}, from the inverses the gate took
        d = x.dim * y.dim
        return x.alpha.inverse().tensor(y.alpha.inverse()).with_shapes((d,), (d,))

    # first hexagon: a_{N,P,M} ∘ c_{M,N⊗P} ∘ a_{M,N,P}
    #              = (id_N ⊗ c_{M,P}) ∘ a_{N,M,P} ∘ (c_{M,N} ⊗ id_P)
    act_np = inverse_of(n, p) @ tensor_map(flavor, "act", n, p)
    c_m_np = _yd_paired(act_np, m.alpha.inverse(), m.over.alpha, m.coact).with_shapes(
        (m.dim, n.dim, p.dim), (n.dim, p.dim, m.dim))
    lhs1 = _assoc(e, n, p, m) @ c_m_np @ _assoc(e, m, n, p)
    c_mp = _braiding_c_matrix(m, p)
    rhs1 = ident_n.tensor(c_mp) @ _assoc(e, n, m, p) @ _braiding_c_matrix(m, n).tensor(ident_p)

    # second hexagon: a_{P,M,N}^{-1} ∘ c_{M⊗N,P} ∘ a_{M,N,P}^{-1}
    #               = (c_{M,P} ⊗ id_N) ∘ a_{M,P,N}^{-1} ∘ (id_M ⊗ c_{N,P})
    act_p = p.alpha.inverse() @ p.act
    coact_mn = tensor_map(flavor, "coact", m, n)
    c_mn_p = _yd_paired(act_p, inverse_of(m, n), m.over.alpha, coact_mn).with_shapes(
        (m.dim, n.dim, p.dim), (p.dim, m.dim, n.dim))
    lhs2 = _assoc(-e, p, m, n) @ c_mn_p @ _assoc(-e, m, n, p)
    rhs2 = c_mp.tensor(ident_n) @ _assoc(-e, m, p, n) @ ident_m.tensor(_braiding_c_matrix(n, p))

    return CheckReport.combine(
        f"hexagons_{flavor}",
        [
            compare_maps("hexagon_one", lhs1, rhs1),
            compare_maps("hexagon_two", lhs2, rhs2),
        ],
    )


@memoised
def check_braid_relation(c_mn: LinearMap, c_mp: LinearMap, c_np: LinearMap) -> CheckReport:
    """(id_P⊗c_MN)∘(c_MP⊗id_N)∘(id_M⊗c_NP) = (c_NP⊗id_M)∘(id_N⊗c_MP)∘(c_MN⊗id_P)."""
    (dm, dn), dp = c_mn.dom, c_np.dom[1]
    ident = [LinearMap.identity(c_mn.field, (d,)) for d in (dm, dn, dp)]
    return _yang_baxter("braid_relation", c_mn, c_mp, c_np, *ident)


def check_braid_relation_for(m: YDModule, n: YDModule, p: YDModule) -> CheckReport:
    require_same_base(m, n, p)
    require_bijective("braid relation", base=m.over.alpha,
                      first=m.alpha, second=n.alpha, third=p.alpha)
    return check_braid_relation(
        _braiding_c_matrix(m, n), _braiding_c_matrix(m, p), _braiding_c_matrix(n, p)
    )


def check_braid_implies_hybe(
    c_mn: LinearMap,
    c_mp: LinearMap,
    c_np: LinearMap,
    alpha_m: LinearMap,
    alpha_n: LinearMap,
    alpha_p: LinearMap,
) -> CheckReport:
    """Verify the commutation hypotheses and the braid relation, then derive
    the maps B and confirm their commutations and the HYBE.

    Hypothesis failures are errors (the construction does not apply), while
    the derived conclusions are reported as laws.
    """
    legs = {"mn": (c_mn, alpha_m, alpha_n), "mp": (c_mp, alpha_m, alpha_p),
            "np": (c_np, alpha_n, alpha_p)}
    for key, (c, x, y) in legs.items():
        require(_commutes(f"c_{key}_commutes", c, x, y))
    require(check_braid_relation(c_mn, c_mp, c_np))

    bs = {key: b_from_c(c, x, y) for key, (c, x, y) in legs.items()}
    reports = [_commutes(f"b_{key}_commutes", bs[key], x, y) for key, (_, x, y) in legs.items()]
    reports.append(check_hybe(*bs.values(), alpha_m, alpha_n, alpha_p))
    return CheckReport.combine("braid_implies_hybe", reports)


def _commutes(law, c, x, y) -> CheckReport:
    """(y⊗x)∘c = c∘(x⊗y) for c: X⊗Y -> Y⊗X, scanned as ``law``."""
    return compare_maps(law, *commuting_sides(c, "xy->yx", {"x": x, "y": y}))


def check_braid_implies_hybe_single(c: LinearMap, alpha: LinearMap) -> CheckReport:
    """The one-space case: c on V⊗V commuting with α⊗α and satisfying the
    braid relation yields B=(α⊗α)∘c solving the HYBE."""
    return check_braid_implies_hybe(c, c, c, alpha, alpha, alpha)


__all__ = [
    "YDModule",
    "check_yd",
    "check_classical_yd",
    "yd_compatibility_report",
    "yd_suite",
    "twist_yd",
    "braiding_B",
    "check_hybe",
    "check_hybe_for",
    "yd_tensor",
    "hat_tensor",
    "tilde_tensor",
    "yd_associator",
    "associator_a",
    "associator_frak_a",
    "braiding_c",
    "b_from_c",
    "check_pentagon",
    "check_hexagons",
    "check_braid_relation",
    "check_braid_relation_for",
    "check_braid_implies_hybe",
    "check_braid_implies_hybe_single",
]
