"""Modules and comodules over Hom-structures.

An action is stored as a map ``act: A⊗M -> M`` and a coaction as
``coact: M -> C⊗M``; carriers keep a reference to their base structure
and binary operations match bases by value equality of structure
constants, never by object identity.  Structure maps of modules are not
required to be bijective here; only the Yetter-Drinfeld layer imposes
that.  A classical (co)module is one whose structure maps, its own and its
base's, are identities; inducing a twisted one requires exactly that.  The
checkers read ``structures.map_laws``, and a morphism f is scanned on the
squares of the structure maps, then of each map with h -> id and d -> f.

``induction`` writes the induction once, for modules, comodules and
Yetter-Drinfeld modules alike: it twists every map of the carrier by
``twisted_maps`` and the base by ``twist``.  ``tensor`` writes the tensor
product once for the same three kinds: ``tensor_raw`` assembles the
carrier's ``MAPS``, each built by ``tensor_map``, and its structure map
α_M⊗α_N.  Of the two flavours "hat" applies α_H^{-2} to the coaction and
"tilde" to the action.  Modules therefore sit inside the hat tensor product
and comodules inside the tilde one, untwisted.
"""

from __future__ import annotations

from functools import partial

from .errors import ShapeError
from .linmap import LinearMap, memoised
from .reports import CheckReport, compare_maps
from .structures import (
    MAP_LAWS,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    Structure,
    commuting_sides,
    constructor,
    map_laws,
    require_bijective,
    require_identity,
    require_same_base,
    twist,
    twisted_maps,
)


def action_constants(act: LinearMap):
    """The action constants of ``act`` in the file layout."""
    return act.constants()


class ModuleStruct(Structure):
    """Left module over a Hom-(bi)algebra, with its own structure map."""

    __slots__ = ("over", "dim", "act", "alpha")
    MAPS = (("act", "act", "hd->d"),)
    OVER = (HomAlgebra, HomBialgebra)
    ALPHA = True

    def check(self) -> CheckReport:
        return check_module(self)


class ComoduleStruct(Structure):
    """Left comodule over a Hom-(bi/co)algebra, with its own structure map."""

    __slots__ = ("over", "dim", "coact", "alpha")
    MAPS = (("coact", "coact", "d->hd"),)
    OVER = (HomCoalgebra, HomBialgebra)
    ALPHA = True

    def check(self) -> CheckReport:
        return check_comodule(self)


# -- checkers ----------------------------------------------------------

def check_module(mod: ModuleStruct) -> CheckReport:
    """Scan alpha_M(a·m)=alpha_A(a)·alpha_M(m) and
    alpha_A(a)·(a'·m)=(aa')·alpha_M(m) over all basis tuples."""
    return CheckReport.combine("module", map_laws(mod))


def check_comodule(com: ComoduleStruct) -> CheckReport:
    return CheckReport.combine("comodule", map_laws(com))


def check_module_morphism(f: LinearMap, src: ModuleStruct, dst: ModuleStruct) -> CheckReport:
    """f intertwines the structure maps and the actions."""
    require_same_base(src, dst)
    return _morphism_report("module_morphism", f, [(src, dst)])


def check_comodule_morphism(
    g: LinearMap, src: ComoduleStruct, dst: ComoduleStruct
) -> CheckReport:
    require_same_base(src, dst)
    return _morphism_report("comodule_morphism", g, [(src, dst)])


def _morphism_report(law, f, pairs):
    """f as a morphism src -> dst for every ``(src, dst)`` pair.  The pairs
    share their structure maps, so that compatibility is scanned once; then
    come the maps of each pair in ``MAPS`` order, each square read with
    h -> id and d -> f."""
    src, dst = pairs[0]
    if f.ncols != src.dim or f.nrows != dst.dim:
        raise ShapeError(
            f"morphism candidate has shape {f.dom} -> {f.cod}, "
            f"carriers have dims {src.dim} -> {dst.dim}"
        )
    f = f.with_shapes((src.dim,), (dst.dim,))
    maps = {"h": LinearMap.identity(src.field, (src.over.dim,)), "d": f}
    reports = [compare_maps("morphism_alpha_compat",
                            *commuting_sides(f, "s->t", {"s": src.alpha, "t": dst.alpha}))]
    for src, dst in pairs:
        for _, attr, shape in src.MAPS:
            sides = commuting_sides(getattr(src, attr), shape, maps, getattr(dst, attr))
            reports.append(compare_maps(MAP_LAWS[attr].morphism, *sides))
    return CheckReport.combine(law, reports)


# -- induced (twisted) structures ---------------------------------------

def induction(what: str, bijective: bool = False):
    """The certifying constructor ``what``: ``(carrier, alpha_base, alpha)``
    carries a classical module, comodule or Yetter-Drinfeld module to one of
    the same kind over its base twisted along alpha_base.  The action becomes
    a▷m := alpha(a·m), which must equal alpha_base(a)·alpha(m), and the coaction
    (alpha_base⊗alpha)∘coact, which must equal coact∘alpha.  With
    ``bijective``, singular maps are refused after those hypotheses."""
    @constructor
    def induce(carrier, alpha_base: LinearMap, alpha: LinearMap):
        """The classical ``carrier`` over its base twisted along alpha_base,
        with structure map alpha."""
        require_identity(what, base=carrier.over.alpha, carrier=carrier.alpha)
        maps = twisted_maps(carrier, {"h": alpha_base, "d": alpha})
        if bijective:
            require_bijective(what, base=alpha_base, carrier=alpha)
        base, base_report = twist.build(carrier.over, alpha_base)
        out = type(carrier)(base, *maps, alpha)
        report = out.check()
        # a base that breaks its laws leads the report; a sound base adds nothing
        return out, CheckReport.combine(report.law, [base_report, report])

    return induce


induce_module = induction("module induction")
induce_comodule = induction("comodule induction")


# -- tensor products -----------------------------------------------------

# the map that each tensor flavour twists by α_H^{-2} on its base factor
FLAVORS = {"hat": "coact", "tilde": "act"}


def _flavor(name) -> str:
    """The map that the tensor flavour ``name`` twists."""
    if name not in FLAVORS:
        raise ShapeError(f"tensor flavor must be 'hat' or 'tilde', got {name!r}")
    return FLAVORS[name]


@memoised
def tensor_map(flavor: str, attr: str, m, n) -> LinearMap:
    """The map ``attr`` of M⊗N, one of the carrier's ``MAPS``, flattened to
    the product carrier; ``tensor_raw`` adds the structure map α_M⊗α_N.  An
    action spreads h through the coproduct, h·(m⊗n) = h_1·m ⊗ h_2·n; a
    coaction gathers through the product, m⊗n -> m_(-1)n_(-1) ⊗ (m_(0)⊗n_(0)).
    The map that ``flavor`` twists takes α_H^{-2} on h: the hat coaction is
    α_H^{-2}(m_(-1)n_(-1)) ⊗ (m_(0)⊗n_(0)), the tilde action
    α_H^{-2}(h_1)·m ⊗ α_H^{-2}(h_2)·n."""
    twisted = _flavor(flavor) == attr
    base = m.over
    dh, d = base.dim, m.dim * n.dim
    ident = LinearMap.identity(base.field, (m.dim, n.dim))
    if attr == "act":
        delta = base.delta
        if twisted:
            alpha_inv2 = base.alpha.power(-2)
            delta = alpha_inv2.tensor(alpha_inv2) @ delta
        spread = delta.tensor(ident).permute_codomain((0, 2, 1, 3))
        return (m.act.tensor(n.act) @ spread).with_shapes((dh, d), (d,))
    paired = m.coact.tensor(n.coact).permute_codomain((0, 2, 1, 3))
    coact = (base.mu.tensor(ident) @ paired).with_shapes((d,), (dh, d))
    if twisted:
        coact = base.alpha.power(-2).tensor(LinearMap.identity(base.field, (d,))) @ coact
    return coact


@memoised
def tensor_raw(flavor: str, m, n):
    """M⊗N of the kind of m, with structure map alpha_M⊗alpha_N, unchecked."""
    d = m.dim * n.dim
    maps = [tensor_map(flavor, attr, m, n) for _, attr, _ in m.MAPS]
    return type(m)(m.over, *maps, m.alpha.tensor(n.alpha).with_shapes((d,), (d,)))


@constructor
def tensor(flavor: str, m, n):
    """The ``"hat"`` or ``"tilde"`` tensor product of two modules, comodules or
    Yetter-Drinfeld modules over one Hom-bialgebra, certified by the laws of
    their kind.  The flavour that twists a map of the kind needs a bijective
    base structure map."""
    if not isinstance(m.over, HomBialgebra):
        kind = "modules" if isinstance(m, ModuleStruct) else "comodules"
        raise ShapeError(f"tensor of {kind} needs a Hom-bialgebra base")
    require_same_base(m, n)
    if _flavor(flavor) in (attr for _, attr, _ in m.MAPS):
        require_bijective(f"{flavor} tensor product", base=m.over.alpha)
    out = tensor_raw(flavor, m, n)
    return out, out.check()


# a module sits inside the hat tensor product and a comodule inside the tilde
# one: each of those flavours leaves the map of its kind untwisted
tensor_modules = partial(tensor, "hat")
tensor_comodules = partial(tensor, "tilde")


__all__ = [
    "ModuleStruct",
    "ComoduleStruct",
    "check_module",
    "check_comodule",
    "check_module_morphism",
    "check_comodule_morphism",
    "induction",
    "induce_module",
    "induce_comodule",
    "FLAVORS",
    "tensor_map",
    "tensor_raw",
    "tensor",
    "tensor_modules",
    "tensor_comodules",
    "require_same_base",
    "action_constants",
]
