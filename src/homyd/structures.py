"""Hom-associative algebras, Hom-coassociative coalgebras and Hom-bialgebras.

Structures are carried entirely by structure-constant tensors: a product
``mu: H⊗H -> H``, a coproduct ``delta: H -> H⊗H`` and a structure map
``alpha: H -> H``.  Nothing is assumed unital or counital.  A classical
structure is the Hom kind whose structure maps, its own and its base's, are
identities.  Checkers return the full list of failing basis tuples.  Each
per-map law is written once: ``commuting_sides`` builds both sides of a map
commuting with maps given per shape letter, ``MAP_LAWS`` names each map
kind's laws, and ``map_laws`` scans them for every map of a structure.

Every construction is one builder that returns ``(object, report)``, made a
certifying constructor by ``constructor``: the public function refuses a
failed report, and tasks call ``.build`` to report it.  The builder is
``linmap.memoised``: inside ``linmap.run_memo``, which ``runner.run_tasks``
opens for one document, it computes once per argument values, as do the
other builders that tasks repeat and the primitives of ``linmap``.  A
structure compares, and so keys the memo, by its kind, its base and its
maps, whatever objects hold them.  ``twisted_maps`` twists the maps of every
kind at once, each against the square of its twisting hypothesis, so
``twist`` serves algebras, coalgebras and bialgebras alike.

Operands are refused by one helper per contract: ``require`` (a hypothesis
holds), ``require_same_base``, ``require_bijective`` and ``require_identity``,
which every classical entry point calls on its source.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import replace
from functools import reduce, wraps

from .errors import CertificationError, InapplicableError, PreconditionError, ShapeError
from .linmap import LinearMap, memoised
from .reports import CheckReport, compare_maps


def _check_endo_shape(alpha: LinearMap, d: int, what: str):
    if alpha.dom != (d,) or alpha.cod != (d,):
        raise ShapeError(
            f"{what} must map ({d},) -> ({d},), got {alpha.dom} -> {alpha.cod}"
        )


class Structure:
    """A tuple of structure maps, over an optional base structure and twisted
    by an optional structure map ``alpha``, built as ``cls(base?, *maps, alpha?)``.

    Each kind declares itself once, and construction, ``from_constants``,
    parsing and serialization all read the declaration:

    - ``MAPS``: ``(file key, attribute, shape)`` per map, in argument order.
      A shape reads ``"<domain>-><codomain>"`` with one letter per tensor
      factor: ``h`` for the base dimension, ``d`` for the carrier dimension
      (the ``dim`` of the object).
    - ``OVER``: the classes its base may be; empty when it has no base.
    - ``ALPHA``: whether it carries a structure map ``alpha: d -> d``.
    """

    __slots__ = ("field", "_parts", "_hash")
    MAPS: tuple = ()
    OVER: tuple = ()
    ALPHA = False

    def __init__(self, *args):
        over = args[:1] if self.OVER else ()
        maps = args[len(over):len(over) + len(self.MAPS)]
        alpha = args[len(over) + len(self.MAPS):]
        name = type(self).__name__
        if len(maps) != len(self.MAPS) or len(alpha) != self.ALPHA:
            raise TypeError(f"{name} takes {len(over) + len(self.MAPS) + self.ALPHA} arguments")
        if over and not isinstance(over[0], self.OVER):
            allowed = ", ".join(cls.__name__ for cls in self.OVER)
            raise ShapeError(f"{name} base must be a {allowed}, got {type(over[0]).__name__}")
        sizes = self._sizes(over, maps)
        if alpha:
            _check_endo_shape(alpha[0], sizes["d"], f"{name} structure map")
        parts = over + maps + alpha
        if any(part.field != parts[0].field for part in parts):
            raise ShapeError(f"{name} data lives over different fields")
        # the base, the maps and alpha in argument order: what ``==`` compares
        self.field, self._parts, self._hash = parts[0].field, parts, None
        if over:
            self.over = over[0]
        for (_, attr, _), m in zip(self.MAPS, maps):
            setattr(self, attr, m)
        if alpha:
            self.alpha = alpha[0]
        if "d" in sizes:
            self.dim = sizes["d"]

    @classmethod
    def _sizes(cls, over, maps) -> dict:
        """The dims ``h`` and ``d`` that the base and the maps' factors bind;
        a map whose factors do not fit its shape raises ``ShapeError``."""
        sizes = {"h": over[0].dim} if over else {}
        for (_, attr, shape), m in zip(cls.MAPS, maps):
            letters, got = shape.replace("->", ""), m.dom + m.cod
            if len(got) != len(letters) or any(
                sizes.setdefault(c, n) != n for c, n in zip(letters, got)
            ):
                bound = ", ".join(f"{c}={n}" for c, n in sizes.items())
                raise ShapeError(
                    f"{cls.__name__}.{attr} must have shape {shape} ({bound}), "
                    f"got {m.dom} -> {m.cod}"
                )
        return sizes

    @classmethod
    def from_constants(cls, base_or_field, *constants):
        """Build from the base (or, for a kind without one, the field), then
        the structure constants of each map in ``MAPS`` order (see
        ``LinearMap.from_constants``), then for a kind with ``ALPHA`` the rows
        of alpha, the identity when omitted."""
        if not len(cls.MAPS) <= len(constants) <= len(cls.MAPS) + cls.ALPHA:
            raise TypeError(f"{cls.__name__}.from_constants got {len(constants)} arrays")
        over = (base_or_field,) if cls.OVER else ()
        field = base_or_field.field if cls.OVER else base_or_field
        maps = tuple(
            LinearMap.from_constants(field, data, shape.index("-"))
            for (_, _, shape), data in zip(cls.MAPS, constants)
        )
        alpha = ()
        if cls.ALPHA:
            d = (cls._sizes(over, maps)["d"],)
            rows = constants[len(cls.MAPS):]
            alpha = (LinearMap.from_rows(field, d, d, *rows) if rows
                     else LinearMap.identity(field, d),)
        return cls(*over, *maps, *alpha)

    def __eq__(self, other):
        """Whether ``other`` is of this kind over an equal base, with equal
        declared maps and structure map, whatever objects hold them."""
        if type(other) is not type(self):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self):
        """A hash of the kind and the parts, taken once: equal structures
        hash alike."""
        if self._hash is None:
            self._hash = hash((type(self), self._parts))
        return self._hash

    def __repr__(self):
        shown = [f"dim={self.dim}"] if hasattr(self, "dim") else []
        if self.OVER:
            shown.append(f"over dim={self.over.dim}")
        shown.append(f"field={self.field.descriptor}")
        return f"{type(self).__name__}({', '.join(shown)})"


class HomAlgebra(Structure):
    """A triple (carrier, mu, alpha) with alpha-twisted associativity."""

    __slots__ = ("dim", "mu", "alpha")
    MAPS = (("mu", "mu", "dd->d"),)
    ALPHA = True

    def check(self) -> CheckReport:
        return check_hom_algebra(self)


class HomCoalgebra(Structure):
    """A triple (carrier, delta, alpha) with alpha-twisted coassociativity."""

    __slots__ = ("dim", "delta", "alpha")
    MAPS = (("delta", "delta", "d->dd"),)
    ALPHA = True

    def check(self) -> CheckReport:
        return check_hom_coalgebra(self)


class HomBialgebra(Structure):
    """Hom-algebra and Hom-coalgebra on one carrier with a shared structure map,
    such that the coproduct is multiplicative."""

    __slots__ = ("dim", "mu", "delta", "alpha")
    MAPS = HomAlgebra.MAPS + HomCoalgebra.MAPS
    ALPHA = True

    def check(self) -> CheckReport:
        return check_hom_bialgebra(self)

    @property
    def algebra(self) -> HomAlgebra:
        return HomAlgebra(self.mu, self.alpha)

    @property
    def coalgebra(self) -> HomCoalgebra:
        return HomCoalgebra(self.delta, self.alpha)


# -- the per-map laws ----------------------------------------------------

def commuting_sides(f: LinearMap, shape: str, maps: dict, g: LinearMap = None):
    """Both sides of the square (⊗ maps over the codomain letters)∘f =
    g∘(⊗ maps over the domain letters), with g = f unless given; ``maps``
    gives one map per letter of ``shape`` and an empty side is no compose."""
    dom, cod = ([maps[c] for c in letters] for letters in shape.split("->"))
    lhs = reduce(LinearMap.tensor, cod) @ f if cod else f
    g = f if g is None else g
    return lhs, (g @ reduce(LinearMap.tensor, dom) if dom else g)


# per map kind, by attribute: its structure-map law, its Hom-(co)associativity,
# the hypothesis that twisting it needs and its morphism law
MapLaws = namedtuple("MapLaws", "alpha assoc twist morphism")
MAP_LAWS = {
    "mu": MapLaws("multiplicativity", "hom_associativity", "algebra_endomorphism",
                  "morphism_product_compat"),
    "delta": MapLaws("comultiplicativity", "hom_coassociativity", "coalgebra_endomorphism",
                     "morphism_coproduct_compat"),
    "act": MapLaws("action_alpha_compat", "action_hom_associativity", "module_twist_compat",
                   "morphism_action_compat"),
    "coact": MapLaws("coaction_alpha_compat", "coaction_hom_coassociativity",
                     "comodule_twist_compat", "morphism_coaction_compat"),
}


def _associativity_sides(s, attr: str):
    """Both sides of the Hom-(co)associativity of the map ``attr`` of ``s``,
    whose factor x is the carrier (letter d) or the base (h):
    f∘(α_x⊗f) = f∘(μ_x⊗α) for a product or an action x⊗m -> m, and
    (Δ_x⊗α)∘f = (α_x⊗f)∘f for a coproduct or a coaction m -> x⊗m."""
    shape = next(shape for _, a, shape in s.MAPS if a == attr)
    f = getattr(s, attr)
    dom, cod = shape.split("->")
    if cod == "d":
        x = s if dom[0] == "d" else s.over
        return f @ x.alpha.tensor(f), f @ x.mu.tensor(s.alpha)
    x = s if cod[0] == "d" else s.over
    return x.delta.tensor(s.alpha) @ f, x.alpha.tensor(f) @ f


def map_laws(s) -> list:
    """Two reports per map of ``s``, in ``MAPS`` order: its structure-map law,
    the square with h -> the base's α and d -> α, then its
    Hom-(co)associativity."""
    alphas = {"d": s.alpha}
    if s.OVER:
        alphas["h"] = s.over.alpha
    reports = []
    for _, attr, shape in s.MAPS:
        laws = MAP_LAWS[attr]
        reports.append(compare_maps(laws.alpha, *commuting_sides(getattr(s, attr), shape, alphas)))
        reports.append(compare_maps(laws.assoc, *_associativity_sides(s, attr)))
    return reports


def componentwise_product(mu_a: LinearMap, mu_b: LinearMap) -> LinearMap:
    """The componentwise product on A⊗B: (x⊗y)(x'⊗y') = xx'⊗yy'."""
    return mu_a.tensor(mu_b).permute_domain((0, 2, 1, 3))


def _delta_multiplicative(mu, delta):
    lhs = delta @ mu
    rhs = (
        mu.tensor(mu)
        @ delta.tensor(delta).permute_codomain((0, 2, 1, 3))
    )
    return compare_maps("delta_multiplicative", lhs, rhs)


def check_hom_algebra(alg: HomAlgebra) -> CheckReport:
    """Scan multiplicativity of alpha and alpha-twisted associativity exhaustively."""
    return CheckReport.combine("hom_algebra", map_laws(alg))


def check_hom_coalgebra(coalg: HomCoalgebra) -> CheckReport:
    return CheckReport.combine("hom_coalgebra", map_laws(coalg))


def check_hom_bialgebra(bia: HomBialgebra) -> CheckReport:
    """Both structure scans plus the three product/coproduct compatibilities.

    For a shared coproduct the exchange law delta(h_1)⊗alpha(h_2) =
    alpha(h_1)⊗delta(h_2) is the twisted coassociativity restated, and
    delta(alpha(h)) = alpha(h_1)⊗alpha(h_2) restates comultiplicativity with
    its sides swapped; both are read off those two scans and reported under
    their own names.
    """
    reports = map_laws(bia)
    comultiplicativity, coassociativity = reports[2:]
    reports += [
        _restated(coassociativity, "delta_alpha_exchange"),
        _delta_multiplicative(bia.mu, bia.delta),
        _restated(comultiplicativity, "delta_of_alpha", swap=True),
    ]
    return CheckReport.combine("hom_bialgebra", reports)


def _restated(report: CheckReport, law: str, swap: bool = False) -> CheckReport:
    """The same scan reported under another law name, sides optionally swapped."""
    failures = (
        replace(f, law=law, lhs=f.rhs, rhs=f.lhs) if swap else replace(f, law=law)
        for f in report.failures
    )
    return CheckReport(law, tuple(failures))


def check_classical_bialgebra(bia: HomBialgebra) -> CheckReport:
    """Associativity, coassociativity and a multiplicative coproduct: the
    Hom-laws read at the identity structure map that the check requires."""
    require_identity("classical bialgebra check", carrier=bia.alpha)
    return CheckReport.combine(
        "classical_bialgebra",
        [
            compare_maps("associativity", *_associativity_sides(bia, "mu")),
            compare_maps("coassociativity", *_associativity_sides(bia, "delta")),
            _delta_multiplicative(bia.mu, bia.delta),
        ],
    )


def certify(report: CheckReport) -> None:
    """Raise if a constructor's own re-check failed; such a failure is a bug."""
    if not report.passed:
        raise CertificationError(report)


def constructor(build):
    """The certifying constructor of ``build``, a builder that returns
    ``(object, report)``: it returns the object once the report passes.  The
    builder stays, memoised, as ``.build`` for tasks, which report what it
    checked."""
    build = memoised(build)

    @wraps(build)
    def construct(*args, **kwargs):
        obj, report = build(*args, **kwargs)
        certify(report)
        return obj

    construct.build = build
    return construct


def require(report: CheckReport) -> None:
    """Turn a failed hypothesis scan into an eager error naming the witness."""
    if not report.passed:
        first = report.failures[0]
        raise PreconditionError(first.law, first.index)


def require_same_base(x, *others) -> None:
    """All operands live over one base, compared by its maps, not by identity."""
    if not all(x.over == y.over for y in others):
        raise ShapeError("operands live over different base structures")


def require_bijective(what, **maps) -> None:
    """Refuse ``what`` at the first named structure map that is not bijective."""
    for name, alpha in maps.items():
        if not alpha.is_invertible():
            raise InapplicableError(f"{what} needs a bijective {name} structure map")


def require_identity(what, **maps) -> None:
    """Refuse ``what`` at the first named structure map that is not the identity."""
    for name, alpha in maps.items():
        if not alpha.is_identity():
            raise InapplicableError(f"{what} needs an identity {name} structure map")


# -- twisting (composition method) -------------------------------------

def twisted_maps(source, alphas: dict) -> list:
    """Each map f of ``source``, in ``MAPS`` order, as (α on its codomain)∘f,
    where ``alphas`` gives α per shape letter.  That same map is the left side
    of the hypothesis scan against f∘(α on its domain), which must hold on
    every basis tuple."""
    out = []
    for _, attr, shape in source.MAPS:
        twisted, rhs = commuting_sides(getattr(source, attr), shape, alphas)
        require(compare_maps(MAP_LAWS[attr].twist, twisted, rhs))
        out.append(twisted)
    return out


@constructor
def twist(source, alpha: LinearMap):
    """Twist a classical algebra, coalgebra or bialgebra along an
    endomorphism alpha: the product becomes alpha∘mu and the coproduct
    (alpha⊗alpha)∘delta, which the hypotheses equate with mu∘(alpha⊗alpha) and
    delta∘alpha.  The result has the kind of the source."""
    require_identity("twisting", source=source.alpha)
    _check_endo_shape(alpha, source.dim, "twisting map")
    out = type(source)(*twisted_maps(source, {"d": alpha}), alpha)
    return out, out.check()


twist_algebra = twist_coalgebra = twist_bialgebra = twist


@constructor
def tensor_algebra(a: HomAlgebra, b: HomAlgebra):
    """Componentwise product (x⊗y)(x'⊗y') = xx'⊗yy' with structure map
    alpha_A⊗alpha_B."""
    if a.field != b.field:
        raise ShapeError("cannot tensor algebras over different fields")
    d = a.dim * b.dim
    mu = componentwise_product(a.mu, b.mu).with_shapes((d, d), (d,))
    out = HomAlgebra(mu, a.alpha.tensor(b.alpha).with_shapes((d,), (d,)))
    return out, check_hom_algebra(out)
