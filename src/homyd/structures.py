"""Hom-associative algebras, Hom-coassociative coalgebras and Hom-bialgebras.

Structures are carried entirely by structure-constant tensors: a product
``mu: H⊗H -> H``, a coproduct ``delta: H -> H⊗H`` and a structure map
``alpha: H -> H``.  Nothing is assumed unital or counital.  Checkers
return the full list of failing basis tuples; twisting constructors
verify their endomorphism hypotheses eagerly and re-check their output
before returning it.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import CertificationError, PreconditionError, ShapeError
from .linmap import LinearMap
from .reports import CheckReport, compare_maps


def _check_mu_shape(mu: LinearMap):
    d = mu.cod[0] if len(mu.cod) == 1 else None
    if d is None or mu.dom != (d, d):
        raise ShapeError(f"product must map (d, d) -> (d,), got {mu.dom} -> {mu.cod}")
    return d


def _check_delta_shape(delta: LinearMap):
    d = delta.dom[0] if len(delta.dom) == 1 else None
    if d is None or delta.cod != (d, d):
        raise ShapeError(
            f"coproduct must map (d,) -> (d, d), got {delta.dom} -> {delta.cod}"
        )
    return d


def _check_endo_shape(alpha: LinearMap, d: int, what: str):
    if alpha.dom != (d,) or alpha.cod != (d,):
        raise ShapeError(
            f"{what} must map ({d},) -> ({d},), got {alpha.dom} -> {alpha.cod}"
        )


class HomAlgebra:
    """A triple (carrier, mu, alpha) with alpha-twisted associativity."""

    __slots__ = ("field", "dim", "mu", "alpha")

    def __init__(self, mu: LinearMap, alpha: LinearMap):
        d = _check_mu_shape(mu)
        _check_endo_shape(alpha, d, "structure map")
        if mu.field != alpha.field:
            raise ShapeError("product and structure map live over different fields")
        self.field = mu.field
        self.dim = d
        self.mu = mu
        self.alpha = alpha

    @classmethod
    def from_constants(cls, field, mu_constants, alpha_rows):
        mu = LinearMap.from_constants(field, mu_constants, 2)
        d = _check_mu_shape(mu)
        return cls(mu, LinearMap.from_rows(field, (d,), (d,), alpha_rows))

    def __repr__(self):
        return f"HomAlgebra(dim={self.dim}, field={self.field.descriptor})"


class HomCoalgebra:
    """A triple (carrier, delta, alpha) with alpha-twisted coassociativity."""

    __slots__ = ("field", "dim", "delta", "alpha")

    def __init__(self, delta: LinearMap, alpha: LinearMap):
        d = _check_delta_shape(delta)
        _check_endo_shape(alpha, d, "structure map")
        if delta.field != alpha.field:
            raise ShapeError("coproduct and structure map live over different fields")
        self.field = delta.field
        self.dim = d
        self.delta = delta
        self.alpha = alpha

    @classmethod
    def from_constants(cls, field, delta_constants, alpha_rows):
        delta = LinearMap.from_constants(field, delta_constants, 1)
        d = _check_delta_shape(delta)
        return cls(delta, LinearMap.from_rows(field, (d,), (d,), alpha_rows))

    def __repr__(self):
        return f"HomCoalgebra(dim={self.dim}, field={self.field.descriptor})"


class HomBialgebra:
    """Hom-algebra and Hom-coalgebra on one carrier with a shared structure map,
    such that the coproduct is multiplicative."""

    __slots__ = ("field", "dim", "mu", "delta", "alpha")

    def __init__(self, mu: LinearMap, delta: LinearMap, alpha: LinearMap):
        d = _check_mu_shape(mu)
        if _check_delta_shape(delta) != d:
            raise ShapeError("product and coproduct dimensions differ")
        _check_endo_shape(alpha, d, "structure map")
        if not (mu.field == delta.field == alpha.field):
            raise ShapeError("bialgebra data lives over different fields")
        self.field = mu.field
        self.dim = d
        self.mu = mu
        self.delta = delta
        self.alpha = alpha

    @classmethod
    def from_constants(cls, field, mu_constants, delta_constants, alpha_rows):
        mu = LinearMap.from_constants(field, mu_constants, 2)
        d = _check_mu_shape(mu)
        delta = LinearMap.from_constants(field, delta_constants, 1)
        return cls(mu, delta, LinearMap.from_rows(field, (d,), (d,), alpha_rows))

    @property
    def algebra(self) -> HomAlgebra:
        return HomAlgebra(self.mu, self.alpha)

    @property
    def coalgebra(self) -> HomCoalgebra:
        return HomCoalgebra(self.delta, self.alpha)

    def __repr__(self):
        return f"HomBialgebra(dim={self.dim}, field={self.field.descriptor})"


class ClassicalAlgebra:
    """Strictly associative algebra, no structure map."""

    __slots__ = ("field", "dim", "mu")

    def __init__(self, mu: LinearMap):
        self.dim = _check_mu_shape(mu)
        self.field = mu.field
        self.mu = mu

    @classmethod
    def from_constants(cls, field, mu_constants):
        return cls(LinearMap.from_constants(field, mu_constants, 2))

    def as_hom(self) -> HomAlgebra:
        return HomAlgebra(self.mu, LinearMap.identity(self.field, (self.dim,)))


class ClassicalCoalgebra:
    """Strictly coassociative coalgebra, no structure map."""

    __slots__ = ("field", "dim", "delta")

    def __init__(self, delta: LinearMap):
        self.dim = _check_delta_shape(delta)
        self.field = delta.field
        self.delta = delta

    @classmethod
    def from_constants(cls, field, delta_constants):
        return cls(LinearMap.from_constants(field, delta_constants, 1))

    def as_hom(self) -> HomCoalgebra:
        return HomCoalgebra(self.delta, LinearMap.identity(self.field, (self.dim,)))


class ClassicalBialgebra:
    """Strict bialgebra (associative, coassociative, delta multiplicative)."""

    __slots__ = ("field", "dim", "mu", "delta")

    def __init__(self, mu: LinearMap, delta: LinearMap):
        d = _check_mu_shape(mu)
        if _check_delta_shape(delta) != d:
            raise ShapeError("product and coproduct dimensions differ")
        self.field = mu.field
        self.dim = d
        self.mu = mu
        self.delta = delta

    @classmethod
    def from_constants(cls, field, mu_constants, delta_constants):
        return cls(
            LinearMap.from_constants(field, mu_constants, 2),
            LinearMap.from_constants(field, delta_constants, 1),
        )

    def as_hom(self) -> HomBialgebra:
        return HomBialgebra(
            self.mu, self.delta, LinearMap.identity(self.field, (self.dim,))
        )


# -- law builders ------------------------------------------------------

def _multiplicativity(mu, alpha):
    return compare_maps("multiplicativity", alpha @ mu, mu @ alpha.tensor(alpha))


def _hom_associativity(mu, alpha):
    # alpha(a)(a'a'') = (aa')alpha(a'') on all basis triples
    return compare_maps("hom_associativity", mu @ alpha.tensor(mu), mu @ mu.tensor(alpha))


def _comultiplicativity(delta, alpha):
    return compare_maps("comultiplicativity", alpha.tensor(alpha) @ delta, delta @ alpha)


def _hom_coassociativity(delta, alpha):
    return compare_maps(
        "hom_coassociativity", delta.tensor(alpha) @ delta, alpha.tensor(delta) @ delta
    )


def tensor_square_product(mu: LinearMap) -> LinearMap:
    """The componentwise product on H⊗H: (x⊗y)(x'⊗y') = xx'⊗yy'."""
    return mu.tensor(mu).permute_domain((0, 2, 1, 3))


def _delta_multiplicative(mu, delta):
    lhs = delta @ mu
    rhs = (
        mu.tensor(mu)
        @ delta.tensor(delta).permute_codomain((0, 2, 1, 3))
    )
    return compare_maps("delta_multiplicative", lhs, rhs)


def check_hom_algebra(alg: HomAlgebra) -> CheckReport:
    """Scan multiplicativity of alpha and alpha-twisted associativity exhaustively."""
    return CheckReport.combine(
        "hom_algebra",
        [_multiplicativity(alg.mu, alg.alpha), _hom_associativity(alg.mu, alg.alpha)],
    )


def check_hom_coalgebra(coalg: HomCoalgebra) -> CheckReport:
    return CheckReport.combine(
        "hom_coalgebra",
        [
            _comultiplicativity(coalg.delta, coalg.alpha),
            _hom_coassociativity(coalg.delta, coalg.alpha),
        ],
    )


def check_hom_bialgebra(bia: HomBialgebra) -> CheckReport:
    """Both structure scans plus the three product/coproduct compatibilities.

    For a shared coproduct the exchange law delta(h_1)⊗alpha(h_2) =
    alpha(h_1)⊗delta(h_2) is the twisted coassociativity restated, and
    delta(alpha(h)) = alpha(h_1)⊗alpha(h_2) restates comultiplicativity with
    its sides swapped; both are read off those two scans and reported under
    their own names.
    """
    mu, delta, alpha = bia.mu, bia.delta, bia.alpha
    comultiplicativity = _comultiplicativity(delta, alpha)
    coassociativity = _hom_coassociativity(delta, alpha)
    reports = [
        _multiplicativity(mu, alpha),
        _hom_associativity(mu, alpha),
        comultiplicativity,
        coassociativity,
        _restated(coassociativity, "delta_alpha_exchange"),
        _delta_multiplicative(mu, delta),
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


def check_classical_bialgebra(bia: ClassicalBialgebra) -> CheckReport:
    ident = LinearMap.identity(bia.field, (bia.dim,))
    return CheckReport.combine(
        "classical_bialgebra",
        [
            compare_maps(
                "associativity",
                bia.mu @ ident.tensor(bia.mu),
                bia.mu @ bia.mu.tensor(ident),
            ),
            compare_maps(
                "coassociativity",
                bia.delta.tensor(ident) @ bia.delta,
                ident.tensor(bia.delta) @ bia.delta,
            ),
            _delta_multiplicative(bia.mu, bia.delta),
        ],
    )


def certify(report: CheckReport) -> None:
    """Raise if a constructor's own re-check failed; such a failure is a bug."""
    if not report.passed:
        raise CertificationError(report)


def certified(built):
    """The object of a builder's ``(object, report)`` pair, once the report passes."""
    obj, report = built
    certify(report)
    return obj


def require(report: CheckReport) -> None:
    """Turn a failed hypothesis scan into an eager error naming the witness."""
    if not report.passed:
        first = report.failures[0]
        raise PreconditionError(first.law, first.index)


# -- twisting (composition method) -------------------------------------

def twist_algebra(alg: ClassicalAlgebra, alpha: LinearMap) -> HomAlgebra:
    """Replace the product by alpha∘mu; requires alpha to be an algebra
    endomorphism, verified on every basis pair."""
    return certified(_twist_algebra(alg, alpha))


def _twist_algebra(alg, alpha):
    _check_endo_shape(alpha, alg.dim, "twisting map")
    require(_restated(_multiplicativity(alg.mu, alpha), "algebra_endomorphism"))
    out = HomAlgebra(alpha @ alg.mu, alpha)
    return out, check_hom_algebra(out)


def twist_coalgebra(coalg: ClassicalCoalgebra, alpha: LinearMap) -> HomCoalgebra:
    """Replace the coproduct by delta∘alpha; alpha must be a coalgebra
    endomorphism."""
    return certified(_twist_coalgebra(coalg, alpha))


def _twist_coalgebra(coalg, alpha):
    _check_endo_shape(alpha, coalg.dim, "twisting map")
    require(_restated(_comultiplicativity(coalg.delta, alpha), "coalgebra_endomorphism"))
    out = HomCoalgebra(coalg.delta @ alpha, alpha)
    return out, check_hom_coalgebra(out)


def twist_bialgebra(bia: ClassicalBialgebra, alpha: LinearMap) -> HomBialgebra:
    """Twist product and coproduct simultaneously by a bialgebra endomorphism."""
    return certified(_twist_bialgebra(bia, alpha))


def _twist_bialgebra(bia, alpha):
    _check_endo_shape(alpha, bia.dim, "twisting map")
    require(_restated(_multiplicativity(bia.mu, alpha), "algebra_endomorphism"))
    require(_restated(_comultiplicativity(bia.delta, alpha), "coalgebra_endomorphism"))
    out = HomBialgebra(alpha @ bia.mu, bia.delta @ alpha, alpha)
    return out, check_hom_bialgebra(out)


def tensor_algebra(a: HomAlgebra, b: HomAlgebra) -> HomAlgebra:
    """Componentwise product (x⊗y)(x'⊗y') = xx'⊗yy' with structure map
    alpha_A⊗alpha_B."""
    if a.field != b.field:
        raise ShapeError("cannot tensor algebras over different fields")
    perm = LinearMap.permutation(a.field, (a.dim, b.dim, a.dim, b.dim), (0, 2, 1, 3))
    mu = (a.mu.tensor(b.mu) @ perm).with_shapes(
        (a.dim * b.dim, a.dim * b.dim), (a.dim * b.dim,)
    )
    out = HomAlgebra(mu, a.alpha.tensor(b.alpha).with_shapes((a.dim * b.dim,), (a.dim * b.dim,)))
    certify(check_hom_algebra(out))
    return out
