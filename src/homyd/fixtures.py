"""Deterministic generators for certified desk-scale instances.

Group algebras are the canonical source: the diagonal coproduct makes
every coalgebra-side law exactly computable, and twisting along a group
endomorphism produces Hom-structures of every kind.  The classical
fixtures are Hom-structures with identity structure maps, and anchor the
classical-limit tests.  All generators are pure functions of their
integer parameters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import PreconditionError, ShapeError
from .fields import RATIONALS, Field, PrimeField
from .linmap import LinearMap
from .quasitri import RElement, SigmaForm
from .structures import HomBialgebra, check_classical_bialgebra, constructor, twist_bialgebra
from .yd import YDModule, twist_yd

MAX_ORDER = 16  # the largest group order, and so dimension, that ``homyd example`` builds


@dataclass(frozen=True)
class GroupPresentation:
    """A finite group as an explicit multiplication table on 0..order-1."""

    order: int
    cayley: tuple[tuple[int, ...], ...]
    name: str = "group"

    def __post_init__(self):
        n = self.order
        t = self.cayley
        if len(t) != n or any(len(row) != n for row in t):
            raise ShapeError(f"multiplication table must be {n}x{n}")
        if any(not 0 <= x < n for row in t for x in row):
            raise ShapeError("table entries must index group elements")
        for a, b, c in itertools.product(range(n), repeat=3):
            if t[t[a][b]][c] != t[a][t[b][c]]:
                raise PreconditionError("group_associativity", (a, b, c))
        identities = [
            e for e in range(n)
            if all(t[e][a] == a == t[a][e] for a in range(n))
        ]
        if len(identities) != 1:
            raise PreconditionError(
                "group_identity", None, "table has no unique identity element"
            )
        e = identities[0]
        for a in range(n):
            if not any(t[a][b] == e for b in range(n)):
                raise PreconditionError("group_inverses", (a,))

    @property
    def identity(self) -> int:
        for e in range(self.order):
            if all(self.cayley[e][a] == a for a in range(self.order)):
                return e
        raise AssertionError("validated table lost its identity")

    def inverse(self, a: int) -> int:
        e = self.identity
        for b in range(self.order):
            if self.cayley[a][b] == e:
                return b
        raise AssertionError("validated table lost an inverse")


def cyclic_group(n: int) -> GroupPresentation:
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return GroupPresentation(n, table, name=f"c{n}")


def symmetric_group(n: int) -> GroupPresentation:
    """Permutations of n letters in lexicographic order; product is
    composition acting on the left: (p*q)(x) = p(q(x))."""
    elements = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(elements)}
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(n))] for q in elements)
        for p in elements
    )
    return GroupPresentation(len(elements), table, name=f"s{n}")


def is_group_automorphism(group: GroupPresentation, images) -> bool:
    n = group.order
    if sorted(images) != list(range(n)):
        return False
    t = group.cayley
    return all(
        images[t[a][b]] == t[images[a]][images[b]]
        for a in range(n)
        for b in range(n)
    )


def inner_automorphism(group: GroupPresentation, t: int) -> tuple[int, ...]:
    """Conjugation x -> t x t^{-1} as an index map; t must index an element."""
    if not 0 <= t < group.order:
        raise ShapeError(
            f"t = {t} is not an element of {group.name}, which has order {group.order}"
        )
    tinv = group.inverse(t)
    return tuple(
        group.cayley[group.cayley[t][x]][tinv] for x in range(group.order)
    )


def power_endomorphism(n: int, k: int) -> tuple[int, ...]:
    """g^j -> g^{kj} on the cyclic group of order n."""
    return tuple((k * j) % n for j in range(n))


@constructor
def group_bialgebra(group: GroupPresentation, field: Field = RATIONALS):
    """Group algebra with basis the group elements and diagonal coproduct,
    under the identity structure map."""
    n = group.order
    mu = [
        [[field.one if k == group.cayley[i][j] else field.zero for k in range(n)]
         for j in range(n)]
        for i in range(n)
    ]
    delta = [
        [[field.one if i == j == k else field.zero for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    out = HomBialgebra.from_constants(field, mu, delta)
    return out, check_classical_bialgebra(out)


def cyclic_endo_twist(n: int, k: int, field: Field = RATIONALS) -> HomBialgebra:
    """k[C_n] twisted along g -> g^k; invertible exactly when gcd(k, n) = 1."""
    base = group_bialgebra(cyclic_group(n), field)
    alpha = LinearMap.basis_map(field, power_endomorphism(n, k))
    return twist_bialgebra(base, alpha)


def crossed_gset(group: GroupPresentation, field: Field = RATIONALS) -> YDModule:
    """Carrier k[G] with conjugation action h·m = h m h^{-1} and diagonal
    coaction m -> m ⊗ m: the classical crossed G-set, under identity
    structure maps."""
    n = group.order
    base = group_bialgebra(group, field)
    act = [
        [[field.one if k == group.cayley[group.cayley[i][m]][group.inverse(i)]
          else field.zero
          for k in range(n)]
         for m in range(n)]
        for i in range(n)
    ]
    coact = [
        [[field.one if i == m and p == m else field.zero for p in range(n)]
         for i in range(n)]
        for m in range(n)
    ]
    return YDModule.from_constants(base, act, coact)


def conjugation_yd(group: GroupPresentation, aut, field: Field = RATIONALS) -> YDModule:
    """The crossed G-set twisted along a group automorphism acting as both
    the base and carrier structure map."""
    aut = tuple(aut)
    if not is_group_automorphism(group, aut):
        raise PreconditionError(
            "group_automorphism", None, f"{aut} is not an automorphism of {group.name}"
        )
    classical = crossed_gset(group, field)
    alpha = LinearMap.basis_map(field, aut)
    return twist_yd(classical, alpha, alpha)


def cyclic_graded_yd(
    n: int, k: int, grade: int = 1, field: Field = RATIONALS
) -> YDModule:
    """Trivial action with coaction f_j -> g^{grade·j} ⊗ f_j over k[C_n],
    twisted along g -> g^k; distinct grades give distinct Yetter-Drinfeld
    modules over one base."""
    base = group_bialgebra(cyclic_group(n), field)
    act = [
        [[field.one if p == m else field.zero for p in range(n)] for m in range(n)]
        for _ in range(n)
    ]
    coact = [
        [[field.one if i == (grade * m) % n and p == m else field.zero
          for p in range(n)]
         for i in range(n)]
        for m in range(n)
    ]
    classical = YDModule.from_constants(base, act, coact)
    alpha = LinearMap.basis_map(field, power_endomorphism(n, k))
    return twist_yd(classical, alpha, alpha)


def _root_powers(field: Field, omega, n: int, modulus: str = "") -> list:
    """ω^0, …, ω^(n-1) for an ω of multiplicative order exactly n, which n
    products decide: ω^n = 1 and ω^d ≠ 1 for 0 < d < n.  Any other ω is
    refused by a message that ends in ``modulus``."""
    if n < 1:
        raise PreconditionError("group_order", None, f"n must be at least 1, got {n}")
    if isinstance(field, PrimeField) and (field.p - 1) % n != 0:
        raise PreconditionError(
            "modulus_supports_roots", None, f"{n} does not divide {field.p}-1"
        )
    omega = field.normalize(omega)
    powers = [field.one]
    for _ in range(n):
        powers.append(field.mul(powers[-1], omega))
    if powers[n] != field.one or field.one in powers[1:n]:
        raise PreconditionError(
            "root_order", None,
            f"{field.format(omega)} does not have multiplicative order {n}{modulus}",
        )
    return powers[:n]


def cyclic_bicharacter_sigma(n: int, p: int, omega: int, k: int):
    """sigma(g^i ⊗ g^j) = omega^{ij} on k[C_n] over GF(p), base twisted along
    g -> g^k.  The invariance sigma∘(alpha⊗alpha) = sigma holds exactly when
    k^2 = 1 mod n, which the checkers report rather than enforce."""
    field = PrimeField(p)
    power = _root_powers(field, omega, n, f" mod {p}")
    base = cyclic_endo_twist(n, k, field)
    matrix = [[power[(i * j) % n] for j in range(n)] for i in range(n)]
    return base, SigmaForm.from_constants(base, matrix)


def cyclic_r_matrix(n: int, field: Field, omega, k: int):
    """R = (1/n) sum omega^{-ij} g^i ⊗ g^j on k[C_n] twisted along g -> g^k.

    Over a prime field this needs n | p-1 and omega of order n; over the
    rationals only omega = ±1 (n = 1 or 2) qualifies."""
    power = _root_powers(field, omega, n)
    inv_n = field.inv(field.normalize(n) if field.characteristic else n)
    base = cyclic_endo_twist(n, k, field)
    matrix = [
        [field.mul(inv_n, power[(-i * j) % n]) for j in range(n)]
        for i in range(n)
    ]
    return base, RElement.from_constants(base, matrix)


# each family of named groups: its generator and its order at parameter n
_GROUPS = {"c": (cyclic_group, lambda n: n), "s": (symmetric_group, math.factorial)}


def group_by_name(name: str) -> GroupPresentation:
    """Resolve names like "c6" or "s3"; an empty group, or one of more
    elements than ``MAX_ORDER``, is refused before it is built."""
    name = name.lower()
    if len(name) >= 2 and name[0] in _GROUPS and name[1:].isdigit():
        build, order = _GROUPS[name[0]]
        n = int(name[1:])
        # each order is at least n, so n! is computed only for small n
        if n > MAX_ORDER or order(n) > MAX_ORDER:
            raise ShapeError(
                f"group {name} has more elements than the largest example order {MAX_ORDER}"
            )
        if order(n) < 1:
            raise ShapeError(f"n must be at least 1, got {n}")
        return build(n)
    raise ShapeError(f"unknown group name {name!r} (expected c<n> or s<n>)")
