"""Exact scalar arithmetic over the rationals or a prime field.

Rational scalars are plain Python ints or ``fractions.Fraction`` values
(arbitrary precision); prime-field scalars are machine ints kept reduced
into ``[0, p)``.  Every downstream verification is an equality check, so
no operation here is allowed to round.

A ``LinearMap`` stores its values fraction-free: int numerators over one
positive common denominator, in a numpy array of the field's ``dtype``.
That is ``int64`` for GF(p) with p < 2^31, whose residues then multiply and
sum in machine words: a product of two residues is below 2^62.  It is
``object`` (Python ints of any size) over Q and for larger primes.  Each
field's ``reduce_array`` brings such an array to the field's canonical form,
in its dtype: over Q, lowest terms (the gcd of the denominator and every
numerator is 1); over GF(p), residues over denominator 1.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

from .errors import HomydError

# A scalar is an int or a Fraction; prime fields only ever hold ints.
Scalar = int | Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")
_RESIDUE_RE = re.compile(r"^\d+$")


class FieldValueError(HomydError, ValueError):
    """A scalar literal or value does not belong to the field."""


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
# With the bases up to 37 only, 318665857834031151167461 would pass as prime.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MAX_MODULUS = 3317044064679887385961981

# Primes below this store their residues as int64.
INT64_MODULUS = 2**31


def is_prime(n: int) -> bool:
    """Exact primality of ``n`` below about 3.3e24 by deterministic
    Miller-Rabin; larger ``n`` raise ``FieldValueError``."""
    if n >= _MAX_MODULUS:
        raise FieldValueError(f"modulus too large: must be below {_MAX_MODULUS}")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _literal(convert, text: str):
    """``convert(text)`` for a literal that matched its pattern, where the only
    ``ValueError`` left is Python's limit on int-string conversion."""
    try:
        return convert(text)
    except ValueError:
        raise FieldValueError(f"scalar literal too long: {len(text)} characters") from None


class Rationals:
    """The field of rational numbers."""

    descriptor = "rational"
    characteristic = 0
    dtype = np.dtype(object)
    zero = 0
    one = 1

    def normalize(self, value: Scalar) -> Scalar:
        if isinstance(value, bool):
            raise FieldValueError(f"not a rational scalar: {value!r}")
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction):
            return int(value) if value.denominator == 1 else value
        raise FieldValueError(f"not a rational scalar: {value!r}")

    def parse(self, text: str) -> Scalar:
        if not isinstance(text, str) or not _RATIONAL_RE.match(text):
            raise FieldValueError(
                f"not an exact rational literal (expect 'a' or 'a/b'): {text!r}"
            )
        return self.normalize(_literal(Fraction, text))

    def format(self, value: Scalar) -> str:
        return str(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.normalize(Fraction(1) / a)

    def reduce_array(self, arr, den):
        """Int numerators ``arr`` (a 1-d object array) over ``den > 0`` in
        lowest terms: the gcd of the denominator and every numerator is 1."""
        if den == 1:
            return arr, 1
        g = math.gcd(den, *arr.tolist())
        return (arr, den) if g == 1 else (arr // g, den // g)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash(self.descriptor)

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """The field of integers modulo a prime ``p``; values stay reduced."""

    characteristic: int
    dtype: np.dtype
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise FieldValueError(f"modulus must be prime, got {p!r}")
        self.p = p
        self.characteristic = p
        self.dtype = np.dtype(np.int64 if p < INT64_MODULUS else object)

    @property
    def descriptor(self) -> str:
        return f"prime:{self.p}"

    def normalize(self, value: Scalar) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise FieldValueError(f"not a prime-field scalar: {value!r}")
        return value % self.p

    def parse(self, text: str) -> int:
        if not isinstance(text, str) or not _RESIDUE_RE.match(text):
            raise FieldValueError(f"not a residue literal: {text!r}")
        value = _literal(int, text)
        if value >= self.p:
            raise FieldValueError(
                f"non-reduced residue {value} (expected 0 <= value < {self.p})"
            )
        return value

    def format(self, value: int) -> str:
        return str(value)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def reduce_array(self, arr, den):
        """Int values ``arr`` over ``den`` as residues over 1, narrowed to the
        field's dtype only once they are residues."""
        if den != 1:
            arr = arr * pow(den, -1, self.p)
        return (arr % self.p).astype(self.dtype, copy=False), 1

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(self.descriptor)

    def __repr__(self):
        return f"PrimeField({self.p})"


RATIONALS = Rationals()

Field = Rationals | PrimeField


def field_from_descriptor(descriptor: str) -> Field:
    """Resolve ``"rational"`` or ``"prime:<p>"`` to a field object."""
    if descriptor == "rational":
        return RATIONALS
    if isinstance(descriptor, str) and descriptor.startswith("prime:"):
        tail = descriptor[len("prime:"):]
        if not tail.isdigit():
            raise FieldValueError(f"bad field descriptor: {descriptor!r}")
        if len(tail) > len(str(_MAX_MODULUS)):
            raise FieldValueError(f"modulus too large: {len(tail)} digits")
        return PrimeField(int(tail))
    raise FieldValueError(f"bad field descriptor: {descriptor!r}")
