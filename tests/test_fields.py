import math
import random
from fractions import Fraction

import pytest

from homyd.fields import (
    RATIONALS,
    FieldValueError,
    PrimeField,
    field_from_descriptor,
    is_prime,
)


def test_rational_parse_and_format():
    q = RATIONALS
    assert q.parse("5") == 5
    assert q.parse("-7") == -7
    assert q.parse("3/2") == Fraction(3, 2)
    assert q.parse("-7/3") == Fraction(-7, 3)
    assert q.format(q.parse("3/2")) == "3/2"
    assert q.format(q.parse("4/2")) == "2"  # normalized to an int
    for bad in ("1.5", "a", "1/0", "3 / 2", "", "1/-2"):
        with pytest.raises(FieldValueError):
            q.parse(bad)


def test_prime_field_parse_rejects_non_reduced_residue():
    f7 = PrimeField(7)
    assert f7.parse("0") == 0
    assert f7.parse("6") == 6
    with pytest.raises(FieldValueError, match="non-reduced residue"):
        f7.parse("7")
    with pytest.raises(FieldValueError):
        f7.parse("-1")
    with pytest.raises(FieldValueError):
        f7.parse("3/2")


def test_prime_field_requires_prime_modulus():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(FieldValueError):
            PrimeField(bad)
    assert PrimeField(2).p == 2
    assert PrimeField(11).p == 11


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    assert {n for n in range(25) if is_prime(n)} == primes


def test_is_prime_matches_trial_division_and_refuses_beyond_its_bound():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(is_prime(n) == trial(n) for n in range(5000))
    # Mersenne primes, the largest prime below 2^64, a Carmichael number and
    # the least strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (2**31 - 1, 2**61 - 1, 2**64 - 59):
        assert is_prime(n)
    for n in (41041, 3215031751, 3825123056546413051, 318665857834031151167461,
              (2**31 - 1) ** 2):
        assert not is_prime(n)
    for n in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(FieldValueError, match="too large"):
            is_prime(n)


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(7), PrimeField(11)])
def test_field_axioms_on_random_scalars(field):
    rng = random.Random(20240811)
    def draw():
        if field is RATIONALS:
            num = rng.randint(-8, 8)
            den = rng.randint(1, 6)
            return field.normalize(Fraction(num, den))
        return rng.randrange(field.p)

    for _ in range(200):
        a, b, c = draw(), draw(), draw()
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c)
        )
        assert field.add(a, field.neg(a)) == field.zero
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one


def test_prime_field_values_stay_reduced():
    f5 = PrimeField(5)
    assert f5.add(4, 4) == 3
    assert f5.mul(4, 4) == 1
    assert f5.neg(2) == 3
    assert f5.normalize(-1) == 4
    assert f5.inv(3) == 2  # 3 * 2 = 6 = 1 mod 5


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        RATIONALS.inv(0)
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


def test_field_descriptor_roundtrip():
    assert field_from_descriptor("rational") is RATIONALS
    assert field_from_descriptor("prime:7") == PrimeField(7)
    assert field_from_descriptor("prime:7").descriptor == "prime:7"
    for bad in ("real", "prime:", "prime:abc", "prime:-3"):
        with pytest.raises(FieldValueError):
            field_from_descriptor(bad)
    with pytest.raises(FieldValueError):
        field_from_descriptor("prime:6")
