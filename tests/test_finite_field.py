"""Exact arithmetic in F_p (as the constants of F_p[T]) and the Legendre symbol."""

import pytest

from ffnewman.finite_field import (
    check_odd_prime,
    is_prime,
    legendre_int,
    legendre_table,
)
from ffnewman.fp_poly import FpPolynomial

SMALL_ODD_PRIMES = [3, 5, 7, 11, 13]


def test_is_prime_small_values():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 21, 0, -3])
def test_check_odd_prime_rejects(bad):
    with pytest.raises(ValueError):
        check_odd_prime(bad)


def test_check_odd_prime_accepts():
    for p in SMALL_ODD_PRIMES:
        check_odd_prime(p)  # must not raise


def E(a, p):
    """a as a constant of F_p[T]: F_p arithmetic is the degree-0 part of
    FpPolynomial, with the same reduction and modulus checks."""
    return FpPolynomial((a,), p)


def value(f) -> int:
    assert f.degree <= 0
    return f.coeffs[0] if f.coeffs else 0


def test_element_examples():
    # 2 + 2 = 1 in F_3
    assert value(E(2, 3) + E(2, 3)) == 1
    # inverse of 2 in F_5 is 3
    assert value(E(1, 5) // E(2, 5)) == 3
    # 2^4 = 1 in F_5
    assert value(E(2, 5) * E(2, 5) * E(2, 5) * E(2, 5)) == 1


def test_element_exhaustive_arithmetic():
    for p in [3, 5, 7]:
        for a in range(p):
            x = E(a, p)
            assert value(-x) == (-a) % p
            assert value(x - x) == 0
            for b in range(p):
                y = E(b, p)
                assert value(x + y) == (a + b) % p
                assert value(x * y) == (a * b) % p
                assert value(x - y) == (a - b) % p


def test_inverse_is_two_sided():
    for p in SMALL_ODD_PRIMES:
        for a in range(1, p):
            x = E(a, p)
            inv = E(1, p) // x
            assert value(x * inv) == 1
            assert value(inv * x) == 1


def test_inversion_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        E(1, 7) // E(0, 7)
    with pytest.raises(ZeroDivisionError):
        E(1, 5) // E(5, 5)  # reduces to zero first


def test_pow_matches_repeated_multiplication():
    p = 7
    for a in range(p):
        x = E(a, p)
        acc = E(1, p)
        for e in range(17):
            assert value(acc) == pow(a, e, p)
            acc = acc * x


def test_negative_exponent():
    # x^-4 is the inverse of x^4 and the fourth power of x^-1
    x = E(2, 5)
    inv = E(1, 5) // x
    assert value(E(1, 5) // (x * x * x * x)) == value(inv * inv * inv * inv)
    assert value(inv) == pow(2, -1, 5)
    with pytest.raises(ZeroDivisionError):
        E(1, 5) // E(0, 5)


def test_mixed_int_arithmetic():
    x = E(2, 7)
    assert value(x + 12) == 0
    assert value(12 + x) == 0
    assert value(x * 4) == 1
    assert value(3 - x) == 1
    assert value(x - 3) == 6


def test_modulus_mismatch_raises():
    with pytest.raises(ValueError):
        E(1, 3) + E(1, 5)
    with pytest.raises(ValueError):
        E(1, 3) * E(1, 7)


def test_reduction_on_construction():
    assert value(E(10, 3)) == 1
    assert value(E(-1, 5)) == 4
    with pytest.raises(ValueError):
        E(1, 4)


def test_legendre_examples():
    assert legendre_int(0, 7) == 0
    assert legendre_int(4, 5) == 1
    assert legendre_int(2, 5) == -1


def test_legendre_values_complete():
    for p in SMALL_ODD_PRIMES:
        vals = [legendre_int(a, p) for a in range(p)]
        assert vals[0] == 0
        assert all(v in (-1, 1) for v in vals[1:])
        # exactly (p-1)/2 nonzero squares
        assert vals.count(1) == (p - 1) // 2
        assert vals.count(-1) == (p - 1) // 2


def test_legendre_multiplicative():
    for p in SMALL_ODD_PRIMES:
        for a in range(p):
            for b in range(p):
                assert legendre_int(a * b, p) == legendre_int(a, p) * legendre_int(b, p)


def test_legendre_periodic():
    for p in SMALL_ODD_PRIMES:
        for a in range(p):
            assert legendre_int(a + 3 * p, p) == legendre_int(a, p)
            assert legendre_int(a - p, p) == legendre_int(a, p)


def test_legendre_table_matches_euler():
    # two independent routes: squares-marking table vs Euler's criterion
    for p in SMALL_ODD_PRIMES + [17, 19, 23]:
        t = legendre_table(p)
        assert len(t) == p
        assert t.tolist() == [legendre_int(a, p) for a in range(p)]


def test_legendre_of_polynomial_value():
    # a polynomial's value is a plain residue in [0, p), taken as is
    assert legendre_int(E(4, 5)(0), 5) == 1
    assert legendre_int(E(0, 5)(3), 5) == 0
    f = FpPolynomial((2, 0, 1), 5)  # T^2 + 2
    assert f(7) == 1  # 7 reduces to 2 first: 4 + 2 = 6 = 1
    for x in range(5):
        assert legendre_int(f(x), 5) == legendre_table(5)[f(x)]
