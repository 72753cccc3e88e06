"""Primality, the odd-prime check, reduction mod p, and the Legendre symbol."""

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


def test_reduction_on_construction():
    assert FpPolynomial((10,), 3).coeffs == (1,)
    assert FpPolynomial((-1,), 5).coeffs == (4,)
    with pytest.raises(ValueError):
        FpPolynomial((1,), 4)


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
