"""Quadratic character chi_D on F_p[T]: the reciprocity ladder against the
factor-and-Euler enumeration oracle _chi_rows, both in tests/oracles.py."""

import random

import numpy as np
import pytest

from ffnewman.fp_poly import gcd, is_irreducible

from oracles import (
    P,
    _chi_rows,
    _mod_monic,
    chi,
    enumerate_monic,
    legendre_int,
    monic_index,
    mul,
    squarefree_monic,
)


def test_linear_values_for_cubic_modulus():
    # chi_{T^3+2T+1}(T - a) = -1 for every a in F_3, hence c_1 = -3
    D = P([1, 2, 0, 1], 3)
    for a in range(3):
        assert chi(D, P([-a, 1], 3)) == -1


def test_shared_factor_gives_zero():
    D = P([0, 1, 0, 1], 3)  # T^3+T = T(T^2+1)
    assert chi(D, P([0, 1], 3)) == 0
    assert chi(D, P([1, 0, 1], 3)) == 0
    assert chi(D, P([0, 1, 0, 1], 3)) == 0


def test_coprime_value_example():
    assert chi(P([1, 2, 0, 1], 3), P([0, 1], 3)) == -1


def test_oracle_example():
    # T is a square mod T^2+1 over F_3: T = (T+1)^2 there; Euler gives +1
    D, T = P([1, 0, 1], 3), P([0, 1], 3)
    assert _chi_rows(3, D, 1)[1][monic_index(T)] == 1
    assert chi(D, T) == 1


def test_chi_of_one_and_constants():
    for p in [3, 5, 7]:
        for D in squarefree_monic(p, 3):
            assert chi(D, P([1], p)) == 1
            if not is_irreducible(D):
                continue
            # (a / D) = legendre(a)^(deg D) for constants a
            for a in range(1, p):
                assert chi(D, P([a], p)) == legendre_int(a, p) ** D.degree


def test_multiplicativity_exact():
    rng = random.Random(20260815)
    for p in [3, 5]:
        moduli = list(squarefree_monic(p, 2, 3))
        for _ in range(200):
            D = rng.choice(moduli)
            f = P([rng.randrange(p) for _ in range(rng.randrange(5))] + [1], p)
            h = P([rng.randrange(p) for _ in range(rng.randrange(5))] + [1], p)
            assert chi(D, mul(f, h)) == chi(D, f) * chi(D, h)


def test_periodicity_mod_d():
    rng = random.Random(31415)
    for p in [3, 5]:
        moduli = list(squarefree_monic(p, 3))
        for _ in range(200):
            D = rng.choice(moduli)
            f = P([rng.randrange(p) for _ in range(6)] + [1], p)
            # f mod D is generally non-monic; chi must handle it
            assert chi(D, P(_mod_monic(f.coeffs, D.coeffs, p), p)) == chi(D, f)
            h = [rng.randrange(p), rng.randrange(p)]
            shifted = np.array(f.coeffs)  # f + D h, with deg D h <= 4 < deg f = 6
            shifted[: D.degree + 2] += np.convolve(D.coeffs, h)
            assert chi(D, P(shifted, p)) == chi(D, f)


def test_zero_iff_common_factor():
    for p in [3, 5]:
        for D in squarefree_monic(p, 3):
            for f in enumerate_monic(p, 2):
                expect_zero = gcd(D, f).degree >= 1
                assert (chi(D, f) == 0) == expect_zero


def test_ladder_matches_oracle_exhaustive_f3():
    for D in squarefree_monic(3, 1, 2, 3, 4):
        rows = _chi_rows(3, D, 4)
        for n in range(0, 5):
            for f in enumerate_monic(3, n):
                assert chi(D, f) == rows[n][monic_index(f)]


def test_ladder_matches_oracle_random_larger_p():
    rng = random.Random(97)
    for p in [5, 7]:
        moduli = list(squarefree_monic(p, 1, 2, 3))
        rows = {}
        for _ in range(400):
            D = rng.choice(moduli)
            f = P([rng.randrange(p) for _ in range(rng.randrange(6))] + [1], p)
            if D not in rows:
                rows[D] = _chi_rows(p, D, 5)
            assert chi(D, f) == rows[D][f.degree][monic_index(f)]


def test_non_monic_f_scaling():
    # (a f / D) = legendre(a)^(deg D) (f / D)
    for p in [3, 5]:
        for D in squarefree_monic(p, 3):
            for f in enumerate_monic(p, 2):
                base = chi(D, f)
                for a in range(2, p):
                    assert chi(D, mul(f, P([a], p))) == legendre_int(a, p) ** D.degree * base


def test_chi_rows_match_pointwise_chi():
    # the enumeration oracle of lfunction against the ladder, value by value
    for p, degs, maxdeg in [(3, [1, 2, 3], 4), (5, [3], 3)]:
        for D in squarefree_monic(p, *degs):
            rows = _chi_rows(p, D, maxdeg)
            assert len(rows) == maxdeg + 1
            assert rows[0].tolist() == [1]
            for n in range(1, maxdeg + 1):
                row = rows[n]
                assert len(row) == p**n
                for f in enumerate_monic(p, n):
                    assert row[monic_index(f)] == chi(D, f)


def test_invalid_modulus_rejected():
    with pytest.raises(ValueError):
        chi(P([0, 0, 1], 3), P([1, 1], 3))  # T^2 not squarefree
    with pytest.raises(ValueError):
        chi(P([2, 0, 2], 3), P([1, 1], 3))  # non-monic
    with pytest.raises(ValueError):
        chi(P([2], 3), P([1, 1], 3))  # constant modulus
    with pytest.raises(ValueError):
        chi(P([1, 0, 1], 3), P([1, 1], 5))  # field mismatch
    with pytest.raises(ValueError):
        _chi_rows(3, P([0, 0, 1], 3), 3)


def test_chi_of_zero_polynomial():
    D = P([1, 2, 0, 1], 3)
    assert chi(D, P([], 3)) == 0
