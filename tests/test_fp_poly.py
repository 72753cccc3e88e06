"""Polynomials over F_p: the division kernels, gcd, squarefree and
irreducibility tests, enumeration, codec, and the tests' sieve of the monic
irreducibles against trial division."""

import random
from itertools import zip_longest

import pytest

from ffnewman.fp_poly import (
    FpPolynomial,
    _deriv,
    _divmod,
    gcd,
    is_irreducible,
    is_squarefree,
    monic_by_index,
    parse_int_coeffs,
    poly_to_text,
)

import irreducibles
from oracles import P, _mod_monic, enumerate_monic, mobius, monic_index, mul


def random_poly(rng, p, maxdeg):
    return P([rng.randrange(p) for _ in range(rng.randrange(maxdeg + 2))], p)


def test_construction_trims_and_reduces():
    f = P([4, 0, 3, 0], 3)
    assert f.coeffs == (1,)
    assert f.degree == 0
    z = P([0, 0], 5)
    assert z.coeffs == ()
    assert z.is_zero
    assert z.degree == -1


def test_gcd_example():
    # gcd(T^3+T, T^2+1) = T^2+1 over F_3
    g = gcd(P([0, 1, 0, 1], 3), P([1, 0, 1], 3))
    assert g.coeffs == (1, 0, 1)


def test_divmod_round_trip():
    rng = random.Random(7)
    for p in [3, 5]:
        for _ in range(60):
            a = random_poly(rng, p, 6)
            b = random_poly(rng, p, 3)
            if b.is_zero:
                with pytest.raises(ZeroDivisionError):
                    _divmod(a.coeffs, b.coeffs, p)
                continue
            qu, r = _divmod(a.coeffs, b.coeffs, p)
            qb_plus_r = zip_longest(mul(P(qu, p), b).coeffs, r, fillvalue=0)
            assert P([x + y for x, y in qb_plus_r], p).coeffs == a.coeffs
            assert P(r, p).degree < b.degree


def test_mod_monic_is_the_divmod_remainder():
    # the ladder's inner loop on its own, against the general division
    rng = random.Random(2027)
    for p in [3, 5, 7]:
        for _ in range(80):
            f = random_poly(rng, p, 7).coeffs
            g = P([rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [1], p).coeffs
            assert _mod_monic(f, g, p) == _divmod(f, g, p)[1]
        assert _mod_monic((), (1, 1), p) == ()
        assert _mod_monic((2, 1), (1, 0, 1), p) == (2, 1)  # deg f < deg g


def test_gcd_is_monic_and_divides():
    rng = random.Random(12)
    for _ in range(50):
        a = random_poly(rng, 3, 5)
        b = random_poly(rng, 3, 5)
        if a.is_zero and b.is_zero:
            continue
        g = gcd(a, b)
        assert g.is_monic
        assert not _divmod(a.coeffs, g.coeffs, 3)[1]
        assert not _divmod(b.coeffs, g.coeffs, 3)[1]
    with pytest.raises(ValueError):
        gcd(P([], 3), P([], 3))


# gcd(a, b) and whether a and b are squarefree, for the pairs a = u g, b = v g
# that gcd_pairs draws, as pseudo-division over F_p gave them
GCD_PAIRS = {
    3: [
        ((0, 0, 1), False, False), ((2, 2, 2, 2, 1), False, True), ((0, 2, 1, 1), True, False),
        ((0, 0, 2, 1), False, False), ((1, 0, 1), True, True), ((0, 1), True, True),
        ((0, 1), False, True), ((2, 2, 1), True, False), ((2, 2, 0, 1), True, True),
        ((2, 1), True, True),
    ],
    5: [
        ((0, 1), True, True), ((2, 3, 2, 1), True, True), ((0, 0, 1), False, False),
        ((0, 2, 1), True, False), ((4, 0, 1), False, True), ((3, 1), True, True),
        ((4, 0, 1), False, False), ((0, 0, 1), False, False), ((1, 1), True, False),
        ((0, 0, 0, 1), False, False),
    ],
    13: [
        ((5, 4, 1), True, True), ((7, 1, 1), False, True), ((3, 6, 1), True, True),
        ((4, 1), True, True), ((11, 3, 9, 1), True, True), ((0, 2, 1), True, True),
        ((11, 1), True, True), ((7, 1), True, True), ((1, 5, 1), True, True),
        ((12, 1), True, True),
    ],
}


def gcd_pairs(rng, p):
    def nonzero(lo, hi):
        coeffs = [rng.randrange(p) for _ in range(rng.randrange(lo, hi + 1))]
        return P(coeffs + [rng.randrange(1, p)], p)

    for _ in range(10):
        g = nonzero(1, 3)
        yield mul(nonzero(0, 4), g), mul(nonzero(0, 4), g)


def test_gcd_and_squarefree_on_random_pairs():
    # the monic Euclid over F_p gives what pseudo-division gave
    rng = random.Random(25)
    for p, want in GCD_PAIRS.items():
        got = [(gcd(a, b).coeffs, is_squarefree(a), is_squarefree(b)) for a, b in gcd_pairs(rng, p)]
        assert got == want


def test_derivative_char_p():
    # d/dT of T^3 vanishes over F_3
    assert _deriv((0, 0, 0, 1), 3) == ()
    assert _deriv((1, 2, 3, 1), 5) == (2, 1, 3)


def test_squarefree_examples():
    assert is_squarefree(P([0, 1, 0, 1], 3))  # T^3+T = T(T^2+1), distinct factors
    assert not is_squarefree(P([0, 0, 1], 3))  # T^2
    assert is_squarefree(P([1, 2, 0, 1], 3))  # irreducible
    assert not is_squarefree(P([0, 0, 0, 1], 3))  # T^3 = T*T*T
    with pytest.raises(ValueError):
        is_squarefree(P([], 3))


def test_squarefree_p_th_power():
    # (T+1)^3 over F_3 has zero derivative; gcd(D, 0) must still catch it
    cube = P([1, 0, 0, 1], 3)
    assert _deriv(cube.coeffs, 3) == ()
    assert not is_squarefree(cube)


def test_irreducible_examples():
    assert is_irreducible(P([1, 0, 1], 3))  # T^2+1, no root mod 3
    assert not is_irreducible(P([0, 1, 0, 1], 3))  # T^3+T
    assert is_irreducible(P([1, 2, 0, 1], 3))  # T^3+2T+1
    with pytest.raises(ValueError):
        is_irreducible(P([2], 3))


def test_irreducible_agrees_with_root_and_product_structure():
    # degree <= 3: reducible iff it has a root or (deg 2 factor) pair
    def has_root(f):
        return any(sum(c * a**i for i, c in enumerate(f.coeffs)) % 3 == 0 for a in range(3))

    for f in enumerate_monic(3, 2):
        assert is_irreducible(f) == (not has_root(f))
    for f in enumerate_monic(3, 3):
        assert is_irreducible(f) == (not has_root(f))


def test_enumerate_small_cases():
    assert [f.coeffs for f in enumerate_monic(3, 0)] == [(1,)]
    deg2 = list(enumerate_monic(3, 2))
    assert len(deg2) == 9
    assert len({f.coeffs for f in deg2}) == 9
    assert all(f.is_monic and f.degree == 2 for f in deg2)
    deg1 = [f.coeffs for f in enumerate_monic(5, 1)]
    assert deg1 == [(a, 1) for a in range(5)]


def test_enumeration_is_lex_on_ascending_coefficients():
    seen = [f.coeffs[:-1] for f in enumerate_monic(3, 3)]
    assert seen == sorted(seen)
    # c_0 is the most significant digit of the index
    assert monic_by_index(3, 2, 0).coeffs == (0, 0, 1)
    assert monic_by_index(3, 2, 1).coeffs == (0, 1, 1)
    assert monic_by_index(3, 2, 3).coeffs == (1, 0, 1)


def test_index_round_trip():
    for p, n in [(3, 1), (3, 2), (3, 3), (5, 2)]:
        for k, f in enumerate(enumerate_monic(p, n)):
            assert monic_index(f) == k
            assert monic_by_index(p, n, k).coeffs == f.coeffs
    with pytest.raises(ValueError):
        monic_by_index(3, 2, 9)
    with pytest.raises(ValueError):
        monic_index(P([1, 2], 3))


def mobius_irreducible_count(p, n):
    # necklace formula (1/n) sum_{d | n} mu(d) p^(n/d), used as the oracle
    return sum(mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def test_irreducible_counts_match_necklace_formula():
    expected_f3 = [3, 3, 8, 18, 48, 116]
    for n, cnt in enumerate(expected_f3, start=1):
        assert mobius_irreducible_count(3, n) == cnt
    for p, maxdeg in [(3, 5), (5, 3)]:
        direct = {
            n: sum(1 for f in enumerate_monic(p, n) if is_irreducible(f))
            for n in range(1, maxdeg + 1)
        }
        for n in range(1, maxdeg + 1):
            assert direct[n] == mobius_irreducible_count(p, n)


def test_monic_irreducibles_match_trial_division(monkeypatch):
    # the tests' sieve (tests/irreducibles.py) against is_irreducible; its
    # rows are built for the survivors only, never for all p^n monic f of
    # degree n (cofactors of lower degree are built whole)
    built = []
    monic_array = irreducibles._monic_array

    def spy(p, n):
        built.append((p, n))
        return monic_array(p, n)

    monkeypatch.setattr(irreducibles, "_monic_array", spy)
    irreducible_array = irreducibles.irreducible_array
    for p, maxdeg in [(3, 6), (5, 4), (7, 3)]:
        for n in range(1, maxdeg + 1):
            got = irreducible_array.__wrapped__(p, n).tolist()
            assert (p, n) not in built
            assert got == irreducible_array(p, n).tolist() == [
                list(f.coeffs) for f in enumerate_monic(p, n) if is_irreducible(f)
            ]
            assert len(got) == mobius_irreducible_count(p, n)


def test_constructor_reduces_int_coeffs():
    assert FpPolynomial((1, 1, 0, 1), 3).coeffs == (1, 1, 0, 1)
    assert FpPolynomial((10, 5, 0, 1), 5).coeffs == (0, 0, 0, 1)  # -> T^3
    assert FpPolynomial((1, 1, 0, 3), 3).coeffs == (1, 1)  # degree drops -> T+1
    assert FpPolynomial((-1, 1), 3).coeffs == (2, 1)


def test_text_codec():
    f = P([1, 2, 0, 1], 3)
    assert poly_to_text(f) == "1,2,0,1"
    assert FpPolynomial(parse_int_coeffs("1,2,0,1"), 3).coeffs == f.coeffs
    assert FpPolynomial(parse_int_coeffs(" 1, 2 ,0,1 "), 3).coeffs == f.coeffs
    assert poly_to_text(P([], 3)) == "0"
    assert FpPolynomial(parse_int_coeffs("4,-1"), 3).coeffs == (1, 2)
    assert parse_int_coeffs("1,-5,25") == (1, -5, 25)
    with pytest.raises(ValueError):
        parse_int_coeffs("1,x,3")


def test_str_repr():
    f = P([1, 2, 0, 1], 3)
    assert str(f) == "1,2,0,1"
    assert "1,2,0,1" in repr(f)


def test_monic_scaled():
    f = P([2, 0, 2], 3)
    m = f.monic_scaled()
    assert m.is_monic
    assert m.coeffs == (1, 0, 1)
    with pytest.raises(ValueError):
        P([], 3).monic_scaled()


def test_modulus_mismatch():
    with pytest.raises(ValueError, match="modulus mismatch"):
        gcd(P([1, 1], 3), P([1, 1], 5))
