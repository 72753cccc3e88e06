"""The tests' independent references: code that only tests run, kept apart
from the routes of the package they check.

- The reciprocity ladder chi(D, f), the Jacobi symbol (f/D): the character
  of f modulo D, 0 when gcd(f, D) != 1 and otherwise the product of
  Euler-criterion values of f at the monic irreducible factors of D, taken
  gcd-like by quadratic reciprocity, with no factoring, and with the
  Legendre symbol of a scalar by Euler's criterion (legendre_int). It is
  what the explicit formula (build_lfunction and family_coefficients,
  summed over the same monic irreducible P of degree <= g) and the
  enumeration oracle are checked against, and it shares no code with any
  of them.
- The enumeration oracle: c_n as the sum of chi_D over every monic f of
  degree n (enumerated_coefficients), c_0..c_2g completed by the
  functional equation (dirichlet_coefficients). Its characters come from
  _chi_rows, which factors D by trial division and applies Euler's
  criterion through the norm (_euler_values) at each factor P, in the model
  F_q[T]/(P), a kernel that runs on neither route. With them it shares only
  the enumeration helpers (_digits, _monic_rows), T^i mod P (_powers_mod),
  the model's reduction table and Frobenius matrix (_model) and the product
  mod P (_mulmod), not their tables or their character.
- xi_eval, Xi_t by the two-sided exponential kernel, which the zeros of
  zeros_at_t are checked against without P_t or arccos.
- The monic polynomials one at a time (enumerate_monic, monic_index) and as
  rows (_monic_array), and small helpers the test modules share: P, mul,
  mobius and squarefree_monic.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from ffnewman.finite_field import check_odd_prime, legendre_table
from ffnewman.fp_poly import FpPolynomial, _digits, _factorize_monic, _monic_rows
from ffnewman.fp_poly import _monic_tuple_by_index, is_squarefree
from ffnewman.lfunction import _model, _mulmod, _powers_mod
from ffnewman.lfunction import complete_coefficients, require_good_pair


def P(coeffs, p):
    return FpPolynomial(tuple(coeffs), p)


def mul(f, h):
    """f h by np.convolve (the zero polynomial is special-cased, since
    np.convolve rejects an empty sequence); the constructor reduces mod p."""
    if f.is_zero or h.is_zero:
        return P([], f.p)
    return FpPolynomial(np.convolve(f.coeffs, h.coeffs), f.p)


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def enumerate_monic(p: int, n: int):
    """Yield the p**n monic polynomials of degree exactly n, lexicographically
    by ascending coefficient vector; monic_by_index(p, n, k) is the k-th."""
    check_odd_prime(p)
    if n < 0:
        raise ValueError("degree must be >= 0")
    for k in range(p**n):
        yield FpPolynomial(_monic_tuple_by_index(p, n, k), p)


def squarefree_monic(p, *degrees):
    """The squarefree monic D of each degree in turn, in enumeration order."""
    for n in degrees:
        for D in enumerate_monic(p, n):
            if is_squarefree(D):
                yield D


def monic_index(f: FpPolynomial) -> int:
    """Inverse of monic_by_index for a monic polynomial of its own degree."""
    if not f.is_monic:
        raise ValueError("monic_index of a non-monic polynomial")
    k = 0
    for c in f.coeffs[:-1]:
        k = k * f.p + c
    return k


def _monic_array(p: int, n: int) -> np.ndarray:
    """Every monic f of degree n as a row c_0..c_n, in monic_by_index order."""
    return _monic_rows(p, n, np.arange(p**n))


def legendre_int(a: int, p: int) -> int:
    """Legendre symbol of the integer a mod the odd prime p, by Euler's criterion.

    Returns 0 iff p | a, +1 for nonzero squares, -1 otherwise.
    """
    check_odd_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    if r <= 1:
        return r
    return -1  # Euler gives p - 1 here


def _mod_monic(f: tuple, g: tuple, p: int) -> tuple:
    """f mod g for monic g with deg g >= 1. The ladder's inner loop."""
    dg = len(g) - 1
    r = list(f)
    while len(r) - 1 >= dg:
        c = r[-1]
        if c:
            base = len(r) - 1 - dg
            for i in range(dg):
                r[base + i] = (r[base + i] - c * g[i]) % p
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


@lru_cache(maxsize=256)
def _validate_modulus(p: int, d_coeffs: tuple) -> None:
    D = FpPolynomial(d_coeffs, p)
    if D.degree < 1:
        raise ValueError("character modulus must have degree >= 1")
    if not D.is_monic:
        raise ValueError("character modulus must be monic")
    if not is_squarefree(D):
        raise ValueError("character modulus must be squarefree")


def _chi_ladder(f: tuple, g: tuple, p: int) -> int:
    """(f/g) for monic g with deg g >= 1, by reciprocity.

    Rules used, for monic coprime f, g and scalar a != 0:
      (a*f/g) = legendre(a)^(deg g) * (f/g)
      (f/g)   = (-1)^(((p-1)/2) * deg f * deg g) * (g/f)
      (f/g)   = (f mod g / g);  (c/g) = legendre(c)^(deg g);  shared factor -> 0
    """
    s = 1
    flip = (p & 3) == 3  # (p-1)/2 odd
    while True:
        f = _mod_monic(f, g, p)
        if not f:
            return 0  # deg g >= 1 throughout the loop, so a true common factor
        lc = f[-1]
        dg = len(g) - 1
        if lc != 1:
            if (dg & 1) and legendre_int(lc, p) < 0:
                s = -s
            inv = pow(lc, p - 2, p)
            f = tuple(c * inv % p for c in f)
        df = len(f) - 1
        if df == 0:
            return s
        if flip and (df & 1) and (dg & 1):
            s = -s
        f, g = g, f


def chi(D: FpPolynomial, f: FpPolynomial) -> int:
    """The quadratic character of f modulo D, in {-1, 0, 1}, by the ladder.

    D must be monic, squarefree, of degree >= 1; f is arbitrary.
    """
    if D.p != f.p:
        raise ValueError("modulus mismatch: %d vs %d" % (D.p, f.p))
    _validate_modulus(D.p, D.coeffs)
    return _chi_ladder(f.coeffs, D.coeffs, D.p)


def enumerated_coefficients(q: int, D: FpPolynomial, top: int) -> tuple:
    """c_0..c_top as literal character sums: c_n is the sum of chi_D over
    every monic f of degree n, from the enumeration oracle _chi_rows. Any
    top >= 0 is allowed (_chi_rows rejects the rest), so tests can check the
    functional equation and that c_n vanishes from degree deg D on."""
    require_good_pair(q, D)
    return tuple(int(row.sum()) for row in _chi_rows(q, D, top))


def dirichlet_coefficients(q: int, D: FpPolynomial) -> tuple:
    """c_0..c_2g of L(s, chi_D) from the enumeration oracle: c_0..c_g as
    character sums, the upper half by the functional equation."""
    return complete_coefficients(q, enumerated_coefficients(q, D, (D.degree - 1) // 2))


def _chi_rows(q: int, D: FpPolynomial, top: int) -> tuple:
    """chi_D(f) for every monic f of degree 0..top: one int64 array per
    degree n, indexed like monic_by_index(q, n, k). The enumeration oracle.

    D is factored once by trial division, and at each monic irreducible
    factor P of degree d, f mod P is one matmul against T^i mod P, and its
    character is _euler_values in the model F_q[T]/(P), on the distinct
    residues only. chi_D(f) is the product over P.
    """
    if D.p != q:
        raise ValueError("D is over F_%d, not F_%d" % (D.p, q))
    _validate_modulus(q, D.coeffs)
    if top < 0:
        raise ValueError("top degree must be >= 0")
    rows = [np.pad(_monic_array(q, n), [(0, 0), (0, top - n)]) for n in range(top + 1)]
    F = np.concatenate(rows)  # every monic f of degree 0..top, as c_0..c_top
    chi = np.ones(len(F), dtype=np.int64)
    for P in _factorize_monic(q, D.coeffs):
        d = len(P) - 1
        residues, inverse = np.unique(
            (F @ _powers_mod(P, top + 1, q) % q) @ q ** np.arange(d, dtype=np.int64),
            return_inverse=True,
        )
        r = np.ascontiguousarray(_digits(q, d, residues).T)
        chi *= _euler_values(q, *_model(q, P), r)[inverse]
    return tuple(np.split(chi, np.cumsum([q**n for n in range(top)])))


def _euler_values(q: int, low: np.ndarray, frob: np.ndarray, r: np.ndarray):
    """Euler's criterion r^((q^d - 1)/2) mod P, as 0 or +-1, for residues
    modulo one monic irreducible P of degree d: the enumeration oracle's
    character kernel. Each column of r (shape (d, n)) is a residue mod P,
    and (low, frob) is _model(q, P). The power is N(r)^((q - 1)/2) for the
    norm N(r) = prod_{k<d} r^(q^k), d - 1 Frobenius steps and products,
    which lies in F_q: its Legendre symbol. A norm outside F_q means a
    reducible modulus: ArithmeticError."""
    acc = x = r
    for _ in range(r.shape[0] - 1):
        x = frob @ x % q
        acc = _mulmod(q, low, acc, x)
    if acc[1:].any():
        raise ArithmeticError("the norm left F_%d: a modulus is reducible" % q)
    return legendre_table(q)[acc[0]]


def xi_eval(L, t: float, x):
    """Xi_t(x) by the two-sided exponential kernel, for real or complex x;
    the imaginary part is dropped when below 1e-12 in magnitude, so real x
    gives a float (e^(iy) + e^(-iy) is exactly 2 cos y there)."""
    val = complex(L.phi[0])
    for n in range(1, L.g + 1):
        if L.phi[n]:
            e = math.exp(t * n * n)
            val += L.phi[n] * e * (cmath.exp(1j * n * x) + cmath.exp(-1j * n * x))
    if abs(val.imag) < 1e-12:
        return val.real
    return val
