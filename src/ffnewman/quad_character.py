"""The quadratic character chi_D on F_p[T].

chi_D(f) is the Jacobi symbol (f/D): the character of f modulo D, which is 0
when gcd(f, D) != 1 and otherwise the product of Euler-criterion values of f
at the monic irreducible factors of D. Two independent evaluators live here:

  chi        reciprocity ladder, gcd-like, no factoring; build_lfunction
             (newman/lfun/table) runs it at the monic irreducible P of
             degree <= g only, for the explicit formula of one D
  chi_oracle factor D by trial division (fp_poly._factorize_monic), then
             Euler's criterion per factor; a cross-check of chi, one f at a
             time

The enumeration oracle lfunction._chi_rows is chi_oracle's route vectorised
over every monic f up to a degree: it shares the factorisation, never the
ladder. Family sweeps use none of these: lfunction.family_coefficients
reads chi_D(P) for the irreducibles P of degree <= g from per-P square
tables, and the ladder and the enumeration oracle cross-check it in the
tests.
"""

from __future__ import annotations

from functools import lru_cache

from .finite_field import legendre_table
from .fp_poly import FpPolynomial, _factorize_monic, _mod_monic, _mul, is_squarefree


@lru_cache(maxsize=256)
def _validate_modulus(p: int, d_coeffs: tuple) -> None:
    D = FpPolynomial(d_coeffs, p)
    if D.degree < 1:
        raise ValueError("character modulus must have degree >= 1")
    if not D.is_monic:
        raise ValueError("character modulus must be monic")
    if not is_squarefree(D):
        raise ValueError("character modulus must be squarefree")


def _chi_ladder(f: tuple, g: tuple, p: int, leg: tuple) -> int:
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
            if (dg & 1) and leg[lc] < 0:
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
    """The quadratic character of f modulo D, in {-1, 0, 1}.

    D must be monic, squarefree, of degree >= 1; f is arbitrary.
    """
    if D.p != f.p:
        raise ValueError("modulus mismatch: %d vs %d" % (D.p, f.p))
    _validate_modulus(D.p, D.coeffs)
    return _chi_ladder(f.coeffs, D.coeffs, D.p, legendre_table(D.p))


def _euler_symbol(f: tuple, P: tuple, p: int) -> int:
    """f^((|P|-1)/2) mod P for irreducible P, read off as 0 or +-1."""
    e = (p ** (len(P) - 1) - 1) // 2
    base = _mod_monic(f, P, p)
    if not base:
        return 0
    acc = (1,)
    while e:
        if e & 1:
            acc = _mod_monic(_mul(acc, base, p), P, p)
        base = _mod_monic(_mul(base, base, p), P, p)
        e >>= 1
    if acc == (1,):
        return 1
    if acc == (p - 1,):
        return -1
    raise ArithmeticError(
        "Euler criterion did not land on a sign; %r is not irreducible mod %d"
        % (P, p)
    )


def chi_oracle(D: FpPolynomial, f: FpPolynomial) -> int:
    """Independent evaluation of chi by factoring D and applying Euler's
    criterion at each irreducible factor. Slow; exists to cross-check chi."""
    if D.p != f.p:
        raise ValueError("modulus mismatch: %d vs %d" % (D.p, f.p))
    _validate_modulus(D.p, D.coeffs)
    val = 1
    for P in _factorize_monic(D.p, D.coeffs):
        s = _euler_symbol(f.coeffs, P, D.p)
        if s == 0:
            return 0
        val *= s
    return val
