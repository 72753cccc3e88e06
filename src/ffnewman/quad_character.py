"""The quadratic character chi_D on F_p[T].

chi_D(f) is the Jacobi symbol (f/D): the character of f modulo D, which is 0
when gcd(f, D) != 1 and otherwise the product of Euler-criterion values of f
at the monic irreducible factors of D. chi evaluates it by the reciprocity
ladder, gcd-like, with no factoring, and takes the Legendre symbol of a
scalar by Euler's criterion (finite_field.legendre_int). No computing route
of the package uses it: it is the independent cross-check the tests run the
explicit formula against (build_lfunction and family_coefficients, summed
over the same monic irreducible P of degree <= g), and the enumeration
oracle lfunction._chi_rows against. That oracle factors D by trial division
and applies its Euler kernel at each factor, vectorised over every monic f
up to a degree; the kernel reads the square-marking
finite_field.legendre_table, so it shares no code with the ladder.
"""

from __future__ import annotations

from functools import lru_cache

from .finite_field import legendre_int
from .fp_poly import FpPolynomial, _mod_monic, is_squarefree


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
    """The quadratic character of f modulo D, in {-1, 0, 1}.

    D must be monic, squarefree, of degree >= 1; f is arbitrary.
    """
    if D.p != f.p:
        raise ValueError("modulus mismatch: %d vs %d" % (D.p, f.p))
    _validate_modulus(D.p, D.coeffs)
    return _chi_ladder(f.coeffs, D.coeffs, D.p)
