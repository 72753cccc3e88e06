#!/usr/bin/env python3
"""Build one quadratic L-function over F_3(T) and inspect every layer of it.

Walks the genus-1 discriminant D = T^3 + 2T + 1 over F_3 from raw character
sums up to the completed cosine polynomial and its zeros:

  1. good-pair screening (odd prime, monic, squarefree, odd degree >= 3)
  2. Dirichlet coefficients c_n as literal character sums, the
     functional-equation mirror, and the library's c_n
  3. exact Fourier data Phi_n = c_{g-n} q^{n/2}
  4. evaluation of Xi_0 on the circle and its zeros in (0, pi)

Run:  python3 demos/demo_lfunction_basics.py
"""

import itertools
import math

from ffnewman import build_lfunction, good_pair_check, zeros_at_t
from ffnewman.fp_poly import FpPolynomial, poly_to_text

Q = 3
D = FpPolynomial((1, 2, 0, 1), Q)  # T^3 + 2T + 1, irreducible over F_3


def reduce(f):
    """f mod D over F_3: the 3 coefficients of a polynomial of degree < 3."""
    f = list(f) + [0, 0, 0]
    for k in range(len(f) - 1, 2, -1):
        top, f[k] = f[k], 0
        for i in range(3):
            f[k - 3 + i] -= top * D.coeffs[i]
    return [v % Q for v in f[:3]]


def times(a, b):
    """a b mod D, for a and b of degree < 3."""
    prod = [0] * 5
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return reduce(prod)


def chi_D(f):
    """chi_D(f) by Euler's criterion in the field F_27 = F_3[T]/(D):
    f^((27 - 1)/2) mod D is 0, 1 or -1 = 2."""
    power, x = [1, 0, 0], reduce(f)
    for _ in range((Q**D.degree - 1) // 2):
        power = times(power, x)
    assert power[1:] == [0, 0]
    return (power[0] + 1) % Q - 1


def main():
    print("discriminant D =", poly_to_text(D), "over F_%d" % Q)

    ok, reason = good_pair_check(Q, D)
    print("good pair:", ok, "" if ok else "(%s)" % reason)

    # Literal character sums over every monic f of degree n, through degree
    # deg D = 2g + 1; everything past n = 2g vanishes because of the
    # Riemann-Roch cutoff.
    g = (D.degree - 1) // 2
    print("genus g =", g)
    *c, c_deg = [
        sum(chi_D(low + (1,)) for low in itertools.product(range(Q), repeat=n))
        for n in range(D.degree + 1)
    ]
    print("c_n for n = 0..%d:" % (len(c) - 1), c)
    print("  past 2g: c_%d = %d" % (D.degree, c_deg))
    assert c_deg == 0
    for n in range(0, g + 1):
        lhs = c[g + n]
        rhs = Q**n * c[g - n]
        print("  functional equation n=%d:  c_%d = %d,  q^%d c_%d = %d" % (n, g + n, lhs, n, g - n, rhs))
        assert lhs == rhs

    L = build_lfunction(Q, D)
    print("build_lfunction c_n (explicit formula):", list(L.c))
    assert tuple(c) == L.c
    print("Phi_n (floats):", [round(v, 6) for v in L.phi])
    print("Phi_n (exact (c_{g-n}, n) pairs):", list(L.phi_exact))

    # Xi_0 is a real even trig polynomial; the central value sits at x = 0.
    for x in (0.0, math.pi / 3, math.pi / 2, math.pi):
        xi = L.phi[0] + 2.0 * sum(L.phi[n] * math.cos(n * x) for n in range(1, g + 1))
        print("  Xi_0(%.6f) = %+.9f" % (x, xi))

    zeros = zeros_at_t(L, 0.0)
    print("zeros in (0, pi) at t = 0:", [round(v, 9) for v in zeros.gammas])
    print("off-axis zeros:", len(zeros.nonreal), " strip half-width delta =", zeros.delta)

    # Genus 1 means Xi_0(x) = Phi_0 + 2 Phi_1 cos x, so the zero is an acos.
    closed = math.acos(-L.phi[0] / (2.0 * L.phi[1]))
    print("closed-form check: acos(-Phi_0 / 2 Phi_1) =", round(closed, 9))


if __name__ == "__main__":
    main()
