#!/usr/bin/env python3
"""Build one quadratic L-function over F_3(T) and inspect every layer of it.

Walks the genus-1 discriminant D = T^3 + 2T + 1 over F_3 from raw character
sums up to the completed cosine polynomial and its zeros:

  1. good-pair screening (odd prime, monic, squarefree, odd degree >= 3)
  2. Dirichlet coefficients c_n and the functional-equation mirror
  3. exact Fourier data Phi_n = c_{g-n} q^{n/2}
  4. evaluation of Xi_0 on the circle and its zeros in (0, pi)

Run:  python3 demos/demo_lfunction_basics.py
"""

import math

from ffnewman import build_lfunction, good_pair_check, xi_eval, zeros_at_t
from ffnewman.fp_poly import FpPolynomial, poly_to_text
from ffnewman.lfunction import enumerated_coefficients

Q = 3
D = FpPolynomial((1, 2, 0, 1), Q)  # T^3 + 2T + 1, irreducible over F_3


def main():
    print("discriminant D =", poly_to_text(D), "over F_%d" % Q)

    ok, reason = good_pair_check(Q, D)
    print("good pair:", ok, "" if ok else "(%s)" % reason)

    # Literal character sums through degree deg D = 2g + 1; everything past
    # n = 2g vanishes because of the Riemann-Roch cutoff.
    g = (D.degree - 1) // 2
    print("genus g =", g)
    *c, c_deg = enumerated_coefficients(Q, D, D.degree)
    print("c_n for n = 0..%d:" % (len(c) - 1), c)
    print("  past 2g: c_%d = %d" % (D.degree, c_deg))
    assert c_deg == 0
    for n in range(0, g + 1):
        lhs = c[g + n]
        rhs = Q**n * c[g - n]
        print("  functional equation n=%d:  c_%d = %d,  q^%d c_%d = %d" % (n, g + n, lhs, n, g - n, rhs))
        assert lhs == rhs

    L = build_lfunction(Q, D)
    print("Phi_n (floats):", [round(v, 6) for v in L.phi])
    print("Phi_n (exact (c_{g-n}, n) pairs):", list(L.phi_exact))

    # Xi_0 is a real even trig polynomial; the central value sits at x = 0.
    for x in (0.0, math.pi / 3, math.pi / 2, math.pi):
        print("  Xi_0(%.6f) = %+.9f" % (x, xi_eval(L, 0.0, x)))

    zeros = zeros_at_t(L, 0.0)
    print("zeros in (0, pi) at t = 0:", [round(v, 9) for v in zeros.gammas])
    print("off-axis zeros:", len(zeros.nonreal), " strip half-width delta =", zeros.delta)

    # Genus 1 means Xi_0(x) = Phi_0 + 2 Phi_1 cos x, so the zero is an acos.
    closed = math.acos(-L.phi[0] / (2.0 * L.phi[1]))
    print("closed-form check: acos(-Phi_0 / 2 Phi_1) =", round(closed, 9))


if __name__ == "__main__":
    main()
