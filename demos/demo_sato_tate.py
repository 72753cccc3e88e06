#!/usr/bin/env python3
"""Frobenius angles of a fixed cubic against the semicircle law.

Reduces y^2 = x^3 + x + 1 mod every odd prime p <= 10^4, counts points to get
the trace a_p, and turns each trace into an angle theta_p in [0, pi] via
cos theta_p = a_p / (2 sqrt p). The empirical angle distribution is compared
to the semicircle CDF with a one-sample Kolmogorov-Smirnov distance, and each
prime also yields a genus-1 Newman constant log(|a_p| / (2 sqrt p)), whose
running supremum creeps toward 0 from below.
"""

import math

from ffnewman import ks_distance, sato_tate_sweep, semicircle_cdf

CUBIC = (1, 1, 0, 1)  # x^3 + x + 1, discriminant -31
P_MAX = 10_000
BINS = 18


def main():
    records = []  # the sweep streams each run's records to on_block
    report = sato_tate_sweep(CUBIC, P_MAX, on_block=records.extend)
    stats = report.statistics
    print("cubic x^3 + x + 1,  odd primes p <= %d" % P_MAX)
    print("processed %d primes, skipped %d (bad reduction)" % (report.processed, report.skipped))
    print()

    thetas = [r.theta_p for r in records if r.theta_p is not None]
    print("KS distance to the semicircle law: %.6f" % stats["ks_distance"])
    assert abs(stats["ks_distance"] - ks_distance(thetas)) < 1e-15

    print("sup of lambda(p): %.12f  attained at p = %d" % (stats["sup_lambda"], stats["argmax_p"]))
    sup_ap = max((r for r in records if r.a_p is not None), key=lambda r: abs(r.a_p) / (2 * math.sqrt(r.p)))
    print("  (that prime has a_p = %d, |a_p| / 2 sqrt p = %.6f)" % (sup_ap.a_p, abs(sup_ap.a_p) / (2 * math.sqrt(sup_ap.p))))
    print()

    # Coarse ASCII comparison; expected counts come from CDF differences.
    n = len(thetas)
    width = math.pi / BINS
    print("angle histogram (o = observed count, |..| = semicircle expectation)")
    for b in range(BINS):
        lo, hi = b * width, (b + 1) * width
        obs = sum(1 for v in thetas if lo <= v < hi)
        exp = n * (semicircle_cdf(hi) - semicircle_cdf(lo))
        bar = "o" * int(round(obs / 8.0))
        print("  [%4.2f, %4.2f)  %4d  |%4.0f|  %s" % (lo, hi, obs, exp, bar))

    print()
    print("supersingular primes (a_p = 0) land exactly at theta = pi/2 and")
    print("carry lambda = -inf; they are kept in the angle statistics:")
    ss = [r.p for r in records if r.a_p == 0]
    print(" ", ss[:12], "..." if len(ss) > 12 else "")


if __name__ == "__main__":
    main()
