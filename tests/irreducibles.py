"""The monic irreducibles of each degree over F_p, by a sieve: the tests'
list of the primes of the explicit formula. The library needs no such list
(it takes one root of each irreducible from the field tables), so this is the
oracle those roots, and the reciprocity-ladder sums over the same P, are
checked against. test_fp_poly checks the sieve itself against trial
division."""

from functools import lru_cache

import numpy as np

from ffnewman.fp_poly import _monic_rows

from oracles import _monic_array


@lru_cache(maxsize=64)
def irreducible_array(p: int, n: int) -> np.ndarray:
    """The monic irreducible polynomials of degree n >= 1 over F_p as rows
    c_0..c_n (int64, read-only; the last 64 (p, n) cached), in enumeration
    order: rows only for the indices, about p^n/n, of the monic f of degree n
    not hit by a block of about p^e/(n + 1) monic irreducibles of degree
    e <= n/2 times every monic cofactor of degree n - e (p^n coefficients at once)."""
    weights = p ** np.arange(n - 1, -1, -1, dtype=np.int64)  # index of c_0..c_(n-1)
    composite = np.zeros(p**n, dtype=bool)
    for e in range(1, n // 2 + 1):
        cofactors = _monic_array(p, n - e)
        irreducibles = irreducible_array(p, e)
        step = max(1, p**e // (n + 1))
        for P in np.split(irreducibles, range(step, len(irreducibles), step)):
            prod = np.zeros((len(P), len(cofactors), n + 1), dtype=np.int64)
            for i in range(e + 1):
                prod[:, :, i : i + n - e + 1] += P[:, i, None, None] * cofactors
            composite[(prod[:, :, :n] % p) @ weights] = True
    out = _monic_rows(p, n, np.flatnonzero(~composite))
    out.flags.writeable = False
    return out
