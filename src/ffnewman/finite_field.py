"""Prime-field helpers for F_p, p an odd prime: primality, the modulus check,
and the Legendre symbol by two routes that the tests cross-check:
legendre_table, the one square-marking table of F_p (read by the
enumeration oracle's Euler kernel and the Sato-Tate point count), and
legendre_int, Euler's criterion for one scalar, run by the reciprocity
ladder only (Sato-Tate lanes use _pow_lanes). Elements of F_p are plain
ints in [0, p); fp_poly's kernels reduce results."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division; inputs in scope are far below 2**31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


@lru_cache(maxsize=256)
def check_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime (the only legal moduli here)."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError("modulus must be an odd prime, got %r" % (p,))


def legendre_int(a: int, p: int) -> int:
    """Legendre symbol of the integer a mod the odd prime p, by Euler's criterion.

    Returns 0 iff p | a, +1 for nonzero squares, -1 otherwise.
    """
    check_odd_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    if r <= 1:
        return r
    return -1  # Euler gives p - 1 here


@lru_cache(maxsize=64)
def legendre_table(p: int) -> np.ndarray:
    """Read-only int64 array t with t[a] = Legendre symbol of a, 0 <= a < p,
    built by marking squares; the last 64 p are cached."""
    check_odd_prime(p)
    a = np.arange(p, dtype=np.int64)
    t = -np.sign(a)  # 0 at 0, else -1
    t[a[1:] ** 2 % p] = 1
    t.flags.writeable = False
    return t
