"""Dense polynomials over F_p[T], for what the pipeline needs of them.

FpPolynomial holds a discriminant D or a character argument f: the
constructor checks p and reduces the integers mod p, and the class gives
degree, monicity, the monic multiple and the text codec used by the CLI. It
has no ring operators. The rest is kernels on raw coefficient tuples,
ascending degree order with no trailing zeros (the zero polynomial is the
empty tuple): _gcd, the one Euclid (monic divisors over F_p,
pseudo-division over Q), run by gcd, is_squarefree (gcd(D, D')) and
newman.has_repeated_root; _factorize_monic, trial division, the one factoring
kernel, run by is_irreducible (which picks the modulus of each field of the
lfunction module's root tables). Last comes the deterministic enumeration
of monic polynomials by index, one at a time or as numpy rows of
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .finite_field import check_odd_prime


def _trim(c: list) -> tuple:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _divmod(a: tuple, b: tuple, p: int) -> tuple:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) < len(b):
        return (), a
    inv = pow(b[-1], p - 2, p)
    r = list(a)
    q = [0] * (len(a) - db)
    for top in range(len(a) - 1, db - 1, -1):
        c = r[top]
        if c:
            factor = c * inv % p
            q[top - db] = factor
            for i in range(db + 1):
                r[top - db + i] = (r[top - db + i] - factor * b[i]) % p
    return _trim(q), _trim(r)


def _gcd(a, b, p: int | None) -> tuple:
    """gcd of integer coefficient sequences (constant term first) in Python
    ints: monic over F_p, or primitive over Q when p is None; gcd((), ()) is ().

    Euclid. Over F_p, b is made monic once per outer step, so a remainder
    step is a <- a - lc(a) T^k b. Over Q, by pseudo-division: a <- lc(b) a -
    lc(a) T^k b stays in the integers, and scaling by a nonzero constant
    keeps the gcd. Remainders are reduced mod p, or over Q divided by their
    content so they do not grow.
    """

    def reduce(v):
        if p:
            v = [x % p for x in v]
        while v and v[-1] == 0:
            v.pop()
        if not p and v:
            content = math.gcd(*v)
            v = [x // content for x in v]
        return v

    a, b = reduce([int(x) for x in a]), reduce([int(x) for x in b])
    while len(b) > 1:
        n = len(b) - 1
        if p:
            if b[-1] != 1:
                inv = pow(b[-1], -1, p)
                b = [x * inv % p for x in b]
            while len(a) > n:
                f = a.pop()  # the leading term, cancelled by f T^k b
                k = len(a) - n
                for i in range(n):
                    a[k + i] = (a[k + i] - f * b[i]) % p
                while a and a[-1] == 0:
                    a.pop()
        else:
            lb = b[-1]
            while len(a) > n:
                f, shift = a[-1], len(a) - len(b)
                top = [x * lb - f * v for x, v in zip(a[shift:], b)]  # top[-1] is 0
                a = reduce([x * lb for x in a[:shift]] + top)
        a, b = b, a
    if b:  # b is a nonzero constant, which divides a
        a = b
    if p and a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return tuple(a)


def _deriv(f: tuple, p: int) -> tuple:
    return _trim([(i * f[i]) % p for i in range(1, len(f))])


@dataclass(frozen=True)
class FpPolynomial:
    """Immutable dense polynomial over F_p, coefficients ascending (constant first)."""

    coeffs: tuple
    p: int

    def __post_init__(self):
        check_odd_prime(self.p)
        c = [int(v) % self.p for v in self.coeffs]
        object.__setattr__(self, "coeffs", _trim(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic_scaled(self) -> "FpPolynomial":
        """The monic scalar multiple of a nonzero polynomial."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no monic multiple")
        inv = pow(self.coeffs[-1], self.p - 2, self.p)
        return FpPolynomial(tuple(c * inv % self.p for c in self.coeffs), self.p)

    def __str__(self):
        return poly_to_text(self)

    def __repr__(self):
        return "FpPolynomial(%r, p=%d)" % (poly_to_text(self), self.p)


def gcd(a: FpPolynomial, b: FpPolynomial) -> FpPolynomial:
    if a.p != b.p:
        raise ValueError("modulus mismatch: %d vs %d" % (a.p, b.p))
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return FpPolynomial(_gcd(a.coeffs, b.coeffs, a.p), a.p)


def is_squarefree(D: FpPolynomial) -> bool:
    """True iff gcd(D, D') is constant. D = 0 is rejected.

    In characteristic p the derivative can vanish identically (D a p-th power);
    gcd(D, 0) = monic(D) then correctly reports a repeated factor.
    """
    if D.is_zero:
        raise ValueError("squarefree test of the zero polynomial")
    return len(_gcd(D.coeffs, _deriv(D.coeffs, D.p), D.p)) == 1


def is_irreducible(f: FpPolynomial) -> bool:
    """True iff f has exactly one monic irreducible factor, counted with
    multiplicity (_factorize_monic of its monic multiple)."""
    if f.degree < 1:
        raise ValueError("irreducibility is about polynomials of degree >= 1")
    return len(_factorize_monic(f.p, f.monic_scaled().coeffs)) == 1


@lru_cache(maxsize=512)
def _factorize_monic(p: int, coeffs: tuple) -> tuple:
    """Monic irreducible factors (with multiplicity) by trial division,
    smallest degree first. Returns a tuple of coefficient tuples."""
    rem = coeffs
    out = []
    d = 1
    while len(rem) - 1 >= 2 * d:
        k = 0
        while k < p**d:
            g = _monic_tuple_by_index(p, d, k)
            quo, r = _divmod(rem, g, p)
            if not r:
                out.append(g)
                rem = quo
                continue  # same g may divide again (multiplicity)
            k += 1
        d += 1
    if len(rem) - 1 >= 1:
        out.append(rem)
    return tuple(sorted(out, key=lambda t: (len(t), t)))


def _monic_tuple_by_index(p: int, n: int, k: int) -> tuple:
    """k-th monic polynomial of degree n in lexicographic order of the
    ascending coefficient vector (c_0 compared first, so c_0 is the most
    significant base-p digit of k)."""
    c = [0] * (n + 1)
    c[n] = 1
    for i in range(n - 1, -1, -1):
        c[i] = k % p  # least significant digit lands on c_{n-1}, leaving
        k //= p  # c_0 as the most significant digit, i.e. true lex order
    return tuple(c)


def monic_by_index(p: int, n: int, k: int) -> FpPolynomial:
    """The k-th monic polynomial of degree n over F_p, 0 <= k < p**n, in
    lexicographic order of the ascending coefficient vector."""
    check_odd_prime(p)
    if n < 0 or not 0 <= k < p**n:
        raise ValueError("index %d out of range for degree %d over F_%d" % (k, n, p))
    return FpPolynomial(_monic_tuple_by_index(p, n, k), p)


def poly_to_text(P: FpPolynomial) -> str:
    """Ascending comma-separated coefficients, e.g. T^3+2T+1 over F_3 -> '1,2,0,1'."""
    if not P.coeffs:
        return "0"
    return ",".join(str(c) for c in P.coeffs)


def parse_int_coeffs(s: str) -> tuple:
    """Comma-separated integers (ascending degree), kept in Z."""
    parts = s.strip().split(",")
    try:
        return tuple(int(v.strip()) for v in parts)
    except ValueError:
        raise ValueError("bad polynomial text %r: expected comma-separated integers" % s)


def _digits(q: int, width: int, ks: np.ndarray) -> np.ndarray:
    """Base-q digits of each k, least significant first: shape (len(ks), width)."""
    return (ks[:, None] // q ** np.arange(width, dtype=np.int64)) % q


def _monic_rows(p: int, n: int, ks: np.ndarray) -> np.ndarray:
    """The monic f of degree n with monic_by_index indices ks as rows c_0..c_n."""
    return np.pad(_digits(p, n, ks)[:, ::-1], [(0, 0), (0, 1)], constant_values=1)

