"""Dense polynomial arithmetic over F_p[T].

Ring operations, gcd, derivative, evaluation, squarefree and irreducibility
tests, deterministic enumeration of monic polynomials, the text codec used by
the CLI, and the monic irreducibles of each degree (the primes of the
explicit formula for L-function coefficients).

Internally polynomials are tuples of ints in ascending degree order with no
trailing zeros; the zero polynomial is the empty tuple. The FpPolynomial class
wraps these tuples; the underscore kernels below operate on raw tuples and are
shared with the character module's hot paths. _factorize_monic, trial
division, is the one factoring kernel: is_irreducible, the character oracle
and the enumeration oracle of the lfunction module all use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .finite_field import check_odd_prime

# degree() of the zero polynomial; any comparison against a real degree is safe
ZERO_DEGREE = -1


def _trim(c: list) -> tuple:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _add(a: tuple, b: tuple, p: int) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % p
    return _trim(out)


def _sub(a: tuple, b: tuple, p: int) -> tuple:
    out = list(a) + [0] * (len(b) - len(a))
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return _trim(out)


def _mul(a: tuple, b: tuple, p: int) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


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


def _gcd_monic(a: tuple, b: tuple, p: int) -> tuple:
    """Monic gcd by Euclid's algorithm; gcd((), ()) is ()."""
    while b:
        if len(b) == 1:
            a, b = b, ()
        else:
            inv = pow(b[-1], p - 2, p)
            bm = b if b[-1] == 1 else tuple(c * inv % p for c in b)
            a, b = b, _mod_monic(a, bm, p)
    if not a:
        return ()
    if a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return tuple(c * inv % p for c in a)


def _eval(f: tuple, x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


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
        return len(self.coeffs) - 1 if self.coeffs else ZERO_DEGREE

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _coerce(self, other) -> tuple:
        if isinstance(other, FpPolynomial):
            if other.p != self.p:
                raise ValueError("modulus mismatch: %d vs %d" % (self.p, other.p))
            return other.coeffs
        if isinstance(other, int):
            return _trim([other % self.p])
        return NotImplemented

    def __add__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FpPolynomial(_add(self.coeffs, b, self.p), self.p)

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FpPolynomial(_sub(self.coeffs, b, self.p), self.p)

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FpPolynomial(_sub(b, self.coeffs, self.p), self.p)

    def __mul__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FpPolynomial(_mul(self.coeffs, b, self.p), self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return FpPolynomial(tuple(-c % self.p for c in self.coeffs), self.p)

    def __divmod__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        q, r = _divmod(self.coeffs, b, self.p)
        return FpPolynomial(q, self.p), FpPolynomial(r, self.p)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x: int) -> int:
        """The value at x (an integer, reduced mod p), as an int in [0, p)."""
        return _eval(self.coeffs, int(x) % self.p, self.p)

    def derivative(self) -> "FpPolynomial":
        return FpPolynomial(_deriv(self.coeffs, self.p), self.p)

    def monic_scaled(self) -> "FpPolynomial":
        """The monic scalar multiple of a nonzero polynomial."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no monic multiple")
        if self.coeffs[-1] == 1:
            return self
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
    return FpPolynomial(_gcd_monic(a.coeffs, b.coeffs, a.p), a.p)


def is_squarefree(D: FpPolynomial) -> bool:
    """True iff gcd(D, D') is constant. D = 0 is rejected.

    In characteristic p the derivative can vanish identically (D a p-th power);
    gcd(D, 0) = monic(D) then correctly reports a repeated factor.
    """
    if D.is_zero:
        raise ValueError("squarefree test of the zero polynomial")
    g = _gcd_monic(D.coeffs, _deriv(D.coeffs, D.p), D.p)
    return len(g) == 1


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
            if not _mod_monic(rem, g, p):
                out.append(g)
                rem, r = _divmod(rem, g, p)
                if r:
                    raise AssertionError("non-exact division in factorization")
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
    """Seekable access into the enumerate_monic stream: 0 <= k < p**n."""
    check_odd_prime(p)
    if n < 0 or not 0 <= k < p**n:
        raise ValueError("index %d out of range for degree %d over F_%d" % (k, n, p))
    return FpPolynomial(_monic_tuple_by_index(p, n, k), p)


def monic_index(P: FpPolynomial) -> int:
    """Inverse of monic_by_index for a monic polynomial of its own degree."""
    if not P.is_monic:
        raise ValueError("monic_index of a non-monic polynomial")
    return _tuple_to_index(P.coeffs, P.p)


def enumerate_monic(p: int, n: int):
    """Yield the p**n monic polynomials of degree exactly n, lexicographically
    by ascending coefficient vector. Workers seek with monic_by_index."""
    check_odd_prime(p)
    if n < 0:
        raise ValueError("degree must be >= 0")
    for k in range(p**n):
        yield FpPolynomial(_monic_tuple_by_index(p, n, k), p)


def reduce_int_poly(coeffs, p: int) -> FpPolynomial:
    """Coefficient-wise reduction of an integer polynomial mod p.

    Degree drop is legal and visible through the result's degree.
    """
    check_odd_prime(p)
    return FpPolynomial(tuple(int(c) % p for c in coeffs), p)


def poly_to_text(P: FpPolynomial) -> str:
    """Ascending comma-separated coefficients, e.g. T^3+2T+1 over F_3 -> '1,2,0,1'."""
    if not P.coeffs:
        return "0"
    return ",".join(str(c) for c in P.coeffs)


def poly_from_text(s: str, p: int) -> FpPolynomial:
    """Parse the codec above; integers are reduced mod p on ingestion."""
    return FpPolynomial(parse_int_coeffs(s), p)


def parse_int_coeffs(s: str) -> tuple:
    """Comma-separated integers (ascending degree), kept in Z."""
    parts = s.strip().split(",")
    try:
        return tuple(int(v.strip()) for v in parts)
    except ValueError:
        raise ValueError("bad polynomial text %r: expected comma-separated integers" % s)


def _tuple_to_index(f: tuple, p: int) -> int:
    k = 0
    for i in range(len(f) - 1):
        k = k * p + f[i]
    return k


@lru_cache(maxsize=None)
def monic_irreducibles(p: int, n: int) -> tuple:
    """The monic irreducible polynomials of degree n >= 1 over F_p as
    coefficient tuples, in enumeration order: every monic f of degree n that
    no product of a monic irreducible of degree e <= n/2 with a monic cofactor
    of degree n - e hits. About p^n/n of them; cached per (p, n)."""
    composite = bytearray(p**n)
    for e in range(1, n // 2 + 1):
        cofactors = [_monic_tuple_by_index(p, n - e, j) for j in range(p ** (n - e))]
        for P in monic_irreducibles(p, e):
            for f in cofactors:
                composite[_tuple_to_index(_mul(P, f, p), p)] = 1
    return tuple(
        _monic_tuple_by_index(p, n, k) for k in range(p**n) if not composite[k]
    )
