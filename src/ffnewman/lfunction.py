"""Quadratic Dirichlet L-functions over F_q(T) and their heat-flow deformation.

L(s, chi_D) is a polynomial of degree 2g in q^(-s) with integer coefficients
c_n (sums of chi_D over monic polynomials of fixed degree). On the critical
line it becomes the real trigonometric polynomial

    Xi_t(x) = Phi_0 + sum_{n=1}^{g} Phi_n e^(t n^2) (e^(inx) + e^(-inx)),

with Phi_n = c_(g-n) q^(n/2); t is the deformation time. This module computes
the coefficients, evaluates Xi_t, and extracts its 2g zeros per period.
phi_rows is the one Phi_n formula, on a stack of rows c_0..c_g: one row for
an LFunctionData, or a sweep block of family_coefficients rows, which stays
arrays down to the newman block estimators (no LFunctionData per D).

Its _colleague_roots is the one solver for those zeros: Xi_t(x) = P_t(cos x)
with P_t a degree-g Chebyshev series, whose roots are colleague-matrix
eigenvalues. zeros_at_t maps each root u to the pair x = +-arccos(u), and the
all-real predicate of the newman module stacks many rows into one call. Both
call a zero real when its |Im x| is at most REAL_TOL.

The exact integers c_0..c_g come from the explicit formula: chi_D(P) at the
monic irreducible P of degree d <= g gives the power sums S_k, and Newton's
identities give the c_n (_newton_coefficients). build_lfunction runs it for
one D, family_coefficients for a whole index range of D at once. Both take
chi_D(P) as chi(D(theta_P)), with theta_P a root of P in F_(q^d) and chi
the quadratic character of that field, times the reciprocity sign: per
(q, d) one model F_q[T]/(P0) holds chi, marked from the squares of all its
elements, and one root of each P, the least element of each Frobenius orbit
of size d (_field_tables). Per (q, deg D) one cached table serves both
routes (_root_powers): the powers of every root of every degree d <= g,
padded to g digits, and the signed character tables with each root's offset
into them. One D reads D(theta_P) from one matmul against the powers
(_root_values), a range from a high/low digit split of the same powers
(family_tables, which a fixed-q sweep builds before it forks); both turn
the element indices into character sums in one place (_character_sums).
The tests check both routes against the reciprocity ladder
quad_character.chi summed over the same P, and against the enumeration
oracle enumerated_coefficients, c_n as the sum of chi_D over every monic f
of degree n, with dirichlet_coefficients, its c_0..c_g completed by the
integer functional equation c_(g+n) = q^n c_(g-n). The oracle's characters
come from _chi_rows, which factors D and applies Euler's criterion through
the norm (_euler_values) at each factor P, in the model F_q[T]/(P): a
kernel that runs on neither route, which share with it only the enumeration
helpers (_digits), T^i mod P (_powers_mod), the model's reduction table and
Frobenius matrix, both rows of one _powers_mod (_model), and the product mod
P (_mulmod). The ladder takes Euler's criterion of a scalar (legendre_int),
so it shares no code with any of them. The JSON view of this data is the
CLI's.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .finite_field import check_odd_prime, legendre_table
from .fp_poly import FpPolynomial, _digits, _factorize_monic, _monic_array
from .fp_poly import is_irreducible, is_squarefree, monic_by_index
from .quad_character import _validate_modulus

# most discriminants per block of family_coefficients, which takes fewer where
# rows times roots would pass 64 FIELD_CHUNK (a fixed-q sweep task spans
# several blocks: families.SWEEP_SPAN)
FAMILY_CHUNK = 256

# field elements, roots, or roots times rows, per step of the root tables and
# their readers (_field_tables, _root_powers, _root_values, _character_sums);
# bounds their int64 temporaries
FIELD_CHUNK = 1 << 16

# a zero x of Xi_t is real when |Im x| <= REAL_TOL
REAL_TOL = 1e-9


class NumericalError(RuntimeError):
    """A numerical routine failed loudly (root count mismatch, overflow)."""


def good_pair_check(q: int, D: FpPolynomial):
    """Is (q, D) an admissible discriminant pair? Returns (bool, reason)."""
    try:
        check_odd_prime(q)
    except ValueError:
        return False, "q must be an odd prime"
    if D.p != q:
        return False, "D is over F_%d, not F_%d" % (D.p, q)
    if D.is_zero or not D.is_monic:
        return False, "D must be monic"
    if D.degree % 2 == 0 or D.degree < 3:
        return False, "degree must be odd and >= 3"
    if not is_squarefree(D):
        return False, "D must be squarefree"
    return True, "good pair"


def require_good_pair(q: int, D: FpPolynomial) -> None:
    ok, reason = good_pair_check(q, D)
    if not ok:
        raise ValueError("not a good pair: %s" % reason)


@dataclass(frozen=True)
class LFunctionData:
    """A good pair with its L-function data.

    c is the full integer coefficient vector c_0..c_2g; phi holds the Fourier
    coefficients Phi_0..Phi_g as floats (phi_rows); phi_exact holds the same
    values as exact pairs (c_(g-n), n) meaning c_(g-n) * q^(n/2).
    """

    q: int
    D: FpPolynomial
    g: int
    c: tuple
    phi: tuple
    phi_exact: tuple


def enumerated_coefficients(q: int, D: FpPolynomial, top: int) -> tuple:
    """c_0..c_top as literal character sums: c_n is the sum of chi_D over
    every monic f of degree n, from the enumeration oracle _chi_rows. Any
    top >= 0 is allowed (_chi_rows rejects the rest), so tests can check the
    functional equation and that c_n vanishes from degree deg D on."""
    require_good_pair(q, D)
    return tuple(int(row.sum()) for row in _chi_rows(q, D, top))


def dirichlet_coefficients(q: int, D: FpPolynomial) -> tuple:
    """c_0..c_2g of L(s, chi_D) from the enumeration oracle: c_0..c_g as
    character sums, the upper half by the functional equation. The
    reference the tests compare build_lfunction and family_coefficients
    against."""
    return complete_coefficients(q, enumerated_coefficients(q, D, (D.degree - 1) // 2))


def complete_coefficients(q: int, c_half) -> tuple:
    """c_0..c_2g from c_0..c_g by the exact integer functional equation
    c_(g+n) = q^n c_(g-n)."""
    c = [int(v) for v in c_half]
    g = len(c) - 1
    for n in range(1, g + 1):
        c.append(q**n * c[g - n])
    return tuple(c)


def _powers_mod(P, count: int, q: int) -> np.ndarray:
    """T^i mod P for i < count, P monic of degree d (ascending coefficients):
    shape (count, d), row i the digits of T^i mod P."""
    P = np.asarray(P, dtype=np.int64)
    d = len(P) - 1
    out = np.zeros((count, d), dtype=np.int64)
    out[0, 0] = 1
    for i in range(1, count):
        out[i, 1:] = out[i - 1, :-1]
        out[i] = (out[i] - out[i - 1, -1] * P[:d]) % q
    return out


def _model(q: int, P) -> tuple:
    """(low, frob), the model F_q[T]/(P) for P monic of degree d: low[k] is
    T^k mod P for k <= 2d - 2, the reduction table of _mulmod, and frob the
    (d, d) matrix of x -> x^q, column i T^(q i) mod P. Both are rows of one
    _powers_mod, whose q(d - 1) + 1 rows are at least 2d - 1 for q >= 3."""
    d = len(P) - 1
    powers = _powers_mod(P, q * (d - 1) + 1, q)
    return powers[: 2 * d - 1], powers[::q].T


def _chi_rows(q: int, D: FpPolynomial, top: int) -> tuple:
    """chi_D(f) for every monic f of degree 0..top: one int64 array per
    degree n, indexed like monic_by_index(q, n, k). The enumeration oracle.

    It shares nothing with the reciprocity ladder, and with the explicit
    formula only the enumeration, _powers_mod, _model and _mulmod, not their
    tables or its character kernel: D is factored once by trial division,
    and at each monic irreducible factor P of degree d, f mod P is one
    matmul against T^i mod P, and its character is _euler_values (Euler's
    criterion through the norm, which runs on neither route) in the model
    F_q[T]/(P), on the distinct residues only. chi_D(f) is the product
    over P.
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


def _mulmod(q: int, low: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b mod P for residues as columns (shape (d, n)) and the reduction
    table low of _model (the product in F_(q^d) of _field_tables and
    _root_powers, too)."""
    d = a.shape[0]
    prod = np.zeros((2 * d - 1, a.shape[1]), dtype=np.int64)
    for i in range(d):
        prod[i : i + d] += a[i] * b
    return low.T @ (prod % q) % q  # at most (2d - 1)(q - 1)^2


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


@lru_cache(maxsize=64)
def _field_tables(q: int, d: int) -> tuple:
    """The model F_q[T]/(P0) of F_(q^d), P0 the first monic irreducible of
    degree d from T^d + 1 on in enumeration order (by is_irreducible), its
    element sum x_i T^i indexed by sum x_i q^i: (low, chi, roots).

    low[k] is T^k mod P0 for k <= 2d - 2, the reduction table of _mulmod;
    chi, int8 of q^d entries, is the quadratic character: 0 at 0, 1 at the
    square of every element, else -1; roots holds one root of each monic
    irreducible of degree d, as rows of digits in the smallest unsigned
    dtype that holds q - 1: the least element of each Frobenius orbit of
    size d, i.e. each element below its d - 1 conjugates x^(q^k), taken by
    the Frobenius matrix of _model(q, P0), in index order.
    The elements are run FIELD_CHUNK at a time. Read-only."""
    k = q ** (d - 1)
    while not is_irreducible(monic_by_index(q, d, k)):
        k += 1
    low, frob = _model(q, monic_by_index(q, d, k).coeffs)
    weights = q ** np.arange(d, dtype=np.int64)
    chi = np.full(q**d, -1, dtype=np.int8)
    roots = []
    for lo in range(0, q**d, FIELD_CHUNK):
        idx = np.arange(lo, min(lo + FIELD_CHUNK, q**d), dtype=np.int64)
        x = np.ascontiguousarray(_digits(q, d, idx).T)
        chi[weights @ _mulmod(q, low, x, x)] = 1
        least, y = np.ones(len(idx), dtype=bool), x
        for _ in range(d - 1):
            y = frob @ y % q
            least &= idx < weights @ y
        roots.append(x[:, least].T.astype(np.min_scalar_type(q - 1)))
    chi[0] = 0
    out = (low, chi, np.concatenate(roots))
    for a in out:
        a.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _root_powers(q: int, degree: int) -> tuple:
    """The one table of both coefficient routes for a degree-`degree` D:
    (R, chi, offsets, first), read by _root_values and family_tables (R) and
    by _character_sums (the rest). Read-only.

    R, of shape (degree + 1, m, g) in the dtype of the roots, holds in
    R[i, j] the digits of theta_j^i, i <= degree, padded with zeros to g
    (the element index sum x_i q^i is unchanged by the pad), for the m roots
    theta_j of every degree d = 1..g in _field_tables(q, d) order, degree by
    degree, FIELD_CHUNK roots at a time. chi is the quadratic character of
    each F_(q^d) times the reciprocity sign (-1)^(((q-1)/2) d), in one flat
    int8 table of sum_d q^d entries, F_q first. The roots of degree d are
    the columns first[d - 1] <= j < first[d], and offsets[j], in the smallest
    unsigned dtype that holds sum_d q^d, is where the table of root j's field
    starts: chi_D(P_j) is chi[offsets[j] + index of D(theta_j)]."""
    g = (degree - 1) // 2
    fields = [_field_tables(q, d) for d in range(1, g + 1)]
    first = np.cumsum([0] + [len(roots) for _, _, roots in fields])
    R = np.zeros((degree + 1, first[-1], g), dtype=fields[0][2].dtype)
    R[0, :, 0] = 1
    for d, (low, _, roots) in enumerate(fields, 1):
        for lo in range(0, len(roots), FIELD_CHUNK):
            x = theta = roots[lo : lo + FIELD_CHUNK].T.astype(np.int64)
            cols = slice(first[d - 1] + lo, first[d - 1] + lo + theta.shape[1])
            for i in range(1, degree + 1):
                R[i, cols, :d] = x.T
                x = _mulmod(q, low, x, theta)
    chi = np.concatenate([f[1] * (-1) ** ((q - 1) // 2 * d) for d, f in enumerate(fields, 1)])
    starts = np.cumsum([0] + [q**d for d in range(1, g)], dtype=np.min_scalar_type(len(chi)))
    offsets = np.repeat(starts, np.diff(first))
    out = (R, chi, offsets, first)
    for a in out:
        a.flags.writeable = False
    return out


def _root_values(q: int, C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The element index of f(theta) for each row f = c_0..c_(n-1) of C
    (n <= len(R)) at each root theta of R (_root_powers): shape (rows, m), in
    the smallest signed dtype that holds q^g (int32 at q = 211 and g = 3,
    half the memory of int64), one array filled by one matmul C @ R per
    block of FIELD_CHUNK / (rows g) roots, which keeps C @ R at about
    FIELD_CHUNK values and its float64 copy of R at n FIELD_CHUNK / rows.
    The matmul runs in float64, which BLAS takes and which is exact while a
    sum of n products (q - 1)^2 stays below 2^53, else in int64."""
    n, (_, m, g) = C.shape[1], R.shape
    step = max(1, FIELD_CHUNK // (len(C) * g))
    dtype = np.float64 if n * (q - 1) ** 2 < 2**53 else np.int64
    C, weights = C.astype(dtype), q ** np.arange(g, dtype=np.int64)
    idx = np.empty((len(C), m), dtype=np.min_scalar_type(-(q**g)))
    for lo in range(0, m, step):
        v = (C @ R[:n, lo : lo + step].reshape(n, -1).astype(dtype)).astype(np.int64) % q
        np.matmul(v.reshape(len(C), -1, g), weights, out=idx[:, lo : lo + step])
    return idx


def _character_sums(q: int, degree: int, idx: np.ndarray) -> tuple:
    """(A, B) for _newton_coefficients from idx, the element index of
    D(theta) at every root of _root_powers(q, degree), one row per D: int32
    of shape (g, rows), A[d - 1] and B[d - 1] the sums of chi_D(P) and of
    chi_D(P)^2 over the monic irreducible P of degree d. chi_D(P) is the
    signed character of F_(q^d) at D(theta_P): one gather from the flat
    table at the index plus the root's offset, FIELD_CHUNK roots at a time,
    then one np.add.reduceat per sum over the degrees' columns. The only
    character sum of both coefficient routes."""
    _, chi, offsets, first = _root_powers(q, degree)
    vals = np.empty(idx.shape, dtype=np.int8)
    for lo in range(0, idx.shape[1], FIELD_CHUNK):
        cols = slice(lo, lo + FIELD_CHUNK)
        vals[:, cols] = chi[np.add(idx[:, cols], offsets[cols], dtype=np.intp)]
    # int32 sums (a degree has fewer than 2^31 roots): their cast is half of int64's
    A, B = (np.add.reduceat(v, first[:-1], axis=1, dtype=np.int32) for v in (vals, vals != 0))
    return A.T, B.T


@lru_cache(maxsize=16)
def family_tables(q: int, degree: int) -> tuple:
    """(w, high, low): D(theta) and D'(theta) at every root theta of
    _root_powers(q, degree), split at the w-th base-q digit of the index,
    with q^w <= FAMILY_CHUNK. A value is laid out as (g, 2, m): digit x_i of
    D then of D', padded to g as in R, for all m roots in R's order. D(theta)
    = (D mod P)(theta) is 0 exactly when P divides D. Built once per
    process from R alone, high from its own rows of R and low from the w
    rows it reads, with no int64 copy of all of R; a fixed-q sweep calls it
    before its pool forks. Read-only.

    Index k = h q^w + l has its high part h in c_0..c_(degree-w-1) and its
    low part l in c_(degree-w)..c_(degree-1). D(theta) is linear in the c_i,
    so it is the sum of a high and a low value, mod q, and so is D'(theta).
    low[l], of shape (g, 2, m), holds the low values of every l < q^w,
    reduced mod q, in int8 when the sum of two still fits (2(q - 1) < 128),
    else int16 or int64. high maps the digits c_0..c_(degree-w-1), then the
    monic 1, to the high values (int64, not reduced)."""
    R = _root_powers(q, degree)[0]
    _, m, g = R.shape
    w = max(k for k in range(degree + 1) if q**k <= FAMILY_CHUNK)

    def values(powers):
        # the values of T^j (for D) and of j T^(j-1) (for D', 0 at j = 0) at theta
        out = np.zeros((len(powers), g, 2, m), dtype=np.int64)
        for row, j in zip(out, powers):
            row[:, 0], row[:, 1] = R[j].T, R[j - 1].T * np.int64(j) % q
        return out.reshape(len(powers), -1)

    W = values(range(degree - w, degree))
    dtype = np.int8 if 2 * (q - 1) < 2**7 else np.int16 if 2 * (q - 1) < 2**15 else np.int64
    low = np.empty((q**w, W.shape[1]), dtype=dtype)  # one row at a time: no int64 table
    for l, digits in enumerate(_digits(q, w, np.arange(q**w, dtype=np.int64))[:, ::-1]):
        low[l] = digits @ W % q
    out = (w, values([*range(degree - w), degree]), low.reshape(q**w, g, 2, m))
    for a in out[1:]:
        a.flags.writeable = False
    return out


def family_coefficients(q: int, degree: int, start: int, stop: int):
    """c_0..c_g and the squarefree mask for the monic D of one odd degree
    whose enumeration indices (monic_by_index order) are start <= k < stop.

    The explicit formula, i.e. the log-derivative route of Kedlaya-Sutherland
    (ANTS VIII, 2008), over the whole range at once in integer numpy: at the
    root theta_P of every monic irreducible P of degree d <= g in
    _root_powers, D(theta_P) is a high value (one small matmul over the few
    high parts of a block) plus a low one (gathered from the split tables of
    the cached family_tables), mod q, and _character_sums turns the element
    indices into the sums of chi_D(P) per degree, as for build_lfunction.
    Then S_k = sum over d | k of sum over deg P = d of d chi_D(P)^(k/d), and
    Newton's identities n c_n = sum_{k=1..n} S_k c_(n-k) give c_1..c_g
    exactly (_newton_coefficients). D is squarefree iff no such P^2 divides
    it; P is separable, so P^2 | D exactly when P divides both D and D',
    i.e. when D(theta_P) and D'(theta_P) are both 0, and D'(theta_P) comes
    from the same split. An index below q^(degree-2) has
    c_0 = c_1 = 0, so T^2 divides D: those rows are not squarefree and take
    no residue work.

    Returns (c, squarefree): int64 of shape (stop - start, g + 1) and bool of
    shape (stop - start,). For squarefree D a row equals
    dirichlet_coefficients(q, D)[:g + 1]; other rows are not the coefficients
    of a good pair. Work runs in blocks of FAMILY_CHUNK D, or fewer, at
    least one, where m roots would make a block hold more than
    64 FIELD_CHUNK rows times roots (m > 16,384, e.g. from q = 67 at genus
    3), so memory beyond the tables, the outputs and the per-row sums that
    feed Newton's identities (int64, two arrays of c's size) is bounded
    whatever the range and q.
    """
    check_odd_prime(q)
    if degree < 3 or degree % 2 == 0:
        raise ValueError("degree must be odd and >= 3")
    if not 0 <= start <= stop <= q**degree:
        raise ValueError("index range [%d, %d) out of range" % (start, stop))
    g = (degree - 1) // 2
    w, high, low = family_tables(q, degree)
    first_row = min(max(start, q ** (degree - 2)), stop)
    A = np.zeros((g, stop - first_row), dtype=np.int64)
    B = np.zeros_like(A)
    squarefree = np.zeros(stop - start, dtype=bool)
    step = min(FAMILY_CHUNK, max(1, 64 * FIELD_CHUNK // low.shape[-1]))
    for lo in range(first_row, stop, step):
        hi = min(lo + step, stop)
        h, l = np.divmod(np.arange(lo, hi, dtype=np.int64), q**w)
        top = np.ones((h[-1] - h[0] + 1, degree - w + 1), dtype=np.int64)
        top[:, :-1] = _digits(q, degree - w, np.arange(h[0], h[-1] + 1))[:, ::-1]
        top = (top @ high % q).astype(low.dtype).reshape(-1, *low.shape[1:])
        # idx (rows, 2, m): the element indices of D(theta_P) and D'(theta_P),
        # by Horner's rule over the digits x_(g-1)..x_0, one digit at a time
        # (all g at once made temporaries that malloc gave back and refaulted)
        idx = np.zeros((hi - lo, *low.shape[2:]), dtype=np.min_scalar_type(-(q**g)))
        for i in range(g - 1, -1, -1):
            x = top[:, i][h - h[0]] + low[:, i][l]
            x -= (x >= q) * low.dtype.type(q)  # % q, as both terms were < q
            idx *= q
            idx += x
        rows = slice(lo - first_row, hi - first_row)
        A[:, rows], B[:, rows] = _character_sums(q, degree, idx[:, 0])
        # no P divides both D and D'
        squarefree[lo - start : hi - start] = (idx[:, 0] | idx[:, 1]).all(axis=1)
    c = np.zeros((stop - start, g + 1), dtype=np.int64)
    for n, cn in enumerate(_newton_coefficients(A, B)):
        c[first_row - start :, n] = cn
    return c, squarefree


def _newton_coefficients(A, B) -> list:
    """c_0..c_g of the explicit formula from A[d - 1] and B[d - 1], the sums
    of chi_D(P) and of chi_D(P)^2 over the monic irreducible P of degree
    d = 1..g: S_k = sum over d | k of d A[d - 1] (odd k/d) or d B[d - 1]
    (even k/d), then Newton's identities n c_n = sum_{k=1..n} S_k c_(n-k),
    exact, with a remainder check. Python ints give one D; int64 arrays
    (rows of _character_sums) give a stack of D, elementwise."""
    g = len(A)
    S = [0] * (g + 1)
    for k in range(1, g + 1):
        for d in range(1, k + 1):
            if k % d == 0:
                S[k] += d * (A[d - 1] if (k // d) % 2 else B[d - 1])
    c = [1]
    for n in range(1, g + 1):
        num = sum(S[k] * c[n - k] for k in range(1, n + 1))
        rem = num % n
        if rem.any() if isinstance(rem, np.ndarray) else rem:
            raise ArithmeticError("Newton identity left a remainder at n=%d" % n)
        c.append(num // n)
    return c


def phi_rows(q: int, c) -> np.ndarray:
    """Phi_0..Phi_g (float) for a stack of rows c_0..c_g, shape (rows, g + 1):
    c_(g-n) q^(n//2) exactly in integers, rounded, times sqrt(q) for odd n.
    Phi_n is 0 exactly when c_(g-n) is: a nonzero product is at least 1."""
    c = np.asarray(c, dtype=np.int64)
    g = c.shape[1] - 1
    n = np.arange(g + 1)
    phi = (c[:, ::-1] * q ** (n // 2)).astype(float)
    phi[:, 1::2] *= math.sqrt(q)
    return phi


def build_lfunction(q: int, D: FpPolynomial) -> LFunctionData:
    """LFunctionData of a good pair by the explicit formula, in one pass over
    the m monic irreducible P of degree d <= g, through one root theta_P of
    each in F_(q^d): D(theta_P) for every P is one matmul against the cached
    powers of the roots (_root_values on _root_powers' R), _character_sums
    reads chi_D(P) from the signed character tables of the same entry, and
    _newton_coefficients turns the sums into c_0..c_g; the functional
    equation fills the rest. The largest intermediate is
    (deg D + 1)(q - 1)^2, in that matmul, which runs in FIELD_CHUNK-root
    blocks, so memory beyond the cached tables and the index of every root
    stays bounded at large q."""
    require_good_pair(q, D)
    idx = _root_values(q, np.array([D.coeffs], dtype=np.int64), _root_powers(q, D.degree)[0])
    A, B = _character_sums(q, D.degree, idx)
    c = complete_coefficients(q, _newton_coefficients(A[:, 0].tolist(), B[:, 0].tolist()))
    return lfunction_from_coefficients(q, D, c)


def lfunction_from_coefficients(q: int, D: FpPolynomial, c: tuple) -> LFunctionData:
    """LFunctionData from the full coefficient vector c_0..c_2g of a good pair
    (not re-checked here): phi from phi_rows, and phi_exact the pairs
    (c_(g-n), n) that carry Phi_n = c_(g-n) q^(n/2) exactly."""
    g = (D.degree - 1) // 2
    phi = tuple(phi_rows(q, [c[: g + 1]])[0].tolist())
    phi_exact = tuple((c[g - n], n) for n in range(g + 1))
    return LFunctionData(q=q, D=D, g=g, c=c, phi=phi, phi_exact=phi_exact)


def xi_eval(L: LFunctionData, t: float, x):
    """Xi_t(x) by the two-sided exponential kernel, for real or complex x;
    the imaginary part is dropped when below 1e-12 in magnitude, so real x
    gives a float (e^(iy) + e^(-iy) is exactly 2 cos y there). This is the
    oracle the tests check the nonreal zeros of zeros_at_t against: it
    evaluates Xi_t directly, not through P_t or arccos."""
    val = complex(L.phi[0])
    for n in range(1, L.g + 1):
        if L.phi[n]:
            e = math.exp(t * n * n)
            val += L.phi[n] * e * (cmath.exp(1j * n * x) + cmath.exp(-1j * n * x))
    if abs(val.imag) < 1e-12:
        return val.real
    return val


@dataclass(frozen=True)
class ZeroSet:
    """The zeros of Xi_t in one period, as x-values with Re in [0, 2pi).

    gammas:  sorted real zeros lying in (0, pi); generically g of them
    nonreal: zeros with |Im x| above the classification tolerance
    delta:   max |Im x| over all zeros (the strip half-width)
    xs:      all 2g zeros
    """

    t: float
    gammas: tuple
    nonreal: tuple
    delta: float
    xs: tuple


@lru_cache(maxsize=None)
def _colleague_parts(g: int):
    """(n^2 for n = 0..g, the constant part of the rotated colleague matrix,
    the factor on its first column): numpy's scaled Chebyshev companion
    (chebcompanion), flipped on both axes as chebroots does."""
    base = np.zeros((g, g))
    scl = np.full(g, math.sqrt(0.5))
    scl[0] = 1.0
    if g > 1:
        off = np.full(g - 1, 0.5)
        off[0] = math.sqrt(0.5)
        k = np.arange(g - 1)
        base[k, k + 1] = off
        base[k + 1, k] = off
    fac = (scl / scl[-1] * 0.5)[::-1]
    for a in (base, fac):
        a.flags.writeable = False
    return np.arange(g + 1) ** 2, base[::-1, ::-1].copy(), fac


def _colleague_roots(phi: np.ndarray, t: np.ndarray):
    """The g roots u = cos x of P_t, where Xi_t(x) = P_t(cos x), for a stack
    of rows of one genus g: the one solver for the zeros of Xi_t.

    Row i is Xi at time t[i] with Fourier coefficients phi[i]. In Chebyshev
    form Xi_t(x) = P_t(cos x), P_t(u) = sum_n w_n T_n(u) with w_0 = Phi_0 and
    w_n = 2 Phi_n e^(t n^2), so the 2g zeros per period are x = +-arccos(u)
    over the g roots u of P_t. Those are the eigenvalues of P_t's colleague
    matrix (I. J. Good, Q. J. Math. 1961), all rows in one
    np.linalg.eigvals call; LAPACK solves each matrix on its own, so a row's
    roots do not depend on the rest of the stack.

    Where the leading weight underflows (e^(t g^2) is subnormal or 0 at
    very negative t), the ratios w_n / w_g are taken instead as
    (Phi_n / Phi_g) e^(t (n^2 - g^2)), halved at n = 0, with Phi_n = 0
    giving 0; the product is formed in logs, so it overflows only when the
    ratio itself does. Then the row is certified not all-real:
    g roots of P_t in [-1, 1] would give sum |w_n| <= 2^(2g-1) |w_g|, since
    the l1 norm of Chebyshev coefficients is submultiplicative and each
    factor u - r has norm <= 2.

    Returns (u, ok, errors): ok marks the rows that were solved, u holds
    their roots as complex, shape (ok.sum(), g), and errors maps a row whose
    weights are not finite, or whose Phi_n / Phi_g is not, to its
    NumericalError message. The remaining unsolved rows are the certified
    ones. No such row reaches eigvals, where one NaN would fail the stack.
    """
    g = phi.shape[1] - 1
    n2, base, fac = _colleague_parts(g)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = phi * np.exp(t[:, None] * n2)
        w[:, 1:] *= 2.0
        ratio = w / w[:, -1:]  # last column: 1 unless w_g is 0 or not finite
        ok = np.isfinite(ratio).all(axis=1)
        errors = {}
        if not ok.all():
            under = ~ok & np.isfinite(w).all(axis=1)
            for i in np.nonzero(~ok & ~under)[0].tolist():
                errors[i] = "Xi_t coefficients overflowed at t=%g" % t[i]
            if under.any():
                split = phi[under] / phi[under, -1:]
                split[:, 0] *= 0.5
                rows = np.nonzero(under)[0][~np.isfinite(split).all(axis=1)]
                for i in rows.tolist():
                    errors[i] = "leading coefficient underflowed at t=%g" % t[i]
                log = np.log(np.abs(split)) + t[under, None] * (n2 - g * g)
                ratio[under] = np.copysign(np.exp(log), split)
                ok = np.isfinite(ratio).all(axis=1)
            ratio = ratio[ok]
    if g == 1:
        mat = -ratio[:, :1, None]
    else:
        mat = np.repeat(base[None], len(ratio), axis=0)
        mat[:, :, 0] -= ratio[:, -2::-1] * fac
    return np.linalg.eigvals(mat).astype(complex), ok, errors


def zeros_at_t(L: LFunctionData, t: float) -> ZeroSet:
    """All 2g zeros of Xi_t in one period.

    Each root u of P_t (_colleague_roots) gives the pair x = +-arccos(u)
    mod 2pi, with arccos on its complex principal branch; x is real exactly
    when u is real in [-1, 1]. Raises NumericalError when the weights
    overflow or the leading weight underflows too far to solve the row.
    """
    u, ok, errors = _colleague_roots(np.array([L.phi]), np.array([float(t)]))
    if errors:
        raise NumericalError(errors[0])
    if not ok[0]:
        raise NumericalError("leading coefficient underflowed at t=%g" % t)
    a = np.arccos(u[0])
    re = np.mod(np.concatenate((a.real, -a.real)), 2.0 * math.pi)
    im = np.concatenate((a.imag, -a.imag))
    order = np.lexsort((im, re))
    xs = tuple(complex(re[i], im[i]) for i in order)
    delta = float(np.max(np.abs(im)))
    gammas = tuple(
        sorted(x.real for x in xs if abs(x.imag) <= REAL_TOL and 0.0 < x.real < math.pi)
    )
    nonreal = tuple(x for x in xs if abs(x.imag) > REAL_TOL)
    return ZeroSet(t=t, gammas=gammas, nonreal=nonreal, delta=delta, xs=xs)

