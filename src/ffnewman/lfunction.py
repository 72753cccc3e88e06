"""Quadratic Dirichlet L-functions over F_q(T) and their heat-flow deformation.

L(s, chi_D) is a polynomial of degree 2g in q^(-s) with integer coefficients
c_n (sums of chi_D over monic polynomials of fixed degree). On the critical
line it becomes the real trigonometric polynomial

    Xi_t(x) = Phi_0 + sum_{n=1}^{g} Phi_n e^(t n^2) (e^(inx) + e^(-inx)),

with Phi_n = c_(g-n) q^(n/2); t is the deformation time. This module computes
the coefficients, evaluates Xi_t, and extracts its 2g zeros per period.

Its _colleague_roots is the one solver for those zeros: Xi_t(x) = P_t(cos x)
with P_t a degree-g Chebyshev series, whose roots are colleague-matrix
eigenvalues. zeros_at_t maps each root u to the pair x = +-arccos(u), and the
all-real predicate of the newman module stacks many rows into one call. Both
call a zero real when its |Im x| is at most REAL_TOL.

The exact integers c_0..c_g come from the explicit formula: chi_D(P) at the
monic irreducible P of degree d <= g gives the power sums S_k, and Newton's
identities give the c_n (_newton_coefficients). build_lfunction runs it for
one D with the reciprocity ladder at each P; family_coefficients runs it over
a whole index range of D at once in integer numpy. dirichlet_coefficients and
coefficient_by_enumeration sum chi_D over every monic f of degree n instead;
they are the oracle the tests compare both routes against. Their character
values come from _chi_rows, which factors D and applies Euler's criterion
at each factor, so the oracle shares no code with the ladder or with the
family tables. The upper half comes from the exact integer functional
equation c_(g+n) = q^n c_(g-n); dirichlet_coefficients(mode="full")
enumerates it instead, so tests can verify it. The JSON view of this data
is the CLI's.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .finite_field import check_odd_prime, is_prime, legendre_table
from .fp_poly import FpPolynomial, _factorize_monic, is_squarefree, monic_irreducibles
from .quad_character import _chi_ladder, _validate_modulus

# discriminants per block of family_coefficients; bounds its working arrays
# and is the task size of a fixed-q sweep
FAMILY_CHUNK = 256

# a zero x of Xi_t is real when |Im x| <= REAL_TOL
REAL_TOL = 1e-9


class NumericalError(RuntimeError):
    """A numerical routine failed loudly (root count mismatch, overflow)."""


def good_pair_check(q: int, D: FpPolynomial):
    """Is (q, D) an admissible discriminant pair? Returns (bool, reason)."""
    if not isinstance(q, int) or q < 3 or q % 2 == 0 or not is_prime(q):
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
    coefficients Phi_0..Phi_g as floats; phi_exact holds the same values as
    exact pairs (c_(g-n), n) meaning c_(g-n) * q^(n/2), so integer-exact
    checks never route through floating point.
    """

    q: int
    D: FpPolynomial
    g: int
    c: tuple
    phi: tuple
    phi_exact: tuple


def coefficient_by_enumeration(q: int, D: FpPolynomial, n: int) -> int:
    """c_n = sum of chi_D over all monic f of degree n, for any n >= 0, from
    the enumeration oracle _chi_rows. Tests also use it to verify that the
    coefficients vanish from degree deg D on."""
    require_good_pair(q, D)
    if n < 0:
        raise ValueError("coefficient index must be >= 0")
    return int(_chi_rows(q, D, n)[n].sum())


def dirichlet_coefficients(q: int, D: FpPolynomial, mode: str = "half") -> tuple:
    """The integer coefficients c_0..c_2g of L(s, chi_D) by enumeration: the
    oracle the tests compare build_lfunction and family_coefficients against.

    mode="half" enumerates only degrees 0..g (q^n character values for c_n)
    and fills the upper half through the exact integer functional equation
    c_(g+n) = q^n c_(g-n). mode="full" enumerates every degree 0..2g; it
    exists so tests can verify the functional equation instead of assuming it.
    """
    require_good_pair(q, D)
    if mode not in ("half", "full"):
        raise ValueError("mode must be 'half' or 'full'")
    g = (D.degree - 1) // 2
    rows = _chi_rows(q, D, g if mode == "half" else 2 * g)
    c = [int(row.sum()) for row in rows]
    if mode == "half":
        return complete_coefficients(q, c)
    return tuple(c)


def complete_coefficients(q: int, c_half) -> tuple:
    """c_0..c_2g from c_0..c_g by the exact integer functional equation
    c_(g+n) = q^n c_(g-n)."""
    c = [int(v) for v in c_half]
    g = len(c) - 1
    for n in range(1, g + 1):
        c.append(q**n * c[g - n])
    return tuple(c)


def _powers_mod(P: np.ndarray, count: int, q: int) -> np.ndarray:
    """T^i mod P for i < count and every monic row P (ascending, shape
    (m, d + 1)); returns shape (count, m, d)."""
    m, d = P.shape[0], P.shape[1] - 1
    out = np.zeros((count, m, d), dtype=np.int64)
    r = np.zeros((m, d), dtype=np.int64)
    r[:, 0] = 1
    for i in range(count):
        out[i] = r
        top = r[:, -1].copy()
        r = np.roll(r, 1, axis=1)
        r[:, 0] = 0
        r = (r - top[:, None] * P[:, :d]) % q
    return out


@lru_cache(maxsize=1024)
def _factor_powers(q: int, P: tuple, count: int) -> np.ndarray:
    """_powers_mod for the one monic P, shape (count, d), cached: the small
    irreducible factors recur across the D of one field. Read-only."""
    powers = _powers_mod(np.array([P]), count, q)[:, 0]
    powers.flags.writeable = False
    return powers


def _digits(q: int, width: int, ks: np.ndarray) -> np.ndarray:
    """Base-q digits of each k, least significant first: shape (len(ks), width)."""
    return (ks[:, None] // q ** np.arange(width, dtype=np.int64)) % q


@lru_cache(maxsize=4)
def _monic_rows(q: int, top: int) -> np.ndarray:
    """Every monic f of degree 0..top as a row of coefficients c_0..c_top,
    degree by degree, each in monic_by_index order."""
    sizes = [q**n for n in range(top + 1)]
    F = np.zeros((sum(sizes), top + 1), dtype=np.int64)
    lo = 0
    for n, size in enumerate(sizes):
        # c_0 is the most significant digit of the enumeration index
        F[lo : lo + size, :n] = _digits(q, n, np.arange(size, dtype=np.int64))[:, ::-1]
        F[lo : lo + size, n] = 1
        lo += size
    F.flags.writeable = False
    return F


def _chi_rows(q: int, D: FpPolynomial, top: int) -> tuple:
    """chi_D(f) for every monic f of degree 0..top: one int64 array per
    degree n, indexed like monic_by_index(q, n, k). The enumeration oracle.

    It shares no code with the reciprocity ladder or _family_tables: D is
    factored once by trial division, and at each monic irreducible factor P
    of degree d, f mod P comes from one matmul against T^i mod P and the
    character of f mod P from Euler's criterion (_euler_values), evaluated
    on the distinct residues only. chi_D(f) is the product over P.
    """
    if D.p != q:
        raise ValueError("D is over F_%d, not F_%d" % (D.p, q))
    _validate_modulus(q, D.coeffs)
    if top < 0:
        raise ValueError("top degree must be >= 0")
    F = _monic_rows(q, top)
    chi = np.ones(len(F), dtype=np.int64)
    for P in _factorize_monic(q, D.coeffs):
        d = len(P) - 1
        powers = _factor_powers(q, P, max(top + 1, 2 * d - 1))
        residues, inverse = np.unique(
            ((F @ powers[: top + 1]) % q) @ q ** np.arange(d, dtype=np.int64),
            return_inverse=True,
        )
        r = np.ascontiguousarray(_digits(q, d, residues).T)
        chi *= _euler_values(q, P, powers[: 2 * d - 1].T.copy(), r)[inverse]
    return tuple(np.split(chi, np.cumsum([q**n for n in range(top)])))


def _euler_values(q: int, P: tuple, low: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Euler's criterion r^((q^d - 1)/2) mod P at the monic irreducible P of
    degree d, by repeated squaring in int64, read off as 0 or +-1. Column j
    of r (shape (d, m)) holds the ascending coefficients of the j-th residue;
    column k of low (shape (d, 2d - 1)) holds T^k mod P."""
    d = len(P) - 1

    def mulmod(a, b):
        prod = np.zeros((2 * d - 1, a.shape[1]), dtype=np.int64)
        for i in range(d):
            prod[i : i + d] += a[i] * b
        return (low @ prod) % q

    acc = None
    e = (q**d - 1) // 2
    while e:
        if e & 1:
            acc = r if acc is None else mulmod(acc, r)
        e >>= 1
        if e:
            r = mulmod(r, r)
    scalar = ~acc[1:].any(axis=0)
    plus = scalar & (acc[0] == 1)
    minus = scalar & (acc[0] == q - 1)
    if not (plus | minus | ~acc.any(axis=0)).all():
        raise ArithmeticError(
            "Euler criterion did not land on a sign; %r is not irreducible mod %d"
            % (P, q)
        )
    return plus.astype(np.int64) - minus


@lru_cache(maxsize=16)
def _family_tables(q: int, degree: int) -> tuple:
    """Per irreducible degree d = 1..g: (d, R1, R2, chi), where R1 and R2
    map the coefficient vector of a degree-`degree` D to D mod P and
    D mod P^2 for every monic irreducible P of degree d, stacked P-major,
    and chi[j, r] is chi_D(P_j) for D mod P_j = r, the residue indexed by
    sum r_i q^i: the quadratic character of r in F_q[T]/(P_j) times the
    reciprocity sign (-1)^(((q-1)/2) d)."""
    g = (degree - 1) // 2
    out = []
    for d in range(1, g + 1):
        P = np.array(monic_irreducibles(q, d), dtype=np.int64)
        m = len(P)
        P2 = np.zeros((m, 2 * d + 1), dtype=np.int64)
        for i in range(d + 1):
            P2[:, i : i + d + 1] += P[:, i : i + 1] * P
        P2 %= q
        R1 = _powers_mod(P, degree + 1, q).reshape(degree + 1, m * d)
        R2 = _powers_mod(P2, degree + 1, q).reshape(degree + 1, m * 2 * d)
        # r^2 mod P for every residue r: square the digit vectors, then reduce
        # through T^k mod P for k <= 2d - 2
        r = _digits(q, d, np.arange(q**d, dtype=np.int64))
        sq = np.zeros((q**d, 2 * d - 1), dtype=np.int64)
        for i in range(d):
            sq[:, i : i + d] += r[:, i : i + 1] * r
        low = _powers_mod(P, 2 * d - 1, q)
        place = q ** np.arange(d, dtype=np.int64)
        sign = -1 if ((q - 1) // 2 * d) % 2 else 1
        chi = np.full((m, q**d), -sign, dtype=np.int8)
        for j in range(m):
            chi[j, ((sq @ low[:, j, :]) % q)[1:] @ place] = sign
        chi[:, 0] = 0
        for a in (R1, R2, chi):
            a.flags.writeable = False
        out.append((d, R1, R2, chi))
    return tuple(out)


def family_coefficients(q: int, degree: int, start: int, stop: int):
    """c_0..c_g and the squarefree mask for the monic D of one odd degree
    whose enumeration indices (monic_by_index order) are start <= k < stop.

    The explicit formula, i.e. the log-derivative route of Kedlaya-Sutherland
    (ANTS VIII, 2008), over the whole range at once in integer numpy: for
    every monic irreducible P of degree d <= g, D mod P comes from one matmul
    and chi_D(P) from a per-P table (_family_tables). Then
    S_k = sum over d | k of sum over deg P = d of d chi_D(P)^(k/d), and
    Newton's identities n c_n = sum_{k=1..n} S_k c_(n-k) give c_1..c_g
    exactly (_newton_coefficients). D is squarefree iff no such P^2 divides
    it, read off D mod P^2 in the same pass.

    Returns (c, squarefree): int64 of shape (stop - start, g + 1) and bool of
    shape (stop - start,). For squarefree D a row equals
    dirichlet_coefficients(q, D)[:g + 1]; other rows are not the coefficients
    of a good pair. Work runs in blocks of FAMILY_CHUNK D, so memory beyond
    the outputs is bounded whatever the range.
    """
    check_odd_prime(q)
    if degree < 3 or degree % 2 == 0:
        raise ValueError("degree must be odd and >= 3")
    if not 0 <= start <= stop <= q**degree:
        raise ValueError("index range [%d, %d) out of range" % (start, stop))
    g = (degree - 1) // 2
    tables = _family_tables(q, degree)
    c = np.zeros((stop - start, g + 1), dtype=np.int64)
    squarefree = np.ones(stop - start, dtype=bool)
    for lo in range(start, stop, FAMILY_CHUNK):
        hi = min(lo + FAMILY_CHUNK, stop)
        ks = np.arange(lo, hi, dtype=np.int64)
        # coefficient vectors c_0..c_degree: c_0 is the most significant digit
        C = np.ones((hi - lo, degree + 1), dtype=np.int64)
        C[:, :degree] = _digits(q, degree, ks)[:, ::-1]
        # A[d], B[d]: sums of chi_D(P) and of chi_D(P)^2 over deg P = d
        A = [None] * (g + 1)
        B = [None] * (g + 1)
        sf = squarefree[lo - start : hi - start]
        for d, R1, R2, chi in tables:
            m = chi.shape[0]
            res = ((C @ R1) % q).reshape(hi - lo, m, d)
            idx = res @ (q ** np.arange(d, dtype=np.int64))
            vals = chi.ravel()[idx + q**d * np.arange(m, dtype=np.int64)]
            A[d] = vals.sum(axis=1, dtype=np.int64)
            B[d] = np.count_nonzero(vals, axis=1)
            res2 = ((C @ R2) % q).reshape(hi - lo, m, 2 * d)
            sf &= res2.any(axis=2).all(axis=1)
        for n, cn in enumerate(_newton_coefficients(A, B)):
            c[lo - start : hi - start, n] = cn
    return c, squarefree


def _newton_coefficients(A: list, B: list) -> list:
    """c_0..c_g of the explicit formula from A[d] and B[d] (index 0 unused),
    the sums of chi_D(P) and of chi_D(P)^2 over the monic irreducible P of
    degree d = 1..g: S_k = sum over d | k of d A[d] (odd k/d) or d B[d]
    (even k/d), then Newton's identities n c_n = sum_{k=1..n} S_k c_(n-k),
    exact, with a remainder check. Python ints give one D; int64 arrays give
    a stack of D, elementwise."""
    g = len(A) - 1
    S = [0] * (g + 1)
    for k in range(1, g + 1):
        for d in range(1, k + 1):
            if k % d == 0:
                S[k] += d * (A[d] if (k // d) % 2 else B[d])
    c = [1]
    for n in range(1, g + 1):
        num = sum(S[k] * c[n - k] for k in range(1, n + 1))
        if np.any(num % n):
            raise ArithmeticError("Newton identity left a remainder at n=%d" % n)
        c.append(num // n)
    return c


def fourier_coefficients(q: int, g: int, c: tuple):
    """(phi, phi_exact) from the coefficient vector: Phi_n = c_(g-n) q^(n/2).

    phi_exact pairs (c_(g-n), n) carry the exact value; phi is its float.
    """
    sq = math.sqrt(q)
    phi = []
    phi_exact = []
    for n in range(g + 1):
        a = c[g - n]
        phi_exact.append((a, n))
        phi.append(a * q ** (n // 2) * (sq if n % 2 else 1.0))
    return tuple(phi), tuple(phi_exact)


def build_lfunction(q: int, D: FpPolynomial) -> LFunctionData:
    """LFunctionData of a good pair by the explicit formula: the reciprocity
    ladder gives chi_D(P) only at the monic irreducible P of degree d <= g
    (about q^d/d of them per degree), and _newton_coefficients turns their
    sums into c_0..c_g; the functional equation fills the rest."""
    require_good_pair(q, D)
    g = (D.degree - 1) // 2
    leg = legendre_table(q)
    A = [0] * (g + 1)
    B = [0] * (g + 1)
    for d in range(1, g + 1):
        vals = [_chi_ladder(P, D.coeffs, q, leg) for P in monic_irreducibles(q, d)]
        A[d] = sum(vals)
        B[d] = len(vals) - vals.count(0)
    c = complete_coefficients(q, _newton_coefficients(A, B))
    return lfunction_from_coefficients(q, D, c)


def lfunction_from_coefficients(q: int, D: FpPolynomial, c: tuple) -> LFunctionData:
    """LFunctionData from the full coefficient vector c_0..c_2g of a good pair
    (not re-checked here)."""
    g = (D.degree - 1) // 2
    phi, phi_exact = fourier_coefficients(q, g, c)
    return LFunctionData(q=q, D=D, g=g, c=c, phi=phi, phi_exact=phi_exact)


def xi_eval(L: LFunctionData, t: float, x):
    """Xi_t(x). Real x gives a float (the sum is exactly real); complex x is
    evaluated with the two-sided exponential kernel and the imaginary part is
    dropped when below 1e-12 in magnitude. The complex branch is the oracle
    the tests check the nonreal zeros of zeros_at_t against: it evaluates
    Xi_t directly, not through P_t or arccos."""
    if isinstance(x, complex):
        val = complex(L.phi[0])
        for n in range(1, L.g + 1):
            if L.phi[n]:
                e = math.exp(t * n * n)
                val += L.phi[n] * e * (cmath.exp(1j * n * x) + cmath.exp(-1j * n * x))
        if abs(val.imag) < 1e-12:
            return val.real
        return val
    val = L.phi[0]
    for n in range(1, L.g + 1):
        if L.phi[n]:
            val += 2.0 * L.phi[n] * math.exp(t * n * n) * math.cos(n * x)
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
    if not len(ratio):
        return np.zeros((0, g), dtype=complex), ok, errors
    if g == 1:
        mat = -ratio[:, :1, None]
    else:
        mat = np.repeat(base[None], len(ratio), axis=0)
        mat[:, :, 0] -= ratio[:, -2::-1] * fac
    return np.linalg.eigvals(mat).astype(complex), ok, errors


def zeros_at_t(L: LFunctionData, t: float, tol: float = REAL_TOL) -> ZeroSet:
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
        sorted(x.real for x in xs if abs(x.imag) <= tol and 0.0 < x.real < math.pi)
    )
    nonreal = tuple(x for x in xs if abs(x.imag) > tol)
    return ZeroSet(t=t, gammas=gammas, nonreal=nonreal, delta=delta, xs=xs)

