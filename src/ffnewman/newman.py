"""Computing and bounding the De Bruijn-Newman constant Lambda_D.

Lambda_D is the infimum of deformation times t at which Xi_t still has only
real zeros; real zeros stay real as t increases, so the all-real predicate is
monotone and bisection applies. The predicate uses the Chebyshev form
Xi_t(x) = P_t(cos x) = sum_n w_n T_n(cos x), w_0 = Phi_0,
w_n = 2 Phi_n e^(t n^2): the g roots of P_t are eigenvalues of its colleague
matrix, mapped back to x by complex arccos, and Xi_t is all-real when every
zero has |Im x| <= lfunction.REAL_TOL. The root solve is lfunction's, the
same one zeros_at_t uses. No grid is sampled. Routes provided:

  lambda_exact_genus1      closed form log(|Phi_0| / (2 sqrt q)) for g = 1,
                           from genus1_lambda, which the Sato-Tate sweep
                           shares
  lambda_bisect            monotone bisection on the all-zeros-real predicate,
                           its bracket expanded down to BRACKET_FLOOR at most;
                           lambda_bisect_block runs it for a block of D of
                           one genus in lockstep, one eigvals call per round
  double_zero_lower_bound  largest t with Xi_t(0) = 0, a root of a sum of
                           g + 1 powers of e^t: any double zero time is
                           <= Lambda_D; a Rolle chain of derivatives isolates
                           the roots, and double_zero_block runs it for a
                           block of D of one genus in lockstep
  stopple_lower_bound      a bound from an unusually small first zero via the
                           inverse-square gap sum G

Lambda_D = -infinity happens exactly when at most one Fourier coefficient is
nonzero, and Lambda_D = 0 when L has a repeated root (a double zero of Xi_0);
both cases are decided in exact arithmetic, never by search. Only the one-row
lambda_bisect warns about the latter; the block routines have no side
effects. The JSON views of these results are the CLI's.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lfunction import (
    REAL_TOL,
    LFunctionData,
    NumericalError,
    ZeroSet,
    _colleague_roots,
    zeros_at_t,
)

# modulus of has_repeated_root's prefilter: a prime above every field size q,
# so it divides no leading coefficient q^g of an L-polynomial
_GCD_PRIME = 2**31 - 1

# lambda_bisect expands its bracket no further down than this; a predicate
# still true there is kind bracket_exhausted
BRACKET_FLOOR = -50.0


@dataclass(frozen=True)
class NewmanEstimate:
    """A value or bound for Lambda_D.

    kind is one of exact, bisect, double_zero_lower_bound, stopple_lower_bound,
    minus_infinity, bracket_exhausted, no_bound. value is None only for
    kind=no_bound (the method produced no information); it is never a number
    above 0.
    """

    kind: str
    value: float | None
    bracket: tuple | None = None
    tol: float | None = None
    notes: str = ""


@dataclass(frozen=True)
class StoppleData:
    """First-zero data for the gap-sum bound: the positive zeros gamma_j of
    Xi_0, their rescalings (g/pi) gamma_j, the gap sum G, whether the validity
    condition 5 gamma_1^2 G < 1 holds, and the bound when it does."""

    gamma: tuple
    gamma_tilde: tuple
    G: float
    condition_ok: bool
    bound: float | None


def count_nonzero_phi(L: LFunctionData) -> int:
    return sum(1 for a, _ in L.phi_exact if a != 0)


def genus1_lambda(a: int, q: int) -> float:
    """Lambda of the genus-1 L-polynomial 1 + a u + q u^2 (a = c_1, or -a_p
    of an elliptic curve): log(|a| / (2 sqrt q)), -inf exactly when a = 0."""
    if a == 0:
        return float("-inf")
    return math.log(abs(a) / (2.0 * math.sqrt(q)))


def lambda_exact_genus1(L: LFunctionData) -> NewmanEstimate:
    """Closed form for genus 1: the two zeros merge at x = 0 or pi, at time
    log(|Phi_0| / (2 sqrt q)); Phi_0 = 0 means always-real (minus infinity)."""
    if L.g != 1:
        raise ValueError("closed form requires genus 1, got g=%d" % L.g)
    value = genus1_lambda(L.c[1], L.q)
    if value == float("-inf"):
        return NewmanEstimate(
            kind="minus_infinity",
            value=value,
            notes="Phi_0 = 0: Xi_t is a pure cosine for every t",
        )
    return NewmanEstimate(
        kind="exact",
        value=value,
        notes="genus-1 closed form log(|Phi_0|/(2 sqrt q))",
    )


def _gcd_degree(a: list, b: list, p: int | None) -> int:
    """Degree of gcd(a, b) for nonzero integer coefficient lists (constant
    term first), over F_p, or over Q when p is None.

    Euclid by pseudo-division: a <- lc(b) a - lc(a) T^k b stays in the
    integers, and scaling by a nonzero constant keeps the gcd. Remainders are
    reduced mod p, or over Q divided by their content so they do not grow.
    """

    def reduce(v):
        v = [x % p for x in v] if p else list(v)
        while v and v[-1] == 0:
            v.pop()
        if not p and v:
            content = math.gcd(*v)
            v = [x // content for x in v]
        return v

    a, b = reduce(a), reduce(b)
    while b:
        while len(a) >= len(b):
            f, shift = a[-1], len(a) - len(b)
            a = [x * b[-1] for x in a]
            for i, v in enumerate(b):
                a[shift + i] -= f * v
            a = reduce(a)
        a, b = b, a
    return len(a) - 1


def has_repeated_root(L: LFunctionData) -> bool:
    """Exact test: does the L-polynomial sum c_n u^n have a repeated root?

    By RH for curves every root lies on |u| = q^(-1/2), so a repeated root is
    a double zero of Xi_0, and the double-zero lemma with RH gives
    Lambda_D = 0. A zero of Xi_0 on the symmetry axis x = 0 or pi is one of
    them: evenness makes its order >= 2, a repeated root u = +-q^(-1/2).
    Decided by gcd(L, L') over Q, in exact integers. A unit gcd modulo the
    prime 2^31 - 1, which divides no leading coefficient q^g, already rules
    a repeated root out; only the rare rest runs Euclid over Q.
    """
    c = list(L.c)
    dc = [n * v for n, v in enumerate(c)][1:]
    if _gcd_degree(c, dc, _GCD_PRIME) == 0:
        return False
    return _gcd_degree(c, dc, None) > 0


def _real_rows(phi: np.ndarray, t: np.ndarray):
    """The all-real predicate for a stack of rows of one genus g: row i
    (Fourier coefficients phi[i] at time t[i]) is all-real when every root u
    of its P_t from the stacked colleague solve (_colleague_roots) has
    |Im arccos(u)| <= REAL_TOL. A row the solver certifies to have a root off
    [-1, 1] without solving it (its leading weight underflows too far) is
    not all-real. Returns (real, errors): a bool array and the solver's dict
    from row to the NumericalError message of a row it cannot decide.
    """
    u, ok, errors = _colleague_roots(phi, t)
    real = np.zeros(len(t), dtype=bool)
    real[ok] = (np.abs(np.arccos(u).imag) <= REAL_TOL).all(axis=1)
    return real, errors


def all_zeros_real(L: LFunctionData, t: float) -> bool:
    """Does Xi_t have only real zeros?

    Xi_t(x) = P_t(cos x) with P_t a degree-g Chebyshev series, so the 2g
    zeros per period are real exactly when the g roots u of P_t lie in
    [-1, 1]. The roots are colleague-matrix eigenvalues (_real_rows), mapped
    back by complex arccos; every zero must have |Im x| <= REAL_TOL, the
    criterion zeros_at_t applies. No grid sampling and no degree-2g solve.
    """
    if count_nonzero_phi(L) <= 1:
        # Pure cosine (or constant): zeros stay pinned on the real axis for
        # every t, including t so negative that e^{t n^2} underflows.
        return True
    real, errors = _real_rows(np.array([L.phi]), np.array([float(t)]))
    if errors:
        raise NumericalError(errors[0])
    return bool(real[0])


# the estimate of every L with a repeated root; it does not depend on L
_REPEATED_ROOT = NewmanEstimate(
    kind="exact",
    value=0.0,
    notes="L has a repeated root (exact gcd(L, L')): the double zero of "
    "Xi_0 forces Lambda_D = 0",
)


def lambda_bisect_block(Ls: list, tol_t: float = 1e-10) -> list:
    """lambda_bisect for every L of one genus, in lockstep.

    Per row this is the algorithm lambda_bisect documents: the algebraic
    minus-infinity check, the t = 0 check, expansion through -1, -2, -4, ...
    down to BRACKET_FLOOR, then midpoint bisection until the bracket is no
    wider than tol_t. Each round asks the predicate of all unfinished rows
    with one _real_rows call. A row whose t = 0 check fails, or whose
    bracket ends within 2 tol_t of 0, is tested for a repeated root of L
    exactly (has_repeated_root); one gives kind exact, value 0, without a
    warning. Returns, per row, its NewmanEstimate or the exception
    lambda_bisect would raise for it.
    """
    out = [None] * len(Ls)
    live = []
    for i, L in enumerate(Ls):
        if count_nonzero_phi(L) <= 1:
            out[i] = NewmanEstimate(
                kind="minus_infinity",
                value=float("-inf"),
                notes="at most one nonzero Fourier coefficient: zeros are real at every t",
            )
        else:
            live.append(i)
    if not live:
        return out
    if len({Ls[i].g for i in live}) > 1:
        raise ValueError("lambda_bisect_block needs rows of one genus")
    rows = np.array(live)
    phi = np.array([Ls[i].phi for i in live])
    real, errors = _real_rows(phi, np.zeros(len(live)))
    for j, i in enumerate(live):
        if j in errors:
            out[i] = NumericalError(errors[j])
        elif real[j]:
            continue
        elif has_repeated_root(Ls[i]):
            out[i] = _REPEATED_ROOT
        else:
            out[i] = NumericalError("zeros of Xi_0 not all real; numerical breakdown")
    rows, phi = rows[real], phi[real]
    hi = np.zeros(len(rows))
    lo = np.full(len(rows), -1.0)  # while expanding: the next time to try
    expanding = np.ones(len(rows), dtype=bool)
    while len(rows):
        t = np.where(expanding, lo, 0.5 * (lo + hi))
        real, errors = _real_rows(phi, t)
        hi = np.where(real, t, hi)
        grown = np.where(expanding, np.maximum(2.0 * t, BRACKET_FLOOR), lo)
        lo = np.where(real, grown, t)
        exhausted = expanding & real & (t <= BRACKET_FLOOR)
        expanding &= real
        done = exhausted | (~expanding & (hi - lo <= tol_t))
        if errors:
            done[list(errors)] = True
        elif not done.any():
            continue
        for j in np.nonzero(done)[0].tolist():
            L = Ls[rows[j]]
            lo_j, hi_j = float(lo[j]), float(hi[j])
            if j in errors:
                e = NumericalError(errors[j])
            elif exhausted[j]:
                e = NewmanEstimate(
                    kind="bracket_exhausted",
                    value=BRACKET_FLOOR,
                    bracket=(BRACKET_FLOOR, hi_j),
                    tol=tol_t,
                    notes="predicate never failed above the floor: Lambda_D <= %g"
                    % BRACKET_FLOOR,
                )
            elif hi_j >= -2.0 * tol_t and has_repeated_root(L):
                e = _REPEATED_ROOT
            else:
                e = NewmanEstimate(
                    kind="bisect",
                    value=0.5 * (lo_j + hi_j),
                    bracket=(lo_j, hi_j),
                    tol=tol_t,
                    notes="bisection of the all-zeros-real predicate",
                )
            out[rows[j]] = e
        keep = ~done
        rows, phi, lo, hi, expanding = (
            rows[keep], phi[keep], lo[keep], hi[keep], expanding[keep]
        )
    return out


def lambda_bisect(L: LFunctionData, tol_t: float = 1e-10) -> NewmanEstimate:
    """Bisect the monotone all-zeros-real predicate to width tol_t.

    The bracket expands downward from 0 by doubling (-1, -2, -4, ...); with at
    least two nonzero Fourier coefficients the predicate is guaranteed to fail
    eventually, and in-scope constants are O(0.1) so expansion ends fast. A
    floor of BRACKET_FLOOR is kept as a safety net and reported distinctly
    (bracket_exhausted, meaning Lambda_D <= floor), never conflated with the
    algebraic minus-infinity case. A repeated root of L, decided exactly, is
    kind exact with value 0, and warns; the warning names the caller. This
    is the one-row case of lambda_bisect_block.
    """
    (e,) = lambda_bisect_block([L], tol_t)
    if isinstance(e, Exception):
        raise e
    if e is _REPEATED_ROOT:
        warnings.warn(
            "Xi_0 has an exact double zero (a repeated root of L) for D=%s over "
            "F_%d: Lambda_D = 0" % (L.D, L.q),
            stacklevel=2,
        )
    return e


@lru_cache(maxsize=16)
def _rolle_chain(g: int):
    """Level k of the Rolle chain of P(y) = sum_{n<=g} a_n y^(n^2) is
    G_k(y) = sum_n M[k, n] a_n y^E[k, n], with E[k, n] = n^2 - k^2 and
    M[k, n] = prod_{j<k} (n^2 - j^2), 0 for n < k. As dG_k/dy = y^(2k)
    G_(k+1), G_k is monotone between consecutive positive roots of G_(k+1).
    W[k] weighs the terms of y G_k', y^2 G_k'' and y^3 G_k''' / 3. The
    arrays are shared: read-only."""
    n2 = np.arange(g + 1) ** 2
    M = np.ones((g + 1, g + 1))
    for k in range(1, g + 1):
        M[k] = M[k - 1] * (n2 - (k - 1) ** 2)
    E = np.maximum(n2[None, :] - n2[:, None], 0).astype(float)
    W = np.stack([E, E * (E - 1.0), E * (E - 1.0) * (E - 2.0) / 3.0], axis=2)
    for v in (M, E, W):
        v.flags.writeable = False
    return M, E, W


def _refine(C, E, W, lo, hi, tol):
    """The root of G(y) = sum_n C[i, n] y^E[n] in each bracket (lo[i], hi[i]),
    where G has one root and goes from negative to positive; all brackets in
    lockstep, W as in _rolle_chain. Each round evaluates G at x and at the
    probes x (1 -+ tol / 4), which close the bracket to width <= tol once x
    (<= 4) is that close to the root; an exact zero of G closes it to that
    point. The next x is Householder's third-order step (Newton's step with
    G'' and G''') if it lands inside the bracket, else the midpoint. A
    bracket no wider than tol, or than two ulps, is done: its root is that
    step if it stays inside, else the midpoint.
    """
    D = C[:, :, None] * W
    C = C[:, None, :]
    width = np.maximum(tol, 4.5e-16 * hi)
    scale = np.array([1.0, 1.0 - 0.25 * tol, 1.0 + 0.25 * tol])
    root = np.empty(len(lo))
    rows = np.arange(len(lo))
    x = 0.5 * (lo + hi)
    while len(rows):
        pts = x[:, None] * scale
        pw = pts[:, :, None] ** E
        f = np.add.reduce(pw * C, axis=2)
        lo = np.maximum(lo, np.maximum.reduce(pts * (f <= 0), axis=1))
        hi = np.minimum(hi, np.minimum.reduce(np.where(f >= 0, pts, np.inf), axis=1))
        # y G'/G, y^2 G''/G and y^3 G'''/(3 G) at x
        u, w, z = (np.add.reduce(pw[:, 0, :, None] * D, axis=1) / f[:, :1]).T
        uu = u * u
        x = x - x * (uu + uu - w) / (2.0 * u * (uu - w) + z)
        done = hi - lo <= width
        if np.logical_or.reduce(done):
            xd, lod, hid = x[done], lo[done], hi[done]
            root[rows[done]] = np.where((xd >= lod) & (xd <= hid), xd, 0.5 * (lod + hid))
            keep = ~done
            rows, C, D, lo, hi, width, x = (
                v[keep] for v in (rows, C, D, lo, hi, width, x)
            )
        x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
    return root


def _largest_positive_roots(a: np.ndarray):
    """The largest positive root of P(y) = sum_n a[i, n] y^(n^2) for each row
    of a (g >= 1), NaN where there is none, and whether the row is solvable:
    finite, a_g != 0, and no term of the chain overflowing below the root
    bound. Call under np.errstate(all="ignore").

    Down the Rolle chain of _rolle_chain: by Descartes' rule, a G_k whose
    a_k..a_g have at most one sign variation has that many positive roots,
    so a row starts at the lowest such k. Below it, G_k is monotone between
    0, the roots of G_(k+1) and a bound B, so each of these intervals whose
    end signs differ holds one root, and a root of G_(k+1) where G_k is
    exactly 0 is one too. A two-term G_k is solved in closed form; the other
    brackets of a level, over all rows, go to _refine with tol 1e-12. Level
    0 solves only for the largest root. No row's bits depend on the others.
    """
    g = a.shape[1] - 1
    M, E, W = _rolle_chain(g)
    a = a / a[:, g:]  # the same roots, with a_g = 1
    # a root y >= 1 of G_k has y^(2g-1) <= sum_{n<g} |M[k, n] a_n| / M[k, g],
    # at most sum_{n<g} |a_n|; below B every term of every level (and of its
    # derivatives) is at most 2 M[g, g] B^(g^2 + 2g - 1) E^3 in size
    bound = (np.add.reduce(np.abs(a), axis=1) - 1.0) ** (1.0 / (2 * g - 1))
    B = 1.001 * np.maximum(1.0, bound)[:, None]
    ok = B[:, 0] ** (g * g + 2 * g) * M[g, g] < 1e280
    if not np.logical_and.reduce(ok):
        a[~ok] = np.arange(g + 1) == g  # y^(g^2): no positive root
        B[~ok] = 1.0
    # first[:, k]: the lowest n >= k with a_n != 0, so s[:, k] is the sign
    # of G_k just above 0; two[:, k]: G_k has two terms
    nonzero = a != 0
    first = np.minimum.accumulate(
        np.where(nonzero, np.arange(g + 1), g)[:, ::-1], axis=1
    )[:, ::-1]
    s = np.sign(a)[np.arange(len(a))[:, None], first]
    two = np.add.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1] == 2
    any_two = np.logical_or.reduce(two, axis=0).tolist()
    variations = np.add.accumulate(s[:, :0:-1] != s[:, -2::-1], axis=1, dtype=int)
    start = np.add.reduce(variations > 1, axis=1)
    s = np.where(start[:, None] >= np.arange(g + 1), s, 1.0)  # no root above start
    # breakpoints: 0, the roots of G_(k+1), then B (repeated)
    P = B * np.array([0.0, 1.0])
    for k in range(int(np.maximum.reduce(start)), -1, -1):
        C = a * M[k]
        S = np.sign(np.add.reduce(P[:, :, None] ** E[k] * C[:, None, :], axis=2))
        S[:, 0] = s[:, k]
        S[:, -1] = 1.0
        # column i: the root in (P_i, P_(i+1)), or P_(i+1) where G_k is 0
        change = S[:, :-1] * S[:, 1:] < 0
        zero = S[:, 1:] == 0
        if k == 0:
            event = change | zero
            last = np.arange(event.shape[1]) == (
                event.shape[1] - 1 - np.argmax(event[:, ::-1], axis=1)
            )[:, None]
            change &= last
            zero &= last
        roots = np.where(zero, P[:, 1:], np.inf)  # inf: no root
        bi, bj = np.nonzero(change)
        if any_two[k]:
            # c_n y^E_n + c_g y^E_g = 0 at y = (-c_n / c_g)^(1 / (E_g - E_n))
            t = two[bi, k]
            ti, tj = bi[t], bj[t]
            n = first[ti, k]
            roots[ti, tj] = (-C[ti, n] / C[ti, g]) ** (1.0 / (E[k, g] - E[k, n]))
            bi, bj = bi[~t], bj[~t]
        if len(bi):
            roots[bi, bj] = _refine(
                C[bi] * -S[bi, bj, None], E[k], W[k], P[bi, bj], P[bi, bj + 1], 1e-12
            )
        # a running minimum from the right turns each inf into an empty interval
        P = np.minimum.accumulate(
            np.concatenate([P[:, :1], roots, B], axis=1)[:, ::-1], axis=1
        )[:, ::-1]
    largest = np.minimum.reduce(roots, axis=1)
    return np.where(largest < np.inf, largest, np.nan), ok


def double_zero_block(Ls: list, at_pi: bool = False) -> list:
    """double_zero_lower_bound for every L of one genus, in lockstep. The
    double-zero polynomial is sum_n a_n y^(n^2) with a_0 = Phi_0, a_n =
    2 Phi_n, odd n negated at x = pi. Returns, per row, its NewmanEstimate,
    or a NumericalError for a row that is not finite or would overflow.
    """
    if len({L.g for L in Ls}) > 1:
        raise ValueError("double_zero_block needs rows of one genus")
    if not Ls:
        return []
    a = np.array([L.phi for L in Ls])
    a[:, 1:] *= 2.0
    if at_pi:
        a[:, 1::2] *= -1.0
    with np.errstate(all="ignore"):
        largest, ok = _largest_positive_roots(a)
    where = "x=pi" if at_pi else "x=0"
    # the estimates of a block share their notes strings
    none = NewmanEstimate(
        kind="no_bound",
        value=None,
        notes="double-zero polynomial at %s has no positive real root" % where,
    )
    notes = "largest positive root of the degree-g^2 double-zero polynomial at %s" % where
    out = []
    for y, solved in zip(largest.tolist(), ok.tolist()):
        if not solved:
            out.append(
                NumericalError("double-zero polynomial is not finite or would overflow")
            )
        elif math.isnan(y):
            out.append(none)
        else:
            out.append(
                NewmanEstimate(
                    kind="double_zero_lower_bound", value=math.log(y), tol=1e-12, notes=notes
                )
            )
    return out


def double_zero_lower_bound(L: LFunctionData, at_pi: bool = False) -> NewmanEstimate:
    """Largest t solving Xi_t(0) = 0; such a t is a double zero time (evenness
    makes x = 0 a zero of order >= 2), hence a lower bound on Lambda_D.

    In y = e^t this is the largest positive root of P(y) = Phi_0 + 2 sum_n
    Phi_n y^(n^2), a sum of g + 1 powers. No grid is scanned: a Rolle chain
    of derivatives, started by Descartes' rule, isolates every positive root
    in a bracket that holds exactly one, so close roots are never missed.
    Householder steps with a bisection fallback refine the largest until
    probes at most 1e-12 apart in y show the sign change; where P is exactly
    0 at a probe, that point is the root. No positive root is a legal
    outcome (kind no_bound). at_pi=True uses the mirror point x = pi
    (alternating signs); it is an extra, not part of the published table.
    This is the one-row case of double_zero_block.
    """
    (e,) = double_zero_block([L], at_pi)
    if isinstance(e, Exception):
        raise e
    return e


def stopple_G(zeros: ZeroSet) -> float:
    """The inverse-square gap sum G around the first zero, in closed form.

    Over the periodized zero list {+-gamma_j + 2 pi l} minus both gamma_1 and
    -gamma_1 themselves, sum 2/(gamma_1 - rho)^2 telescopes into

      1/6 - 1/(2 gamma_1^2) + (1/2) csc^2(gamma_1)
          + (1/2) sum_{j>=2} [csc^2((gamma_1-gamma_j)/2) + csc^2((gamma_1+gamma_j)/2)]

    via sum_l (alpha + 2 pi l)^(-2) = csc^2(alpha/2)/4. Requires distinct
    real zeros; a repeated zero means a double zero, where G is undefined and
    the double-zero route already settles everything.
    """
    if zeros.nonreal:
        raise ValueError("G is defined from real zeros only")
    gam = zeros.gammas
    if not gam:
        raise ValueError("no positive zeros in (0, pi)")
    for a, b in zip(gam, gam[1:]):
        if b - a < 1e-12:
            raise ValueError("repeated zero: G undefined (double zero present)")
    g1 = gam[0]
    total = 1.0 / 6.0 - 1.0 / (2.0 * g1 * g1) + 0.5 / math.sin(g1) ** 2
    for gj in gam[1:]:
        total += 0.5 / math.sin(0.5 * (g1 - gj)) ** 2
        total += 0.5 / math.sin(0.5 * (g1 + gj)) ** 2
    return total


def stopple_lower_bound(gamma1: float, G: float) -> NewmanEstimate:
    """Lambda_D > ((1 - 5 gamma_1^2 G)^(4/5) - 1) / (8 G), valid only when
    5 gamma_1^2 G < 1; outside that region there is no bound, signalled by a
    ValueError rather than a number."""
    c = 5.0 * gamma1 * gamma1 * G
    if not c < 1.0:
        raise ValueError(
            "validity condition failed: 5 gamma_1^2 G = %.6g >= 1, no bound" % c
        )
    value = ((1.0 - c) ** 0.8 - 1.0) / (8.0 * G)
    return NewmanEstimate(
        kind="stopple_lower_bound",
        value=value,
        notes="gap-sum bound from gamma_1=%.12g, G=%.12g" % (gamma1, G),
    )


def stopple_data(L: LFunctionData) -> StoppleData:
    """Assemble the first-zero bound report for a discriminant. A repeated
    root of L (exact test) is a double zero of Xi_0, where G is undefined:
    ValueError, before any zeros are computed."""
    if has_repeated_root(L):
        raise ValueError(
            "repeated zero: G undefined (L has a repeated root, so Xi_0 has a "
            "double zero and Lambda_D = 0)"
        )
    zeros = zeros_at_t(L, 0.0)
    if len(zeros.gammas) != L.g:
        raise ValueError(
            "expected %d distinct positive zeros, found %d" % (L.g, len(zeros.gammas))
        )
    G = stopple_G(zeros)
    g1 = zeros.gammas[0]
    ok = 5.0 * g1 * g1 * G < 1.0
    bound = stopple_lower_bound(g1, G).value if ok else None
    scale = L.g / math.pi
    return StoppleData(
        gamma=zeros.gammas,
        gamma_tilde=tuple(scale * v for v in zeros.gammas),
        G=G,
        condition_ok=ok,
        bound=bound,
    )


def crude_condition_check(zeros: ZeroSet, g: int) -> bool:
    """Sufficient conditions guaranteeing 5 gamma_1^2 G < 1 without computing
    G: g >= 13, ((g/pi) gamma_1)^2 <= 1/(500 g), and (g/pi) gamma_2 in [1/2, 2].
    """
    if len(zeros.gammas) < 2:
        raise ValueError("need at least two positive zeros")
    scale = g / math.pi
    gt1 = scale * zeros.gammas[0]
    gt2 = scale * zeros.gammas[1]
    return g >= 13 and gt1 * gt1 <= 1.0 / (500.0 * g) and 0.5 <= gt2 <= 2.0


def strip_bound(delta: float, s: float) -> float:
    """Strip half-width after elapsed time s: sqrt(max(delta^2 - 2s, 0)).
    Nonreal zeros cannot survive outside this strip as the flow runs forward."""
    if delta < 0 or s < 0:
        raise ValueError("delta and s must be >= 0")
    return math.sqrt(max(delta * delta - 2.0 * s, 0.0))

