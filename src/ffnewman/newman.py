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
                           expanded down to BRACKET_FLOOR at most; for a block
                           (lambda_bisect_block) by comparison with a Newton
                           collision time t*, checked at the final ends, or
                           plainly, one eigvals call per round
  double_zero_lower_bound  largest t with Xi_t(0) = 0, a root of a sum of
                           g + 1 powers of e^t: any double zero time is
                           <= Lambda_D; a Rolle chain of derivatives isolates
                           the roots; double_zero_block runs a block at once
  stopple_lower_bound      a bound from an unusually small first zero via the
                           inverse-square gap sum G

Lambda_D = -infinity happens exactly when at most one Fourier coefficient is
nonzero (Phi_n is 0 exactly when c_(g-n) is), and Lambda_D = 0 when L has a
repeated root, a double zero of Xi_0 (has_repeated_root, by fp_poly's one
Euclid); both are decided in exact arithmetic, never by search. The block
routines take arrays: phi, shape (rows, g + 1), from lfunction.phi_rows, and
for bisection a callable giving a row's integer c_0..c_2g, asked only of the
rows that reach the repeated-root test. They return arrays too: a RESULT
row per phi row (a KINDS code, the value and the bracket, NaN where there
is none) and a dict from row to the message of a row that ended in an
error. A NewmanEstimate is built only where one is handed out, by the
route's converter (bisect_estimates, double_zero_estimates): in the one-row
calls and for a sweep row that is expanded. The blocks have no side
effects; only the one-row lambda_bisect warns about a repeated root. The
CLI's one dataclass walker is the JSON view of the estimates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .fp_poly import _gcd
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

# Newton steps that _collision_times takes from every start
NEWTON_STEPS = 12


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


def has_repeated_root(c) -> bool:
    """Exact test: does the L-polynomial sum c_n u^n (c_0..c_2g) have a repeated root?

    By RH for curves every root lies on |u| = q^(-1/2), so a repeated root is
    a double zero of Xi_0, and the double-zero lemma with RH gives
    Lambda_D = 0. A zero of Xi_0 on the symmetry axis x = 0 or pi is one of
    them: evenness makes its order >= 2, a repeated root u = +-q^(-1/2).
    Decided by gcd(L, L') over Q, in exact integers. A unit gcd modulo the
    prime 2^31 - 1, which divides no leading coefficient q^g, already rules
    a repeated root out; only the rare rest runs Euclid over Q.
    """
    dc = [n * v for n, v in enumerate(c)][1:]
    return len(_gcd(c, dc, _GCD_PRIME)) > 1 and len(_gcd(c, dc, None)) > 1


def _real_rows(phi: np.ndarray, t: np.ndarray):
    """The all-real predicate for a stack of rows of one genus g: row i
    (Fourier coefficients phi[i] at time t[i]) is all-real when every root u
    of its P_t from the stacked colleague solve (_colleague_roots) has
    |Im arccos(u)| <= REAL_TOL. A row the solver certifies to have a root off
    [-1, 1] without solving it (its leading weight underflows too far) is
    not all-real. Returns (real, u, errors): a bool array, the roots of the
    all-real rows, and the solver's dict from row to the NumericalError
    message of a row it cannot decide.
    """
    u, ok, errors = _colleague_roots(phi, t)
    real = np.zeros(len(t), dtype=bool)
    real[ok] = (np.abs(np.arccos(u).imag) <= REAL_TOL).all(axis=1)
    return real, u[real[ok]], errors


def all_zeros_real(L: LFunctionData, t: float) -> bool:
    """Does Xi_t have only real zeros?

    Xi_t(x) = P_t(cos x) with P_t a degree-g Chebyshev series, so the 2g
    zeros per period are real exactly when the g roots u of P_t lie in
    [-1, 1]. The roots are colleague-matrix eigenvalues (_real_rows), mapped
    back by complex arccos; every zero must have |Im x| <= REAL_TOL, the
    criterion zeros_at_t applies. No grid sampling and no degree-2g solve.
    """
    if np.count_nonzero(L.phi) <= 1:
        # Pure cosine (or constant): zeros stay pinned on the real axis for
        # every t, including t so negative that e^{t n^2} underflows.
        return True
    real, _, errors = _real_rows(np.array([L.phi]), np.array([float(t)]))
    if errors:
        raise NumericalError(errors[0])
    return bool(real[0])


# the kind codes of a block estimator's result rows: kind KINDS[code] of a
# NewmanEstimate, or error for a row whose message is in the block's errors
KINDS = "bisect exact minus_infinity bracket_exhausted double_zero_lower_bound no_bound error".split()
BISECT, EXACT, MINUS_INFINITY, EXHAUSTED, DOUBLE_ZERO, NO_BOUND, ERROR = range(len(KINDS))

# one result row of a block estimator: kind code, value (NaN: none) and
# bracket lo, hi (NaN: none)
RESULT = np.dtype([("kind", np.int8), ("value", float), ("lo", float), ("hi", float)])

# the notes of each kind's estimates; {} is a double-zero bound's point
_NOTES = {
    BISECT: "bisection of the all-zeros-real predicate",
    EXACT: "L has a repeated root (exact gcd(L, L')): the double zero of Xi_0 forces Lambda_D = 0",
    MINUS_INFINITY: "at most one nonzero Fourier coefficient: zeros are real at every t",
    EXHAUSTED: "predicate never failed above the floor: Lambda_D <= %g" % BRACKET_FLOOR,
    DOUBLE_ZERO: "largest positive root of the degree-g^2 double-zero polynomial at {}",
    NO_BOUND: "double-zero polynomial at {} has no positive real root",
}


def _estimates(block, tol: dict, where: str = "") -> list:
    """Per row of a block result (out, errors): the NumericalError of its
    message, or its NewmanEstimate, with tol[kind] (None if absent) and the
    kind's notes at point where. A NaN value is None, a NaN lo no bracket."""
    out, errors = block
    return [
        NumericalError(errors[i]) if i in errors else NewmanEstimate(
            KINDS[k], None if math.isnan(v) else v, None if math.isnan(lo) else (lo, hi),
            tol.get(k), _NOTES[k].format(where))
        for i, (k, v, lo, hi) in enumerate(out.tolist())
    ]


def bisect_estimates(block, tol_t: float = 1e-10) -> list:
    """The converter of lambda_bisect_block(..., tol_t)'s result: per row its
    NewmanEstimate, or the NumericalError of its message."""
    return _estimates(block, {BISECT: tol_t, EXHAUSTED: tol_t})


def double_zero_estimates(block, at_pi: bool = False) -> list:
    """The converter of double_zero_block(..., at_pi)'s result: per row its
    NewmanEstimate, or the NumericalError of its message."""
    return _estimates(block, {DOUBLE_ZERO: 1e-12}, "x=pi" if at_pi else "x=0")


def check_tol(tol_t: float) -> None:
    """Raise ValueError unless tol_t is a bisection width that can end."""
    if not (tol_t > 0 and math.isfinite(tol_t)):
        raise ValueError("bisection width must be positive and finite, got %r" % tol_t)


def _collision_times(phi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each row of phi, all-real at t = 0 with roots u[i] there (from
    _real_rows), the largest time t* <= 0 of a double real zero of Xi that
    Newton's method finds; NaN where no start converges. Call under
    np.errstate(all="ignore").

    A double zero (x, t) solves F = Xi_t(x) = sum_n w_n cos(n x) = 0 and
    F_x = 0, with w_n as in _colleague_roots. Newton's step in (x, t) needs
    F, F_x, F_t = -F_xx and F_xt: the real and imaginary parts of the sums
    of n^k w_n e^(i n x), k <= 3. It starts at t = 0 from g + 1 points:
    x = 0, x = pi, and the midpoint of each gap between the real zeros
    arccos(u) in (0, pi). Going back in time, the zeros first collide as
    neighbours, or as a zero and its mirror at 0 or pi, where F_x and F_xt
    vanish and the step is Newton's on Xi_t(x) = 0 in t alone. A start has
    converged when its last step in t, after NEWTON_STEPS, is at most 1e-12
    and lands at or below 0. Every double real zero lies at a time
    <= Lambda_D, so t* can be too low (a start reached another collision)
    but not, beyond rounding, too high.
    """
    g = phi.shape[1] - 1
    x = np.sort(np.arccos(np.clip(u.real, -1.0, 1.0)), axis=1)
    X = np.empty((len(x), g + 1))
    X[:, 0], X[:, g] = 0.0, math.pi
    X[:, 1:g] = 0.5 * (x[:, 1:] + x[:, :-1])
    T = np.zeros((len(x), g + 1))
    a = phi[:, None, :] * np.where(np.arange(g + 1) > 0, 2.0, 1.0)
    n2 = np.arange(g + 1) ** 2
    m = (np.arange(g + 1.0)[:, None] ** np.arange(4)).astype(complex)  # columns n^k, k <= 3
    jn = 1j * m[:, 1]
    for _ in range(NEWTON_STEPS):
        w = a * np.exp(T[..., None] * n2 + X[..., None] * jn)
        s = np.einsum("rsn,nk->rsk", w, m)  # not @: a library caller's BLAS may be threaded
        F, Ft = s.real[..., 0], s.real[..., 2]
        mFx, mFxt = s.imag[..., 1], s.imag[..., 3]  # -F_x and -F_xt
        det = mFx * mFxt + Ft * Ft
        X -= (Ft * mFx - mFxt * F) / det
        step = (Ft * F + mFx * mFx) / det
        T -= step
    converged = (np.abs(step) <= 1e-12) & (T <= 0.0)
    best = np.where(converged, T, -np.inf).max(axis=1)
    return np.where(best > -np.inf, best, np.nan)


def _bisect_path(answer, tol_t: float, state: list):
    """Bisection's step rule, resumed from state [t, lo, hi, grow] (next time,
    bracket, still expanding; the t = 0 check leaves [-1, -1, 0, True]). While
    answer(t) is True (all-real at t) the bracket expands to max(min(2t, -1),
    BRACKET_FLOOR); then it halves until no wider than tol_t or two adjacent
    floats. Returns the final (lo, hi), None when True at BRACKET_FLOOR, or
    the first time t not answered yet (answer None), state left there."""
    t, lo, hi, grow = state
    while grow or (hi - lo > tol_t and lo != t != hi):
        real = answer(t)
        if real is None:
            state[:] = t, lo, hi, grow
            return t
        if not real:
            lo, grow = t, False
        elif t <= BRACKET_FLOOR:
            return None
        else:
            hi, lo = t, max(min(2.0 * t, -1.0), BRACKET_FLOOR) if grow else lo
        t = lo if grow else 0.5 * (lo + hi)
    return lo, hi


def _ask(phi: np.ndarray, asks: list) -> list:
    """The predicate at each (row of phi, t) pair of asks, in one stacked
    _real_rows call (none for no pairs): True, False or the error message."""
    if not asks:
        return []
    rows, t = zip(*asks)
    real, _, errors = _real_rows(phi[list(rows)], np.array(t))
    return [errors.get(i, v) for i, v in enumerate(real.tolist())]


def _bisected(end, repeated, tol_t: float):
    """The terminal rule of a row: its RESULT row, or its error message. end
    is its final bracket (lo, hi), (NaN, NaN) if not all-real at t = 0, None
    if all-real at BRACKET_FLOOR (bracket_exhausted), or a solver error
    message; repeated() is the row's exact repeated-root test. No all-real
    time below -2 tol_t and a repeated root of L is kind exact, value 0,
    without a warning; else false at t = 0 is an error."""
    if isinstance(end, str):
        return end
    if end is None:
        return EXHAUSTED, BRACKET_FLOOR, BRACKET_FLOOR, BRACKET_FLOOR
    lo, hi = end
    if not hi < -2.0 * tol_t and repeated():
        return EXACT, 0.0, math.nan, math.nan
    if math.isnan(hi):
        return "zeros of Xi_0 not all real; numerical breakdown"
    return BISECT, 0.5 * (lo + hi), lo, hi


def lambda_bisect_block(phi: np.ndarray, coefficients, tol_t: float = 1e-10) -> tuple:
    """lambda_bisect for every row of phi (Phi_0..Phi_g): (out, errors), out
    a RESULT array of each row's kind code, value and bracket, and errors
    the dict from row to the message of a row that ended in an error (kind
    error). coefficients(i) is row i's c_0..c_2g, asked only of a row that
    reaches the exact repeated-root test, which runs at most once. A row
    with at most one nonzero Phi_n is minus_infinity; the rest are asked the
    predicate at t = 0 in one call. A row all-real there runs its path
    (_bisect_path; tol_t positive and finite, else ValueError) by comparison
    with its collision time t* (_collision_times, from that call's roots):
    all-real at t > t*, which a NaN t* never is. One call then asks the
    predicate at each final lo and each hi < 0. It is monotone, so false at
    lo and true at hi make the bracket plain bisection's, bit for bit; false
    at both with a repeated root of L ends exact. The rest bisect plainly,
    one call per round, each resuming its path's state after its answer.
    bisect_estimates converts the result.
    """
    check_tol(tol_t)
    live = np.count_nonzero(phi, axis=1) > 1
    out = np.array([(MINUS_INFINITY, -math.inf, math.nan, math.nan)] * len(phi), RESULT)
    rows, phi = np.nonzero(live)[0].tolist(), phi[live]
    if not rows:
        return out, {}
    repeated = lru_cache(maxsize=None)(lambda j: has_repeated_root(coefficients(rows[j])))
    real, u, failed = _real_rows(phi, np.zeros(len(rows)))
    # row -> what _bisected ends it with (or, for a plain row, its next time)
    ends = {j: failed.get(j, (math.nan, math.nan)) for j in np.nonzero(~real)[0].tolist()}
    with np.errstate(all="ignore"):
        guided = zip(np.nonzero(real)[0].tolist(), _collision_times(phi[real], u).tolist())
    paths = {j: _bisect_path(star.__lt__, tol_t, [-1.0, -1.0, 0.0, True]) for j, star in guided}
    asks = [(j, t) for j, path in paths.items() if path for t in path if t < 0.0]
    answers = dict(zip(asks, _ask(phi, asks)))
    for j, path in paths.items():
        checked = [answers.get((j, t), True) for t in path or ()]
        if checked == [False, True]:
            ends[j] = path
        elif checked == [False, False] and repeated(j):
            ends[j] = path[1], 0.0  # all-real only at t = 0: exact
    plain = {j: [-1.0, -1.0, 0.0, True] for j in paths if j not in ends}  # row -> path state
    while plain:
        asks = [(j, state[0]) for j, state in plain.items()]
        for (j, t), ans in zip(asks, _ask(phi, asks)):
            ends[j] = ans if isinstance(ans, str) else _bisect_path({t: ans}.get, tol_t, plain[j])
        plain = {j: state for j, state in plain.items() if isinstance(ends[j], float)}
    ended = {rows[j]: _bisected(end, partial(repeated, j), tol_t) for j, end in ends.items()}
    errors = {i: e for i, e in ended.items() if isinstance(e, str)}
    ended.update(dict.fromkeys(errors, (ERROR, math.nan, math.nan, math.nan)))
    out[list(ended)] = list(ended.values())
    return out, errors


def lambda_bisect(L: LFunctionData, tol_t: float = 1e-10) -> NewmanEstimate:
    """Bisect the monotone all-zeros-real predicate to width tol_t: the
    one-row case of lambda_bisect_block, whose terminal rule decides the row.
    With two nonzero Fourier coefficients or more the predicate fails at
    some t < 0 (in-scope constants are O(0.1)); BRACKET_FLOOR is a safety
    net. A repeated root of L also warns here, naming the caller.
    """
    (e,) = bisect_estimates(lambda_bisect_block(np.array([L.phi]), lambda i: L.c, tol_t), tol_t)
    if isinstance(e, Exception):
        raise e
    if e.kind == "exact":
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
    exactly 0 is one too. The brackets of a level, over all rows, go to
    _refine with tol 1e-12. Level 0 solves only for the largest root. No
    row's bits depend on the others.
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
    # of G_k just above 0
    first = np.minimum.accumulate(
        np.where(a != 0, np.arange(g + 1), g)[:, ::-1], axis=1
    )[:, ::-1]
    s = np.sign(a)[np.arange(len(a))[:, None], first]
    variations = np.add.accumulate(s[:, :0:-1] != s[:, -2::-1], axis=1, dtype=int)
    start = np.add.reduce(variations > 1, axis=1)
    s = np.where(start[:, None] >= np.arange(g + 1), s, 1.0)  # no root above start
    # breakpoints: 0, the roots of G_(k+1), then B (repeated)
    P = B * np.array([0.0, 1.0])
    for k in range(int(np.maximum.reduce(start, initial=0)), -1, -1):
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


def double_zero_block(phi: np.ndarray, at_pi: bool = False) -> tuple:
    """double_zero_lower_bound for every row of phi (Phi_0..Phi_g), in
    lockstep: (out, errors), out a RESULT array of each row's kind code and
    value (log of the largest positive root; no bracket), and errors the
    dict from row to the message of a row that is not finite or would
    overflow (kind error). The double-zero polynomial is sum_n a_n y^(n^2)
    with a_0 = Phi_0, a_n = 2 Phi_n, odd n negated at x = pi.
    double_zero_estimates converts the result.
    """
    a = np.array(phi, dtype=float)
    a[:, 1:] *= 2.0
    if at_pi:
        a[:, 1::2] *= -1.0
    with np.errstate(all="ignore"):
        largest, ok = _largest_positive_roots(a)
    out = np.empty(len(a), RESULT)
    out["kind"] = np.where(ok, np.where(np.isnan(largest), NO_BOUND, DOUBLE_ZERO), ERROR)
    # NaN where unsolved; math.log, as np.log can differ in the last bit
    out["value"] = list(map(math.log, largest.tolist()))
    out["lo"] = out["hi"] = math.nan
    bad = np.flatnonzero(~ok).tolist()
    return out, dict.fromkeys(bad, "double-zero polynomial is not finite or would overflow")


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
    (e,) = double_zero_estimates(double_zero_block(np.array([L.phi]), at_pi), at_pi)
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
    if has_repeated_root(L.c):
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


def strip_bound(delta: float, s: float) -> float:
    """Strip half-width after elapsed time s: sqrt(max(delta^2 - 2s, 0)).
    Nonreal zeros cannot survive outside this strip as the flow runs forward."""
    if delta < 0 or s < 0:
        raise ValueError("delta and s must be >= 0")
    return math.sqrt(max(delta * delta - 2.0 * s, 0.0))

