"""Computing and bounding the De Bruijn-Newman constant Lambda_D.

Lambda_D is the infimum of deformation times t at which Xi_t still has only
real zeros; real zeros stay real as t increases, so the all-real predicate is
monotone and bisection applies. The predicate uses the Chebyshev form
Xi_t(x) = P_t(cos x) = sum_n w_n T_n(cos x), w_0 = Phi_0,
w_n = 2 Phi_n e^(t n^2): the g roots of P_t are eigenvalues of its colleague
matrix, mapped back to x by complex arccos, and Xi_t is all-real when every
zero has |Im x| <= tol. The root solve is lfunction's, the same one
zeros_at_t uses. No grid is sampled. Routes provided:

  lambda_exact_genus1      closed form log(|Phi_0| / (2 sqrt q)) for g = 1
  lambda_bisect            monotone bisection on the all-zeros-real predicate;
                           lambda_bisect_block runs it for a block of D of
                           one genus in lockstep, one eigvals call per round
  double_zero_lower_bound  largest t with Xi_t(0) = 0, a polynomial of degree
                           g^2 in e^t: any double zero time is <= Lambda_D
  stopple_lower_bound      a bound from an unusually small first zero via the
                           inverse-square gap sum G

Lambda_D = -infinity happens exactly when at most one Fourier coefficient is
nonzero, and Lambda_D = 0 when L has a repeated root (a double zero of Xi_0);
both cases are decided in exact arithmetic, never by search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .lfunction import (
    LFunctionData,
    NumericalError,
    ZeroSet,
    _colleague_roots,
    zeros_at_t,
)

# modulus of has_repeated_root's prefilter: a prime above every field size q,
# so it divides no leading coefficient q^g of an L-polynomial
_GCD_PRIME = 2**31 - 1


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


def xi0_axis_values_exact(L: LFunctionData):
    """Xi_0 at x = 0 and x = pi, exactly, as integer pairs (A, B) meaning
    A + B sqrt(q). Both vanish iff A = B = 0 (sqrt q is irrational), and the
    even/odd split makes the two axis values A + B sqrt(q) and A - B sqrt(q).
    """
    q = L.q
    A = 0
    B = 0
    for a, n in L.phi_exact:
        coef = a if n == 0 else 2 * a
        if n % 2 == 0:
            A += coef * q ** (n // 2)
        else:
            B += coef * q ** ((n - 1) // 2)
    return (A, B), (A, -B)


def has_double_zero_at_axis(L: LFunctionData) -> bool:
    """Exact detection of Xi_0(0) = 0 (equivalently Xi_0(pi) = 0).

    Evenness forces a zero at x = 0 or pi to have order >= 2, which by the
    double-zero lemma gives Lambda_D >= 0. No in-scope discriminant does this;
    the check exists so the estimators can flag such a find loudly instead of
    bisecting across a degenerate configuration.
    """
    (A, B), _ = xi0_axis_values_exact(L)
    return A == 0 and B == 0


def lambda_exact_genus1(L: LFunctionData) -> NewmanEstimate:
    """Closed form for genus 1: the two zeros merge at x = 0 or pi, at time
    log(|Phi_0| / (2 sqrt q)); Phi_0 = 0 means always-real (minus infinity)."""
    if L.g != 1:
        raise ValueError("closed form requires genus 1, got g=%d" % L.g)
    a = L.c[1]
    if a == 0:
        return NewmanEstimate(
            kind="minus_infinity",
            value=float("-inf"),
            notes="Phi_0 = 0: Xi_t is a pure cosine for every t",
        )
    return NewmanEstimate(
        kind="exact",
        value=math.log(abs(a) / (2.0 * math.sqrt(L.q))),
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
    Lambda_D = 0. Decided by gcd(L, L') over Q, in exact integers. A unit
    gcd modulo the prime 2^31 - 1, which divides no leading coefficient q^g,
    already rules a repeated root out; only the rare rest runs Euclid over Q.
    """
    c = list(L.c)
    dc = [n * v for n, v in enumerate(c)][1:]
    if _gcd_degree(c, dc, _GCD_PRIME) == 0:
        return False
    return _gcd_degree(c, dc, None) > 0


def _real_rows(phi: np.ndarray, t: np.ndarray, tol: float):
    """The all-real predicate for a stack of rows of one genus g: row i
    (Fourier coefficients phi[i] at time t[i]) is all-real when every root u
    of its P_t from the stacked colleague solve (_colleague_roots) has
    |Im arccos(u)| <= tol. A row the solver certifies to have a root off
    [-1, 1] without solving it (its leading weight underflows too far) is
    not all-real. Returns (real, errors): a bool array and the solver's dict
    from row to the NumericalError message of a row it cannot decide.
    """
    u, ok, errors = _colleague_roots(phi, t)
    real = np.zeros(len(t), dtype=bool)
    real[ok] = (np.abs(np.arccos(u).imag) <= tol).all(axis=1)
    return real, errors


def all_zeros_real(L: LFunctionData, t: float, tol: float = 1e-9) -> bool:
    """Does Xi_t have only real zeros?

    Xi_t(x) = P_t(cos x) with P_t a degree-g Chebyshev series, so the 2g
    zeros per period are real exactly when the g roots u of P_t lie in
    [-1, 1]. The roots are colleague-matrix eigenvalues (_real_rows), mapped
    back by complex arccos; every zero must have |Im x| <= tol, the criterion
    zeros_at_t applies. No grid sampling and no degree-2g solve.
    """
    if count_nonzero_phi(L) <= 1:
        # Pure cosine (or constant): zeros stay pinned on the real axis for
        # every t, including t so negative that e^{t n^2} underflows.
        return True
    real, errors = _real_rows(np.array([L.phi]), np.array([float(t)]), tol)
    if errors:
        raise NumericalError(errors[0])
    return bool(real[0])


def _repeated_root_estimate(L: LFunctionData) -> NewmanEstimate:
    warnings.warn(
        "Xi_0 has an exact double zero (a repeated root of L) for D=%s over "
        "F_%d: Lambda_D = 0" % (L.D, L.q),
        stacklevel=3,
    )
    return NewmanEstimate(
        kind="exact",
        value=0.0,
        notes="L has a repeated root (exact gcd(L, L')): the double zero of "
        "Xi_0 forces Lambda_D = 0",
    )


def lambda_bisect_block(
    Ls: list,
    tol_t: float = 1e-10,
    bracket_floor: float = -50.0,
    tol: float = 1e-9,
) -> list:
    """lambda_bisect for every L of one genus, in lockstep.

    Per row this is the algorithm lambda_bisect documents: the algebraic
    minus-infinity and axis double-zero checks, the t = 0 check, expansion
    through -1, -2, -4, ... down to bracket_floor, then midpoint bisection
    until the bracket is no wider than tol_t. Each round asks the predicate
    of all unfinished rows with one _real_rows call. A row whose t = 0 check
    fails, or whose bracket ends within 2 tol_t of 0, is tested for a
    repeated root of L exactly (has_repeated_root); one gives kind exact,
    value 0. Returns, per row, its NewmanEstimate or the exception
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
        elif has_double_zero_at_axis(L):
            warnings.warn(
                "Xi_0 has an exact double zero at x = 0 or pi for D=%s over F_%d: "
                "Lambda_D = 0" % (L.D, L.q),
                stacklevel=2,
            )
            out[i] = NewmanEstimate(
                kind="exact",
                value=0.0,
                notes="exact double zero of Xi_0 on the symmetry axis forces Lambda_D = 0",
            )
        else:
            live.append(i)
    if not live:
        return out
    if len({Ls[i].g for i in live}) > 1:
        raise ValueError("lambda_bisect_block needs rows of one genus")
    rows = np.array(live)
    phi = np.array([Ls[i].phi for i in live])
    real, errors = _real_rows(phi, np.zeros(len(live)), tol)
    for j, i in enumerate(live):
        if j in errors:
            out[i] = NumericalError(errors[j])
        elif real[j]:
            continue
        elif has_repeated_root(Ls[i]):
            out[i] = _repeated_root_estimate(Ls[i])
        else:
            out[i] = NumericalError("zeros of Xi_0 not all real; numerical breakdown")
    rows, phi = rows[real], phi[real]
    hi = np.zeros(len(rows))
    lo = np.full(len(rows), -1.0)  # while expanding: the next time to try
    expanding = np.ones(len(rows), dtype=bool)
    while len(rows):
        t = np.where(expanding, lo, 0.5 * (lo + hi))
        real, errors = _real_rows(phi, t, tol)
        hi = np.where(real, t, hi)
        grown = np.where(expanding, np.maximum(2.0 * t, bracket_floor), lo)
        lo = np.where(real, grown, t)
        exhausted = expanding & real & (t <= bracket_floor)
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
                    value=bracket_floor,
                    bracket=(bracket_floor, hi_j),
                    tol=tol_t,
                    notes="predicate never failed above the floor: Lambda_D <= %g"
                    % bracket_floor,
                )
            elif hi_j >= -2.0 * tol_t and has_repeated_root(L):
                e = _repeated_root_estimate(L)
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


def lambda_bisect(
    L: LFunctionData,
    tol_t: float = 1e-10,
    bracket_floor: float = -50.0,
    tol: float = 1e-9,
) -> NewmanEstimate:
    """Bisect the monotone all-zeros-real predicate to width tol_t.

    The bracket expands downward from 0 by doubling (-1, -2, -4, ...); with at
    least two nonzero Fourier coefficients the predicate is guaranteed to fail
    eventually, and in-scope constants are O(0.1) so expansion ends fast. A
    floor of bracket_floor is kept as a safety net and reported distinctly
    (bracket_exhausted, meaning Lambda_D <= floor), never conflated with the
    algebraic minus-infinity case. A repeated root of L, decided exactly, is
    kind exact with value 0. This is the one-row case of lambda_bisect_block.
    """
    (e,) = lambda_bisect_block([L], tol_t, bracket_floor, tol)
    if isinstance(e, Exception):
        raise e
    return e


def _horner(coeffs: list, y: float) -> float:
    """np.polyval(coeffs, y) for a scalar y in plain floats: the same
    multiplications and additions in the same order, so the same bits."""
    acc = 0.0
    for c in coeffs:
        acc = acc * y + c
    return acc


def double_zero_lower_bound(L: LFunctionData, at_pi: bool = False) -> NewmanEstimate:
    """Largest t solving Xi_t(0) = 0; such a t is a double zero time (evenness
    makes x = 0 a zero of order >= 2), hence a lower bound on Lambda_D.

    In y = e^t this is P(y) = Phi_0 + 2 sum_n Phi_n y^(n^2), degree g^2 <= 49
    in scope. The largest positive root is isolated by a 4096-sample scan up
    to a Cauchy-style bound and refined by bisection. No positive root is a
    legal outcome (kind no_bound). at_pi=True uses the mirror point x = pi
    (alternating signs); it is an extra, not part of the published table.
    """
    g = L.g
    a = np.zeros(g * g + 1)
    a[0] = L.phi[0]
    for n in range(1, g + 1):
        sign = -1.0 if (at_pi and n % 2) else 1.0
        a[n * n] += 2.0 * sign * L.phi[n]
    lead = a[-1]  # 2 Phi_g > 0 always
    y_max = 1.0 + float(np.max(np.abs(a[:-1]))) / abs(lead)
    m = 4096
    ys = y_max * np.arange(1, m + 1) / m
    vals = np.polyval(a[::-1], ys)
    s = np.sign(vals)
    where = "x=pi" if at_pi else "x=0"
    hits = np.nonzero(s == 0)[0]
    changes = np.nonzero(s[:-1] * s[1:] < 0)[0]
    if len(hits) == 0 and len(changes) == 0:
        return NewmanEstimate(
            kind="no_bound",
            value=None,
            notes="double-zero polynomial at %s has no positive real root" % where,
        )
    if len(hits) and (len(changes) == 0 or hits[-1] > changes[-1] + 1):
        ystar = float(ys[hits[-1]])  # sampled the root exactly
    else:
        k = changes[-1]
        lo, hi = float(ys[k]), float(ys[k + 1])
        coeffs = a[::-1].tolist()
        flo = _horner(coeffs, lo)
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            fm = _horner(coeffs, mid)
            if (fm < 0) == (flo < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        ystar = 0.5 * (lo + hi)
    return NewmanEstimate(
        kind="double_zero_lower_bound",
        value=math.log(ystar),
        tol=1e-12,
        notes="largest positive root of the degree-g^2 double-zero polynomial at %s"
        % where,
    )


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


def stopple_data(L: LFunctionData, zeros: ZeroSet | None = None) -> StoppleData:
    """Assemble the first-zero bound report for a discriminant. A repeated
    root of L (exact test) is a double zero of Xi_0, where G is undefined:
    ValueError, before any zeros are computed."""
    if has_repeated_root(L):
        raise ValueError(
            "repeated zero: G undefined (L has a repeated root, so Xi_0 has a "
            "double zero and Lambda_D = 0)"
        )
    if zeros is None:
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


def _json_value(v):
    if v is None:
        return None
    if v == float("-inf"):
        return "-inf"
    return float("%.12g" % v)


def newman_jsonable(e: NewmanEstimate) -> dict:
    return {
        "kind": e.kind,
        "value": _json_value(e.value),
        "bracket": None if e.bracket is None else [_json_value(v) for v in e.bracket],
        "tol": _json_value(e.tol),
        "notes": e.notes,
    }


def stopple_jsonable(sd: StoppleData) -> dict:
    return {
        "gamma": [_json_value(v) for v in sd.gamma],
        "gamma_tilde": [_json_value(v) for v in sd.gamma_tilde],
        "G": _json_value(sd.G),
        "condition_ok": sd.condition_ok,
        "bound": _json_value(sd.bound),
    }
