"""Family sweeps over discriminants.

Two families are swept: fixed q with D running over all monic squarefree
polynomials of odd degree (Newman constants should creep up to 0 as the genus
grows), and a fixed integer cubic reduced modulo every odd prime p, where the
genus-1 closed form ties Lambda to the Frobenius trace a_p and the angle
statistics follow the semicircle law.

The fixed-q sweep runs in tasks of SWEEP_SPAN consecutive indices of one
degree: the explicit formula (lfunction.family_coefficients, in blocks of
FAMILY_CHUNK, from lfunction.family_tables) gives c_0..c_g and the squarefree
mask for the whole task, and the estimator runs once per task on the Phi array
(lfunction.phi_rows) of its distinct c_0..c_g, building no FpPolynomial or
LFunctionData per D. An estimate depends on D only through its L-polynomial (q
and c_0..c_g), and a fixed-q family has far fewer of those than discriminants,
so each worker solves every distinct L-polynomial once per sweep: a memo of at
most MEMO_SIZE entries, keyed on c_0..c_g and emptied when a sweep starts,
serves the repeats, and a task returns one SweepBlock: its squarefree indices,
one (c_0..c_g, result) per distinct key, and each row's key (_sweep_chunk).
The reciprocity ladder is not used here; it cross-checks the explicit formula
in the tests. The sweep is a stream of blocks: each goes to the caller's
on_block, which can write all its rows at once, and is dropped. Only the
bests, found in numpy, become SweepItems, and the SweepReport keeps only
counts and bests, so memory does not grow with the family. The Sato-Tate sweep
of a monic integer cubic maps runs of SATO_TATE_RUN consecutive primes and
keeps every prime's record in its SatoTateReport, in plain integers: p is bad
exactly when it divides the discriminant, and a_p takes O(p^(1/4)) exact group
steps on the curve or its twist, with the O(p) point count for small p and
fallback. A pool never has more processes than tasks; with one task the map
runs in-process.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .finite_field import check_odd_prime, legendre_int, legendre_table
from .lfunction import (
    FAMILY_CHUNK,
    NumericalError,
    _digits,
    complete_coefficients,
    family_coefficients,
    family_tables,
    phi_rows,
)
from .newman import NewmanEstimate, double_zero_block, genus1_lambda, lambda_bisect_block

__all__ = [
    "BadReduction",
    "SatoTateRecord",
    "SatoTateReport",
    "SweepBlock",
    "SweepItem",
    "SweepReport",
    "F3_GENUS_SERIES",
    "check_sweep",
    "cubic_discriminant",
    "ks_distance",
    "primes_up_to",
    "sato_tate_sweep",
    "semicircle_cdf",
    "sweep_fixed_q",
    "trace_of_frobenius",
]

# One discriminant per genus 1..7 over F_3, each with a notably small
# double-zero lower bound; drives the `table` subcommand and the trend demo.
F3_GENUS_SERIES = (
    (1, 2, 0, 1),
    (1, 1, 0, 1, 0, 1),
    (2, 2, 2, 1, 0, 2, 0, 1),
    (1, 1, 1, 1, 1, 0, 1, 0, 0, 1),
    (1, 2, 1, 0, 2, 2, 2, 2, 1, 2, 0, 1),
    (1, 2, 0, 1, 2, 0, 2, 2, 0, 0, 1, 2, 0, 1),
    (2, 1, 2, 1, 0, 0, 2, 0, 1, 2, 0, 0, 0, 0, 2, 1),
)


class BadReduction(ValueError):
    """p divides the cubic's discriminant: its reduction mod p has a repeated root."""


@dataclass(frozen=True)
class SweepItem:
    """One discriminant's result inside a fixed-q sweep."""

    degree: int
    index: int
    d_coeffs: tuple
    c: tuple
    estimate: NewmanEstimate | None
    error: str | None = None


@dataclass(frozen=True, eq=False)
class SweepBlock:
    """One task's rows of a fixed-q sweep, as arrays: ks holds the indices of
    its squarefree D of one degree (int64, increasing), entries one
    (c_0..c_g, estimate, error) per distinct c_0..c_g of the task (c and
    estimate None on an error), and which[i] is the entry of row ks[i]. c is
    the half of the coefficients that the CSV prints; items completes it."""

    q: int
    degree: int
    ks: np.ndarray
    which: np.ndarray
    entries: list

    def items(self, rows=slice(None)) -> list:
        """The SweepItems of the given rows, in order (all rows by default),
        with c completed to c_0..c_2g."""
        ks = self.ks[rows]
        d_coeffs = np.ones((len(ks), self.degree + 1), dtype=np.int64)
        d_coeffs[:, : self.degree] = _digits(self.q, self.degree, ks)[:, ::-1]
        entries = map(self.entries.__getitem__, self.which[rows].tolist())
        return [
            SweepItem(self.degree, k, tuple(d), c and complete_coefficients(self.q, c), e, error)
            for k, d, (c, e, error) in zip(ks.tolist(), d_coeffs.tolist(), entries)
        ]


@dataclass(frozen=True)
class SatoTateRecord:
    """Per-prime record for a fixed integer cubic: trace a_p, the angle
    theta_p with cos theta_p = a_p / (2 sqrt p), and the genus-1 Newman
    constant log(|a_p| / (2 sqrt p)) (-inf exactly when a_p = 0)."""

    p: int
    a_p: int | None
    theta_p: float | None
    lambda_p: float | None
    skipped: str | None = None


@dataclass(frozen=True)
class SweepReport:
    """Outcome of a fixed-q sweep. Its rows went to on_block as they came and
    are not kept: processed counts the squarefree D estimated (errors
    included), skipped the D with a repeated factor, best_per_genus maps each
    genus to its row of largest Lambda value, and best_overall is the row of
    largest value over the sweep; ties go to the first row in enumeration
    order, and rows without a value never count as a best."""

    processed: int
    skipped: int
    best_per_genus: dict
    best_overall: SweepItem | None


@dataclass(frozen=True)
class SatoTateReport:
    """Outcome of a Sato-Tate sweep: one SatoTateRecord per odd prime in
    order, the counts of good and bad-reduction primes, the running supremum
    of lambda_p after each record, and a statistics block (sup_lambda,
    argmax_p, ks_distance)."""

    items: tuple
    processed: int
    skipped: int
    running_sup: tuple
    statistics: dict


def primes_up_to(n: int) -> list:
    if n < 2:
        return []
    prime = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for v in range(2, math.isqrt(n) + 1):
        if prime[v]:
            prime[v * v :: v] = bytes(len(range(v * v, n + 1, v)))
    return [v for v, is_p in enumerate(prime) if is_p]


# the most processes a sweep's pool may have
MAX_WORKERS = 64


def check_workers(workers: int) -> None:
    """Raise ValueError unless 1 <= workers <= MAX_WORKERS."""
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError("workers must be 1 to %d, got %d" % (MAX_WORKERS, workers))


@contextmanager
def _ordered_map(fn, tasks, count: int, workers: int):
    """fn over the count tasks, results in task order: the builtin map when
    min(workers, count) is at most one, else the imap of a pool of that many
    processes, which is torn down on exit, also when the caller stops early
    or raises."""
    if min(workers, count) <= 1:
        yield map(fn, tasks)
        return
    pool = multiprocessing.Pool(min(workers, count))
    try:
        yield pool.imap(fn, tasks)
    finally:
        pool.terminate()
        pool.join()


# consecutive indices of one degree per sweep task: the estimators cost per
# call more than per row, so a task spans several family_coefficients blocks
SWEEP_SPAN = 8 * FAMILY_CHUNK

# distinct L-polynomials whose result a process keeps during one sweep
# (FIFO eviction); sweep_fixed_q empties it before any pool is forked
MEMO_SIZE = 4096
_memo: dict = {}


def _sweep_chunk(args):
    """Estimates for the squarefree D with indices lo <= k < hi of one degree:
    (number skipped, SweepBlock). The block has one entry per distinct
    c_0..c_g of the task.

    Every estimator reads D only through (q, c_0..c_g), so each distinct
    L-polynomial is solved once per process and sweep: a key the memo holds
    reuses its estimate or error text, and the other keys go to the
    estimator (lambda_bisect_block or double_zero_block, on their phi_rows
    array) in one call, of at most SWEEP_SPAN rows; only bisection's
    repeated-root test reads the completed c_0..c_2g. q and the method are
    fixed for the memo's lifetime, since sweep_fixed_q empties it at the
    start. A row's estimate does not depend on the rest of its block, so a
    reused entry is the value a fresh solve gives. The memo keeps the last
    MEMO_SIZE keys inserted.
    """
    q, degree, lo, hi, method = args
    c_half, squarefree = family_coefficients(q, degree, lo, hi)
    ks = np.flatnonzero(squarefree) + lo
    distinct, which = np.unique(c_half[squarefree], axis=0, return_inverse=True)
    keys = list(map(tuple, distinct.tolist()))
    # take the hits before inserting: an eviction could drop one of them
    results = [_memo.get(key) for key in keys]
    fresh = [i for i, r in enumerate(results) if r is None]
    phi = phi_rows(q, distinct[fresh])
    if method == "bisect":
        solved = lambda_bisect_block(phi, [complete_coefficients(q, keys[i]) for i in fresh])
    else:
        solved = double_zero_block(phi)
    for i, r in zip(fresh, solved):
        if isinstance(r, Exception):
            r = "%s: %s" % (type(r).__name__, r)
        while len(_memo) >= MEMO_SIZE:
            del _memo[next(iter(_memo))]
        _memo[keys[i]] = results[i] = r
    entries = [(None, None, r) if isinstance(r, str) else (k, r, None) for k, r in zip(keys, results)]
    return hi - lo - len(ks), SweepBlock(q, degree, ks, which, entries)


def _chunk_tasks(q: int, max_genus: int, method: str, start: tuple):
    for degree in range(start[0], 2 * max_genus + 2, 2):
        lo = start[1] if degree == start[0] else 0
        for k in range(lo, q**degree, SWEEP_SPAN):
            yield (q, degree, k, min(k + SWEEP_SPAN, q**degree), method)


def check_sweep(
    q: int, max_genus: int, method: str, start: tuple | None, workers: int = 1
) -> tuple:
    """Validate the inputs of sweep_fixed_q, raising ValueError before any
    work, and return the start position, (3, 0) when start is None. A degree
    past the last gives an empty sweep, which is what the resume token of a
    finished sweep names; any other position outside the enumeration is
    rejected."""
    check_odd_prime(q)
    check_workers(workers)
    if max_genus < 1:
        raise ValueError("max-genus must be >= 1")
    if method not in ("double_zero", "bisect"):
        raise ValueError("method must be 'double_zero' or 'bisect'")
    degree, index = start or (3, 0)
    # past the last degree any index is the empty tail of the sweep
    inside = degree <= 2 * max_genus + 1
    if degree < 3 or degree % 2 == 0 or index < 0 or (inside and index >= q**degree):
        raise ValueError(
            "resume position %d:%d names no monic D of odd degree >= 3 over F_%d"
            % (degree, index, q)
        )
    return degree, index


def sweep_fixed_q(
    q: int,
    max_genus: int,
    method: str = "double_zero",
    workers: int = 1,
    start: tuple | None = None,
    on_block=None,
) -> SweepReport:
    """Estimate Lambda_D for every monic squarefree D of odd degree up to
    2*max_genus + 1 over F_q, in enumeration order.

    Deterministic regardless of worker count: each task spans SWEEP_SPAN
    consecutive indices of one degree, results are consumed in index order,
    a row's estimate does not depend on the rest of its task, and the
    coefficient arithmetic is exact integer arithmetic.
    start=(degree, index) resumes mid-enumeration at monic_by_index(q,
    degree, index); check_sweep says which inputs are rejected. on_block,
    when given, sees each task's rows as one SweepBlock as soon as its turn
    in the canonical order arrives (SweepBlock.items expands its rows). The
    sweep keeps no row but the bests of its report, so its memory does not
    grow with the family, and only a row that becomes a best is built as a
    SweepItem. A pool has at most one process per task.
    """
    start = check_sweep(q, max_genus, method, start, workers)
    degrees = range(start[0], 2 * max_genus + 2, 2)
    # forked workers copy the memo (for this q and method only) and the tables
    _memo.clear()
    for degree in degrees:
        family_tables(q, degree)
    # the tasks _chunk_tasks will yield, counted without running it
    count = sum(-(-(q**d - (start[1] if d == start[0] else 0)) // SWEEP_SPAN) for d in degrees)
    tasks = _chunk_tasks(q, max_genus, method, start)
    processed = 0
    skipped = 0
    best_per_genus: dict = {}
    with _ordered_map(_sweep_chunk, tasks, count, workers) as results:
        for n_skipped, block in results:
            skipped += n_skipped
            processed += len(block.ks)
            if on_block is not None:
                on_block(block)
            # the block's best is its first row of largest value; rows
            # without a value (an error or no bound) never count
            values = np.array(
                [np.nan if e is None or e.value is None else e.value for _, e, _ in block.entries]
            )
            present = values[~np.isnan(values)]
            if not len(present):
                continue
            g = (block.degree - 1) // 2
            cur = best_per_genus.get(g)
            if cur is None or present.max() > cur.estimate.value:
                i = int(np.argmax(values[block.which] == present.max()))
                best_per_genus[g] = block.items(slice(i, i + 1))[0]
    # genera enter the dict in enumeration order and max keeps the first of
    # equal values, so ties go to the first row here too
    best_overall = max(best_per_genus.values(), key=lambda it: it.estimate.value, default=None)
    return SweepReport(processed, skipped, best_per_genus, best_overall)


def cubic_discriminant(dz: tuple) -> int:
    """Discriminant of an integer cubic a T^3 + b T^2 + c T + d; nonzero iff
    the cubic is squarefree over Q."""
    if len(dz) != 4 or dz[3] == 0:
        raise ValueError("expected a degree-3 integer polynomial")
    d, c, b, a = dz
    return (
        18 * a * b * c * d
        - 4 * b**3 * d
        + b**2 * c**2
        - 4 * a * c**3
        - 27 * a**2 * d**2
    )


BSGS_MIN_P = 230  # Mestre's bound is 229
BSGS_TRIES = 40


def _monic_cubic(dz) -> tuple:
    """dz as ints, trailing zeros dropped; ValueError unless a monic cubic."""
    dz = tuple(int(v) for v in dz)
    while dz and dz[-1] == 0:
        dz = dz[:-1]
    if len(dz) != 4 or dz[3] != 1:
        raise ValueError("dz must be monic of degree 3")
    return dz


def trace_of_frobenius(dz, p: int) -> int:
    """a_p of y^2 = dz(T), exactly, for a monic integer cubic dz and an odd
    prime p: for p > BSGS_MIN_P by baby-step giant-step (_trace_by_bsgs),
    else, and when that gives up, by point counting (_trace_by_count).

    BadReduction exactly when p divides the discriminant of dz, i.e. when
    dz mod p has a repeated root. The Hasse bound |a_p| < 2 sqrt(p) is
    asserted on every output.
    """
    dz = _monic_cubic(dz)
    check_odd_prime(p)
    if cubic_discriminant(dz) % p == 0:
        raise BadReduction("D must be squarefree")
    coeffs = [v % p for v in dz]
    a_p = _trace_by_bsgs(coeffs, p) if p > BSGS_MIN_P else None
    if a_p is None:
        a_p = _trace_by_count(coeffs, p)
    if a_p * a_p >= 4 * p:
        raise NumericalError("Hasse bound violated: a_p=%d at p=%d" % (a_p, p))
    return a_p


def _trace_by_count(coeffs, p: int) -> int:
    """-sum_a legendre(f(a)) over F_p, f of ascending coefficients coeffs."""
    a = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for coef in reversed(coeffs):
        vals = (vals * a + coef) % p
    return -int(legendre_table(p)[vals].sum())


def _trace_by_bsgs(coeffs, p: int):
    """a_p of y^2 = f(x), f a monic cubic mod p > 3 (ascending coeffs), or
    None if none of BSGS_TRIES points has a unique order N in the Hasse
    interval [p + 1 - r, p + 1 + r], r = isqrt(4p). With f shifted to
    x^3 + Ax + B and d = f(x0) != 0, (d x0, d^2) lies on Y^2 = X^3 + A d^2 X
    + B d^3: the curve if d is a square, else its twist, with p + 1 + a_p
    points; so a_p = chi(d) (p + 1 - N). x0 starts at 1, as x = 0 has order
    3 on y^2 = x^3 + B.
    """
    a0, a1, a2, _ = coeffs
    s = a2 * pow(3, -1, p) % p
    A = (a1 - 3 * s * s) % p
    B = (2 * s**3 - a1 * s + a0) % p
    r = math.isqrt(4 * p)
    for x0 in range(1, BSGS_TRIES + 1):
        d = (x0**3 + A * x0 + B) % p
        if d:
            n = _unique_order((d * x0 % p, d * d % p), A * d * d % p, p, p + 1 - r, p + 1 + r)
            if n is not None:
                return legendre_int(d, p) * (p + 1 - n)
    return None


def _unique_order(P, A, p: int, lo: int, hi: int):
    """The one N in [lo, hi] with N P = O on y^2 = x^3 + Ax + B over F_p,
    else None. Baby steps jP, j = 1..m, are keyed on x; a giant step cP at
    x(jP) names N = c -+ j by the sign of y, and c moves by 2m + 1. A baby
    step at O, at y = 0 or on a repeated x means an order <= 2m, shared by
    several N of the interval (width >= 4m), and gives the point up.
    """
    m = math.isqrt((hi - lo) // 2)
    baby, Q = {}, None
    for j in range(1, m + 1):
        Q = _ec_add(Q, P, A, p)
        if Q is None or Q[1] == 0 or Q[0] in baby:
            return None
        baby[Q[0]] = j, Q[1]
    step = _ec_add(_ec_add(Q, Q, A, p), P, A, p)
    G, R, k = None, P, lo + m  # G = (lo + m) P by double-and-add
    while k:
        G = _ec_add(G, R, A, p) if k & 1 else G
        R, k = _ec_add(R, R, A, p), k >> 1
    found = []
    for c in range(lo + m, hi + m + 1, 2 * m + 1):
        if G is None:
            found.append(c)
        elif G[0] in baby:
            j, y = baby[G[0]]
            found.append(c - j if y == G[1] else c + j)
        G = _ec_add(G, step, A, p)
    found = [n for n in found if lo <= n <= hi]
    return found[0] if len(found) == 1 else None


def _ec_add(P, Q, A, p: int):
    """P + Q on y^2 = x^3 + Ax + B over F_p, affine, with None for O."""
    if P is None or Q is None:
        return Q if P is None else P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if x1 == x2:
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


# consecutive primes per Sato-Tate task
SATO_TATE_RUN = 256


def _sato_record(dz: tuple, p: int) -> SatoTateRecord:
    try:
        a_p = trace_of_frobenius(dz, p)
    except BadReduction as e:
        return SatoTateRecord(p, None, None, None, str(e))
    theta = math.acos(a_p / (2.0 * math.sqrt(p)))
    return SatoTateRecord(p, a_p, theta, genus1_lambda(a_p, p), None)


def _sato_records(dz: tuple, ps: list) -> list:
    return [_sato_record(dz, p) for p in ps]


def sato_tate_sweep(dz, p_max: int, workers: int = 1) -> SatoTateReport:
    """Reduce a fixed squarefree integer cubic mod every odd prime p <= p_max
    and record (p, a_p, theta_p, lambda_p); bad-reduction primes are recorded
    as skips. The statistics block carries the running supremum of lambda_p
    and the Kolmogorov-Smirnov distance of the theta sample to the semicircle
    law (the distance statistic is this artifact's choice)."""
    dz = _monic_cubic(dz)
    if cubic_discriminant(dz) == 0:
        raise ValueError("dz must be squarefree over Q")
    if p_max < 3:
        raise ValueError("p_max must be >= 3")
    check_workers(workers)
    ps = [p for p in primes_up_to(p_max) if p > 2]
    runs = [ps[i : i + SATO_TATE_RUN] for i in range(0, len(ps), SATO_TATE_RUN)]
    with _ordered_map(functools.partial(_sato_records, dz), runs, len(runs), workers) as results:
        records = [r for run in results for r in run]
    sup = argmax_p = None
    running_sup = []
    thetas = []
    for r in records:
        if r.skipped is None:
            thetas.append(r.theta_p)
            if sup is None or r.lambda_p > sup:
                sup, argmax_p = r.lambda_p, r.p
        running_sup.append(sup)
    statistics = {
        "sup_lambda": sup,
        "argmax_p": argmax_p,
        "ks_distance": ks_distance(thetas) if thetas else None,
    }
    n = len(thetas)
    return SatoTateReport(tuple(records), n, len(records) - n, tuple(running_sup), statistics)


def semicircle_cdf(theta):
    """CDF of the semicircle angle law (2/pi) sin^2 theta on [0, pi]:
    F(theta) = (theta - sin theta cos theta) / pi."""
    arr = np.asarray(theta, dtype=float)
    if np.any(arr < 0) or np.any(arr > math.pi):
        raise ValueError("theta out of range [0, pi]")
    out = (arr - np.sin(arr) * np.cos(arr)) / math.pi
    return float(out) if np.isscalar(theta) or arr.ndim == 0 else out


def ks_distance(sample) -> float:
    """One-sample Kolmogorov-Smirnov sup-distance of the angles to the
    semicircle CDF."""
    xs = np.sort(np.asarray(sample, dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("empty sample")
    F = semicircle_cdf(xs)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))
