"""Family sweeps over discriminants.

Two families are swept: fixed q with D running over all monic squarefree
polynomials of odd degree (Newman constants should creep up to 0 as the genus
grows), and a fixed integer cubic reduced modulo every odd prime p, where the
genus-1 closed form ties Lambda to the Frobenius trace a_p and the angle
statistics follow the semicircle law.

The fixed-q sweep runs in tasks of SWEEP_SPAN consecutive indices of one
degree: the explicit formula (lfunction.family_coefficients, in blocks of at
most FAMILY_CHUNK, fewer where the roots are many, from
lfunction.family_tables) gives c_0..c_g and the squarefree mask for the
whole task, and the estimator runs once per task on the Phi array
(lfunction.phi_rows) of its distinct c_0..c_g, building no FpPolynomial or
LFunctionData per D. An estimate depends on D only through its L-polynomial (q
and c_0..c_g), and a fixed-q family has far fewer of those than discriminants,
so each worker solves every distinct L-polynomial once per sweep: a memo of at
most MEMO_SIZE results, keyed on c_0..c_g and emptied when a sweep starts,
serves the repeats, and a task returns one SweepBlock: its squarefree indices,
its distinct keys, the estimator's result row for each (an array of kind
codes, values and brackets, as newman's block estimators return them) with
the messages of the keys that ended in an error, and each row's key. The
sweep is a stream of blocks: each goes to the caller's
on_block, which can write all its rows at once, and is dropped. Only the
bests, found in numpy, become SweepItems (SweepBlock.items builds a row's
NewmanEstimate with the method's converter), and the SweepReport keeps only
counts and bests, so memory does not grow with the family. The Sato-Tate sweep
of a monic integer cubic keeps every prime's record in its SatoTateReport, in
plain integers: p is bad exactly when it divides the discriminant, and a_p
comes from baby-step giant-step on the curve or its twist, O(p^(1/4)) group
steps, run in lockstep over numpy lanes (_bsgs_lanes). A task is a run of
SATO_TATE_RUN consecutive good primes, and it finishes every prime of its
run: up to four kernel passes, then the O(p) point count for small p and
for any prime the passes left open.
A sweep forks a pool only when each of its processes gets POOL_MIN_TASKS
tasks; a smaller sweep runs in-process.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .finite_field import check_odd_prime, legendre_table
from .fp_poly import _monic_rows
from .lfunction import (
    FAMILY_CHUNK,
    NumericalError,
    complete_coefficients,
    family_coefficients,
    family_tables,
    phi_rows,
)
from .newman import (
    NewmanEstimate,
    bisect_estimates,
    double_zero_block,
    double_zero_estimates,
    genus1_lambda,
    lambda_bisect_block,
)

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


_BAD_REDUCTION = "D must be squarefree"


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
    its squarefree D of one degree (int64, increasing), c the task's distinct
    c_0..c_g (tuples, the memo's keys: the half of the coefficients that the
    CSV prints), results the method's estimator result row for each (a
    newman.RESULT array: kind code, value and bracket, NaN where there is
    none), errors the message of each key that ended in an error (its value
    NaN), and which[i] is the key of row ks[i]."""

    q: int
    degree: int
    method: str
    ks: np.ndarray
    which: np.ndarray
    c: list
    results: np.ndarray
    errors: dict

    def items(self, rows=slice(None)) -> list:
        """The SweepItems of the given rows (a slice or index array, all by
        default), in order, each estimate from the method's converter: c
        completed to c_0..c_2g, and an error as the text "<Type>: <message>",
        with c and estimate None."""
        ks = self.ks[rows]
        d_coeffs = _monic_rows(self.q, self.degree, ks).tolist()
        which = self.which[rows].tolist()
        errors = {j: self.errors[i] for j, i in enumerate(which) if i in self.errors}
        convert = bisect_estimates if self.method == "bisect" else double_zero_estimates
        estimates = convert((self.results[which], errors))
        items = []
        for j, (k, d, e) in enumerate(zip(ks.tolist(), d_coeffs, estimates)):
            error = "%s: %s" % (type(e).__name__, e) if j in errors else None
            c = None if error else complete_coefficients(self.q, self.c[which[j]])
            items.append(SweepItem(self.degree, k, tuple(d), c, None if error else e, error))
        return items


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


# tasks per pool process (_ordered_map): with fewer, the fork and the IPC
# cost more than a second process saves
POOL_MIN_TASKS = 16


@contextmanager
def _ordered_map(fn, tasks, workers: int):
    """fn over the tasks, an iterable read lazily, results in task order: the
    imap of a pool with one process per POOL_MIN_TASKS of the first
    workers * POOL_MIN_TASKS tasks, so min(workers, tasks // POOL_MIN_TASKS)
    processes, or the builtin map when that is at most one. The pool is
    forked, so workers inherit the parent's tables and its emptied memo, and
    it is torn down on any exit, early or raised."""
    tasks = iter(tasks)
    head = list(itertools.islice(tasks, workers * POOL_MIN_TASKS))
    procs = len(head) // POOL_MIN_TASKS
    if procs <= 1:
        yield map(fn, itertools.chain(head, tasks))
        return
    pool = multiprocessing.get_context("fork").Pool(procs)
    try:
        yield pool.imap(fn, itertools.chain(head, tasks))
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
    (number skipped, SweepBlock), one result row per distinct c_0..c_g.

    Every estimator reads D only through (q, c_0..c_g), so each distinct
    L-polynomial is solved once per process and sweep: a key the memo holds
    reuses its result row and error message, and the other keys go to the
    estimator (lambda_bisect_block or double_zero_block, on their phi_rows
    array) in one call, of at most SWEEP_SPAN rows; c_0..c_2g is completed
    only for a row that reaches bisection's repeated-root test. q and the
    method are fixed for the memo's lifetime, since sweep_fixed_q empties it
    at the start. A row's result does not depend on the rest of its block,
    so a reused result is the one a fresh solve gives. The memo keeps the
    last MEMO_SIZE keys inserted.
    """
    q, degree, lo, hi, method = args
    c_half, squarefree = family_coefficients(q, degree, lo, hi)
    ks = np.flatnonzero(squarefree) + lo
    rows = c_half[squarefree]
    order = np.lexsort(rows.T[::-1])  # by c_0, then c_1, ...: np.unique's order
    # a key starts at each sorted row unlike the one before (an empty task has none)
    new = np.r_[True, (np.diff(rows[order], axis=0) != 0).any(axis=1)][: len(rows)]
    distinct, which = rows[order][new], (np.cumsum(new) - 1)[np.argsort(order)]
    keys = list(map(tuple, distinct.tolist()))
    # take the hits before inserting: an eviction could drop one of them
    entries = [_memo.get(key) for key in keys]  # (result row, error message or None)
    fresh = [i for i, e in enumerate(entries) if e is None]
    phi = phi_rows(q, distinct[fresh])
    if method == "bisect":
        solved, errors = lambda_bisect_block(phi, lambda j: complete_coefficients(q, keys[fresh[j]]))
    else:
        solved, errors = double_zero_block(phi)
    for j, (i, r) in enumerate(zip(fresh, solved.tolist())):
        while len(_memo) >= MEMO_SIZE:
            del _memo[next(iter(_memo))]
        _memo[keys[i]] = entries[i] = r, errors.get(j)
    results = np.array([r for r, _ in entries], solved.dtype)
    errors = {i: m for i, (_, m) in enumerate(entries) if m is not None}
    return hi - lo - len(ks), SweepBlock(q, degree, method, ks, which, keys, results, errors)


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
    SweepItem. The tasks run in a forked pool only when each process gets
    POOL_MIN_TASKS of them (_ordered_map), else in this process.
    """
    start = check_sweep(q, max_genus, method, start, workers)
    # forked workers copy the memo (for this q and method only) and the tables
    _memo.clear()
    for degree in range(start[0], 2 * max_genus + 2, 2):
        family_tables(q, degree)
    tasks = _chunk_tasks(q, max_genus, method, start)
    processed = 0
    skipped = 0
    best_per_genus: dict = {}
    with _ordered_map(_sweep_chunk, tasks, workers) as results:
        for n_skipped, block in results:
            skipped += n_skipped
            processed += len(block.ks)
            if on_block is not None:
                on_block(block)
            # the block's best is its first row of largest value; rows
            # without a value (an error or no bound) never count
            values = block.results["value"]
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
    prime p: the sweep's task (_traces) on a run of one prime, so by
    baby-step giant-step for p > BSGS_MIN_P, else, and when that gives up,
    by point counting. A call costs 1-2.5 ms of numpy passes, most of it
    fixed; sweeps send whole runs of primes instead.

    BadReduction exactly when p divides the discriminant of dz, i.e. when
    dz mod p has a repeated root, and NumericalError if the output breaks
    the Hasse bound |a_p| < 2 sqrt(p).
    """
    dz = _monic_cubic(dz)
    check_odd_prime(p)
    if cubic_discriminant(dz) % p == 0:
        raise BadReduction(_BAD_REDUCTION)
    return _traces(dz, [p])[0]


def _traces(dz: tuple, ps: list) -> list:
    """a_p at each odd prime of ps, all of good reduction for the monic cubic
    dz (not checked again), in the order of ps: by _bsgs_traces for
    p > BSGS_MIN_P, by the point count for the rest and for the primes it
    leaves open. The first a_p that breaks the Hasse bound raises
    NumericalError."""
    big = [p for p in ps if p > BSGS_MIN_P]
    found = dict(zip(big, _bsgs_traces(dz, big)))
    counted = [p for p in ps if found.get(p) is None]
    found.update((p, _trace_by_count([v % p for v in dz], p)) for p in counted)
    for p in ps:
        if found[p] ** 2 >= 4 * p:
            raise NumericalError("Hasse bound violated: a_p=%d at p=%d" % (found[p], p))
    return [found[p] for p in ps]


def _trace_by_count(coeffs, p: int) -> int:
    """-sum_a legendre(f(a)) over F_p, f of ascending coefficients coeffs."""
    a = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for coef in reversed(coeffs):
        vals = (vals * a + coef) % p
    return -int(legendre_table(p)[vals].sum())


def _bsgs_traces(dz: tuple, ps: list) -> list:
    """a_p at each prime p > 3 of ps by passes of the lockstep kernel
    _bsgs_lanes over the usable points of each prime, or None where none of
    them decides; a point x0 is usable when x0 <= BSGS_TRIES and f(x0) != 0,
    for the cubic mod p shifted to f = x^3 + Ax + B (on x^3 - x, f(1) = 0 at
    every p).

    A pass tries the usable points s..4s - 3 of the primes still open, from
    s = 1, then the next s: 1, 2-5, 6-21, 22-40. A pass of a few lanes
    costs a fifth of a pass of 512, so a prime that needs 22 points takes
    four passes, not 22. Any lane that decides gives the true a_p, so which
    point of a prime decides does not change the output. Arrays are int64
    for p < 2^31, which keeps every product of two residues below 2^62, and
    Python ints (object arrays) through the same code otherwise.
    """
    if not ps:
        return []
    p = np.array(ps, dtype=np.int64 if max(ps) < 2**31 else object)
    a0, a1, a2 = (np.array([v % q for q in ps], dtype=p.dtype) for v in dz[:3])
    # x -> x - a2/3, with 1/3 = (p + 1)/3 or (2p + 1)/3
    shift = a2 * np.where(p % 3 == 1, (2 * p + 1) // 3, (p + 1) // 3) % p
    A = (a1 - 3 * (shift * shift % p)) % p
    B = (2 * (shift * shift % p * shift % p) - a1 * shift + a0) % p
    x0 = np.arange(1, BSGS_TRIES + 1).astype(p.dtype)[:, None]
    f = (x0 * x0 * x0 + A * x0 + B) % p
    rank = np.cumsum(f != 0, axis=0)  # x0 is the rank-th usable point of its prime
    a_p = np.zeros_like(p)
    open_ = np.ones(len(ps), dtype=bool)
    s = 1
    while True:
        t, i = np.nonzero((f != 0) & (rank >= s) & (rank <= 4 * s - 3) & open_)
        if not len(i):
            break
        a, decided = _bsgs_lanes(p[i], A[i], x0[t, 0], f[t, i])
        a_p[i[decided]] = a[decided]
        open_[i[decided]] = False
        s = 4 * s - 2
    return [None if o else int(a) for a, o in zip(a_p.tolist(), open_.tolist())]


def _bsgs_lanes(p, A, x0, d) -> tuple:
    """Baby-step giant-step in lockstep over lanes (p, x0): (a_p, decided),
    arrays over the lanes. Lane i takes the point (d x0, d^2), d = f(x0) != 0
    for the shifted cubic f = x^3 + Ax + B mod p, on Y^2 = X^3 + A d^2 X +
    B d^3: the curve if d is a square, else its twist, with p + 1 + a_p
    points; so a_p = chi(d) (p + 1 - N) when N is the one order in the Hasse
    interval [lo, hi] = [p + 1 - r, p + 1 + r], r = isqrt(4p), that kills
    the point.

    With m = isqrt(r), the baby steps jP, j = 1..m, are keyed on x; a giant
    step cP at x(jP) names N = c -+ j by the sign of y, cP = O names N = c,
    and c moves by 2m + 1 from lo + m past hi. A lane decides when exactly
    one N of [lo, hi] is named. A baby step at O, at y = 0 or on a repeated
    x means an order <= 2m, shared by several N of the interval (width
    >= 4m), and gives the lane up. Points are projective (X : Y : Z), O
    exactly when Z = 0, so no step inverts: one normalisation (_inv_rows)
    takes every baby and giant point to x = X/Z at once, and one sort of the
    keys lane * max(p) + x, searched by every giant, replaces a per-prime
    table.
    """
    n = len(p)
    lanes = np.arange(n)
    P = (d * x0 % p, d * d % p, np.ones_like(p))
    a = A * (d * d % p) % p
    r = np.array([math.isqrt(4 * v) for v in p.tolist()], dtype=np.int64)
    m = np.array([math.isqrt(v) for v in r.tolist()], dtype=np.int64)
    lo, hi = p + 1 - r, p + 1 + r
    M = int(m.max())
    baby = [P]
    for _ in range(M):
        baby.append(_ec_add_lanes(baby[-1], P, a, p))
    Xb, Yb, Zb = map(np.stack, zip(*baby))  # row j - 1 holds jP, j = 1..M + 1
    del baby  # the stacks are a copy; this list and giant's add 1 MB to the peak at 512 lanes
    step = _ec_add_lanes(
        (Xb[m - 1, lanes], Yb[m - 1, lanes], Zb[m - 1, lanes]),
        (Xb[m, lanes], Yb[m, lanes], Zb[m, lanes]),
        a,
        p,
    )  # (2m + 1) P
    K = int((2 * r // (2 * m + 1)).max()) + 1
    giant = [_ec_mul_lanes(lo + m, (Xb, Yb, Zb), a, p)]
    for _ in range(K - 1):
        giant.append(_ec_add_lanes(giant[-1], step, a, p))
    Xg, Yg, Zg = map(np.stack, zip(*giant))  # row k holds c P, c = lo + m + k (2m + 1)
    del giant
    c = lo + m + np.arange(K)[:, None] * (2 * m + 1)
    inv = _inv_rows(np.concatenate((Zb[:M], Zg)), p)
    xb, xg = Xb[:M] * inv[:M] % p, Xg * inv[M:] % p

    within = np.arange(1, M + 1)[:, None] <= m
    gave_up = (((Zb[:M] == 0) | (Yb[:M] == 0)) & within).any(axis=0)
    bj, bl = np.nonzero(within)
    width = int(p.max())
    keys = bl.astype(p.dtype) * width + xb[bj, bl]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    gave_up[bl[order[1:][keys[1:] == keys[:-1]]]] = True

    gk, gl = np.nonzero(Zg != 0)
    gkeys = gl.astype(p.dtype) * width + xg[gk, gl]
    at = np.minimum(np.searchsorted(keys, gkeys), len(keys) - 1)
    hit = keys[at] == gkeys
    gk, gl, b = gk[hit], gl[hit], order[at[hit]]
    j, jl = bj[b], bl[b]
    # same x: the giant is +jP when Y/Z agree, else -jP
    same = (Yb[j, jl] * Zg[gk, gl] - Yg[gk, gl] * Zb[j, jl]) % p[gl] == 0
    ok, ol = np.nonzero(Zg == 0)
    cand_l = np.concatenate((gl, ol))
    cand = np.concatenate((c[gk, gl] + np.where(same, -(j + 1), j + 1), c[ok, ol]))
    inside = (cand >= lo[cand_l]) & (cand <= hi[cand_l])
    cand_l, cand = cand_l[inside], cand[inside]
    decided = (np.bincount(cand_l, minlength=n) == 1) & ~gave_up
    N = np.zeros_like(p)
    N[cand_l] = cand
    chi = np.where(_pow_lanes(d, (p - 1) // 2, p) == 1, 1, -1)
    return chi * (p + 1 - N), decided


def _pow_lanes(base, e, p):
    """base ** e mod p elementwise, e and p one per lane (the last axis)."""
    out = np.ones_like(base)
    for i in range(int(e.max()).bit_length()):
        bit = (e >> i) & 1 == 1
        out = np.where(bit, out * base % p, out)
        base = base * base % p
    return out


def _inv_rows(Z, p):
    """1/Z mod p entrywise for Z of shape (rows, lanes), with one Fermat
    power per lane: Montgomery's trick along the rows. Entries Z = 0 (the
    point O) are skipped and left meaningless."""
    Z = np.where(Z == 0, 1, Z)
    prefix = [Z[0]]
    for z in Z[1:]:
        prefix.append(prefix[-1] * z % p)
    t = _pow_lanes(prefix[-1], p - 2, p)
    inv = [None] * len(Z)
    for i in range(len(Z) - 1, 0, -1):
        inv[i] = t * prefix[i - 1] % p
        t = t * Z[i] % p
    inv[0] = t
    return np.stack(inv)


def _ec_add_lanes(P1, P2, a, p) -> tuple:
    """P1 + P2 on Y^2 = X^3 + aX + b, lane by lane, projective, with O
    exactly when Z = 0 (add-1998-cmo-2 of the Explicit-Formulas Database,
    which gives O for P1 = -P2); O operands and P1 = P2 are taken lane by
    lane. Products of two residues stay below 2^62 and sums of two below
    2^63, so int64 lanes reduce only where that bound needs it."""
    X1, Y1, Z1 = P1
    X2, Y2, Z2 = P2
    Y1Z2 = Y1 * Z2 % p
    X1Z2 = X1 * Z2 % p
    Z1Z2 = Z1 * Z2 % p
    u = (Y2 * Z1 - Y1Z2) % p
    v = (X2 * Z1 - X1Z2) % p
    vv = v * v % p
    vvv = v * vv % p
    R = vv * X1Z2 % p
    W = (u * u % p * Z1Z2 - vvv - 2 * R) % p
    out = (v * W % p, (u * (R - W) - vvv * Y1Z2) % p, vvv * Z1Z2 % p)
    if not (Z1Z2 * v).all():
        same = (u == 0) & (v == 0)
        if same.any():
            out = _select(same, _ec_dbl_lanes(P1, a, p), out)
        out = _select(Z1 == 0, P2, _select(Z2 == 0, P1, out))
    return out


def _ec_dbl_lanes(P, a, p) -> tuple:
    """2P on Y^2 = X^3 + aX + b, lane by lane, projective (dbl-2007-bl);
    O and the points with y = 0 go to Z = 0."""
    X, Y, Z = P
    w = (a * (Z * Z % p) + 3 * (X * X % p)) % p
    s = 2 * Y * Z % p
    ss = s * s % p
    R = Y * s % p
    RR = R * R % p
    B = 2 * (X * R % p)
    h = (w * w - 2 * B) % p
    return h * s % p, (w * (B - h) - 2 * RR) % p, ss * s % p


def _ec_mul_lanes(k, table, a, p) -> tuple:
    """k P lane by lane, k >= 0, from the table of jP, j = 1..J (row j - 1):
    left to right in base 2^w, 2^w - 1 <= J, with one add per digit."""
    w = (len(table[0]) + 1).bit_length() - 1
    lanes = np.arange(len(p))
    G = None
    for i in reversed(range(0, int(k.max()).bit_length(), w)):
        digit = ((k >> i) & (2**w - 1)).astype(np.intp)
        T = tuple(c[digit - 1, lanes] for c in table)
        if G is None:
            G = _select(digit > 0, T, (np.zeros_like(p), np.ones_like(p), np.zeros_like(p)))
            continue
        for _ in range(w):
            G = _ec_dbl_lanes(G, a, p)
        G = _select(digit > 0, _ec_add_lanes(G, T, a, p), G)
    return G


def _select(mask, P, Q) -> tuple:
    return tuple(np.where(mask, x, y) for x, y in zip(P, Q))


# consecutive good primes per Sato-Tate task (_traces): at 256 the passes
# for a run's few open primes cost up to 30% more kernel time, and at 1024
# a pass's arrays add 2.6 MB to the sweep's peak RSS
SATO_TATE_RUN = 512


def sato_tate_sweep(dz, p_max: int, workers: int = 1) -> SatoTateReport:
    """Reduce a fixed squarefree integer cubic mod every odd prime p <= p_max
    and record (p, a_p, theta_p, lambda_p); bad-reduction primes are recorded
    as skips. The statistics block carries the running supremum of lambda_p
    and the Kolmogorov-Smirnov distance of the theta sample to the semicircle
    law (the distance statistic is this artifact's choice). The records, the
    thetas and the running supremum come from one pass over the primes."""
    dz = _monic_cubic(dz)
    disc = cubic_discriminant(dz)
    if disc == 0:
        raise ValueError("dz must be squarefree over Q")
    if p_max < 3:
        raise ValueError("p_max must be >= 3")
    check_workers(workers)
    ps = [p for p in primes_up_to(p_max) if p > 2]
    # each task finishes a run of good primes; the primes come from the
    # sieve and are not checked again
    good = [p for p in ps if disc % p]
    runs = [good[i : i + SATO_TATE_RUN] for i in range(0, len(good), SATO_TATE_RUN)]
    with _ordered_map(functools.partial(_traces, dz), runs, workers) as results:
        traces = iter([a_p for run in results for a_p in run])
    records, thetas, running_sup = [], [], []
    sup = argmax_p = None
    for p in ps:
        if disc % p == 0:
            records.append(SatoTateRecord(p, None, None, None, _BAD_REDUCTION))
        else:
            a_p = next(traces)
            lam = genus1_lambda(a_p, p)
            thetas.append(math.acos(a_p / (2.0 * math.sqrt(p))))
            records.append(SatoTateRecord(p, a_p, thetas[-1], lam, None))
            if sup is None or lam > sup:
                sup, argmax_p = lam, p
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
