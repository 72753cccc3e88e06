"""Family sweeps over discriminants.

Two families are swept: fixed q with D running over all monic squarefree
polynomials of odd degree (Newman constants should creep up to 0 as the genus
grows), and a fixed integer cubic reduced modulo every odd prime p, where the
genus-1 closed form ties Lambda to the Frobenius trace a_p and the angle
statistics follow the semicircle law.

The fixed-q sweep works in blocks of FAMILY_CHUNK consecutive indices of one
degree: the explicit formula (lfunction.family_coefficients) gives c_0..c_g
and the squarefree mask for the whole block, and the estimator runs on each
squarefree D. The reciprocity ladder is not used here; it cross-checks the
explicit formula in the tests. The sweep is a stream: each row goes to the
caller's on_item and is dropped, and its SweepReport keeps only counts and
bests, so memory does not grow with the family. The Sato-Tate sweep keeps
every prime's record in its SatoTateReport.
"""

from __future__ import annotations

import math
import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .finite_field import check_odd_prime
from .fp_poly import monic_by_index, reduce_int_poly
from .lfunction import (
    FAMILY_CHUNK,
    NumericalError,
    complete_coefficients,
    family_coefficients,
    good_pair_check,
    lfunction_from_coefficients,
)
from .newman import NewmanEstimate, double_zero_block, genus1_lambda, lambda_bisect_block

__all__ = [
    "BadReduction",
    "SatoTateRecord",
    "SatoTateReport",
    "SweepItem",
    "SweepReport",
    "F3_GENUS_SERIES",
    "check_sweep",
    "cubic_discriminant",
    "good_pair_check",
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
    """The reduction of an integer polynomial mod p is not a good pair."""


@dataclass(frozen=True)
class SweepItem:
    """One discriminant's result inside a fixed-q sweep."""

    degree: int
    index: int
    d_coeffs: tuple
    c: tuple
    estimate: NewmanEstimate | None
    error: str | None = None


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
    """Outcome of a fixed-q sweep. Its rows went to on_item as they came and
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
    argmax_p, ks_distance, processed, skipped)."""

    items: tuple
    processed: int
    skipped: int
    running_sup: tuple
    statistics: dict


def primes_up_to(n: int) -> list:
    if n < 2:
        return []
    mark = bytearray(n + 1)
    out = []
    for v in range(2, n + 1):
        if not mark[v]:
            out.append(v)
            for w in range(v * v, n + 1, v):
                mark[w] = 1
    return out


@contextmanager
def _ordered_map(fn, tasks, workers: int, chunksize: int = 1):
    """fn over tasks, results in task order: the builtin map for one worker,
    otherwise the imap of a pool of that many processes, which is torn down
    on exit, also when the caller stops early or raises."""
    if workers <= 1:
        yield map(fn, tasks)
        return
    pool = multiprocessing.Pool(workers)
    try:
        yield pool.imap(fn, tasks, chunksize)
    finally:
        pool.terminate()
        pool.join()


def _sweep_chunk(args):
    """Estimates for the squarefree D with indices lo <= k < hi of one degree:
    (degree, number skipped, rows), each row the SweepItem fields after the
    degree, (index, d_coeffs, c, estimate, error). Either estimator runs on
    the whole block at once (lambda_bisect_block, double_zero_block)."""
    q, degree, lo, hi, method = args
    c_half, squarefree = family_coefficients(q, degree, lo, hi)
    ks = []
    Ls = []
    for k, row, ok in zip(range(lo, hi), c_half.tolist(), squarefree.tolist()):
        if ok:
            ks.append(k)
            D = monic_by_index(q, degree, k)
            Ls.append(lfunction_from_coefficients(q, D, complete_coefficients(q, row)))
    if method == "bisect":
        results = lambda_bisect_block(Ls)
    else:
        results = double_zero_block(Ls)
    rows = []
    for k, L, r in zip(ks, Ls, results):
        if isinstance(r, Exception):
            text = "%s: %s" % (type(r).__name__, r)
            rows.append((k, L.D.coeffs, None, None, text))
        else:
            rows.append((k, L.D.coeffs, L.c, r, None))
    return degree, hi - lo - len(rows), rows


def _chunk_tasks(q: int, max_genus: int, method: str, start: tuple):
    for degree in range(start[0], 2 * max_genus + 2, 2):
        lo = start[1] if degree == start[0] else 0
        for k in range(lo, q**degree, FAMILY_CHUNK):
            yield (q, degree, k, min(k + FAMILY_CHUNK, q**degree), method)


def check_sweep(q: int, max_genus: int, method: str, start: tuple | None) -> tuple:
    """Validate the inputs of sweep_fixed_q, raising ValueError before any
    work, and return the start position, (3, 0) when start is None. A degree
    past the last gives an empty sweep, which is what the resume token of a
    finished sweep names; any other position outside the enumeration is
    rejected."""
    check_odd_prime(q)
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
    on_item=None,
) -> SweepReport:
    """Estimate Lambda_D for every monic squarefree D of odd degree up to
    2*max_genus + 1 over F_q, in enumeration order.

    Deterministic regardless of worker count: each task is a block of
    consecutive indices of one degree, results are consumed in index order,
    and the coefficient arithmetic is exact integer arithmetic.
    start=(degree, index) resumes mid-enumeration at monic_by_index(q,
    degree, index); check_sweep says which inputs are rejected. on_item,
    when given, sees each SweepItem as soon as its turn in the canonical
    order arrives. The sweep keeps no item but the bests of its report, so
    its memory does not grow with the family.
    """
    start = check_sweep(q, max_genus, method, start)
    tasks = _chunk_tasks(q, max_genus, method, start)
    processed = 0
    skipped = 0
    best_per_genus: dict = {}
    with _ordered_map(_sweep_chunk, tasks, workers) as results:
        for degree, n_skipped, rows in results:
            skipped += n_skipped
            processed += len(rows)
            g = (degree - 1) // 2
            for row in rows:
                item = SweepItem(degree, *row)
                if on_item is not None:
                    on_item(item)
                if item.estimate is None or item.estimate.value is None:
                    continue
                cur = best_per_genus.get(g)
                if cur is None or item.estimate.value > cur.estimate.value:
                    best_per_genus[g] = item
    # genera enter the dict in enumeration order and max keeps the first of
    # equal values, so ties go to the first row here too
    best_overall = max(
        best_per_genus.values(), key=lambda it: it.estimate.value, default=None
    )
    return SweepReport(
        processed=processed,
        skipped=skipped,
        best_per_genus=best_per_genus,
        best_overall=best_overall,
    )


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


def trace_of_frobenius(dz, p: int) -> int:
    """a_p of y^2 = dz(T) by point counting: a_p = -sum_a legendre(dz(a)).

    Requires (p, dz mod p) to be a good pair; otherwise BadReduction. The
    Hasse bound |a_p| < 2 sqrt(p) is asserted on every output.
    """
    dz = tuple(int(v) for v in dz)
    Dp = reduce_int_poly(dz, p)
    ok, reason = good_pair_check(p, Dp)
    if not ok:
        raise BadReduction(reason)
    a = np.arange(p, dtype=np.int64)
    tab = np.full(p, -1, dtype=np.int64)
    tab[a * a % p] = 1
    tab[0] = 0
    vals = np.zeros(p, dtype=np.int64)
    for coef in reversed(Dp.coeffs):
        vals = (vals * a + coef) % p
    a_p = -int(tab[vals].sum())
    if a_p * a_p >= 4 * p:
        raise NumericalError("Hasse bound violated: a_p=%d at p=%d" % (a_p, p))
    return a_p


def _sato_record(dz: tuple, p: int) -> SatoTateRecord:
    try:
        a_p = trace_of_frobenius(dz, p)
    except BadReduction as e:
        return SatoTateRecord(p, None, None, None, str(e))
    theta = math.acos(a_p / (2.0 * math.sqrt(p)))
    return SatoTateRecord(p, a_p, theta, genus1_lambda(a_p, p), None)


def _sato_task(args):
    return _sato_record(*args)


def sato_tate_sweep(dz, p_max: int, workers: int = 1) -> SatoTateReport:
    """Reduce a fixed squarefree integer cubic mod every odd prime p <= p_max
    and record (p, a_p, theta_p, lambda_p); bad-reduction primes are recorded
    as skips. The statistics block carries the running supremum of lambda_p
    and the Kolmogorov-Smirnov distance of the theta sample to the semicircle
    law (the distance statistic is this artifact's choice)."""
    dz = tuple(int(v) for v in dz)
    while dz and dz[-1] == 0:
        dz = dz[:-1]
    if len(dz) != 4:
        raise ValueError("dz must have degree 3")
    if cubic_discriminant(dz) == 0:
        raise ValueError("dz must be squarefree over Q")
    if p_max < 3:
        raise ValueError("p_max must be >= 3")
    ps = [p for p in primes_up_to(p_max) if p > 2]
    tasks = [(dz, p) for p in ps]
    with _ordered_map(_sato_task, tasks, workers, chunksize=64) as results:
        records = list(results)
    sup = None
    argmax_p = None
    running_sup = []
    processed = 0
    skipped = 0
    thetas = []
    for r in records:
        if r.skipped is not None:
            skipped += 1
        else:
            processed += 1
            thetas.append(r.theta_p)
            if sup is None or r.lambda_p > sup:
                sup = r.lambda_p
                argmax_p = r.p
        running_sup.append(sup)
    ks = ks_distance(thetas) if thetas else None
    return SatoTateReport(
        items=tuple(records),
        processed=processed,
        skipped=skipped,
        running_sup=tuple(running_sup),
        statistics={
            "sup_lambda": sup,
            "argmax_p": argmax_p,
            "ks_distance": ks,
            "processed": processed,
            "skipped": skipped,
        },
    )


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
