"""Family sweeps, elliptic-curve traces, and angle-distribution statistics."""

import math
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from ffnewman import families, newman
from ffnewman.families import (
    F3_GENUS_SERIES,
    BadReduction,
    cubic_discriminant,
    ks_distance,
    primes_up_to,
    sato_tate_sweep,
    semicircle_cdf,
    sweep_fixed_q,
    trace_of_frobenius,
)
from ffnewman.finite_field import legendre_int
from ffnewman.fp_poly import FpPolynomial
from ffnewman.lfunction import (
    FAMILY_CHUNK,
    LFunctionData,
    NumericalError,
    build_lfunction,
    complete_coefficients,
    family_coefficients,
    family_tables,
    good_pair_check,
    phi_rows,
)
from ffnewman.newman import (
    ERROR,
    RESULT,
    NewmanEstimate,
    bisect_estimates,
    double_zero_block,
    double_zero_estimates,
    double_zero_lower_bound,
    has_repeated_root,
    lambda_bisect,
    lambda_bisect_block,
)

DZ_A = (1, 1, 0, 1)  # y^2 = x^3 + x + 1
DZ_B = (1, 2, 0, 1)  # y^2 = x^3 + 2x + 1
DZ_C = (2, 0, 0, 1)  # y^2 = x^3 + 2


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(2) == [2]
    assert primes_up_to(1) == []


def test_cubic_discriminant_values():
    assert cubic_discriminant(DZ_A) == -31
    assert cubic_discriminant((2, -3, 0, 1)) == 0  # (x-1)^2 (x+2)
    assert cubic_discriminant((-1, 0, 0, 1)) == -27
    with pytest.raises(ValueError):
        cubic_discriminant((1, 1))
    with pytest.raises(ValueError):
        cubic_discriminant((1, 1, 1, 0))


def test_trace_examples():
    assert trace_of_frobenius(DZ_A, 5) == -3
    assert trace_of_frobenius(DZ_B, 3) == -3


def test_trace_by_point_count():
    # independent route: affine point count via the Legendre symbol
    for dz in [DZ_A, DZ_B, DZ_C]:
        for p in [3, 5, 7, 11, 13]:
            ok, _ = good_pair_check(p, FpPolynomial(dz, p))
            if not ok:
                continue
            a = -sum(legendre_int(dz[0] + dz[1] * x + dz[3] * x**3, p) for x in range(p))
            assert trace_of_frobenius(dz, p) == a


def test_trace_bad_reduction():
    # disc(x^3 + x + 1) = -31, so reduction mod 31 acquires a repeated root
    with pytest.raises(BadReduction):
        trace_of_frobenius(DZ_A, 31)
    with pytest.raises(BadReduction):
        trace_of_frobenius(DZ_C, 3)  # x^3 + 2 = (x - 1)^3 mod 3
    with pytest.raises(ValueError):
        trace_of_frobenius(DZ_A, 2)


def test_bad_reduction_is_p_dividing_the_discriminant():
    # the polynomial route is the oracle: a monic cubic at an odd p fails
    # good_pair_check only for a repeated root, and that happens exactly when
    # p | disc; the two disc-0 cubics are bad at every p, x^3 + 3x at p = 3
    for dz in [DZ_A, DZ_B, DZ_C, (2, -3, 0, 1), (0, 0, 0, 1), (0, 0, 3, 1)]:
        disc = cubic_discriminant(dz)
        for p in primes_up_to(500)[1:]:
            ok, reason = good_pair_check(p, FpPolynomial(dz, p))
            assert (disc % p == 0) == (not ok), (dz, p)
            if ok:
                trace_of_frobenius(dz, p)
                continue
            assert reason == "D must be squarefree"
            with pytest.raises(BadReduction, match="^D must be squarefree$"):
                trace_of_frobenius(dz, p)


def test_trace_and_sweep_share_the_cubic_check():
    for dz in [(1, 0, 0, 2), (1, 0, 0, 0, 0, 1), (1, 1)]:
        with pytest.raises(ValueError) as sweep_error:
            sato_tate_sweep(dz, 30)
        with pytest.raises(ValueError) as trace_error:
            trace_of_frobenius(dz, 5)
        assert not isinstance(trace_error.value, BadReduction)
        assert str(trace_error.value) == str(sweep_error.value) == "dz must be monic of degree 3"
    # trailing zeros are dropped, as by the sweep
    for p in [5, 1009]:
        assert trace_of_frobenius((1, 1, 0, 1, 0), p) == trace_of_frobenius(DZ_A, p)


def test_hasse_bound():
    for dz in [DZ_A, DZ_B, DZ_C]:
        for p in primes_up_to(500):
            if p == 2 or cubic_discriminant(dz) % p == 0:
                continue
            a = trace_of_frobenius(dz, p)
            assert a * a < 4 * p


def test_trace_checks_the_hasse_bound(monkeypatch):
    # a trace kernel that breaks the bound is caught, not returned
    real = families._bsgs_traces

    def broken(dz, ps, *rest, **kwargs):
        return [31 if p == 233 else a for p, a in zip(ps, real(dz, ps, *rest, **kwargs))]

    monkeypatch.setattr(families, "_bsgs_traces", broken)
    with pytest.raises(NumericalError) as error:
        trace_of_frobenius(DZ_A, 233)
    assert str(error.value) == "Hasse bound violated: a_p=31 at p=233"
    assert trace_of_frobenius(DZ_A, 239) == real(DZ_A, [239])[0]


def test_trace_equals_minus_signed_c1():
    # reduction identity: a_p = -(-1)^((p-1)/2) c_1 of the reduced pair; the
    # primes near 10^5 (q^2 about 10^10) pin that the int64 Euler kernel of
    # build_lfunction stays exact, against point counting, which shares no
    # code with it
    for dz in [DZ_A, DZ_B, DZ_C]:
        for p in primes_up_to(200) + [99989, 99991, 100003]:
            if p == 2 or cubic_discriminant(dz) % p == 0:
                continue
            D = FpPolynomial(dz, p)
            c1 = build_lfunction(p, D).c[1]
            sign = -1 if p % 4 == 3 else 1
            assert trace_of_frobenius(dz, p) == -sign * c1


# two CM curves (y^2 = x^3 - x with full 2-torsion, y^2 = x^3 + 1 with
# rational 6-torsion), and cubics with a T^2 term, which the route shifts away
BSGS_CURVES = [DZ_A, (0, -1, 0, 1), (1, 0, 0, 1), (-7, 5, -2, 1), (1, 2, 3, 1)]


def count_trace(dz, p):
    return families._trace_by_count([v % p for v in dz], p)


def bsgs_lanes(dz, p, x0s):
    """The kernel's lanes (p, x0) for x0 in x0s with d = f(x0) != 0, f the
    cubic mod p shifted to x^3 + Ax + B: (usable x0s, d, a_p, decided)."""
    a0, a1, a2 = (v % p for v in dz[:3])
    s = a2 * pow(3, -1, p) % p
    A = (a1 - 3 * s * s) % p
    B = (2 * s**3 - a1 * s + a0) % p
    x0 = np.array([x for x in x0s if (x**3 + A * x + B) % p])
    d = (x0**3 + A * x0 + B) % p
    n = len(x0)
    a, decided = families._bsgs_lanes(np.full(n, p), np.full(n, A), x0, d)
    return x0.tolist(), d.tolist(), a.tolist(), decided.tolist()


def test_trace_by_bsgs_matches_point_count():
    # one batched kernel call per curve over every good p above the counting
    # range up to 2*10^4, against the O(p) count; no prime is left open
    for dz in BSGS_CURVES:
        disc = cubic_discriminant(dz)
        ps = [p for p in primes_up_to(20000) if p > families.BSGS_MIN_P and disc % p]
        assert families._bsgs_traces(dz, ps) == [count_trace(dz, p) for p in ps]


def test_bsgs_lane_does_not_depend_on_its_run(monkeypatch):
    rng = np.random.default_rng(7)
    for dz in BSGS_CURVES:
        disc = cubic_discriminant(dz)
        ps = [p for p in primes_up_to(4000) if p > families.BSGS_MIN_P and disc % p]
        run = rng.permutation(ps)[:256].tolist()
        together = families._bsgs_traces(dz, run)
        assert together == [count_trace(dz, p) for p in run]
        for p in run[:4]:
            assert families._bsgs_traces(dz, [p]) == [together[run.index(p)]]
            assert trace_of_frobenius(dz, p) == together[run.index(p)]
    for dz in [DZ_A, (0, -1, 0, 1)]:
        reports = []
        for size in [1, 7, 256]:
            monkeypatch.setattr(families, "SATO_TATE_RUN", size)
            reports.append(sato_tate_sweep(dz, 1000))
        assert reports[0] == reports[1] == reports[2]


def test_sato_tate_sweep_retries_open_primes_together(monkeypatch):
    # one pass per run, then the primes the runs left open share passes
    calls = []
    kernel = families._bsgs_lanes

    def counted(p, *args):
        calls.append(len(p))
        return kernel(p, *args)

    monkeypatch.setattr(families, "_bsgs_lanes", counted)
    monkeypatch.setattr(families, "SATO_TATE_RUN", 64)
    report = sato_tate_sweep((0, -1, 0, 1), 6000)
    runs = -(-sum(r.p > families.BSGS_MIN_P for r in report.items) // 64)
    assert runs < len(calls) <= runs + 3


# x0s at which the scalar route (one point at a time, affine) found a unique
# order, for every x0 <= 40 with f(x0) != 0
DECIDING_X0 = {
    # giants land on O: N - (lo + m) is a multiple of 2m + 1
    (DZ_A, 523): list(range(1, 41)),
    (DZ_A, 3359): [x for x in range(1, 41) if x != 33],
    (DZ_A, 6599): [x for x in range(1, 41) if x not in (6, 13, 14, 19, 36)],
    # f(1) = 0 at every p
    ((0, -1, 0, 1), 233): [7, 9, 11, 13, 16, 18, 21, 24, 26, 33, 38, 40],
    ((0, -1, 0, 1), 239): [4, 7, 10, 12, 13, 15, 16, 18, 20, 21, 24, 25, 26, 27, 28, 29,
                           32, 33, 34, 35, 36, 37],
    ((0, -1, 0, 1), 10007): list(range(2, 41)),
    ((1, 0, 0, 1), 10007): [x for x in range(1, 41) if x != 2],
}


@pytest.mark.parametrize("dz, p", list(DECIDING_X0))
def test_bsgs_lanes_decide_where_the_point_has_a_unique_order(dz, p):
    x0, _, a, decided = bsgs_lanes(dz, p, range(1, 41))
    assert [x for x, ok in zip(x0, decided) if ok] == DECIDING_X0[dz, p]
    assert {v for v, ok in zip(a, decided) if ok} == {count_trace(dz, p)}


def test_bsgs_giant_steps_through_o():
    # at p = 523 and 3359 on x^3 + x + 1 the orders N = p + 1 -+ a_p of the
    # curve and its twist are both giants c = lo + m + k (2m + 1): cP = O
    # there, and the next giant is the step itself; lanes on either decide
    for p in [523, 3359]:
        r = math.isqrt(4 * p)
        m = math.isqrt(r)
        a_p = count_trace(DZ_A, p)
        _, d, a, decided = bsgs_lanes(DZ_A, p, range(1, 41))
        for chi in [1, -1]:
            assert (p + 1 - chi * a_p - (p + 1 - r + m)) % (2 * m + 1) == 0
            assert any(ok and legendre_int(v, p) == chi for v, ok in zip(d, decided))
        assert {v for v, ok in zip(a, decided) if ok} == {a_p}


def test_bsgs_lanes_use_the_first_usable_point():
    # f(1) = 0 for x^3 - x at every p: lanes start at x0 = 2, and the first
    # pass decides most primes
    ps = [p for p in primes_up_to(3000) if p > families.BSGS_MIN_P]
    first = families._bsgs_traces((0, -1, 0, 1), ps, last=1)
    decided = [(p, a) for p, a in zip(ps, first) if a is not None]
    assert len(decided) > len(ps) // 2
    assert all(a == count_trace((0, -1, 0, 1), p) for p, a in decided)


def test_bsgs_lanes_give_up_on_small_order():
    # (2, 3) has order 6 on y^2 = x^3 + 1 over Q, so also mod p: several N of
    # the Hasse interval kill it. The lane (p, x0 = 2) has d = f(2) = 9, a
    # square, and its point (d x0, d^2) = (18, 81) is the image of (2, 3)
    p = 10007
    _, decided = families._bsgs_lanes(np.array([p]), np.array([0]), np.array([2]), np.array([9]))
    assert not decided[0]


@pytest.mark.parametrize(
    "p, traces",
    [
        # the largest int64 lane prime: products of residues just below 2^62
        (2**31 - 1, [60376, 0, 92324, 56950, -20240]),
        # the first prime above 2^31: object arrays of Python ints
        (2147483659, [-27514, 0, -73456, 17780, 55342]),
    ],
)
def test_trace_near_2_to_31(p, traces):
    # pinned to the scalar affine route this kernel replaced
    assert [trace_of_frobenius(dz, p) for dz in BSGS_CURVES] == traces


@pytest.mark.parametrize("give_up", ["tries", "helper"])
def test_trace_falls_back_to_point_count(monkeypatch, give_up):
    ps = [1009, 7919, 50021, 99991, 100003]
    want = {(dz, p): trace_of_frobenius(dz, p) for dz in [DZ_A, DZ_B, DZ_C] for p in ps}
    counted = []
    count_points = families._trace_by_count

    def count(coeffs, p):
        counted.append(p)
        return count_points(coeffs, p)

    monkeypatch.setattr(families, "_trace_by_count", count)
    if give_up == "tries":
        monkeypatch.setattr(families, "BSGS_TRIES", 0)
    else:

        def decide_nothing(p, *args):
            return np.zeros_like(p), np.zeros(len(p), dtype=bool)

        monkeypatch.setattr(families, "_bsgs_lanes", decide_nothing)
    for (dz, p), a in want.items():
        assert trace_of_frobenius(dz, p) == a
    assert counted == [p for _, p in want]


def test_semicircle_cdf():
    assert semicircle_cdf(0.0) == 0.0
    assert semicircle_cdf(math.pi) == pytest.approx(1.0, abs=1e-15)
    assert semicircle_cdf(math.pi / 2.0) == pytest.approx(0.5, abs=1e-15)
    assert semicircle_cdf(math.pi / 4.0) == pytest.approx(
        (math.pi / 4.0 - math.sin(math.pi / 4.0) * math.cos(math.pi / 4.0)) / math.pi,
        abs=1e-15,
    )
    arr = semicircle_cdf(np.array([0.0, math.pi / 2.0, math.pi]))
    assert arr == pytest.approx([0.0, 0.5, 1.0], abs=1e-15)
    with pytest.raises(ValueError):
        semicircle_cdf(-0.1)
    with pytest.raises(ValueError):
        semicircle_cdf(3.2)


def test_ks_distance_basics():
    # single angle at the median: sup distance is 1/2
    assert ks_distance([math.pi / 2.0]) == pytest.approx(0.5, abs=1e-12)
    assert ks_distance([0.0]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        ks_distance([])


def test_ks_distance_of_semicircle_quantiles():
    # angles placed at the law's own quantiles: distance collapses to 1/(2n)
    grid = np.linspace(0.0, math.pi, 200001)
    cdf = semicircle_cdf(grid)
    n = 1000
    sample = np.interp((np.arange(n) + 0.5) / n, cdf, grid)
    assert ks_distance(sample) == pytest.approx(1.0 / (2 * n), abs=1e-4)


def test_sato_tate_sweep_small():
    report = sato_tate_sweep(DZ_A, 100)
    by_p = {r.p: r for r in report.items}
    assert by_p[5].a_p == -3
    assert by_p[5].theta_p == pytest.approx(
        math.acos(-3.0 / (2.0 * math.sqrt(5.0))), abs=1e-12
    )
    assert by_p[5].lambda_p == pytest.approx(
        math.log(3.0 / (2.0 * math.sqrt(5.0))), abs=1e-12
    )
    assert by_p[31].skipped is not None and "squarefree" in by_p[31].skipped
    assert by_p[31].a_p is None
    assert report.skipped == 1
    assert report.processed == len(report.items) - 1
    # statistics match a direct scan of the records
    lambdas = [r.lambda_p for r in report.items if r.lambda_p is not None]
    assert report.statistics["sup_lambda"] == max(lambdas)
    assert report.statistics["ks_distance"] == pytest.approx(
        ks_distance([r.theta_p for r in report.items if r.theta_p is not None]),
        abs=1e-12,
    )
    assert report.statistics["argmax_p"] in {r.p for r in report.items}


def test_sato_tate_lambda_negative_and_sup_monotone():
    report = sato_tate_sweep(DZ_A, 500)
    for r in report.items:
        if r.lambda_p is None:
            continue
        assert r.lambda_p < 0.0
        assert 0.0 < r.theta_p < math.pi
    sups = report.running_sup
    assert all(b >= a for a, b in zip(sups, sups[1:]))


def test_sato_tate_zero_trace_gives_minus_inf():
    # a_p = 0 happens for supersingular primes; lambda is -inf there
    report = sato_tate_sweep(DZ_C, 60)
    zero = [r for r in report.items if r.a_p == 0]
    assert zero, "expected at least one supersingular prime below 60"
    for r in zero:
        assert r.lambda_p == float("-inf")
        assert r.theta_p == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_sato_tate_ks_shrinks_with_range():
    d_small = sato_tate_sweep(DZ_A, 100).statistics["ks_distance"]
    d_large = sato_tate_sweep(DZ_A, 2000).statistics["ks_distance"]
    assert d_large < d_small


def test_sato_tate_rejects_bad_cubic():
    with pytest.raises(ValueError):
        sato_tate_sweep((1, 1), 100)
    with pytest.raises(ValueError):
        sato_tate_sweep((2, -3, 0, 1), 100)  # discriminant 0
    with pytest.raises(ValueError):
        sato_tate_sweep(DZ_A, 2)
    # 2 T^3 + 1 would reduce to a non-monic D at every prime
    for dz in [(1, 0, 0, 2), (1, 0, 0, -1)]:
        with pytest.raises(ValueError, match="monic"):
            sato_tate_sweep(dz, 30)


@pytest.mark.parametrize("workers", [0, -3, families.MAX_WORKERS + 1, 10**6])
def test_sweeps_reject_bad_workers(monkeypatch, pool_starts, workers):
    # rejected before any pool exists, even with a pool for every task
    monkeypatch.setattr(families, "POOL_MIN_TASKS", 1)
    with pytest.raises(ValueError, match="^workers must be 1 to 64, got"):
        sweep_fixed_q(3, 1, workers=workers)
    with pytest.raises(ValueError, match="^workers must be 1 to 64, got"):
        sato_tate_sweep(DZ_A, 30, workers=workers)
    assert pool_starts == []


def sweep_items(*args, **kwargs):
    """(report, every row of the blocks the sweep passed to on_block, as
    SweepItems, in order)."""
    seen = []
    report = sweep_fixed_q(*args, on_block=lambda b: seen.extend(b.items()), **kwargs)
    return report, seen


# (sweep, its number of tasks): the call at a given worker count
POOL_RUNS = {
    ("fixed_q", 1): lambda w: sweep_fixed_q(3, 1, workers=w),
    ("fixed_q", 14): lambda w: sweep_fixed_q(3, 4, workers=w),
    ("sato_tate", 0): lambda w: sato_tate_sweep(DZ_A, 30, workers=w),
    ("sato_tate", 20): lambda w: sato_tate_sweep(DZ_A, 50000, workers=w),
}


@pytest.mark.parametrize(
    "sweep,tasks,workers,floor",
    [
        pytest.param("fixed_q", 1, 2, None, id="fixed_q"),
        pytest.param("sato_tate", 0, 2, None, id="sato_tate"),
        pytest.param("fixed_q", 14, 2, None, id="fixed_q-14"),
        pytest.param("sato_tate", 20, 2, None, id="sato_tate-20"),
        pytest.param("fixed_q", 14, 2, 7, id="fixed_q-14-floor7"),
        pytest.param("fixed_q", 14, 2, 8, id="fixed_q-14-floor8"),
        pytest.param("fixed_q", 14, 3, 4, id="fixed_q-14-w3-floor4"),
        pytest.param("fixed_q", 14, 3, 1, id="fixed_q-14-w3-floor1"),
        pytest.param("sato_tate", 20, 2, 10, id="sato_tate-20-floor10"),
        pytest.param("sato_tate", 20, 3, 8, id="sato_tate-20-w3-floor8"),
    ],
)
def test_sweep_pool_size_follows_task_count(monkeypatch, pool_starts, sweep, tasks, workers, floor):
    # a pool has min(workers, tasks // POOL_MIN_TASKS) processes, and none
    # when that is at most one: the benchmark's 14-task sweep and 20-run
    # Sato-Tate sweep run in-process at the default floor
    if floor is not None:
        monkeypatch.setattr(families, "POOL_MIN_TASKS", floor)
    procs = min(workers, tasks // families.POOL_MIN_TASKS)
    assert POOL_RUNS[sweep, tasks](workers).processed > 0
    assert pool_starts == ([procs] if procs > 1 else [])


def test_sweep_fixed_q_genus1():
    report, items = sweep_items(3, 1)
    # 27 monic cubics over F_3, 9 of them with a repeated factor
    assert report.skipped == 9
    assert report.processed == 18
    assert len(items) == 18
    assert all(it.estimate is not None and it.error is None for it in items)
    best = report.best_overall
    assert best.estimate.value == pytest.approx(-0.14384103622589045, abs=1e-9)
    # the best cubics are exactly those with |c_1| = 3
    assert abs(best.c[1]) == 3
    assert report.best_per_genus[1].estimate.value == best.estimate.value


def test_sweep_methods_agree_on_cubics():
    _, by_dz = sweep_items(3, 1, method="double_zero")
    _, by_bisect = sweep_items(3, 1, method="bisect")
    assert len(by_dz) == len(by_bisect) == 18
    for a, b in zip(by_dz, by_bisect):
        assert a.d_coeffs == b.d_coeffs
        if a.estimate is None or a.estimate.kind == "no_bound":
            continue
        if a.estimate.value == float("-inf"):
            assert b.estimate.value == float("-inf")
        else:
            assert a.estimate.value == pytest.approx(b.estimate.value, abs=1e-6)


def same_counts_and_bests(a, b):
    assert (a.processed, a.skipped) == (b.processed, b.skipped)
    assert a.best_per_genus == b.best_per_genus
    assert a.best_overall == b.best_overall


def test_sweep_workers_deterministic(forked):
    one, one_items = sweep_items(3, 2, workers=1)
    two, two_items = sweep_items(3, 2, workers=2)
    assert len(one_items) == len(two_items) == one.processed
    for a, b in zip(one_items, two_items):
        assert (a.degree, a.index, a.d_coeffs, a.c) == (b.degree, b.index, b.d_coeffs, b.c)
        if a.estimate is None:
            assert b.estimate is None
        else:
            assert a.estimate.kind == b.estimate.kind
            assert a.estimate.value == b.estimate.value
    same_counts_and_bests(one, two)


def test_sweep_builds_chi_tables_before_forking(forked):
    # forked workers share the parent's tables instead of each building them
    family_tables.cache_clear()
    sweep_fixed_q(3, 2, workers=2)
    info = family_tables.cache_info()
    assert info.currsize == 2
    family_tables(3, 3)
    family_tables(3, 5)
    assert family_tables.cache_info().hits == info.hits + 2


def test_sweep_resume_matches_suffix():
    _, full = sweep_items(3, 2)
    start = (5, 100)
    _, tail = sweep_items(3, 2, start=start)
    expect = [it for it in full if (it.degree, it.index) >= start]
    assert len(tail) == len(expect) > 0
    for a, b in zip(expect, tail):
        assert (a.degree, a.index, a.c) == (b.degree, b.index, b.c)


def test_sweep_workers_deterministic_across_chunks(forked):
    # genus <= 3 spans several FAMILY_CHUNK blocks per degree
    one, one_items = sweep_items(3, 3, workers=1)
    two, two_items = sweep_items(3, 3, workers=2)
    assert len(one_items) > FAMILY_CHUNK
    assert one_items == two_items
    same_counts_and_bests(one, two)


def test_sweep_resume_mid_chunk_matches_suffix():
    start = (7, 700)
    assert start[1] % FAMILY_CHUNK != 0
    _, full = sweep_items(3, 3)
    tail, tail_items = sweep_items(3, 3, start=start)
    expect = [it for it in full if (it.degree, it.index) >= start]
    assert tail_items == expect
    assert tail.skipped == 3**7 - start[1] - len(expect)


@pytest.mark.parametrize(
    "q,max_genus,method,start",
    [(3, 3, "double_zero", None), (3, 3, "double_zero", (7, 700)), (5, 2, "bisect", None)],
)
def test_sweep_rows_do_not_depend_on_task_span(monkeypatch, q, max_genus, method, start):
    # a task of one FAMILY_CHUNK, or of 300 indices, which cuts a
    # family_coefficients block and the resume start's task, gives the
    # default span's rows and report
    expect = sweep_items(q, max_genus, method=method, start=start)
    for span in (FAMILY_CHUNK, 300):
        monkeypatch.setattr(families, "SWEEP_SPAN", span)
        for workers in (1, 2):
            assert sweep_items(q, max_genus, method=method, start=start, workers=workers) == expect


def test_sweep_solves_each_task_in_one_estimator_call(monkeypatch):
    # pins the amortisation: the estimator costs per call, so a task spans
    # several coefficient blocks and solves its fresh keys in one call. Over
    # degrees 3, 5, 7 and 9 of F_3 that is 1 + 1 + 2 + 10 tasks
    calls = []
    block = families.double_zero_block

    def counting(phi):
        calls.append(len(phi))
        return block(phi)

    monkeypatch.setattr(families, "double_zero_block", counting)
    report = sweep_fixed_q(3, 4, workers=1)
    assert report.processed == 14760
    assert 0 < len(calls) <= 14


def test_sweep_keeps_only_the_best_items():
    # a stream: once on_block has seen a block, the sweep keeps none of it
    # alive; the report holds its bests as SweepItems of their own
    refs, rows = [], []

    def on_block(block):
        assert all(r() is None for r in refs)
        refs.append(weakref.ref(block))
        rows.extend(block.items())

    report = sweep_fixed_q(3, 2, on_block=on_block)
    assert len(rows) == report.processed == 180
    assert refs and all(r() is None for r in refs)
    bests = list(report.best_per_genus.values()) + [report.best_overall]
    assert all(b in rows and all(it is not b for it in rows) for b in bests)


class _Stop(Exception):
    pass


def test_bisect_sweep_records_exact_double_zero_without_warning():
    # T^5 + 4T over F_5 has an exact double zero of Xi_0; it sits at index 500
    seen = []

    def stop_after_first(block):
        seen.extend(block.items(slice(0, 1)))
        raise _Stop

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(_Stop):
            sweep_fixed_q(5, 2, method="bisect", start=(5, 500), on_block=stop_after_first)
    assert [str(w.message) for w in caught] == []
    (item,) = seen
    assert (item.degree, item.index, item.d_coeffs) == (5, 500, (0, 4, 0, 0, 0, 1))
    assert item.estimate.kind == "exact"
    assert item.estimate.value == 0.0
    assert "double zero" in item.estimate.notes


@pytest.mark.parametrize(
    "max_genus,method,one_row",
    [(3, "double_zero", double_zero_lower_bound), (2, "bisect", lambda_bisect)],
)
def test_sweep_builds_no_per_row_objects(monkeypatch, max_genus, method, one_row):
    # a family block stays arrays from family_coefficients to the estimator
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep built a per-row object")

    with monkeypatch.context() as m:
        m.setattr(FpPolynomial, "__post_init__", refuse)
        m.setattr(LFunctionData, "__init__", refuse)
        report, items = sweep_items(3, max_genus, method=method, workers=1)
    assert len(items) == report.processed
    assert report.processed + report.skipped == sum(
        3**d for d in range(3, 2 * max_genus + 2, 2)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for item in items:
            L = build_lfunction(3, FpPolynomial(item.d_coeffs, 3))
            assert (item.c, item.estimate) == (L.c, one_row(L)), item
    # with no on_block, a NewmanEstimate is built only for a best (one per
    # SweepItem), and c_0..c_2g is completed only for a best and for a row
    # that reaches bisection's exact repeated-root test
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    with monkeypatch.context() as m:
        for cls in (NewmanEstimate, families.SweepItem):
            m.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
        m.setattr(families, "complete_coefficients", counting("complete", complete_coefficients))
        m.setattr(newman, "has_repeated_root", counting("repeated", has_repeated_root))
        assert sweep_fixed_q(3, max_genus, method=method, workers=1) == report
    tasks = len(list(families._chunk_tasks(3, max_genus, method, (3, 0))))
    assert 0 < counts["NewmanEstimate"] == counts["SweepItem"] <= tasks
    assert counts["complete"] == counts["repeated"] + counts["SweepItem"]
    assert counts["repeated"] < len({it.c for it in items}) / 4


def one_row_solve(method, q, c_half):
    """(c, estimate, error) of a fresh one-row block solve of c_0..c_g, as a
    sweep row carries them."""
    c = complete_coefficients(q, c_half)
    phi = phi_rows(q, [c_half])
    if method == "bisect":
        (r,) = bisect_estimates(lambda_bisect_block(phi, [c].__getitem__))
    else:
        (r,) = double_zero_estimates(double_zero_block(phi))
    if isinstance(r, Exception):
        return None, None, "%s: %s" % (type(r).__name__, r)
    return c, r, None


def inject_errors(solve):
    """The block estimator solve with every third row of each call made an
    error, with message "row <i>" (kind error, value and bracket NaN)."""

    def failing(phi, *rest):
        out, errors = solve(phi, *rest)
        errors = {**errors, **{i: "row %d" % i for i in range(0, len(out), 3)}}
        out[list(errors)] = ERROR, math.nan, math.nan, math.nan
        return out, errors

    return failing


@pytest.mark.parametrize("method", ["double_zero", "bisect"])
def test_sweep_keeps_each_result_as_the_estimator_returned_it(monkeypatch, method):
    # the memo and each block hold the estimator's own result rows and
    # messages, an error included; only a SweepItem names an error as
    # "<Type>: <message>", from the method's converter
    name = "lambda_bisect_block" if method == "bisect" else "double_zero_block"
    failing = inject_errors(getattr(families, name))
    returned = {}  # Phi row -> (result row bytes, message)

    def recording(phi, *rest):
        out, errors = failing(phi, *rest)
        for i, (p, r) in enumerate(zip(phi.tolist(), out)):
            returned[tuple(p)] = r.tobytes(), errors.get(i)
        return out, errors

    monkeypatch.setattr(families, name, recording)
    blocks = []
    sweep_fixed_q(5, 2, method=method, on_block=blocks.append)

    def held(key, row, message):
        assert returned[tuple(phi_rows(5, [key])[0].tolist())] == (row.tobytes(), message)

    for key, (row, message) in families._memo.items():
        held(key, np.array(row, RESULT), message)
    assert any(b.errors for b in blocks)
    convert = bisect_estimates if method == "bisect" else double_zero_estimates
    for b in blocks:
        for i, key in enumerate(b.c):
            held(key, b.results[i], b.errors.get(i))
        for item, i in zip(b.items(), b.which.tolist()):
            if i in b.errors:
                error = "NumericalError: %s" % b.errors[i]
                assert (item.c, item.estimate, item.error) == (None, None, error)
            else:
                (e,) = convert((b.results[i : i + 1], {}))
                assert item.estimate == e and item.error is None and item.c[: len(b.c[i])] == b.c[i]


@pytest.mark.parametrize("q,max_genus,method", [(5, 2, "bisect"), (3, 3, "double_zero")])
def test_sweep_memo_rows_equal_fresh_one_row_solves(monkeypatch, q, max_genus, method):
    # pins the memo's soundness: a row served from the memo equals a fresh
    # one-row solve of its own c_0..c_g, and each distinct c_0..c_g reaches
    # the estimator once per process
    solved = []
    block = families.lambda_bisect_block if method == "bisect" else families.double_zero_block

    def counting(phi, *rest):
        solved.extend(map(tuple, phi.tolist()))
        return block(phi, *rest)

    monkeypatch.setattr(families, block.__name__, counting)
    report, items = sweep_items(q, max_genus, method=method, workers=1)
    assert len(items) == report.processed
    c_half = {}
    for degree in range(3, 2 * max_genus + 2, 2):
        rows, _ = family_coefficients(q, degree, 0, q**degree)
        c_half[degree] = rows.tolist()
    distinct = set()
    for it in items:
        row = c_half[it.degree][it.index]
        distinct.add(tuple(row))
        assert (it.c, it.estimate, it.error) == one_row_solve(method, q, row), it
    assert len(solved) == len(set(solved)) == len(distinct) < len(items)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_sweep_rows_do_not_depend_on_memo_size(monkeypatch, size):
    # pins the eviction order: a block's hits are taken before its misses are
    # inserted, so a memo this small, which evicts keys the block already
    # matched, still gives the default run's rows (and no KeyError); and
    # pins the bound: sweeps with far more distinct c_0..c_g than MEMO_SIZE
    # leave exactly MEMO_SIZE entries
    runs = [(5, 2, "bisect"), (3, 3, "double_zero")]
    expect = [sweep_items(*run, workers=1)[1] for run in runs]
    monkeypatch.setattr(families, "MEMO_SIZE", size)
    for run, items in zip(runs, expect):
        assert sweep_items(*run, workers=1)[1] == items
        assert len(families._memo) == size


def test_sweep_memo_starts_empty_each_sweep(monkeypatch, forked):
    # pins the memo's scope: the key is c_0..c_g alone, so it holds only for
    # one q and method. The genus-1 rows c_0, c_1 of F_3 recur over F_5 with
    # another L-polynomial, and each method answers its own, so sweeps run
    # back to back in one process must give the rows each gives alone. It
    # also pins that the memo is empty when a pool forks, so workers solve
    # rather than reuse an earlier sweep's entries.
    runs = [(3, 2, "double_zero"), (3, 2, "bisect"), (5, 2, "bisect")]
    alone = []
    for run in runs:
        monkeypatch.setattr(families, "_memo", {})
        alone.append(sweep_items(*run, workers=1)[1])
    ordered_map = families._ordered_map
    at_fork = []

    def recording(*args):
        at_fork.append(len(families._memo))
        return ordered_map(*args)

    monkeypatch.setattr(families, "_ordered_map", recording)
    for run, items in zip(runs, alone):
        assert sweep_items(*run, workers=1)[1] == items
        assert families._memo
    assert sweep_items(*runs[0], workers=2)[1] == alone[0]
    assert at_fork == [0, 0, 0, 0]


def test_sweep_best_per_genus_ordering():
    report = sweep_fixed_q(3, 2)
    b1 = report.best_per_genus[1].estimate.value
    b2 = report.best_per_genus[2].estimate.value
    assert b1 == pytest.approx(-0.14384103622589045, abs=1e-9)
    assert b2 == pytest.approx(-0.027768674321, abs=1e-6)
    assert b2 > b1
    assert report.best_overall.estimate.value == b2


def test_sweep_on_block_callback_order():
    report, seen = sweep_items(3, 1)
    assert len(seen) == report.processed
    # the best is the first row of largest value; rows without one never count
    values = [-math.inf if it.estimate.value is None else it.estimate.value for it in seen]
    assert report.best_overall == seen[values.index(max(values))]
    idx = [it.index for it in seen]
    assert idx == sorted(idx)
    assert len(idx) == 18


def test_sweep_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sweep_fixed_q(4, 1)
    with pytest.raises(ValueError):
        sweep_fixed_q(3, 0)
    with pytest.raises(ValueError):
        sweep_fixed_q(3, 1, method="bogus")


def test_f3_genus_series_is_good_and_spans_genera():
    assert len(F3_GENUS_SERIES) == 7
    for g, coeffs in enumerate(F3_GENUS_SERIES, start=1):
        D = FpPolynomial(coeffs, 3)
        ok, reason = good_pair_check(3, D)
        assert ok, reason
        assert D.degree == 2 * g + 1


def test_sweep_block_rows_expand_alone_as_together():
    # on_block sees each task as one block; its rows expand one at a time
    # to the rows of the whole block, and the report does not depend on
    # whether a callback is given
    blocks = []
    report = sweep_fixed_q(3, 3, start=(7, 700), on_block=blocks.append)
    items = [it for b in blocks for it in b.items()]
    assert [b.items(slice(i, i + 1))[0] for b in blocks for i in range(len(b.ks))] == items
    assert sum(len(b.ks) for b in blocks) == report.processed
    assert len(blocks) == len(list(families._chunk_tasks(3, 3, "double_zero", (7, 700))))
    for b in blocks:
        assert np.all(np.diff(b.ks) > 0) and len(b.which) == len(b.ks)
    same_counts_and_bests(sweep_fixed_q(3, 3, start=(7, 700)), report)


def test_sweep_completes_coefficients_at_most_once_per_task(monkeypatch):
    # entries carry c_0..c_g; c_0..c_2g is built only for a best (at most one
    # per task) and, in a bisect task, for a row that reaches the exact
    # repeated-root test
    calls = []
    complete = families.complete_coefficients

    def counting(*args):
        calls.append(args)
        return complete(*args)

    monkeypatch.setattr(families, "complete_coefficients", counting)
    report = sweep_fixed_q(3, 4, workers=1)
    assert report.processed == 14760
    assert 0 < len(calls) <= len(list(families._chunk_tasks(3, 4, "double_zero", (3, 0)))) == 14
