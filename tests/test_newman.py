"""Lower bounds and exact values for the deformation constant Lambda_D."""

import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from ffnewman import newman
from ffnewman.cli import dataclass_jsonable
from ffnewman.families import F3_GENUS_SERIES
from ffnewman.fp_poly import _gcd, is_squarefree, monic_by_index
from ffnewman.lfunction import (
    NumericalError,
    ZeroSet,
    _colleague_roots,
    build_lfunction,
    complete_coefficients,
    family_coefficients,
    lfunction_from_coefficients,
    phi_rows,
    zeros_at_t,
)
from ffnewman.newman import (
    NewmanEstimate,
    all_zeros_real,
    bisect_estimates,
    double_zero_block,
    double_zero_estimates,
    double_zero_lower_bound,
    has_repeated_root,
    lambda_bisect,
    lambda_bisect_block,
    lambda_exact_genus1,
    stopple_G,
    stopple_data,
    stopple_lower_bound,
    strip_bound,
)

from oracles import P, enumerate_monic, squarefree_monic

SQ5 = math.sqrt(5.0)
D_MAIN = (2, 1, 0, 1, 2, 1)
D_VARIANT = (2, 2, 0, 1, 1, 1)


def L_main():
    return build_lfunction(5, P(D_MAIN, 5))


def stopple_G_direct(gammas, ell_max: int) -> float:
    """Truncated defining sum for G: 2/(gamma_1 - rho)^2 over periodized
    zeros rho = +-gamma_j + 2 pi l, |l| <= ell_max, skipping rho = +-gamma_1.
    Test oracle for the closed form; tail is O(g / ell_max)."""
    g1 = gammas[0]
    total = 0.0
    two_pi = 2.0 * math.pi
    for j, gj in enumerate(gammas):
        for eps in (1.0, -1.0):
            for ell in range(-ell_max, ell_max + 1):
                if j == 0 and ell == 0:
                    continue  # skips both +gamma_1 and -gamma_1
                d = g1 - (eps * gj + two_pi * ell)
                total += 2.0 / (d * d)
    return total


def family(q, degree):
    """LFunctionData of every squarefree D of one degree, in index order."""
    c, squarefree = family_coefficients(q, degree, 0, q**degree)
    return [
        lfunction_from_coefficients(
            q, monic_by_index(q, degree, k), complete_coefficients(q, row)
        )
        for k, (row, ok) in enumerate(zip(c.tolist(), squarefree.tolist()))
        if ok
    ]


def quartic_log_root(phi0):
    # independent route: largest real root of 10 y^4 + 2 phi_1 y + phi_0 with
    # phi_1 = -sqrt 5, via the companion matrix, then its logarithm
    roots = np.roots([10.0, 0.0, 0.0, -2.0 * SQ5, phi0])
    real = [r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0]
    return math.log(max(real))


def test_exact_genus1_value():
    L = build_lfunction(3, P([1, 2, 0, 1], 3))
    e = lambda_exact_genus1(L)
    assert e.kind == "exact"
    assert e.value == pytest.approx(math.log(3.0 / (2.0 * math.sqrt(3.0))), abs=1e-15)
    assert e.value == pytest.approx(-0.14384103622589045, abs=1e-12)


def test_exact_genus1_minus_infinity():
    L = build_lfunction(3, P([0, 1, 0, 1], 3))
    e = lambda_exact_genus1(L)
    assert e.kind == "minus_infinity"
    assert e.value == float("-inf")


def test_exact_genus1_rejects_higher_genus():
    with pytest.raises(ValueError):
        lambda_exact_genus1(L_main())


def test_count_nonzero_phi():
    assert np.count_nonzero(L_main().phi) == 3
    assert np.count_nonzero(build_lfunction(3, P([0, 1, 0, 1], 3)).phi) == 1


def test_all_zeros_real_worked_pair():
    L = L_main()
    assert all_zeros_real(L, 0.0)
    assert all_zeros_real(L, -0.1)
    assert not all_zeros_real(L, -0.25)
    assert not all_zeros_real(L, -0.3)


def test_all_zeros_real_pure_cosine_any_t():
    # a single surviving Fourier mode keeps its zeros real for all t,
    # including t so negative that e^(t n^2) underflows
    L = build_lfunction(3, P([0, 1, 0, 1], 3))
    for t in [0.0, -5.0, -1e6]:
        assert all_zeros_real(L, t)


def test_bisect_worked_pair():
    L = L_main()
    e = lambda_bisect(L)
    assert e.kind == "bisect"
    assert e.value == pytest.approx(-0.1884, abs=5e-4)
    assert e.value == pytest.approx(quartic_log_root(-1.0), abs=1e-8)
    lo, hi = e.bracket
    assert lo <= e.value <= hi
    assert hi - lo <= 2e-10


def test_bisect_variant_pair():
    L = build_lfunction(5, P(D_VARIANT, 5))
    e = lambda_bisect(L)
    assert e.value == pytest.approx(quartic_log_root(1.0), abs=1e-8)
    assert e.value == pytest.approx(-0.4042265776529523, abs=1e-9)


def test_bisect_minus_infinity_is_algebraic():
    e = lambda_bisect(build_lfunction(3, P([0, 1, 0, 1], 3)))
    assert e.kind == "minus_infinity"
    assert e.value == float("-inf")
    assert e.bracket is None


def test_bisect_agrees_with_exact_on_cubics():
    for D in squarefree_monic(3, 3):
        L = build_lfunction(3, D)
        exact = lambda_exact_genus1(L)
        got = lambda_bisect(L)
        if exact.kind == "minus_infinity":
            assert got.kind == "minus_infinity"
        else:
            assert abs(got.value - exact.value) < 1e-6


def test_exact_double_zero_detected():
    # T^5 - T over F_5: Xi_t = 10 e^(4t) cos 2x - 10, double zeros at t = 0
    L = build_lfunction(5, P([0, 4, 0, 0, 0, 1], 5))
    assert L.c == (1, 0, -10, 0, 25)
    assert has_repeated_root(L.c)
    with pytest.warns(UserWarning):
        e = lambda_bisect(L)
    assert e.kind == "exact"
    assert e.value == 0.0
    assert "double zero" in e.notes


def test_double_zero_bound_genus1():
    # c = (1, -3): P(y) = -3 + 2 sqrt3 y^... largest root y* = sqrt3 / 2
    L = build_lfunction(3, P([1, 2, 0, 1], 3))
    e = double_zero_lower_bound(L)
    assert e.kind == "double_zero_lower_bound"
    assert math.exp(e.value) == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-10)
    assert e.value == pytest.approx(lambda_exact_genus1(L).value, abs=1e-9)


def test_double_zero_bound_genus2_example():
    # c = (1, -3, 5) over F_3: P(y) = 5 - 6 sqrt3 y + 6 y^4
    L = build_lfunction(3, P([1, 1, 0, 1, 0, 1], 3))
    e = double_zero_lower_bound(L)
    ystar = math.exp(e.value)
    assert abs(5.0 - 6.0 * math.sqrt(3.0) * ystar + 6.0 * ystar**4) < 1e-9
    assert 0.9 < ystar < 0.95
    assert e.value == pytest.approx(-0.0528, abs=1e-3)


def test_double_zero_bound_worked_pair():
    L = L_main()
    e = double_zero_lower_bound(L)
    assert e.value == pytest.approx(lambda_bisect(L).value, abs=1e-6)


def test_double_zero_bound_no_bound_cases():
    # Phi_0 = 0: P(y) = 2 sqrt3 y^... has no positive root
    L = build_lfunction(3, P([0, 1, 0, 1], 3))
    assert double_zero_lower_bound(L).kind == "no_bound"


def test_double_zero_bound_at_pi():
    # with c_1 > 0 the collision happens at x = pi instead of x = 0
    for D in squarefree_monic(3, 3):
        L = build_lfunction(3, D)
        if L.c[1] <= 0:
            continue
        assert double_zero_lower_bound(L).kind == "no_bound"
        e = double_zero_lower_bound(L, at_pi=True)
        assert e.kind == "double_zero_lower_bound"
        assert e.value == pytest.approx(lambda_exact_genus1(L).value, abs=1e-9)
        break
    else:
        pytest.fail("no cubic with positive c_1 found")


def test_bound_never_exceeds_bisect():
    for q, coeffs in [(5, D_MAIN), (5, D_VARIANT), (3, (1, 1, 0, 1, 0, 1))]:
        L = build_lfunction(q, P(coeffs, q))
        b = lambda_bisect(L)
        dz = double_zero_lower_bound(L)
        if dz.kind == "double_zero_lower_bound":
            assert dz.value <= b.value + 1e-8


def test_monotone_predicate_along_flow():
    L = L_main()
    seen_true = False
    for t in [x * 0.05 - 0.5 for x in range(13)]:
        ok = all_zeros_real(L, t)
        if seen_true:
            assert ok, "all-zeros-real flipped back off at t=%g" % t
        seen_true = seen_true or ok


def test_stopple_G_closed_form():
    # single zero at pi/2: G = 1/6 - 2/pi^2 + 1/2
    z = ZeroSet(t=0.0, gammas=(math.pi / 2.0,), nonreal=(), delta=0.0, xs=(math.pi / 2.0, 3.0 * math.pi / 2.0))
    want = 1.0 / 6.0 - 2.0 / math.pi**2 + 0.5
    assert stopple_G(z) == pytest.approx(want, abs=1e-14)
    assert want == pytest.approx(0.4640243, abs=1e-7)


def test_stopple_G_small_gamma_limit():
    # csc^2 expansion cancels the -1/(2 gamma^2) pole, leaving 1/3
    for gamma in [1e-3, 1e-4]:
        z = ZeroSet(t=0.0, gammas=(gamma,), nonreal=(), delta=0.0, xs=(gamma, 2 * math.pi - gamma))
        assert stopple_G(z) == pytest.approx(1.0 / 3.0, abs=1e-5)


def test_stopple_G_matches_direct_sum():
    ell_max = 200000
    for q, coeffs in [(3, (1, 2, 0, 1)), (5, D_MAIN)]:
        L = build_lfunction(q, P(coeffs, q))
        z = zeros_at_t(L, 0.0)
        tol = 4.0 * (2.0 * L.g) / (2.0 * math.pi * ell_max)
        assert abs(stopple_G(z) - stopple_G_direct(z.gammas, ell_max)) < tol


def test_stopple_G_rejects_bad_input():
    with pytest.raises(ValueError):
        stopple_G(ZeroSet(t=0.0, gammas=(), nonreal=(), delta=0.0, xs=()))
    with pytest.raises(ValueError):
        stopple_G(
            ZeroSet(t=0.0, gammas=(1.0, 1.0 + 1e-15), nonreal=(), delta=0.0, xs=())
        )
    with pytest.raises(ValueError):
        stopple_G(
            ZeroSet(t=-0.25, gammas=(1.0,), nonreal=(0.3j,), delta=0.3, xs=(0.3j,))
        )


def test_stopple_lower_bound_example():
    e = stopple_lower_bound(0.01, 1.0)
    assert e.kind == "stopple_lower_bound"
    want = ((1.0 - 5.0 * 1e-4) ** 0.8 - 1.0) / 8.0
    assert e.value == pytest.approx(want, abs=1e-15)
    assert e.value == pytest.approx(-5.0e-5, abs=2e-6)


def test_stopple_lower_bound_validity_edge():
    with pytest.raises(ValueError):
        stopple_lower_bound(1.0, 0.2)  # 5 gamma^2 G = 1
    with pytest.raises(ValueError):
        stopple_lower_bound(2.0, 1.0)
    # just inside validity still works
    e = stopple_lower_bound(1.0, 0.199999)
    assert e.value < 0


def test_stopple_data_worked_pair():
    L = L_main()
    sd = stopple_data(L)
    assert len(sd.gamma) == L.g
    assert sd.gamma_tilde[0] == pytest.approx(sd.gamma[0] * L.g / math.pi, abs=1e-12)
    b = lambda_bisect(L)
    if sd.condition_ok:
        assert sd.bound is not None
        assert sd.bound <= b.value + 1e-8
    else:
        assert sd.bound is None
    sj = dataclass_jsonable(sd)
    assert list(sj) == ["gamma", "gamma_tilde", "G", "condition_ok", "bound"]


def test_strip_bound():
    assert strip_bound(0.368, 0.05) == pytest.approx(
        math.sqrt(0.368**2 - 0.1), abs=1e-12
    )
    assert strip_bound(0.368, 0.05) == pytest.approx(0.188, abs=2e-3)
    assert strip_bound(0.3, 0.045) <= 1e-8  # s = delta^2 / 2 up to float dust
    assert strip_bound(0.3, 0.4) == 0.0
    assert strip_bound(0.0, 0.1) == 0.0
    with pytest.raises(ValueError):
        strip_bound(-0.1, 0.1)
    with pytest.raises(ValueError):
        strip_bound(0.1, -0.1)


def test_strip_bound_consistent_with_flow():
    # a strip of half-width delta is fully reabsorbed after delta^2 / 2 of
    # forward flow, so Lambda <= t + delta(t)^2 / 2 at every sampled t
    L = L_main()
    lam = lambda_bisect(L).value
    for t in [-0.30, -0.25, -0.20]:
        d = zeros_at_t(L, t).delta
        assert lam <= t + d * d / 2.0 + 1e-6


def test_newman_jsonable():
    e = lambda_bisect(build_lfunction(3, P([0, 1, 0, 1], 3)))
    j = dataclass_jsonable(e)
    # the JSON key order is the dataclass field order
    assert list(j) == ["kind", "value", "bracket", "tol", "notes"]
    assert j["kind"] == "minus_infinity"
    assert j["value"] == "-inf"
    e2 = NewmanEstimate(kind="exact", value=-0.25, bracket=None, tol=None, notes="x")
    assert dataclass_jsonable(e2)["value"] == -0.25


def test_lambda_nonpositive_across_samples():
    for D in list(enumerate_monic(3, 3))[::2]:
        if not is_squarefree(D):
            continue
        e = lambda_bisect(build_lfunction(3, D))
        assert e.value <= 0.0


def test_predicate_uses_neither_grid_nor_degree_2g_roots(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("grid or np.roots called")

    monkeypatch.setattr(np, "roots", boom)
    L = L_main()
    assert all_zeros_real(L, 0.0)
    assert not all_zeros_real(L, -0.25)
    assert lambda_bisect(L).kind == "bisect"
    assert len(zeros_at_t(L, 0.0).gammas) == 2
    assert len(zeros_at_t(L, -0.25).nonreal) == 2


def test_bisect_odd_harmonics_closed_form():
    # genus 3 with c_1 = c_3 = 0: Xi_t = 2 cos x (Phi_1 e^t + Phi_3 e^(9t)
    # (4 cos^2 x - 3)) with Phi_1 = c_2 sqrt q, Phi_3 = q^(3/2). Besides
    # cos x = 0 the zeros have cos^2 x = (3 - r)/4, r = c_2 / (q e^(8t)), all
    # real iff -1 <= r <= 3: Lambda = log(c_2 / 3q) / 8 for c_2 > 0 and
    # log(-c_2 / q) / 8 for c_2 < 0. At c_2 > 0 the collision is a triple
    # zero at cos x = 0. The degree-2g z-polynomial route missed these
    # constants by up to 1.5e-8.
    q = 3
    seen = set()
    for L in family(q, 7):
        c2 = L.c[2]
        if L.c[1] != 0 or L.c[3] != 0 or c2 == 0:
            continue
        want = math.log(c2 / (3.0 * q) if c2 > 0 else -c2 / q) / 8.0
        e = lambda_bisect(L)
        assert e.kind == "bisect"
        assert abs(e.value - want) <= 1e-9, (L.D, L.c, e.value, want)
        seen.add(c2)
    assert 4 in seen and any(v < 0 for v in seen)
    assert math.log(4 / 9.0) / 8.0 == pytest.approx(-0.101366277027, abs=1e-12)


def test_gcd_degree_over_fp_and_q():
    # (1 + 5u^2)^2 and its derivative share 1 + 5u^2
    sq = [1, 0, 10, 0, 25]
    dsq = [0, 20, 0, 100]
    assert len(_gcd(sq, dsq, None)) - 1 == 2
    assert len(_gcd(sq, dsq, 2**31 - 1)) - 1 == 2
    # u^2 - p is squarefree over Q but a square mod p: the prefilter can
    # only rule a repeated root out, never in
    p = 2**31 - 1
    assert len(_gcd([-p, 0, 1], [0, 2], p)) - 1 == 1
    assert len(_gcd([-p, 0, 1], [0, 2], None)) - 1 == 0
    # a p-th power has derivative 0 mod p: gcd(D, 0) is D made monic
    assert _gcd([2, 0, 0, 2], [0, 0, 6], 3) == (1, 0, 0, 1)


def test_repeated_root_interior_double_zero_is_exact_zero():
    # T^5 + T over F_5: L = (1 + 5u^2)^2, a double zero of Xi_0 off the axis
    L = build_lfunction(5, P([0, 1, 0, 0, 0, 1], 5))
    assert L.c == (1, 0, 10, 0, 25)
    assert has_repeated_root(L.c)
    assert not has_repeated_root(L_main().c)
    with pytest.warns(UserWarning, match="^Xi_0 has an exact double zero"):
        e = lambda_bisect(L)
    assert (e.kind, e.value, e.bracket) == ("exact", 0.0, None)
    assert "repeated root" in e.notes
    with pytest.raises(ValueError, match="^repeated zero: G undefined"):
        stopple_data(L)


def test_only_the_one_row_bisection_warns_and_names_its_caller():
    # T^5 + T over F_5: a repeated root of L, so Lambda_D = 0 exactly
    L = build_lfunction(5, P([0, 1, 0, 0, 0, 1], 5))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (block,) = bisect_estimates(lambda_bisect_block(np.array([L.phi]), [L.c].__getitem__))
    assert caught == []
    assert (block.kind, block.value) == ("exact", 0.0)
    with pytest.warns(UserWarning, match="^Xi_0 has an exact double zero") as record:
        e = lambda_bisect(L)
    assert e == block
    (w,) = record
    assert w.filename == __file__


@pytest.mark.parametrize("q,degree", [(5, 5), (3, 7)])
def test_bisect_block_equals_per_row_bit_for_bit(q, degree, monkeypatch):
    Ls = family(q, degree)
    calls = []
    real_rows = newman._real_rows

    def counted(phi, t):
        calls.append(len(t))
        return real_rows(phi, t)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        monkeypatch.setattr(newman, "_real_rows", counted)
        block = bisect_estimates(
            lambda_bisect_block(np.array([L.phi for L in Ls]), [L.c for L in Ls].__getitem__)
        )
        monkeypatch.undo()
        # the predicate traffic: one call at t = 0, one for the guided
        # rows' final ends, then one per round of plain bisection. A guided
        # row asks only at t = 0 and its two final ends; at (3, 7) the
        # odd-harmonic rows have no t*, so their all-false guess fails its
        # check at lo and they bisect plainly (35 rounds)
        live = sum(np.count_nonzero(L.phi) > 1 for L in Ls)
        traffic = {(5, 5): (2, 7334), (3, 7): (37, 5928)}[q, degree]
        assert (len(calls), sum(calls)) == traffic
        assert sum(calls) <= {(5, 5): 3, (3, 7): 5}[q, degree] * live
        for L, got in zip(Ls, block):
            assert got == lambda_bisect(L), (L.D, got)
    kinds = {e.kind for e in block}
    assert kinds <= {"bisect", "exact", "minus_infinity"}
    assert "bisect" in kinds and "exact" in kinds


def test_bisect_block_solves_each_row_at_t0_once(monkeypatch):
    # Newton's starts come from the roots of the first round's predicate
    # call, so no row is solved at t = 0 a second time
    Ls = list({L.c: L for L in family(5, 5)}.values())
    solved = []
    colleague_roots = newman._colleague_roots

    def spy(phi, t):
        solved.append(np.count_nonzero(t == 0.0))
        return colleague_roots(phi, t)

    monkeypatch.setattr(newman, "_colleague_roots", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lambda_bisect_block(np.array([L.phi for L in Ls]), [L.c for L in Ls].__getitem__)
    live = sum(np.count_nonzero(L.phi) > 1 for L in Ls)
    assert sum(solved) == live == 80


def guided_run(Ls, monkeypatch, tol_t=1e-10, collision=None):
    """lambda_bisect_block on the rows of Ls, with _collision_times replaced
    by collision(phi, u) when given, the rows (as Phi tuples) whose
    predicate was asked at t = -1, and the number of predicate rows: a
    guided row answers that expansion step by comparison, so only a row
    that fell back to plain bisection asks it. A plain row resumes its path
    after each answer, so from the first plain round on (the first call
    that asks at t = -1) the step rule takes at most two answers per
    predicate row: the one asked, and the next time, not yet asked."""
    asked = set()
    traffic = []
    plain = [0, 0]  # predicate rows and step-rule answers from the first plain round on
    real_rows = newman._real_rows
    bisect_path = newman._bisect_path

    def spy(phi, t):
        asked.update(tuple(p) for p in phi[t == -1.0].tolist())
        traffic.append(len(t))
        if plain[0] or (t == -1.0).any():
            plain[0] += len(t)
        return real_rows(phi, t)

    def counted_path(answer, *rest):
        def counted(t):
            plain[1] += plain[0] > 0
            return answer(t)

        return bisect_path(counted, *rest)

    with monkeypatch.context() as m:
        m.setattr(newman, "_real_rows", spy)
        m.setattr(newman, "_bisect_path", counted_path)
        if collision is not None:
            m.setattr(newman, "_collision_times", collision)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            phi, cs = np.array([L.phi for L in Ls]), [L.c for L in Ls]
            out = bisect_estimates(lambda_bisect_block(phi, cs.__getitem__, tol_t), tol_t)
    assert plain[1] <= 2 * plain[0]
    return out, asked, sum(traffic)


def unguided(phi, u):
    # a NaN t* answers every comparison false, so each row's guess is the
    # last bracket below t = 0; unless Lambda_D lies in it, the check at lo
    # fails and the row bisects plainly
    return np.full(len(phi), np.nan)


@pytest.mark.parametrize("q,degree", [(3, 7), (5, 5)])
def test_guided_bisection_equals_unguided_bit_for_bit(q, degree, monkeypatch):
    Ls = family(q, degree)
    guided, _, _ = guided_run(Ls, monkeypatch)
    plain, _, _ = guided_run(Ls, monkeypatch, collision=unguided)
    assert guided == plain


@pytest.mark.parametrize("shift", ["too_low", "too_high", "below_floor", None])
def test_guided_bisection_falls_back_from_a_wrong_collision_time(shift, monkeypatch):
    # a t* below Lambda_D makes comparisons set hi where the predicate never
    # looked, and one above it lo; the check at that end fails, and the row
    # returns to the bracket (-1, 0) the t = 0 check left and ends unguided,
    # unless the predicate was false at both ends and L has a repeated root:
    # then it ends exact at once. A repeated-root row whose t* is above 0
    # passes its check at lo alone (hi = 0). A t* below the floor leaves
    # every row unguided. With no override,
    # two (3, 9) D (indices 2284 and 2375) fail the check by themselves: L has
    # a repeated root, so Lambda_D = 0, but Newton's starts reach an earlier
    # collision, t* = -0.143; each takes 3 predicate rows, not 41
    collision_times = newman._collision_times

    def wrong(phi, u):
        if shift in ("too_low", "too_high"):
            return collision_times(phi, u) + (1e-3 if shift == "too_high" else -1e-3)
        return np.full(len(phi), -1e3)  # below BRACKET_FLOOR

    if shift is None:
        Ls = [
            build_lfunction(3, P(d, 3))
            for d in ((0, 1, 0, 0, 1, 0, 1, 2, 1, 1), (0, 1, 0, 0, 2, 0, 2, 2, 2, 1))
        ]
    else:
        Ls = family(5, 5)
    repeated = Counter()  # c -> exact repeated-root tests of the guided run

    def counted(c):
        repeated[c] += 1
        return has_repeated_root(c)

    with monkeypatch.context() as m:
        m.setattr(newman, "has_repeated_root", counted)
        got, asked, traffic = guided_run(Ls, monkeypatch, collision=wrong if shift else None)
    plain, _, _ = guided_run(Ls, monkeypatch, collision=unguided)
    assert got == plain
    live = [L for L in Ls if np.count_nonzero(L.phi) > 1]
    at_once = {L.phi for L in live if shift != "below_floor" and has_repeated_root(L.c)}
    assert asked == {L.phi for L in live} - at_once  # the rest fell back (or had no t*)
    if shift is None:
        assert [(e.kind, e.value) for e in got] == [("exact", 0.0)] * 2
        assert traffic == 2 * 3
        assert repeated == {L.c: 1 for L in Ls}


def test_guided_bisection_at_a_wide_tol_needs_no_fallback(monkeypatch):
    Ls = family(3, 7)
    got, asked, _ = guided_run(Ls, monkeypatch, tol_t=1e-3)
    plain, _, _ = guided_run(Ls, monkeypatch, tol_t=1e-3, collision=unguided)
    assert got == plain
    live = [L for L in Ls if np.count_nonzero(L.phi) > 1]
    phi = np.array([L.phi for L in live])
    u, _, _ = _colleague_roots(phi, np.zeros(len(live)))
    with np.errstate(all="ignore"):
        tstar = newman._collision_times(phi, u)
    # only the rows without a t* ask at t = -1: the odd-harmonic rows, whose
    # zeros collide three at a time at pi/2, where Newton converges slowly
    no_tstar = {L.phi for L, v in zip(live, tstar.tolist()) if math.isnan(v)}
    assert asked == no_tstar and 0 < len(no_tstar) < len(live) / 10


@pytest.mark.parametrize("q,degree", [(5, 5), (3, 7)])
def test_guided_row_asks_the_predicate_at_most_three_times(q, degree, monkeypatch):
    # at t = 0, then once at each final end (hi = 0 is not asked again)
    Ls = [L for L in {L.c: L for L in family(q, degree)}.values() if np.count_nonzero(L.phi) > 1]
    phi = np.array([L.phi for L in Ls])
    u, _, _ = _colleague_roots(phi, np.zeros(len(Ls)))
    with np.errstate(all="ignore"):
        tstar = newman._collision_times(phi, u)
    asked = Counter()
    real_rows = newman._real_rows

    def spy(phi, t):
        asked.update(tuple(p) for p in phi.tolist())
        return real_rows(phi, t)

    monkeypatch.setattr(newman, "_real_rows", spy)
    lambda_bisect_block(phi, [L.c for L in Ls].__getitem__)
    guided = [L.phi for L, v in zip(Ls, tstar.tolist()) if not math.isnan(v)]
    assert len(guided) > len(Ls) / 2
    assert max(asked[p] for p in guided) <= 3


def plain_bisection(L, tol_t=1e-10):
    """Test oracle: plain bisection of all_zeros_real, one time at a time,
    for an L all-real at t = 0 that stops being so above -50: expand
    through -1, -2, -4, ..., then halve until the bracket is no wider than
    tol_t or its midpoint rounds to an end. Returns the final (lo, hi)."""
    hi, t = 0.0, -1.0
    while all_zeros_real(L, t):
        assert t > -50.0
        hi, t = t, max(2.0 * t, -50.0)
    lo, mid = t, 0.5 * (t + hi)
    while hi - lo > tol_t and mid != lo and mid != hi:
        if all_zeros_real(L, mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return lo, hi


@pytest.mark.parametrize("q,degree,no_tstar", [(5, 5, 0), (3, 7, 4)])
def test_bisect_block_brackets_equal_plain_bisection(q, degree, no_tstar):
    # every kind-bisect row of the block, guided by t* or by the all-false
    # guess of a row without one, ends on the oracle's bracket bit for bit
    Ls = [L for L in {L.c: L for L in family(q, degree)}.values() if np.count_nonzero(L.phi) > 1]
    phi = np.array([L.phi for L in Ls])
    block = bisect_estimates(lambda_bisect_block(phi, [L.c for L in Ls].__getitem__))
    real, u, _ = newman._real_rows(phi, np.zeros(len(Ls)))
    with np.errstate(all="ignore"):
        tstar = dict(zip(np.nonzero(real)[0].tolist(), newman._collision_times(phi[real], u)))
    bisected = [i for i, e in enumerate(block) if e.kind == "bisect"]
    assert len(bisected) == {(5, 5): 76, (3, 7): 215}[q, degree]
    assert sum(math.isnan(tstar[i]) for i in bisected) == no_tstar
    for i in bisected:
        assert block[i].bracket == plain_bisection(Ls[i]), (Ls[i].D, block[i])


def test_bisect_block_kinds_count_from_its_arrays():
    # one bincount of the kind column counts the rows of each kind, as the
    # converter's estimates name them, over every distinct c_0..c_3 of (3, 7)
    Ls = list({L.c: L for L in family(3, 7)}.values())
    cs = [L.c for L in Ls]
    out, errors = lambda_bisect_block(np.array([L.phi for L in Ls]), cs.__getitem__)
    counts = np.bincount(out["kind"], minlength=len(newman.KINDS))
    kinds = Counter(e.kind for e in bisect_estimates((out, errors)))
    assert dict(zip(newman.KINDS, counts.tolist())) == {k: kinds[k] for k in newman.KINDS}
    assert kinds["bisect"] == 215 and kinds["exact"] > 0 and kinds["minus_infinity"] > 0
    assert errors == {}


def test_bisect_block_checks_a_row_without_tstar_with_the_guided_rows(monkeypatch):
    # the distinct c_0..c_4 of (3, 9): one row, all-real at t = 0, has no
    # converged t*. Its all-false guess is checked with the guided rows'
    # ends, and the predicate is false at lo: L has a repeated root, so the
    # row ends exact 0 and the block takes 2 calls. Bisected plainly, that
    # one row kept the block asking for 36 rounds (5,045 predicate rows).
    c, squarefree = family_coefficients(3, 9, 0, 3**9)
    keys = np.unique(c[squarefree], axis=0)
    assert len(keys) == 1683
    phi = phi_rows(3, keys)
    calls = []
    real_rows = newman._real_rows

    def counted(phi, t):
        calls.append(len(t))
        return real_rows(phi, t)

    monkeypatch.setattr(newman, "_real_rows", counted)
    cs = [complete_coefficients(3, k) for k in keys.tolist()]
    block = bisect_estimates(lambda_bisect_block(phi, cs.__getitem__))
    monkeypatch.undo()
    assert (len(calls), sum(calls)) == (2, 5011)
    live = np.nonzero(np.count_nonzero(phi, axis=1) > 1)[0]
    real, u, _ = newman._real_rows(phi[live], np.zeros(len(live)))
    with np.errstate(all="ignore"):
        tstar = newman._collision_times(phi[live][real], u)
    (i,) = live[real][np.isnan(tstar)].tolist()
    assert (block[i].kind, block[i].value) == ("exact", 0.0)


def test_bisect_block_isolates_a_bad_row():
    L = L_main()
    over = dataclasses.replace(L, phi=(L.phi[0], 1e308, L.phi[2]))
    under = dataclasses.replace(L, phi=(L.phi[0], L.phi[1], 1e-320))
    variant = build_lfunction(5, P(D_VARIANT, 5))
    rows = [L, over, variant, under]
    phi, cs = np.array([r.phi for r in rows]), [r.c for r in rows]
    out = bisect_estimates(lambda_bisect_block(phi, cs.__getitem__))
    assert out[0] == lambda_bisect(L)
    assert out[2] == lambda_bisect(variant)
    assert isinstance(out[1], NumericalError)
    assert "overflowed" in str(out[1])
    assert isinstance(out[3], NumericalError)
    assert "underflowed" in str(out[3])
    with pytest.raises(NumericalError, match="overflowed"):
        lambda_bisect(over)
    with pytest.raises(NumericalError, match="overflowed"):
        all_zeros_real(over, 0.0)


def test_bisect_block_terminal_rules():
    # every way a row of lambda_bisect_block ends; rows of one genus share a
    # call, as a block's phi array has one width
    cubic = build_lfunction(3, P([0, 2, 0, 1], 3))  # T^3 + 2T
    assert cubic.c == (1, 0, 3)
    nonic = build_lfunction(3, monic_by_index(3, 9, 7525))
    quintic = build_lfunction(5, P([0, 1, 0, 0, 0, 1], 5))  # T^5 + T
    L = L_main()
    over = (L.phi[0], 1e308, L.phi[2])
    under = (L.phi[0], L.phi[1], 1e-320)
    # the repeated-root rows reach the exact test from both sides of t = 0
    assert not all_zeros_real(nonic, 0.0)
    assert all_zeros_real(quintic, 0.0)

    g1 = bisect_estimates(
        lambda_bisect_block(np.array([cubic.phi, (1e-30, 1.0)]), ([cubic.c] * 2).__getitem__)
    )
    (g4,) = bisect_estimates(lambda_bisect_block(np.array([nonic.phi]), [nonic.c].__getitem__))
    g2 = bisect_estimates(
        lambda_bisect_block(
            np.array([quintic.phi, (10.0, 1.0, 1.0), over, under, L.phi]),
            ([quintic.c] + [L.c] * 4).__getitem__,
        )
    )
    assert g1[0].kind == "minus_infinity" and g1[0].value == float("-inf")
    assert (g1[1].kind, g1[1].value, g1[1].bracket) == (
        "bracket_exhausted",
        -50.0,
        (-50.0, -50.0),
    )
    for e in (g4, g2[0]):
        assert (e.kind, e.value, e.bracket) == ("exact", 0.0, None)
        assert "repeated root" in e.notes
    for e, msg in zip(g2[1:4], ["zeros of Xi_0 not all real", "overflowed", "underflowed"]):
        assert isinstance(e, NumericalError) and msg in str(e), e
    e = g2[4]
    lo, hi = e.bracket
    assert e.kind == "bisect" and lo < e.value < hi and hi - lo <= 1e-10
    assert e.value == pytest.approx(-0.188565066463, abs=1e-10)
    assert all_zeros_real(L, hi) and not all_zeros_real(L, lo)


def test_predicate_past_leading_underflow_is_certified_not_real():
    # genus 7 at t <= -14.5: w_7 = 2 Phi_7 e^(49 t) is subnormal or 0, and a
    # ratio w_n / w_7 overflows even as (Phi_n / Phi_7) e^(t (n^2 - 49))
    L = build_lfunction(3, P(F3_GENUS_SERIES[-1], 3))
    assert L.g == 7
    for t in [-14.5, -15.0, -20.0, -50.0]:
        assert all_zeros_real(L, t) is False
        with pytest.raises(NumericalError, match="underflowed"):
            zeros_at_t(L, t)


def test_predicate_solves_rows_whose_weights_underflow():
    # Phi_6 / Phi_7 = 1e-120: at t = -16 both weights underflow to 0, but the
    # ratio w_6 / w_7 = 1e-120 e^(13 |t|) is finite; the row is all-real
    # until it passes about 1, between t = -21 and -21.5
    base = build_lfunction(3, P(F3_GENUS_SERIES[-1], 3))
    L = dataclasses.replace(
        base,
        phi=(0.0,) * 6 + (1e-120, 1.0),
        # phi_exact only marks which Phi_n are nonzero (2 of them)
        phi_exact=tuple((int(n >= 6), n) for n in range(8)),
    )
    assert 1e-120 * math.exp(-16.0 * 36) == 0.0 and math.exp(-16.0 * 49) == 0.0
    assert all_zeros_real(L, -16.0)
    assert all_zeros_real(L, -21.0)
    assert not all_zeros_real(L, -21.5)
    e = lambda_bisect(L)
    assert e.kind == "bisect"
    assert -21.5 < e.bracket[0] <= e.value <= e.bracket[1] < -21.0


def dense_double_zero_oracle(L, at_pi):
    """Test oracle: the largest positive real root of the dense degree-g^2
    double-zero polynomial from np.roots, as (kind, y)."""
    a = np.zeros(L.g * L.g + 1)
    for n, phi in enumerate(L.phi):
        a[n * n] = phi if n == 0 else 2.0 * phi * (-1.0 if at_pi and n % 2 else 1.0)
    roots = np.roots(a[::-1])
    real = [r.real for r in roots if abs(r.imag) <= 1e-9 * abs(r) and r.real > 0]
    if not real:
        return "no_bound", None
    return "double_zero_lower_bound", max(real)


@pytest.mark.parametrize("q,degree", [(3, 7), (5, 5)])
@pytest.mark.parametrize("at_pi", [False, True])
def test_double_zero_block_equals_per_row_bit_for_bit(q, degree, at_pi):
    Ls = family(q, degree)
    block = double_zero_estimates(double_zero_block(np.array([L.phi for L in Ls]), at_pi), at_pi)
    for L, got in zip(Ls, block):
        assert got == double_zero_lower_bound(L, at_pi), (L.D, got)
    assert {e.kind for e in block} == {"double_zero_lower_bound", "no_bound"}


@pytest.mark.parametrize("q,degree", [(3, 3), (3, 5), (3, 7), (5, 3), (5, 5)])
@pytest.mark.parametrize("at_pi", [False, True])
def test_double_zero_matches_dense_roots_oracle(q, degree, at_pi):
    Ls = family(q, degree)
    block = double_zero_estimates(double_zero_block(np.array([L.phi for L in Ls]), at_pi), at_pi)
    for L, e in zip(Ls, block):
        kind, y = dense_double_zero_oracle(L, at_pi)
        assert e.kind == kind, (L.D, e, y)
        if y is not None:
            assert abs(math.exp(e.value) - y) <= 1e-10, (L.D, e, y)


def test_double_zero_finds_two_roots_in_one_grid_cell():
    # P(y) = a_0 + a_1 y + y^4 with roots 0.8999546 and 0.9000454, 9e-5
    # apart: one cell of a 4096-point scan up to 1 + max|a_n| holds both
    a0, a1, a2 = 3 * 0.9**4 - 1e-8, -4 * 0.9**3, 1.0
    L = dataclasses.replace(
        build_lfunction(3, P([1, 1, 0, 1, 0, 1], 3)), phi=(a0, a1 / 2, a2 / 2)
    )
    e = double_zero_lower_bound(L)
    assert e.kind == "double_zero_lower_bound"
    assert abs(math.exp(e.value) - 0.9000453601593582882) <= 1e-12


def test_double_zero_exact_root_stays_exact():
    # T^9 + 2T over F_3: c = (1, 0, 0, 0, -18), P(y) = -18 + 18 y^16 = 0 at
    # y = 1, so t = 0 exactly; the genus-4 best row of a q=3 sweep prints 0
    L = build_lfunction(3, P([0, 2, 0, 0, 0, 0, 0, 0, 0, 1], 3))
    assert L.c[:5] == (1, 0, 0, 0, -18)
    e = double_zero_lower_bound(L)
    assert (e.kind, e.value) == ("double_zero_lower_bound", 0.0)
    assert "%.12g" % e.value == "0"


def test_double_zero_block_isolates_rows_it_cannot_solve():
    # a non-finite row, and one whose leading weight is so small that the
    # root bound B ~ 1e50 would overflow B^(g^2)
    L = L_main()
    inf = dataclasses.replace(L, phi=(L.phi[0], math.inf, L.phi[2]))
    tiny = dataclasses.replace(L, phi=(L.phi[0], L.phi[1], 1e-150))
    out = double_zero_estimates(double_zero_block(np.array([inf.phi, L.phi, tiny.phi])))
    assert out[1] == double_zero_lower_bound(L)
    for bad, e in ((inf, out[0]), (tiny, out[2])):
        assert isinstance(e, NumericalError)
        with pytest.raises(NumericalError, match="not finite or would overflow"):
            double_zero_lower_bound(bad)

