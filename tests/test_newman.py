"""Lower bounds and exact values for the deformation constant Lambda_D."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from ffnewman.cli import newman_jsonable, stopple_jsonable
from ffnewman.families import F3_GENUS_SERIES
from ffnewman.fp_poly import (
    FpPolynomial,
    enumerate_monic,
    is_squarefree,
    monic_by_index,
)
from ffnewman.lfunction import (
    NumericalError,
    ZeroSet,
    build_lfunction,
    complete_coefficients,
    family_coefficients,
    lfunction_from_coefficients,
    zeros_at_t,
)
from ffnewman.newman import (
    NewmanEstimate,
    _gcd_degree,
    all_zeros_real,
    count_nonzero_phi,
    crude_condition_check,
    double_zero_block,
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

SQ5 = math.sqrt(5.0)
D_MAIN = (2, 1, 0, 1, 2, 1)
D_VARIANT = (2, 2, 0, 1, 1, 1)


def P(coeffs, p):
    return FpPolynomial(tuple(coeffs), p)


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
    assert count_nonzero_phi(L_main()) == 3
    assert count_nonzero_phi(build_lfunction(3, P([0, 1, 0, 1], 3))) == 1


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
    for D in list(enumerate_monic(3, 3)):
        if not is_squarefree(D):
            continue
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
    assert has_repeated_root(L)
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
    for D in enumerate_monic(3, 3):
        if not is_squarefree(D):
            continue
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
    sj = stopple_jsonable(sd)
    assert set(sj) == {"gamma", "gamma_tilde", "G", "condition_ok", "bound"}


def test_crude_condition_check():
    def synthetic(g, gt1, gt2):
        gam = [gt1 * math.pi / g, gt2 * math.pi / g]
        gam += [(j + 1.0) * math.pi / g for j in range(2, g)]
        xs = tuple(gam) + tuple(2.0 * math.pi - v for v in gam)
        return ZeroSet(t=0.0, gammas=tuple(gam), nonreal=(), delta=0.0, xs=xs)

    assert crude_condition_check(synthetic(13, 0.01, 1.0), 13)
    assert not crude_condition_check(synthetic(12, 0.01, 1.0), 12)
    assert not crude_condition_check(synthetic(13, 0.01, 3.0), 13)
    assert not crude_condition_check(synthetic(13, 0.2, 1.0), 13)
    with pytest.raises(ValueError):
        crude_condition_check(
            ZeroSet(t=0.0, gammas=(0.1,), nonreal=(), delta=0.0, xs=(0.1,)), 1
        )


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
    j = newman_jsonable(e)
    assert j["kind"] == "minus_infinity"
    assert j["value"] == "-inf"
    e2 = NewmanEstimate(kind="exact", value=-0.25, bracket=None, tol=None, notes="x")
    assert newman_jsonable(e2)["value"] == -0.25


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
    assert _gcd_degree(sq, dsq, None) == 2
    assert _gcd_degree(sq, dsq, 2**31 - 1) == 2
    # u^2 - p is squarefree over Q but a square mod p: the prefilter can
    # only rule a repeated root out, never in
    p = 2**31 - 1
    assert _gcd_degree([-p, 0, 1], [0, 2], p) == 1
    assert _gcd_degree([-p, 0, 1], [0, 2], None) == 0


def test_repeated_root_interior_double_zero_is_exact_zero():
    # T^5 + T over F_5: L = (1 + 5u^2)^2, a double zero of Xi_0 off the axis
    L = build_lfunction(5, P([0, 1, 0, 0, 0, 1], 5))
    assert L.c == (1, 0, 10, 0, 25)
    assert has_repeated_root(L)
    assert not has_repeated_root(L_main())
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
        (block,) = lambda_bisect_block([L])
    assert caught == []
    assert (block.kind, block.value) == ("exact", 0.0)
    with pytest.warns(UserWarning, match="^Xi_0 has an exact double zero") as record:
        e = lambda_bisect(L)
    assert e == block
    (w,) = record
    assert w.filename == __file__


@pytest.mark.parametrize("q,degree", [(5, 5), (3, 7)])
def test_bisect_block_equals_per_row_bit_for_bit(q, degree):
    Ls = family(q, degree)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        block = lambda_bisect_block(Ls)
        for L, got in zip(Ls, block):
            assert got == lambda_bisect(L), (L.D, got)
    kinds = {e.kind for e in block}
    assert kinds <= {"bisect", "exact", "minus_infinity"}
    assert "bisect" in kinds and "exact" in kinds


def test_bisect_block_isolates_a_bad_row():
    L = L_main()
    over = dataclasses.replace(L, phi=(L.phi[0], 1e308, L.phi[2]))
    under = dataclasses.replace(L, phi=(L.phi[0], L.phi[1], 1e-320))
    variant = build_lfunction(5, P(D_VARIANT, 5))
    out = lambda_bisect_block([L, over, variant, under])
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


def test_bisect_block_rejects_mixed_genera():
    with pytest.raises(ValueError):
        lambda_bisect_block([L_main(), build_lfunction(3, P([1, 2, 0, 1], 3))])


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
    block = double_zero_block(Ls, at_pi)
    for L, got in zip(Ls, block):
        assert got == double_zero_lower_bound(L, at_pi), (L.D, got)
    assert {e.kind for e in block} == {"double_zero_lower_bound", "no_bound"}


@pytest.mark.parametrize("q,degree", [(3, 3), (3, 5), (3, 7), (5, 3), (5, 5)])
@pytest.mark.parametrize("at_pi", [False, True])
def test_double_zero_matches_dense_roots_oracle(q, degree, at_pi):
    for L, e in zip(family(q, degree), double_zero_block(family(q, degree), at_pi)):
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
    out = double_zero_block([inf, L, tiny])
    assert out[1] == double_zero_lower_bound(L)
    for bad, e in ((inf, out[0]), (tiny, out[2])):
        assert isinstance(e, NumericalError)
        with pytest.raises(NumericalError, match="not finite or would overflow"):
            double_zero_lower_bound(bad)


def test_double_zero_block_rejects_mixed_genera():
    with pytest.raises(ValueError):
        double_zero_block([L_main(), build_lfunction(3, P([1, 2, 0, 1], 3))])
