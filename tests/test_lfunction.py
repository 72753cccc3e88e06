"""L(s, chi_D) coefficients, Fourier data, Xi_t evaluation and zeros."""

import math
import random

import numpy as np
import pytest

from ffnewman import lfunction
from ffnewman.cli import lfunction_jsonable
from ffnewman.fp_poly import (
    FpPolynomial,
    enumerate_monic,
    is_irreducible,
    is_squarefree,
    monic_by_index,
)
from ffnewman.lfunction import (
    LFunctionData,
    NumericalError,
    _colleague_roots,
    build_lfunction,
    dirichlet_coefficients,
    enumerated_coefficients,
    family_coefficients,
    good_pair_check,
    lfunction_from_coefficients,
    phi_rows,
    xi_eval,
    zeros_at_t,
)
from ffnewman.quad_character import chi

SQ5 = math.sqrt(5.0)


def P(coeffs, p):
    return FpPolynomial(tuple(coeffs), p)


# Genus-2 instance over F_5 with Phi = (-1, -sqrt 5, 5); its heat flow has the
# axis pair coalescing near t = -0.1886. A one-constant variant with
# Phi_0 = +1 is kept alongside; both are pinned to independently derived
# coefficient vectors.
D_MAIN = (2, 1, 0, 1, 2, 1)
D_VARIANT = (2, 2, 0, 1, 1, 1)
C_MAIN = (1, -1, -1, -5, 25)
C_VARIANT = (1, -1, 1, -5, 25)


def good_pairs(p, deg):
    for D in enumerate_monic(p, deg):
        if is_squarefree(D):
            yield D


def test_good_pair_check_reasons():
    assert good_pair_check(3, P([1, 2, 0, 1], 3)) == (True, "good pair")
    ok, reason = good_pair_check(4, P([1, 2, 0, 1], 3))
    assert not ok and reason == "q must be an odd prime"
    ok, reason = good_pair_check(3, P([1, 2, 0, 1], 5))
    assert not ok and "not F_3" in reason
    ok, reason = good_pair_check(3, P([1, 0, 1], 3))
    assert not ok and reason == "degree must be odd and >= 3"
    ok, reason = good_pair_check(3, P([0, 0, 0, 1], 3))
    assert not ok and reason == "D must be squarefree"
    ok, reason = good_pair_check(3, P([2, 2], 3))  # 2 (T + 1)
    assert not ok and reason == "D must be monic"


def _no_enumeration(*args, **kwargs):
    raise AssertionError("build_lfunction must not enumerate every monic f")


def seeded_good_pairs(p, deg, count=10):
    rng = random.Random(1000 * p + deg)
    out = []
    while len(out) < count:
        D = monic_by_index(p, deg, rng.randrange(p**deg))
        if is_squarefree(D):
            out.append(D)
    return out


@pytest.mark.parametrize(
    "q,deg,every",
    [(3, 3, True), (3, 5, True), (3, 7, True), (5, 3, True), (5, 5, True),
     (7, 3, True), (3, 13, False), (3, 15, False), (7, 9, False),
     (11, 7, False), (13, 7, False)],
)
def test_build_lfunction_matches_enumeration(q, deg, every, monkeypatch):
    # the explicit formula against the sum of chi_D over every monic f, with
    # the enumeration oracle disabled while build_lfunction runs
    Ds = list(good_pairs(q, deg)) if every else seeded_good_pairs(q, deg)
    expected = [dirichlet_coefficients(q, D) for D in Ds]
    monkeypatch.setattr(lfunction, "_chi_rows", _no_enumeration)
    for D, c in zip(Ds, expected):
        assert build_lfunction(q, D).c == c, D
    if every:
        assert len(Ds) == q**deg - q ** (deg - 1)


def test_coefficients_cubic_example():
    # c_1 = -3 for T^3+2T+1 over F_3; FE gives c_2 = 3
    assert dirichlet_coefficients(3, P([1, 2, 0, 1], 3)) == (1, -3, 3)


def test_coefficients_quintic_example():
    c = dirichlet_coefficients(3, P([1, 1, 0, 1, 0, 1], 3))
    assert c == (1, -3, 5, -9, 9)


def test_coefficients_worked_pair():
    assert enumerated_coefficients(5, P(D_MAIN, 5), 4) == C_MAIN
    assert enumerated_coefficients(5, P(D_VARIANT, 5), 4) == C_VARIANT


def test_character_kernel_rejects_a_reducible_modulus():
    # r = T over F_3. Modulo the irreducible T^2 + 1 its norm T * T^3 = T^4
    # is 1, a square; modulo T(T + 1), where T^3 = T, it is T^2 = 2T, which
    # is not in F_3
    r = np.array([[0], [1]])

    def kernel(P):
        return lfunction._euler_values(3, *lfunction._model(3, P), r)

    assert kernel((1, 0, 1)).tolist() == [1]
    with pytest.raises(ArithmeticError, match="reducible"):
        kernel((0, 1, 1))


def test_c0_is_one_and_functional_equation():
    for q, deg in [(3, 3), (3, 5)]:
        for D in good_pairs(q, deg):
            g = (deg - 1) // 2
            c = enumerated_coefficients(q, D, 2 * g)
            assert c[0] == 1
            assert len(c) == 2 * g + 1
            for n in range(1, g + 1):
                assert c[g + n] == q**n * c[g - n]


def test_half_equals_full():
    # the functional-equation upper half against enumerating it
    for D in good_pairs(3, 5):
        assert dirichlet_coefficients(3, D) == enumerated_coefficients(3, D, 4)
    assert dirichlet_coefficients(5, P(D_MAIN, 5)) == C_MAIN


def test_enumeration_matches_ladder_sum():
    # the factor-and-Euler oracle against a per-f reciprocity-ladder sum
    for D in list(good_pairs(3, 5))[::7]:
        assert enumerated_coefficients(3, D, 5) == tuple(
            sum(chi(D, f) for f in enumerate_monic(3, n)) for n in range(0, 6)
        )


def test_continuation_coefficients_vanish():
    for D in list(good_pairs(3, 3))[::3]:
        assert enumerated_coefficients(3, D, 4)[3:] == (0, 0)


def test_fourier_data_worked_pair():
    L = build_lfunction(5, P(D_MAIN, 5))
    assert L.g == 2
    assert L.phi_exact == ((-1, 0), (-1, 1), (1, 2))
    assert L.phi[0] == -1.0
    assert abs(L.phi[1] + SQ5) < 1e-15
    assert L.phi[2] == 5.0
    Lv = build_lfunction(5, P(D_VARIANT, 5))
    assert Lv.phi_exact == ((1, 0), (-1, 1), (1, 2))


def test_fourier_data_degenerate_cubic():
    # T^3+T has c_1 = 0, so Phi_0 = 0 and only the cosine term survives
    L = build_lfunction(3, P([0, 1, 0, 1], 3))
    assert L.c == (1, 0, 3)
    assert L.phi_exact == ((0, 0), (1, 1))
    assert L.phi[0] == 0.0
    assert abs(L.phi[1] - math.sqrt(3.0)) < 1e-15


def test_top_fourier_coefficient_is_q_to_half_g():
    for q, deg in [(3, 3), (3, 5), (5, 3)]:
        for D in list(good_pairs(q, deg))[::5]:
            L = build_lfunction(q, D)
            assert L.phi_exact[L.g] == (1, L.g)
            assert abs(L.phi[L.g] - q ** (L.g / 2.0)) < 1e-12 * q**L.g


def test_fourier_exact_matches_float():
    for q, deg in [(3, 5), (5, 3)]:
        for D in list(good_pairs(q, deg))[::4]:
            L = build_lfunction(q, D)
            for n, (a, m) in enumerate(L.phi_exact):
                assert m == n
                assert a == L.c[L.g - n]
                assert abs(L.phi[n] - a * q ** (n / 2.0)) < 1e-12 * max(1, abs(a)) * q ** (
                    n / 2.0
                )


def test_irreducible_discriminants_have_nonvanishing_phi():
    for q, deg in [(3, 3), (3, 5)]:
        for D in good_pairs(q, deg):
            if not is_irreducible(D):
                continue
            L = build_lfunction(q, D)
            assert all(a != 0 for a, _ in L.phi_exact)


def test_xi_eval_values():
    L = build_lfunction(5, P(D_MAIN, 5))
    # Phi_0 + 2 Phi_1 + 2 Phi_2 = -1 - 2 sqrt 5 + 10
    assert abs(xi_eval(L, 0.0, 0.0) - (9.0 - 2.0 * SQ5)) < 1e-12
    assert abs(xi_eval(L, 0.0, math.pi) - (9.0 + 2.0 * SQ5)) < 1e-12
    L0 = build_lfunction(3, P([0, 1, 0, 1], 3))
    for t in [-2.0, -0.5, 0.0, 0.3]:
        assert abs(xi_eval(L0, t, math.pi / 2.0)) < 1e-12


def test_xi_eval_even():
    L = build_lfunction(5, P(D_MAIN, 5))
    for x in [0.3, 1.1, 2.9]:
        for t in [-0.3, 0.0, 0.2]:
            assert xi_eval(L, t, -x) == pytest.approx(xi_eval(L, t, x), abs=1e-14)


def test_xi_eval_complex_kernel():
    L = build_lfunction(5, P(D_MAIN, 5))
    # at a real argument the complex path must agree with the cosine path
    for x in [0.0, 0.7, 2.0]:
        assert xi_eval(L, -0.1, complex(x, 0.0)) == pytest.approx(
            xi_eval(L, -0.1, x), abs=1e-10
        )
    # at the off-axis zero the value vanishes
    z = zeros_at_t(L, -0.25)
    off = max(z.nonreal, key=lambda w: abs(w.imag))
    assert abs(xi_eval(L, -0.25, off)) < 1e-8


def test_heat_equation_residual():
    h = 1e-4
    for q, coeffs in [(5, D_MAIN), (3, (1, 2, 0, 1)), (3, (1, 1, 0, 1, 0, 1))]:
        L = build_lfunction(q, P(coeffs, q))
        for t in [-0.3, 0.0, 0.2]:
            scale = sum(
                abs(L.phi[n]) * math.exp(t * n * n) * max(1, n**4)
                for n in range(L.g + 1)
            )
            for x in [0.2, 1.0, 2.5]:
                dt = (xi_eval(L, t + h, x) - xi_eval(L, t - h, x)) / (2 * h)
                dxx = (
                    xi_eval(L, t, x + h) - 2 * xi_eval(L, t, x) + xi_eval(L, t, x - h)
                ) / (h * h)
                assert abs(dt + dxx) < 1e-4 * scale


def test_zeros_count_is_2g():
    for q, coeffs in [(5, D_MAIN), (5, D_VARIANT), (3, (1, 2, 0, 1))]:
        L = build_lfunction(q, P(coeffs, q))
        for t in [-0.4, -0.25, -0.1886, -0.1, 0.0, 0.25]:
            z = zeros_at_t(L, t)
            assert len(z.xs) == 2 * L.g


def test_zeros_at_zero_closed_form():
    # at t = 0 the worked pair reduces to 20 y^2 - 2 sqrt5 y - 11 = 0, y = cos x
    L = build_lfunction(5, P(D_MAIN, 5))
    z = zeros_at_t(L, 0.0)
    assert z.nonreal == ()
    assert z.delta < 1e-9
    expect = (math.acos((SQ5 + 15.0) / 20.0), math.acos((SQ5 - 15.0) / 20.0))
    assert len(z.gammas) == 2
    for got, want in zip(z.gammas, expect):
        assert got == pytest.approx(want, abs=1e-9)
    # variant: 20 y^2 - 2 sqrt5 y - 9 = 0
    Lv = build_lfunction(5, P(D_VARIANT, 5))
    zv = zeros_at_t(Lv, 0.0)
    r = math.sqrt(5.0 + 180.0)
    for got, want in zip(
        zv.gammas, ((math.acos((SQ5 + r) / 20.0)), math.acos((SQ5 - r) / 20.0))
    ):
        assert got == pytest.approx(want, abs=1e-9)


def test_zeros_leave_axis_below_coalescence():
    L = build_lfunction(5, P(D_MAIN, 5))
    z = zeros_at_t(L, -0.25)
    assert len(z.nonreal) == 2
    assert z.delta == pytest.approx(0.368092, abs=5e-4)
    # the escaped pair sits on the imaginary axis through x = 0
    for w in z.nonreal:
        assert min(abs(w.real), abs(w.real - 2 * math.pi)) < 1e-9
    ims = sorted(w.imag for w in z.nonreal)
    assert ims[0] == pytest.approx(-ims[1], abs=1e-9)


def test_zeros_degenerate_cubic():
    L = build_lfunction(3, P([0, 1, 0, 1], 3))
    z = zeros_at_t(L, 0.0)
    assert z.gammas == pytest.approx((math.pi / 2.0,), abs=1e-12)
    assert sorted(w.real if isinstance(w, complex) else w for w in z.xs) == pytest.approx(
        [math.pi / 2.0, 3.0 * math.pi / 2.0], abs=1e-9
    )


def test_zeros_on_unit_circle_at_t0():
    # Riemann hypothesis statement at t = 0: every zero is real
    for q, deg in [(3, 3), (3, 5)]:
        for D in list(good_pairs(q, deg))[::6]:
            z = zeros_at_t(build_lfunction(q, D), 0.0)
            assert z.nonreal == ()
            assert z.delta < 1e-8


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: zeros_at_t does not divide out gcd(L, L'), so the "
    "zeros of a repeated root split off the axis by about 1e-8",
)
def test_repeated_root_zeros_stay_on_the_axis():
    # three (3, 9) D whose L has a repeated root: every zero is real at t = 0
    for k in (7525, 8141, 9835):
        z = zeros_at_t(build_lfunction(3, monic_by_index(3, 9, k)), 0.0)
        assert z.delta <= 1e-12, (k, z.delta)
        assert z.nonreal == (), k


def test_zeros_are_zeros_of_xi():
    # checked without P_t or arccos: the zeros pair up as x <-> 2pi - x
    # (evenness) and the two-sided complex kernel of xi_eval vanishes at each
    for q, deg in [(3, 5), (5, 5)]:
        for D in good_pairs(q, deg):
            L = build_lfunction(q, D)
            for t in [-0.25, 0.0, 0.1]:
                xs = zeros_at_t(L, t).xs
                assert len(xs) == 2 * L.g
                scale = abs(L.phi[0]) + sum(
                    2.0 * abs(L.phi[n]) * math.exp(t * n * n)
                    for n in range(1, L.g + 1)
                )
                for x in xs:
                    assert abs(xi_eval(L, t, x)) < 1e-8 * scale, (D, t, x)
                for x in xs:
                    partner = complex(2.0 * math.pi - x.real, -x.imag)
                    gap = min(_circle_distance(y, partner) for y in xs)
                    assert gap < 1e-7, (D, t, x)


def _circle_distance(a: complex, b: complex) -> float:
    d = (a.real - b.real) % (2.0 * math.pi)
    return math.hypot(min(d, 2.0 * math.pi - d), a.imag - b.imag)


def test_extreme_t_raises_numerical_error():
    L = build_lfunction(5, P(D_MAIN, 5))
    with pytest.raises(NumericalError):
        zeros_at_t(L, -800.0)


def test_zero_set_symmetry():
    # zeros come in x, 2pi - x pairs (evenness of Xi_t)
    L = build_lfunction(3, P([1, 1, 0, 1, 0, 1], 3))
    xs = [complex(v).real for v in zeros_at_t(L, 0.0).xs]
    for x in xs:
        partner = 2.0 * math.pi - x
        assert min(abs(partner - y) for y in xs) < 1e-8


def test_jsonable_view():
    L = build_lfunction(3, P([1, 2, 0, 1], 3))
    d = lfunction_jsonable(L)
    assert d == {
        "q": 3,
        "D": "1,2,0,1",
        "g": 1,
        "c": [1, -3, 3],
        "phi": [-3.0, 1.73205080757],
    }


def test_invalid_inputs_raise():
    with pytest.raises(ValueError):
        build_lfunction(3, P([1, 0, 1], 3))
    with pytest.raises(ValueError):
        enumerated_coefficients(3, P([1, 2, 0, 1], 3), -1)


def test_fourier_coefficients_helper():
    L = lfunction_from_coefficients(5, P(D_MAIN, 5), C_MAIN)
    assert L.phi_exact == ((-1, 0), (-1, 1), (1, 2))
    assert L.phi == (-1.0, -SQ5, 5.0)


@pytest.mark.parametrize("q,degree", [(3, 7), (5, 5)])
def test_phi_rows_of_a_family_block_match_single_d_bit_for_bit(q, degree):
    # the stacked formula on family_coefficients' rows against build_lfunction
    # (ladder coefficients) and against the scalar loop c_(g-n) q^(n//2) sqrt q
    g = (degree - 1) // 2
    c, squarefree = family_coefficients(q, degree, 0, q**degree)
    phi = phi_rows(q, c[squarefree]).tolist()
    Ds = [D for D in enumerate_monic(q, degree) if is_squarefree(D)]
    assert len(Ds) == len(phi)
    for D, row in zip(Ds, phi):
        L = build_lfunction(q, D)
        loop = [
            L.c[g - n] * q ** (n // 2) * (math.sqrt(q) if n % 2 else 1.0)
            for n in range(g + 1)
        ]
        assert tuple(row) == L.phi == tuple(loop), D


def test_lfunction_data_is_frozen():
    L = build_lfunction(3, P([1, 2, 0, 1], 3))
    assert isinstance(L, LFunctionData)
    with pytest.raises(Exception):
        L.g = 7


def test_colleague_roots_past_leading_underflow():
    # P_t for (phi, t) is P_0 for phi_n e^(t (n^2 - g^2)) up to a positive
    # factor, so both give the same roots; at t = -16 the first row's w_6 and
    # w_7 underflow to 0, and the second row never underflows
    g, t = 7, -16.0
    phi = np.array([1e-200, 0, 0, 0, 0, 0, 1e-120, 1.0])
    half = np.exp(0.5 * t * (np.arange(g + 1) ** 2 - g * g))
    moved = phi * half * half  # e^784 alone would overflow
    u, ok, errors = _colleague_roots(np.array([phi, moved]), np.array([t, 0.0]))
    assert ok.all() and not errors
    a, b = (np.sort_complex(r) for r in u)
    assert np.allclose(a, b, rtol=1e-12, atol=0)
