"""Deformed completed-zeta evaluator: Phi kernel and quadrature."""

import math

import numpy as np
import pytest

from ffnewman import classical
from ffnewman.classical import (
    QUAD_POINTS_MAX,
    _panel_nodes,
    phi_remainder_bound,
    phi_u,
    xi_t_classical,
)

# xi(1/2) = -(1/8) pi^(-1/4) Gamma(1/4) zeta(1/2); the two constants below are
# standard reference values, giving 0.497120778188...
ZETA_HALF = -1.4603545088095868
GAMMA_QUARTER = 3.6256099082219083
XI_HALF = -0.125 * math.pi**-0.25 * GAMMA_QUARTER * ZETA_HALF


def xi_t_classical_two_sided(
    t: float,
    x: float,
    u_max: float = 6.0,
    n_max: int = 32,
    quad_points: int = 2000,
):
    """Same value through the symmetric window: integral over [-u_max, u_max]
    of e^{tu^2} Phi(u) e^{iux} du, exploiting Phi(-u) = Phi(u).  Exists as an
    independent route for cross-checking the half-line cosine form; the
    imaginary part cancels to rounding and is discarded for real x."""
    if abs(t) > 2.0:
        raise ValueError("|t| must be <= 2")
    half_nodes, half_weights = _panel_nodes(float(u_max), quad_points)
    nodes = np.concatenate((-half_nodes[::-1], half_nodes))
    weights = np.concatenate((half_weights[::-1], half_weights))
    base = weights * np.exp(t * nodes * nodes) * phi_u(nodes, n_max=n_max)
    val = np.sum(base * np.exp(1j * nodes * float(x)))
    return float(val.real)


def test_phi_value_at_zero():
    # n = 1 term alone: 2 (2 pi^2 - 3 pi) e^(-pi) = 0.891454...
    one = 2.0 * (2.0 * math.pi**2 - 3.0 * math.pi) * math.exp(-math.pi)
    assert phi_u(0.0, n_max=1) == pytest.approx(one, rel=1e-14)
    assert phi_u(0.0, n_max=3) == pytest.approx(0.89339, abs=1e-4)
    assert phi_remainder_bound(0.0, 3) < 1e-8
    # n_max = 3 and the default therefore agree to the tail bound
    assert abs(phi_u(0.0) - phi_u(0.0, n_max=3)) < 1e-8


def test_phi_decays_superexponentially():
    assert phi_u(2.0) / phi_u(0.0) < 1e-60
    assert phi_u(4.0) < 1e-300 or phi_u(4.0) == 0.0


def test_phi_positive_on_range():
    u = np.arange(0.0, 4.0001, 0.01)
    vals = phi_u(u)
    assert vals.shape == u.shape
    # beyond u ~ 2.7 the terms underflow to an exact 0.0, never negative
    assert np.all(vals[u <= 2.5] > 0.0)
    assert np.all(vals >= 0.0)


def test_phi_even():
    for u in [0.3, 1.0, 2.5]:
        assert phi_u(-u) == phi_u(u)


def test_phi_scalar_vs_array():
    u = np.array([0.0, 0.5, 1.0])
    vals = phi_u(u)
    for i, x in enumerate(u):
        s = phi_u(float(x))
        assert isinstance(s, float)
        assert s == vals[i]


def test_phi_remainder_double_exponential():
    bounds = [phi_remainder_bound(0.0, n) for n in range(1, 6)]
    for a, b in zip(bounds, bounds[1:]):
        assert b < 1e-5 * a
    assert bounds[4] < 1e-40
    with pytest.raises(ValueError):
        phi_remainder_bound(0.0, 0)
    with pytest.raises(ValueError):
        phi_u(1.0, n_max=0)


def test_truncation_error_within_bound():
    for u in [0.0, 0.5, 1.0]:
        for n_max in [1, 2, 3, 5]:
            assert abs(phi_u(u, n_max=n_max) - phi_u(u, n_max=40)) <= phi_remainder_bound(
                u, n_max
            )


def test_xi_at_center():
    val = xi_t_classical(0.0, 0.0)
    assert val == pytest.approx(XI_HALF, abs=1e-6)
    assert val == pytest.approx(0.49712, abs=1e-3)


def test_xi_first_zero_bracketed():
    # the lowest zero of xi(1/2 + ix) sits at x = 14.1347...
    lo = xi_t_classical(0.0, 14.0)
    hi = xi_t_classical(0.0, 14.3)
    assert lo > 0.0 > hi
    assert xi_t_classical(0.0, 14.1) > 0.0 > xi_t_classical(0.0, 14.2)


def test_xi_even_in_x():
    for t in [-0.5, 0.0, 0.5]:
        for x in [0.7, 3.0, 15.0]:
            assert xi_t_classical(t, -x) == xi_t_classical(t, x)


def test_xi_quadrature_doubling():
    for t in [-0.5, 0.0, 0.5]:
        for x in [0.0, 5.0, 14.1, 20.0]:
            a = xi_t_classical(t, x, quad_points=2000)
            b = xi_t_classical(t, x, quad_points=4000)
            assert abs(a - b) < 1e-8


def test_xi_two_sided_matches_cosine_form():
    for t in [-0.4, 0.0, 0.4]:
        for x in [0.0, 2.0, 14.1]:
            assert abs(xi_t_classical(t, x) - xi_t_classical_two_sided(t, x)) < 1e-10


def test_xi_heat_equation_residual():
    h = 1e-3
    for t in [-0.25, 0.0, 0.25]:
        for x in [0.0, 5.0, 10.0]:
            f = xi_t_classical(t, x)
            dt = (xi_t_classical(t + h, x) - xi_t_classical(t - h, x)) / (2 * h)
            dxx = (
                xi_t_classical(t, x + h) - 2.0 * f + xi_t_classical(t, x - h)
            ) / (h * h)
            assert abs(dt + dxx) < 1e-4 * abs(f) + 1e-6


def test_xi_t_dependence_sign():
    # e^(tu^2) weighting: positive t amplifies, negative t damps, at x = 0
    v = [xi_t_classical(t, 0.0) for t in (-0.5, 0.0, 0.5)]
    assert v[0] < v[1] < v[2]


def test_xi_complex_argument():
    val = xi_t_classical(0.0, 2.0j)
    assert isinstance(val, complex)
    assert abs(val.imag) < 1e-12
    assert val.real > xi_t_classical(0.0, 0.0)


def test_xi_parameter_validation():
    with pytest.raises(ValueError):
        xi_t_classical(3.0, 0.0)
    with pytest.raises(ValueError):
        xi_t_classical(-2.5, 0.0)
    with pytest.raises(ValueError):
        xi_t_classical(float("nan"), 0.0)
    # |t| = 2 itself is allowed
    assert xi_t_classical(2.0, 0.0) > 0.0


def test_xi_rejects_bad_quad_points(monkeypatch):
    # whole 16-point panels, one at least, QUAD_POINTS_MAX points at most;
    # both ends are legal
    assert xi_t_classical(0.0, 0.0, quad_points=16) > 0.0
    assert xi_t_classical(0.0, 0.0, quad_points=QUAD_POINTS_MAX) > 0.0
    # checked before the quadrature rule is built, so 10^8 allocates nothing
    def refuse(*args):
        raise AssertionError("built the quadrature rule")

    monkeypatch.setattr(classical, "_panel_nodes", refuse)
    for points in (0, -5, 15, 17, 31, QUAD_POINTS_MAX + 1, 10**8):
        with pytest.raises(ValueError, match="quad-points"):
            xi_t_classical(0.0, 0.0, quad_points=points)


def test_xi_tail_window_stable():
    # enlarging the window beyond the kernel's support changes nothing
    a = xi_t_classical(0.5, 3.0)
    b = xi_t_classical_two_sided(0.5, 3.0, u_max=7.0, quad_points=2336)
    assert abs(a - b) < 1e-10
