"""Evaluator for the heat-flow deformation of the completed Riemann xi.

The kernel Phi(u) = 2 sum_{n>=1} (2 n^4 pi^2 e^{9u/2} - 3 n^2 pi e^{5u/2})
e^{-n^2 pi e^{2u}} decays double-exponentially, so a short truncation plus a
modest quadrature window already gives absolute errors far below the
tolerances used anywhere in this package.  The deformed function is

    XI_t(x) = 2 * integral_0^U_MAX e^{t u^2} Phi(u) cos(u x) du,

with Phi truncated after N_MAX terms, computed by composite Gauss-Legendre on
a fixed panelization so that results are bit-for-bit reproducible for a fixed
number of quadrature points.  No attempt is made to
bound the classical Newman constant; this module is a sanity anchor for the
function-field code, not a record chase.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "QUAD_POINTS_MAX",
    "check_quad_points",
    "phi_remainder_bound",
    "phi_u",
    "xi_t_classical",
]

# Consecutive-term ratio bound for u >= 0: ((n+1)/n)^4 e^{-(2n+1) pi e^{2u}}
# is at most 16 e^{-3 pi} ~ 1.3e-3 at n = 1, u = 0 and shrinks from there.
_TERM_RATIO = 16.0 * math.exp(-3.0 * math.pi)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# quadrature window [0, U_MAX] and Phi series length of xi_t_classical
U_MAX = 6.0
N_MAX = 32

# quad_points of xi_t_classical: whole 16-point panels, at least one, and at
# most this many points, whose N_MAX-term kernel arrays take 8 MiB each
QUAD_POINTS_MAX = 2**15


def _term_pieces(au, n):
    # term n of Phi at u = au >= 0 is big - small, |term| <= big + small:
    # (2 n^4 pi^2 e^{9u/2}, 3 n^2 pi e^{5u/2}) e^{-n^2 pi e^{2u}}, exponents
    # combined in log space so that very large u underflows cleanly to 0
    # instead of producing inf * 0.
    decay = -(n * n) * math.pi * np.exp(2.0 * au)
    big = np.exp(np.log(2.0 * math.pi**2 * n**4) + 4.5 * au + decay)
    small = np.exp(np.log(3.0 * math.pi * n**2) + 2.5 * au + decay)
    return big, small


def phi_remainder_bound(u: float, n_max: int) -> float:
    """Upper bound on the tail 2 sum_{n > n_max} |term_n(u)|."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    big, small = _term_pieces(abs(u), n_max + 1.0)
    return float(2.0 * (big + small) / (1.0 - _TERM_RATIO))


def phi_u(u, n_max: int = 32):
    """Truncated Phi series, evaluated at |u| (Phi is even).

    Accepts a scalar or an array; vectorized over both u and the series
    index. The truncation error is below phi_remainder_bound(u, n_max).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    au = np.abs(np.asarray(u, dtype=float))
    n = np.arange(1, n_max + 1, dtype=float).reshape((-1,) + (1,) * au.ndim)
    big, small = _term_pieces(au, n)
    total = 2.0 * np.sum(big - small, axis=0)
    if np.isscalar(u) or np.asarray(u).ndim == 0:
        return float(total)
    return total


def check_quad_points(quad_points: int) -> None:
    """Raise ValueError unless quad_points is 16 k in [16, QUAD_POINTS_MAX]."""
    if not (16 <= quad_points <= QUAD_POINTS_MAX and quad_points % 16 == 0):
        raise ValueError(
            "quad-points must be between 16 and %d and a multiple of 16, got %d"
            % (QUAD_POINTS_MAX, quad_points)
        )


def _panel_nodes(u_max: float, quad_points: int):
    panels = quad_points // 16
    h = u_max / panels
    left = np.arange(panels) * h
    # map the 16 reference nodes into each panel; weights scale by h/2
    nodes = (left[:, None] + (h / 2.0) * (_GL_NODES[None, :] + 1.0)).ravel()
    weights = np.tile((h / 2.0) * _GL_WEIGHTS, panels)
    return nodes, weights


def xi_t_classical(t: float, x, quad_points: int = 2000):
    """Deformed xi value XI_t(x) = 2 int_0^{U_MAX} e^{tu^2} Phi(u) cos(ux) du.

    Fixed-panel composite 16-point Gauss-Legendre quadrature: deterministic
    for fixed quad_points, and doubling quad_points moves the value by well
    under 1e-8. |t| <= 2 keeps e^{tu^2} dominated by the kernel decay inside
    the window. Complex x is accepted (the kernel extends to
    cos(u x) on the complex plane); real x returns a float. quad_points
    outside check_quad_points' range is a ValueError.
    """
    if not abs(t) <= 2.0:
        raise ValueError("|t| must be <= 2")
    check_quad_points(quad_points)
    nodes, weights = _panel_nodes(U_MAX, quad_points)
    base = weights * np.exp(t * nodes * nodes) * phi_u(nodes, n_max=N_MAX)
    xc = complex(x)
    if xc.imag == 0.0:
        return float(2.0 * np.sum(base * np.cos(nodes * xc.real)))
    val = 2.0 * np.sum(base * np.cos(nodes * xc))
    return complex(val)
