"""Quadratic Dirichlet L-functions over F_p(T), their heat-flow deformation,
and De Bruijn-Newman constants per discriminant and over families."""

__version__ = "0.1.0"

from .classical import phi_u, xi_t_classical
from .families import (
    ks_distance,
    sato_tate_sweep,
    semicircle_cdf,
    sweep_fixed_q,
    trace_of_frobenius,
)
from .finite_field import legendre_int
from .fp_poly import FpPolynomial, enumerate_monic, is_irreducible, is_squarefree
from .lfunction import (
    LFunctionData,
    ZeroSet,
    build_lfunction,
    dirichlet_coefficients,
    good_pair_check,
    xi_eval,
    zeros_at_t,
)
from .newman import (
    NewmanEstimate,
    StoppleData,
    double_zero_lower_bound,
    lambda_bisect,
    lambda_exact_genus1,
    stopple_data,
    strip_bound,
)
from .quad_character import chi

__all__ = [
    "FpPolynomial",
    "LFunctionData",
    "NewmanEstimate",
    "StoppleData",
    "ZeroSet",
    "__version__",
    "build_lfunction",
    "chi",
    "dirichlet_coefficients",
    "double_zero_lower_bound",
    "enumerate_monic",
    "good_pair_check",
    "is_irreducible",
    "is_squarefree",
    "ks_distance",
    "lambda_bisect",
    "lambda_exact_genus1",
    "legendre_int",
    "phi_u",
    "sato_tate_sweep",
    "semicircle_cdf",
    "stopple_data",
    "strip_bound",
    "sweep_fixed_q",
    "trace_of_frobenius",
    "xi_eval",
    "xi_t_classical",
    "zeros_at_t",
]
