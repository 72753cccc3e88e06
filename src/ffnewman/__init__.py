"""Quadratic Dirichlet L-functions over F_p(T), their heat-flow deformation,
and De Bruijn-Newman constants per discriminant and over families."""

import importlib

__version__ = "0.1.0"

# exported name -> submodule, imported on first use (PEP 562): `import
# ffnewman` loads no numpy, so the CLI can configure it before it loads
_EXPORTS = {
    "phi_u": "classical",
    "xi_t_classical": "classical",
    "ks_distance": "families",
    "sato_tate_sweep": "families",
    "semicircle_cdf": "families",
    "sweep_fixed_q": "families",
    "trace_of_frobenius": "families",
    "legendre_int": "finite_field",
    "FpPolynomial": "fp_poly",
    "enumerate_monic": "fp_poly",
    "is_irreducible": "fp_poly",
    "is_squarefree": "fp_poly",
    "LFunctionData": "lfunction",
    "ZeroSet": "lfunction",
    "build_lfunction": "lfunction",
    "dirichlet_coefficients": "lfunction",
    "good_pair_check": "lfunction",
    "xi_eval": "lfunction",
    "zeros_at_t": "lfunction",
    "NewmanEstimate": "newman",
    "StoppleData": "newman",
    "double_zero_lower_bound": "newman",
    "lambda_bisect": "newman",
    "lambda_exact_genus1": "newman",
    "stopple_data": "newman",
    "strip_bound": "newman",
    "chi": "quad_character",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
