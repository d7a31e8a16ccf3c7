"""hankelscope: spectral analysis of integral operators with log-polynomial
kernels (via the weighted differential representation v Q(D) v) and of the
reflection-differential operators generated by point-supported kernels."""

from .coeff_map import (CoeffMapMatrix, QuasiCarlemanKernel, build_map_matrix,
                        p_to_q, q_to_p)
from .delta_spectra import (DeltaKernel, build_reflection_operator,
                            delta_spectrum, exact_delta_prime_eigs,
                            h_squared_spectrum, weyl_prediction)
from .discretization import (DiscreteOperator, IdentityCheck, SpectrumReport,
                             build_a_matrix, build_hankel_matrix, eigen_sym,
                             form_identity_check, identity_gap_ladder,
                             observed_orders, spectral_rules,
                             test_function_factory, zero_eigenvalue_diagnostic)
from .errors import (ConvergenceError, DegeneratePolynomialError,
                     DiscretizationError, DomainError, HankelscopeError,
                     NotApplicableError, UnsupportedOrderError)
from .polynomials import (NonnegativityCertificate, RealPolynomial, derivative,
                          eval_poly, integrate, is_nonnegative_on_reals)
from .special_functions import (EULER_GAMMA, GammaJet, build_gamma_jet,
                                gamma_half_phase, log_cosh, log_gamma,
                                reciprocal_gamma_taylor, zeta_em)
from .transforms import (GridFunction, LogGrid, f_transform, mellin,
                         reparametrization, t_transform, u_map, v_eval)

__version__ = "0.1.0"

__all__ = [
    "CoeffMapMatrix", "QuasiCarlemanKernel", "build_map_matrix", "p_to_q", "q_to_p",
    "DeltaKernel", "build_reflection_operator", "delta_spectrum",
    "exact_delta_prime_eigs", "h_squared_spectrum", "weyl_prediction",
    "DiscreteOperator", "IdentityCheck", "SpectrumReport", "build_a_matrix",
    "build_hankel_matrix", "eigen_sym", "form_identity_check", "identity_gap_ladder",
    "observed_orders", "spectral_rules", "test_function_factory",
    "zero_eigenvalue_diagnostic",
    "ConvergenceError", "DegeneratePolynomialError", "DiscretizationError",
    "DomainError", "HankelscopeError", "NotApplicableError", "UnsupportedOrderError",
    "NonnegativityCertificate", "RealPolynomial", "derivative", "eval_poly",
    "integrate", "is_nonnegative_on_reals",
    "EULER_GAMMA", "GammaJet", "build_gamma_jet", "gamma_half_phase", "log_cosh",
    "log_gamma", "reciprocal_gamma_taylor", "zeta_em",
    "GridFunction", "LogGrid", "f_transform", "mellin", "reparametrization",
    "t_transform", "u_map", "v_eval",
    "__version__",
]
