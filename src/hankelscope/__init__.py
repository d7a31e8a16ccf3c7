"""hankelscope: spectral analysis of integral operators with log-polynomial
kernels (via the weighted differential representation v Q(D) v) and of the
reflection-differential operators generated by point-supported kernels.
Exports what the command line uses and the error types; import other helpers
from their modules."""

from .coeff_map import QuasiCarlemanKernel, p_to_q, q_to_p
from .delta_spectra import (DeltaKernel, branches, delta_spectrum, exact_delta_prime_eigs,
                            weyl_prediction)
from .discretization import (ADEQUACY_GAP, FactoryTestFunction, a_spectrum, build_a_matrix,
                             build_hankel_matrix, carleman_extremes, eigen_sym,
                             essential_spectrum, form_identity_check, hankel_spectrum,
                             spectral_rules)
from .errors import (ConvergenceError, DegeneratePolynomialError,
                     DiscretizationError, DomainError, HankelscopeError,
                     NotApplicableError, UnsupportedOrderError)
from .polynomials import RealPolynomial, is_nonnegative_on_reals
from .transforms import LogGrid

__version__ = "0.1.0"

__all__ = [
    "QuasiCarlemanKernel", "p_to_q", "q_to_p",
    "DeltaKernel", "branches", "delta_spectrum", "exact_delta_prime_eigs", "weyl_prediction",
    "FactoryTestFunction", "a_spectrum", "build_a_matrix", "build_hankel_matrix",
    "carleman_extremes", "eigen_sym", "essential_spectrum", "form_identity_check",
    "hankel_spectrum", "spectral_rules", "ADEQUACY_GAP",
    "ConvergenceError", "DegeneratePolynomialError", "DiscretizationError",
    "DomainError", "HankelscopeError", "NotApplicableError", "UnsupportedOrderError",
    "RealPolynomial", "is_nonnegative_on_reals", "LogGrid",
    "__version__",
]
