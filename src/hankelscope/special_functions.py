"""Gamma-function machinery: Lanczos log-gamma on the right half-plane and
the Taylor jet of the reciprocal-gamma weight w(z) = 1/Gamma(1-z) at z = 0.

The jet is a constant table, _JET[m] = w^(m)(0) = (-1)^m m! c_m for
m = 0..30, where c_m are the Taylor coefficients of 1/Gamma(1+z)
(Abramowitz & Stegun 6.1.34). The values were evaluated once in 40-digit
arithmetic (exact-rational Euler-Maclaurin zeta values, then the recurrence
n c_n = gamma c_{n-1} + sum_{j=2}^n (-1)^{j+1} zeta(j) c_{n-j}) and rounded to
float64; tests/test_special_functions.py reruns the recurrence in mpmath and
holds every entry to 1 ulp.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UnsupportedOrderError

_JET = np.array([
    1.0, -0.5772156649015329, -1.3117561430405078, 0.2520158102045714,
    3.9969266731749955, 5.06372814666532, -6.92781950007142,
    -36.38347396318203, -46.97955730375751, 78.1068987028334,
    464.6688647299961, 803.718971313768, -598.9883787359107,
    -7055.384140516446, -17926.806932102085, -7997.860800380629,
    104655.95496339936, 420164.5138517352, 668040.7742785333,
    -946674.2175552347, -8993965.813433308, -26058272.341064166,
    -23135599.822123647, 138259753.4107719, 761152839.1709248,
    1832276114.4267771, 478582853.326399, -15379228570.054369,
    -70086076641.08212, -151583726590.44205, 35473637108.82347,
])
MAX_JET_ORDER = len(_JET) - 1

# Lanczos approximation, g = 7, 9 terms
_LANCZOS_G = 7.0
_LANCZOS_C = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def build_gamma_jet(order: int) -> np.ndarray:
    """Jet of w(z) = 1/Gamma(1-z) at 0: w^(m)(0) for m = 0..order, as a fresh
    array."""
    if order < 0:
        raise DomainError("order must be >= 0")
    if order > MAX_JET_ORDER:
        raise UnsupportedOrderError(
            f"jet order {order} > {MAX_JET_ORDER}: beyond the tabulated jet")
    return _JET[: order + 1].copy()


def log_gamma(z):
    """Principal-branch log Gamma(z) for Re z > 0 (Lanczos, g=7, 9 terms).

    Accepts complex scalars or arrays; raises DomainError if any point has
    Re z <= 0 (pole proximity is not handled).
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.real <= 0.0):
        raise DomainError("log_gamma requires Re z > 0")
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    # shift 0 < Re z < 1/2 up by one for a well-conditioned Lanczos sum
    small = z.real < 0.5
    zs = np.where(small, z + 1.0, z)
    acc = np.full_like(zs, _LANCZOS_C[0])
    for k in range(1, _LANCZOS_C.size):
        acc = acc + _LANCZOS_C[k] / (zs - 1.0 + k)
    t = zs + _LANCZOS_G - 0.5
    out = _HALF_LOG_2PI + (zs - 0.5) * np.log(t) - t + np.log(acc)
    out = np.where(small, out - np.log(z), out)
    return complex(out[0]) if scalar else out


def log_cosh(y):
    """log(cosh(y)) without overflow: |y| + log1p(e^{-2|y|}) - log 2."""
    y = np.abs(np.asarray(y, dtype=float))
    return y + np.log1p(np.exp(-2.0 * y)) - math.log(2.0)


def gamma_half_phase(xi):
    """Gamma(1/2 + i xi) * sqrt(cosh(pi xi)/pi): the unit-modulus gamma phase.

    Combined in log space so cosh never overflows; the modulus deviates from 1
    only by the log-gamma evaluation error.
    """
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    lg = log_gamma(0.5 + 1j * xi)
    out = np.exp(lg + 0.5 * (log_cosh(math.pi * xi) - math.log(math.pi)))
    return complex(out[0]) if scalar else out
