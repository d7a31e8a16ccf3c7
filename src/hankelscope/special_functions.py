"""Gamma-function machinery: Lanczos log-gamma on the right half-plane,
Euler-Maclaurin zeta and Euler constant, and the Taylor jet of the
reciprocal-gamma weight w(z) = 1/Gamma(1-z) at z = 0.

The jet recurrence is badly conditioned in float64 (the m-th derivative
amplifies input rounding by roughly m!), so it runs in stdlib Decimal with
exact-rational zeta values; only the final cast rounds to float.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .errors import DomainError, UnsupportedOrderError

MAX_JET_ORDER = 30
_JET_DIGITS = 40

# Bernoulli numbers B_2, B_4, ..., B_32 (exact)
_BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
    Fraction(-236364091, 2730), Fraction(8553103, 6), Fraction(-23749461029, 870),
    Fraction(8615841276005, 14322), Fraction(-7709321041217, 510),
]

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


def zeta_fraction(s: int, n_terms: int = 24, n_corrections: int = 14) -> Fraction:
    """zeta(s) for integer s >= 2 as an exact-rational Euler-Maclaurin value.

    Every term of the expansion is rational for integer s, so the only error
    is the (astronomically small) Euler-Maclaurin remainder.
    """
    if s < 2:
        raise DomainError("integer zeta implemented for s >= 2 only")
    n = n_terms
    total = sum(Fraction(1, k**s) for k in range(1, n))
    total += Fraction(1, (s - 1) * n ** (s - 1))
    total += Fraction(1, 2 * n**s)
    # correction terms B_{2j}/(2j)! * (s)_{2j-1} * n^{-s-2j+1}
    poch = Fraction(s)
    fact = Fraction(1)
    for j in range(1, n_corrections + 1):
        fact *= (2 * j - 1) * (2 * j)
        total += _BERNOULLI[j - 1] / fact * poch * Fraction(1, n ** (s + 2 * j - 1))
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    return total


def zeta_em(s: int) -> float:
    """zeta(s) for integer s >= 2, accurate to full float64 precision."""
    return float(zeta_fraction(s))


def _euler_gamma_decimal(digits: int = _JET_DIGITS) -> Decimal:
    """Euler's constant by Euler-Maclaurin: H_{n-1} - ln n + corrections."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        n = 40
        harm = sum(Decimal(1) / Decimal(k) for k in range(1, n))
        total = harm - Decimal(n).ln() + Decimal(1) / (2 * n)
        npow = Decimal(n) ** 2
        for j in range(1, 14):
            b = _BERNOULLI[j - 1]
            total += Decimal(b.numerator) / Decimal(b.denominator) / (2 * j * npow)
            npow *= n * n
        return +total


_EULER_GAMMA_DECIMAL = _euler_gamma_decimal()
EULER_GAMMA = float(_EULER_GAMMA_DECIMAL)


def reciprocal_gamma_taylor(order: int) -> np.ndarray:
    """Taylor coefficients c_0..c_order of 1/Gamma(1+w) at w = 0.

    Standard recurrence n*c_n = gamma*c_{n-1} + sum_{j=2}^n (-1)^{j+1} zeta(j)
    c_{n-j}, evaluated in Decimal so the float64 results carry rounding error
    only from the final cast.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    if order > MAX_JET_ORDER:
        raise UnsupportedOrderError(
            f"jet order {order} > {MAX_JET_ORDER}: recurrence conditioning degrades")
    with localcontext() as ctx:
        ctx.prec = _JET_DIGITS
        gam = _EULER_GAMMA_DECIMAL
        zet = {}
        for j in range(2, order + 1):
            zf = zeta_fraction(j)
            zet[j] = Decimal(zf.numerator) / Decimal(zf.denominator)
        c = [Decimal(1), gam]
        for n in range(2, order + 1):
            acc = gam * c[n - 1]
            for j in range(2, n + 1):
                term = zet[j] * c[n - j]
                acc += term if j % 2 == 1 else -term
            c.append(acc / n)
    return np.array([float(ck) for ck in c[: order + 1]])


def build_gamma_jet(order: int) -> np.ndarray:
    """Jet of w(z) = 1/Gamma(1-z) at 0: w^(m)(0) = (-1)^m m! c_m, m = 0..order,
    with c the reciprocal gamma Taylor coefficients."""
    c = reciprocal_gamma_taylor(order)
    return np.array([(-1.0) ** m * math.factorial(m) * c[m] for m in range(order + 1)])


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
