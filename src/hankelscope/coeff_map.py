"""The linear calculus linking a log-polynomial kernel profile P to the
differential-operator symbol Q.

The forward map is the unit-upper-triangular matrix
M[k][l] = binom(l, k) * w^(l-k)(0) with w(z) = 1/Gamma(1-z); the inverse is
back-substitution on the same matrix (an exact triangular solve, used instead
of the equivalent Laplace-integral representation, which the test suite keeps
as an independent quadrature oracle).

The binomials binom(l, k) and the jet index l - k of each entry depend only
on the degree K: _binomial_table builds them once per degree, on first use,
and caches them read-only. build_map_matrix, which p_to_q and q_to_p call,
forms a fresh matrix from them and the jet as one product binom * jet[l - k],
with the same bits as the entry-by-entry loop and no Python loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedOrderError
from .polynomials import RealPolynomial
from .special_functions import build_gamma_jet

MAX_MAP_ORDER = 12


@dataclass(frozen=True)
class QuasiCarlemanKernel:
    """Kernel h(t) = P(ln t)/t for a real polynomial profile P."""

    profile: RealPolynomial

    def __post_init__(self):
        if self.profile.is_zero:
            raise DomainError("kernel profile must not be identically zero")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.profile(np.log(t)) / t


# one entry per degree 0..MAX_MAP_ORDER, filled on first use
@functools.lru_cache(maxsize=MAX_MAP_ORDER + 1)
def _binomial_table(K: int) -> tuple[np.ndarray, np.ndarray]:
    """binom(l, k) at [k, l] (zero below the diagonal) and the jet index
    l - k (zero below the diagonal) for degree K, as read-only arrays shared
    by every caller at this degree."""
    k = np.arange(K + 1)
    binom = np.array([[math.comb(l, r) for l in range(K + 1)] for r in range(K + 1)],
                     dtype=float)
    index = np.maximum(k[None, :] - k[:, None], 0)
    binom.flags.writeable = index.flags.writeable = False
    return binom, index


def build_map_matrix(K: int) -> np.ndarray:
    """Unit-upper-triangular (K+1) x (K+1) matrix of the P -> Q coefficient
    map for degree K (0 <= K <= 12): M[k, l] = binom(l, k) w^(l-k)(0).

    Returns a fresh writable array on every call (one vectorized product of
    the cached binomial table and the jet). Raises DomainError for K < 0
    and UnsupportedOrderError for K > 12."""
    if K < 0:
        raise DomainError("K must be >= 0")
    if K > MAX_MAP_ORDER:
        raise UnsupportedOrderError(
            f"map order {K} > {MAX_MAP_ORDER}: outside the jet accuracy budget")
    binom, index = _binomial_table(K)
    return binom * build_gamma_jet(K)[index]


def _finite(c: np.ndarray) -> RealPolynomial:
    if not np.isfinite(c).all():
        raise DomainError("coefficient map overflows double precision for these coefficients")
    return RealPolynomial(c)


def p_to_q(p: RealPolynomial) -> RealPolynomial:
    """Forward map: q_k = sum_{l>=k} binom(l, k) w^(l-k)(0) p_l.

    Degree and leading coefficient are preserved exactly (unit diagonal).
    """
    if p.is_zero:
        raise DomainError("p_to_q requires a nonzero polynomial")
    with np.errstate(over="ignore", invalid="ignore"):
        q = build_map_matrix(p.degree) @ p.coeffs
    q[-1] = p.coeffs[-1]  # unit diagonal: exact leading-coefficient transfer
    return _finite(q)


def q_to_p(q: RealPolynomial) -> RealPolynomial:
    """Inverse map by back-substitution on the unit-triangular matrix."""
    if q.is_zero:
        raise DomainError("q_to_p requires a nonzero polynomial")
    m = build_map_matrix(q.degree)
    p = q.coeffs.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(q.degree, -1, -1):
            p[k] = p[k] - m[k, k + 1:] @ p[k + 1:]
    return _finite(p)
