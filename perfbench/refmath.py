"""Reference mathematics the benchmark checks the program against.

Nothing here calls hankelscope. The coefficient map is rebuilt in mpmath
from a contour integral of 1/Gamma, and the matrix models are checked
through invariants (trace and Frobenius norm) that need no eigensolver.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np

DPS = 40
UNIT_ROUNDOFF = 2.0 ** -53

# Floors taken from the repository's pinned tests, so no check is tighter:
# the forward map is pinned to 1e-12 (acceptance criterion 1) and the
# inverse to 1e-10 (criterion 2, a round trip that holds up to degree 8).
FORWARD_FLOOR = 1e-12
INVERSE_FLOOR = 1e-10


@lru_cache(maxsize=None)
def _jet(order: int) -> tuple:
    """Taylor coefficients a_m = w^(m)(0)/m! of w(z) = 1/Gamma(1-z).

    Trapezoidal rule for the Cauchy integral on |z| = 1 with 64 nodes; 1/Gamma
    is entire and its coefficients decay faster than any geometric rate, so
    the aliasing error is far below 40 digits.
    """
    nodes = 64
    with mp.workdps(DPS + 10):
        zs = [mp.expjpi(mp.mpf(2 * j) / nodes) for j in range(nodes)]
        ws = [mp.rgamma(1 - z) for z in zs]
        return tuple(mp.re(mp.fsum(w * z ** (-m) for w, z in zip(ws, zs)) / nodes)
                     for m in range(order + 1))


@lru_cache(maxsize=None)
def map_matrix(K: int) -> mp.matrix:
    """M[k, l] = binom(l, k) w^(l-k)(0): the P -> Q map of degree K."""
    a = _jet(K)
    with mp.workdps(DPS):
        m = mp.zeros(K + 1, K + 1)
        for k in range(K + 1):
            for l in range(k, K + 1):
                m[k, l] = mp.binomial(l, k) * mp.factorial(l - k) * a[l - k]
        return m


@lru_cache(maxsize=None)
def inverse_map_matrix(K: int) -> mp.matrix:
    with mp.workdps(DPS):
        return mp.inverse(map_matrix(K))


def _abs_float(m: mp.matrix) -> np.ndarray:
    return np.array([[abs(float(m[i, j])) for j in range(m.cols)] for i in range(m.rows)])


def _apply(m: mp.matrix, v) -> np.ndarray:
    with mp.workdps(DPS):
        out = m * mp.matrix([mp.mpf(float(x)) for x in v])
        return np.array([float(out[i]) for i in range(m.rows)])


def p_to_q(p) -> tuple[np.ndarray, np.ndarray]:
    """Exact forward map of float coefficients, and the per-coefficient bound
    a float64 evaluation must meet: the floor, or the first-order error of a
    triangular product with rounded entries, (K+3) u |M| |p|, doubled."""
    K = len(p) - 1
    q = _apply(map_matrix(K), p)
    cond = _abs_float(map_matrix(K)) @ np.abs(np.asarray(p, dtype=float))
    return q, np.maximum(FORWARD_FLOOR, 2.0 * (K + 3) * UNIT_ROUNDOFF * cond)


def q_to_p(q) -> tuple[np.ndarray, np.ndarray]:
    """Exact inverse map and its bound. Back-substitution with rounded entries
    errs by up to (K+3) u |M^-1| |M| |p| (Higham, Thm 8.5); this grows with
    the map's conditioning, about 1e-6 for unit coefficients at degree 12."""
    K = len(q) - 1
    p = _apply(inverse_map_matrix(K), q)
    cond = _abs_float(inverse_map_matrix(K)) @ (_abs_float(map_matrix(K)) @ np.abs(p))
    return p, np.maximum(INVERSE_FLOOR, 2.0 * (K + 3) * UNIT_ROUNDOFF * cond)


def q_eval(p, x: float) -> float:
    """Q(x) for Q = exact map of float coefficients p, evaluated in mpmath."""
    with mp.workdps(DPS):
        q = map_matrix(len(p) - 1) * mp.matrix([mp.mpf(float(c)) for c in p])
        return float(mp.fsum(q[k] * mp.mpf(x) ** k for k in range(len(p))))


def ess_label(p) -> str:
    """Essential spectrum by degree parity: the whole line for odd degree,
    the half-line for even degree with a positive leading coefficient."""
    K = len(p) - 1
    if K >= 1 and K % 2 == 1:
        return "R"
    if K >= 2 and p[-1] > 0.0:
        return "[0,inf)"
    return "unknown"


def _logcosh(y):
    y = np.abs(y)
    return y + np.log1p(np.exp(-2.0 * y)) - math.log(2.0)


def hankel_invariants(p, L: float, N: int) -> tuple[float, float]:
    """Trace and squared Frobenius norm of the Nystrom matrix
    dx P(log(e^x + e^y)) / (2 cosh((x - y)/2)) on x_j = -L + j dx."""
    dx = 2.0 * L / N
    x = -L + dx * np.arange(N)
    coeffs = np.asarray(p, dtype=float)[::-1]
    trace = float(np.sum(dx * np.polyval(coeffs, x + math.log(2.0)) / 2.0))
    fro2 = 0.0
    for start in range(0, N, 256):
        xi = x[start:start + 256, None]
        block = dx * np.polyval(coeffs, np.logaddexp(xi, x[None, :])) \
            / (2.0 * np.cosh(0.5 * (xi - x[None, :])))
        fro2 += float(np.sum(block * block))
    return trace, fro2


def a_side_invariants(q, L: float, N: int) -> tuple[float, float]:
    """Trace and squared Frobenius norm of V C V, with C the circulant of the
    multiplier Q(-x) on the dual grid and V = diag(sqrt(pi / cosh(pi xi)))."""
    dxi = math.pi / L
    xi = dxi * (np.arange(N) - N // 2)
    x_dual = 2.0 * math.pi * np.fft.fftfreq(N, d=dxi)
    c = np.fft.ifft(np.polyval(np.asarray(q, dtype=float)[::-1], -x_dual))
    w = math.pi * np.exp(-_logcosh(math.pi * xi))   # v(xi)^2
    trace = float(c[0].real * np.sum(w))
    # sum_ij w_i w_j |c_(i-j)|^2 = sum_d |c_d|^2 sum_i w_i w_(i-d)
    autocorr = np.array([np.dot(w, np.roll(w, d)) for d in range(N)])
    return trace, float(np.dot(np.abs(c) ** 2, autocorr))


def delta_prime_exact(h1: float, t0: float, n_max: int) -> np.ndarray:
    """First n_max eigenvalues of each sign of h1 * delta'(. - t0): the unit
    kernel has 2 pi (n - 1/4)/t0 and -2 pi (n - 3/4)/t0, n >= 1."""
    n = np.arange(1, n_max + 1)
    plus = 2.0 * math.pi * (n - 0.25) / t0
    minus = -2.0 * math.pi * (n - 0.75) / t0
    return np.sort(np.concatenate([h1 * plus, h1 * minus]))
