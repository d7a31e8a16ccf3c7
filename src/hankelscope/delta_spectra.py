"""Spectra of the reflection-differential operators generated by kernels
supported at a single interior point: (Hf)(t) = sum_k (-1)^k h_k f^(k)(t0 - t)
on (0, t0), with vanishing derivatives of order < K at the left endpoint.

Collocation uses Legendre-Gauss-Lobatto nodes, which are symmetric about
t0/2, so the argument reflection is a reversal of the node order: R D^k is
D^k with its rows flipped. The operator is self-adjoint, and LGL
differentiation is summation-by-parts in the quadrature inner product, so
after scaling by the square roots of the quadrature weights the reflection
route's reduced matrix is symmetric and one real symmetric eigensolve gives
its spectrum. Both the reflection route and the squared-operator route impose
their boundary conditions through one helper: K Householder reflectors of
the row-normalized constraint rows, whose product carries an orthonormal
basis of their null space in its trailing columns, restrict an N x N matrix
to that space in O(K N^2) without forming the basis, keeping the reduced
eigenproblem square. The order-0 kernel h0 delta is h0 R, whose spectrum is
+-|h0| in closed form. The factorizations and the eigensolves run on
numpy.linalg, so delta-eigs starts without loading SciPy.

delta_spectrum solves order 1 without collocation: h0 delta + h1 delta' has
simple eigenvalues, the roots of one secular equation with one root per
bracket (see _first_order_spectrum), found in O(n_max) by a vectorised
Newton iteration, each with the residual ||H f - lambda f|| / ||f|| of its
eigenfunction in closed form. build_reflection_operator still assembles
order 1, as an independent check of that route.

The assembly is O(K N^2), so only the eigensolve is cubic: the derivative
matrices D^(k), k >= 2, come from Welfert's recursion (see
_collocation_powers), O(N^2) per order with no matrix product, and the O(N)
data of the N-point LGL rule (nodes, weights and P_(N-1) at the nodes) is
computed once per N and cached, read-only, by _lobatto_rule.

Memory is the eigensolver's: the orders stream out of _collocation_powers
into one accumulator, so the reflection route holds at most C, Z, two
consecutive orders and the accumulator, five N x N arrays whatever K is,
about the 5 N^2 that eigh needs for its input, its copy, its workspace and
the eigenvectors.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh as dense_eig

from .discretization import SpectrumReport, _legendre_pair
from .errors import DiscretizationError, DomainError, NotApplicableError

RELATIVE_IMAG_TOL = 1e-6
EPS = np.finfo(float).eps
# rounding of one secular-equation term: a sine, cosine, tanh or atan2 within
# a few ulps, and the products and sums that form it
ROUNDING = 8.0 * EPS


@dataclass(frozen=True)
class DeltaKernel:
    """Kernel sum_k h_k delta^(k)(. - t0): real weights, h_K != 0, finite t0 > 0."""

    h_coeffs: np.ndarray
    t0: float

    def __post_init__(self):
        h = np.atleast_1d(np.asarray(self.h_coeffs, dtype=float))
        if h.ndim != 1 or not np.all(np.isfinite(h)):
            raise DomainError("h_coeffs must be a 1-d vector of finite reals")
        nz = np.nonzero(h)[0]
        if nz.size == 0:
            raise DomainError("kernel must have a nonzero top coefficient")
        object.__setattr__(self, "h_coeffs", h[: nz[-1] + 1].copy())
        if not (self.t0 > 0.0 and math.isfinite(self.t0)):
            raise DomainError("singularity location t0 must be finite and positive")

    @property
    def order(self) -> int:
        return self.h_coeffs.size - 1


# a ladder of up to 8 resolutions stays cached; an entry holds 3 N doubles
@functools.lru_cache(maxsize=8)
def _lobatto_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The O(N) data of the N-point Legendre-Gauss-Lobatto rule: ascending
    nodes on [-1, 1], quadrature weights and P_m at the nodes, m = N - 1, as
    read-only arrays shared by every caller at this N.

    The nodes are -1, 1 and the roots of P_m'. On the left half the
    second-order Gatteschi-Pittaluga estimates of those roots (the zeros of
    the Jacobi polynomial P^(1,1)_(m-1)), -cos(tau - 3 cot(tau) / (8 r^2))
    with tau = (j + 1/4) pi / r and r = m + 1/2, lie within 3e-6 of them. Two
    Newton steps on x P_m - P_{m-1}, whose derivative N P_m is stationary at
    the roots (so the convergence is cubic), take them to rounding, and the
    right half mirrors the left, so the set is exactly symmetric about 0. The
    weights are 2 / (m N P_m(x)^2).
    """
    if n < 2:
        raise DomainError("need at least 2 collocation nodes")
    m = n - 1
    tau = (np.arange(1, n // 2) + 0.25) * math.pi / (m + 0.5)
    x = -np.cos(tau - 3.0 / (8.0 * (m + 0.5) ** 2 * np.tan(tau)))
    for _ in range(2):
        p, p_prev = _legendre_pair(x, m)
        x = x - (x * p - p_prev) / (n * p)
    if n % 2:
        x = np.append(x, 0.0)
    p, _ = _legendre_pair(x, m)
    # mirror, with P_m(-x) = (-1)^m P_m(x); P_m(+-1) = (+-1)^m
    sign, left = (-1.0) ** m, n // 2 - 1
    nodes = np.concatenate([[-1.0], x, -x[:left][::-1], [1.0]])
    pm = np.concatenate([[sign], p, sign * p[:left][::-1], [1.0]])
    rule = nodes, 2.0 / (m * n * pm * pm), pm
    for a in rule:
        a.flags.writeable = False
    return rule


def _differentiation(nodes: np.ndarray, pm: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, C, X): the LGL differentiation matrix D on [-1, 1], D_ij = C_ij /
    X_ij off the diagonal with C_ij = P_m(x_i) / P_m(x_j) and X_ij = x_i - x_j
    (unit diagonal), and D_00 = -D_(N-1)(N-1) = -m N / 4."""
    n = nodes.size
    dx = np.subtract.outer(nodes, nodes)
    np.fill_diagonal(dx, 1.0)
    c = np.divide.outer(pm, pm)
    d = c / dx
    np.fill_diagonal(d, 0.0)
    d[0, 0], d[-1, -1] = -(n - 1) * n / 4.0, (n - 1) * n / 4.0
    return d, c, dx


def _require_resolution(kernel: DeltaKernel, n: int) -> None:
    if n < 4 * kernel.order + 8:
        raise DomainError(f"N={n} too small: need N >= 4K+8 = {4 * kernel.order + 8}")


def _collocation_powers(n: int, t0: float, order: int):
    """Yields D, D^(2), ..., D^(order) on [0, t0] at the N LGL nodes, one
    fresh array per order: D is the differentiation matrix of [-1, 1] scaled
    by 2 / t0, and D^(l) the l-th derivative of the interpolant, D^l in exact
    arithmetic. Between orders the generator holds only C, Z and the last
    order, so a consumer that keeps nothing of an order holds three N x N
    arrays besides its own; [np.eye(n)] + list(...) gives every order.

    The orders l >= 2 come from Welfert's recursion (SIAM J. Numer. Anal. 34,
    1997; poldif in Weideman & Reddy, ACM TOMS 26, 2000), O(N^2) per order
    with no matrix product: off the diagonal
    D^(l)_ij = l Z_ij (C_ij D^(l-1)_ii - D^(l-1)_ij), Z_ij = (2/t0) / (x_i - x_j),
    C_ij = P_m(x_i) / P_m(x_j). Every order takes its diagonal by the
    negative-sum trick (each derivative annihilates constants exactly), which
    the recursion then reuses; Baltensperger & Trummer (SIAM J. Sci. Comput.
    24, 2003) analyse its accuracy. The nodes, weights and P_m come from the
    cached rule of this N. D scales like N^2 / t0, so a tiny t0 overflows a
    power; that raises DomainError. A row sum is finite exactly when every
    entry of the row is, so the finiteness of the diagonal checks the order.
    """
    nodes, _, pm = _lobatto_rule(n)
    nxt, c, z = _differentiation(nodes, pm)
    if order < 2:
        c = z = None   # only the recursion reads them
    for k in range(order):
        with np.errstate(over="ignore", invalid="ignore"):   # reported below
            if k:
                prev, nxt = nxt, c * nxt.diagonal()[:, None]
                nxt -= prev
                del prev   # the consumer may still hold it; this generator does not
                nxt *= z
                nxt *= k + 1
            else:
                nxt *= 2.0 / t0
                if z is not None:
                    np.divide(2.0 / t0, z, out=z)
            np.fill_diagonal(nxt, 0.0)
            np.fill_diagonal(nxt, -nxt.sum(axis=1))
        if not np.all(np.isfinite(nxt.diagonal())):
            raise DomainError(f"t0 = {t0:.6g} is too small: derivative "
                              f"power {k + 1} overflows double precision at N={n}")
        yield nxt


def _null_space_reflectors(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K Householder reflectors whose product H = I - V T V^T (compact WY:
    Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989) has as its
    trailing N - K columns an orthonormal basis of the null space of the K
    boundary-condition rows: H^T is the Q of their LQ factorization.

    Each row is scaled to unit norm first: row scaling preserves the row space
    but makes rank detection and null-space extraction well posed when
    derivative orders mix. The rank tolerance s_max max(shape) eps on the K
    singular values is the one numpy's matrix_rank and SciPy's null_space
    share. Returns (V, T): V is N x K, unit lower trapezoidal, and T is K x K
    upper triangular.
    """
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    scaled = rows / np.where(norms > 0.0, norms, 1.0)
    k = rows.shape[0]
    s = np.linalg.svd(scaled, compute_uv=False)
    if np.count_nonzero(s > s.max() * max(scaled.shape) * np.finfo(float).eps) < k:
        raise DiscretizationError("boundary-condition rows are rank deficient")
    h, tau = np.linalg.qr(scaled.T, mode="raw")   # h holds the reflectors as rows
    v = np.tril(h.T, -1)
    np.fill_diagonal(v, 1.0)
    t = np.zeros((k, k))
    for i in range(k):   # LAPACK's dlarft, forward and columnwise
        t[:i, i] = -tau[i] * (t[:i, :i] @ (v[:, :i].T @ v[:, i]))
        t[i, i] = tau[i]
    return v, t


def _restrict(x: np.ndarray, v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The trailing (N - K) block of H^T X H, H = I - V T V^T: X in the
    null-space basis H[:, K:]. With P = T^T V^T X, Q = X V T and
    W = T^T V^T X V T, H^T X H = X - [V, Q - V W] [P; V^T], so the block
    costs X V, V^T X and one rank-2K product, O(K N^2)."""
    k = v.shape[1]
    xv, vx = x @ v, v.T @ x
    p, q = t.T @ vx, xv @ t
    w = t.T @ (v.T @ xv) @ t
    left = np.hstack([v[k:], q[k:] - v[k:] @ w])
    right = np.vstack([p[:, k:], v[k:].T])
    return x[k:, k:] - left @ right


def build_reflection_operator(kernel: DeltaKernel, n: int
                              ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Symmetric collocation matrix of sum_k (-1)^k h_k R D^k with the K
    left-endpoint conditions f^(k)(0) = 0, k < K, imposed by null-space
    projection.

    Returns ((V, T), reduced): the K Householder reflectors of
    _null_space_reflectors (N x 0 and 0 x 0 for K = 0, where nothing is
    projected), whose product H has the null-space basis B = H[:, K:] as its
    trailing columns, and the (N - K) x (N - K) reduced matrix.
    R D^k evaluates the k-th derivative at the reflected nodes; the node set
    is symmetric about t0/2, so R D^k is D^k with its rows reversed.

    In the quadrature inner product <u, v>_W = u^T W v, summation by parts
    moves each D across with boundary terms in f^(j)(0) and in (R g)^(j)(t0)
    = +-g^(j)(0), j < K, which the conditions annul: M = sum (-1)^k h_k R D^k
    is W-symmetric on the constrained space. With S = diag(sqrt(w)) (the
    reference-interval weights; a constant factor cancels in S M S^-1) and B
    the orthonormal null space of the scaled rows D^k[0, :] S^-1, the matrix
    A = B^T S M S^-1 B is symmetric in exact arithmetic, and reduced is
    (A + A^T)/2 exactly. The discarded skew part E = (A - A^T)/2 is assembly
    rounding (about 2e-12 of ||A|| at N = 512); since v^T E v = 0 for every
    real v, it moves the eigenvalues only at second order. A non-finite
    entry of the reduced matrix raises DiscretizationError.

    The orders are consumed as _collocation_powers yields them: each adds
    into one accumulator M and gives up its row 0, so at most five N x N
    arrays are alive: M, the generator's C and Z, and either two
    consecutive orders (while the next is formed) or one order and its term
    (while that is added). The order-0 term h0 R is written onto M's
    anti-diagonal, and S M S^-1 is formed in place.
    """
    _require_resolution(kernel, n)
    h, k_ord = kernel.h_coeffs, kernel.order
    if k_ord == 0:
        return (np.zeros((n, 0)), np.zeros((0, 0))), h[0] * np.eye(n)[::-1]
    s = np.sqrt(_lobatto_rule(n)[1])
    rows = [np.eye(1, n)[0] / s]
    m = np.zeros((n, n))
    if h[0] != 0.0:
        i = np.arange(n)
        m[i, i[::-1]] = h[0]   # 0 + h0 R, entry for entry
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        for k, dk in enumerate(_collocation_powers(n, kernel.t0, k_ord), 1):
            if h[k] != 0.0:
                m += (-1.0) ** k * h[k] * dk[::-1]
            if k < k_ord:
                rows.append(dk[0, :] / s)
        del dk
        v, t = _null_space_reflectors(np.array(rows))
        m *= s[:, None]
        m /= s
        a = _restrict(m, v, t)
        del m
        reduced = a + a.T
        reduced *= 0.5
    if not np.all(np.isfinite(reduced)):
        raise DiscretizationError(f"non-finite collocation entry at N={n}: the weights "
                                  f"h_k times D^k exceed double precision")
    return (v, t), reduced


def exact_delta_prime_eigs(t0: float, n: int) -> tuple[float, float]:
    """Closed-form n-th eigenvalue pair for the unit first-derivative kernel:
    lambda_n^+ = 2 pi (n - 1/4)/t0, lambda_n^- = -2 pi (n - 3/4)/t0."""
    if n < 1:
        raise DomainError("mode index n must be >= 1")
    if not t0 > 0.0:
        raise DomainError("t0 must be positive")
    return 2.0 * math.pi / t0 * (n - 0.25), -2.0 * math.pi / t0 * (n - 0.75)


def weyl_prediction(kernel: DeltaKernel, n: int) -> tuple[float, float]:
    """Leading eigenvalue growth +-|h_K| (2 pi n / t0)^K for K >= 1, +-inf
    beyond double precision."""
    if kernel.order == 0:
        raise NotApplicableError(
            "order-0 kernels have the two-point spectrum {+h0, -h0}")
    if n < 1:
        raise DomainError("mode index n must be >= 1")
    h, order = abs(float(kernel.h_coeffs[-1])), kernel.order
    with contextlib.suppress(OverflowError):   # a float power raises where it overflows
        lam = h * (2.0 * math.pi * n / kernel.t0) ** order
        if math.isfinite(lam):
            return lam, -lam
    # 2 pi n / t0 overflows below t0 ~ 3.5e-308 n: with t0 = m 2^e and
    # |h_K| = a 2^f, only the final scaling can overflow
    (m, e), (a, f) = math.frexp(kernel.t0), math.frexp(h)
    try:
        lam = math.ldexp(a * (2.0 * math.pi * n / m) ** order, f - order * e)
    except OverflowError:
        lam = math.inf
    return lam, -lam


def _odd_excess(u: np.ndarray, hyperbolic: bool) -> np.ndarray:
    """u - sin u, or sinh u - u, for u > 0 without cancellation: below
    u = 1/2 the Taylor series u^3/6 (1 -+ u^2/20 (1 -+ u^2/42 (...))) to
    u^11, whose first omitted term is below 1e-12 of the sum."""
    v = u * u if hyperbolic else -u * u
    series = u ** 3 / 6.0 * (1.0 + v / 20.0 * (1.0 + v / 42.0 * (1.0 + v / 72.0
                                                                * (1.0 + v / 110.0))))
    direct = np.sinh(u) - u if hyperbolic else u - np.sin(u)
    return np.where(u < 0.5, series, direct)


def _secular_roots(p: float, q: float, k: np.ndarray) -> np.ndarray:
    """x in (k pi, (k + 1) pi) with tan x = (q/p) x, q > 0: x = k pi + theta,
    theta = atan2(q x, p), by Newton's method on theta from pi/2.

    G(theta) = theta - atan2(q x, p) is increasing at its root, convex for
    p > 0, concave for p < 0 and linear for p = 0, and G(pi/2) has the sign
    of p, so the iterates move monotonically to the root. An entry stops
    once its step is below eps x, or once its steps stop shrinking (rounding
    then moves G more than a step does). The first mode for c = q/p just
    above 1 converges linearly from a root near 0, so the cap is 100 steps;
    every other entry takes at most about 10.
    """
    base = k * math.pi
    theta = np.full(k.size, 0.5 * math.pi)
    last = np.full(k.size, np.inf)
    active = np.ones(k.size, dtype=bool)
    for _ in range(100):
        x = base + theta
        step = (theta - np.arctan2(q * x, p)) / (1.0 - p * q / (p * p + (q * x) ** 2))
        active &= np.abs(step) < last
        theta = np.where(active, theta - step, theta)
        last = np.abs(step)
        active &= last > EPS * x
        if not active.any():
            break
    return base + theta


def _sinh_root(c: float) -> float:
    """y > 0 with tanh y = c y, 0 < c < 1, by Newton's method from 1/c:
    c y - tanh y is convex for y > 0 and nonnegative at 1/c, so the iterates
    fall monotonically to the root. Beyond y = 19, tanh y rounds to 1, and
    1/c is the root in double precision."""
    y = 1.0 / c if c > 0.0 else math.inf
    last = math.inf
    while y <= 19.0:
        step = (c * y - math.tanh(y)) / (c - 1.0 / math.cosh(y) ** 2)
        if not abs(step) < last:
            break
        y, last = y - step, abs(step)
        if last <= EPS * y:
            break
    return y


def _first_order_spectrum(kernel: DeltaKernel, n_max: int) -> SpectrumReport:
    """The 2 n_max eigenvalues nearest zero of h0 delta + h1 delta' from the
    secular equation, ascending with aligned residuals.

    With f = sin(w t), x = w t0, (H f)(t) = F(x) cos(w t) + lambda(x) sin(w t),
    F = h0 sin x - (h1/t0) x cos x and lambda = -(h0 cos x + h1 w sin x), so
    the eigenvalues are lambda at the roots of F, that is of tan x = c x with
    c = h1 / (h0 t0). There is one root in each (k pi, (k + 1) pi), k >= 1,
    and the first mode depends on c: a root in (pi/2, pi) for c < 0, in
    (0, pi/2) for c > 1 (pi/2 for h0 = 0), f = t with lambda = -h0 for
    c = 1, and f = sinh(y t / t0) with tanh y = c y and lambda = -h0 / cosh y
    for 0 < c < 1. Along k the signs alternate and |lambda| grows, so the
    first 2 n_max modes are the n_max nearest zero on each side, and each
    mode's index is its bracket.

    The weights are scaled by a power of two, h0 t0 = s p 2^E and
    h1 = s q 2^E with q > 0 and max(|p|, q) in [1/4, 1), so that no
    intermediate leaves double range; an eigenvalue or residual that
    overflows is reported by SpectrumReport, and an eigenvalue that
    underflows to zero raises DiscretizationError. At a root the two terms
    of lambda share their sign, so lambda = -(s 2^E / t0) (p cos x +
    q x sin x) has no cancellation, and a root error dx moves it by at most
    |h1/t0 sin x| dx.

    The residual of a mode is ||H f - lambda f|| / ||f|| for the computed
    root: |F| ||cos(w .)|| / ||sin(w .)|| for sin(w t), |h0 tanh y - h1 y/t0|
    ||cosh(y . / t0)|| / ||sinh(y . / t0)|| for the sinh mode, and
    |h0 t0 - h1| sqrt(3) / t0 <= eps |h0| for f = t; each one plus 8 eps
    times the magnitudes of the terms it sums and of lambda, which bounds
    its rounding, and 2^-1074 for that of a subnormal eigenvalue. H is
    self-adjoint, so an eigenvalue lies within the residual of each one.
    """
    (h0, h1), t0 = kernel.h_coeffs, kernel.t0
    s = math.copysign(1.0, h1)
    m0, e0 = math.frexp(h0)
    mt, et = math.frexp(t0)
    m1, e1 = math.frexp(abs(h1))
    big = max(e0 + et, e1) if h0 else e1
    p, q = math.ldexp(s * m0 * mt, e0 + et - big), math.ldexp(m1, e1 - big)
    k = np.arange(0 if p < q else 1, 2 * n_max)
    with np.errstate(over="ignore"):   # reported by SpectrumReport
        x = _secular_roots(p, q, k)
        sin, cos = np.sin(x), np.cos(x)
        lam_terms = np.abs(p * cos) + np.abs(q * x * sin)
        f_err = np.abs(p * sin - q * x * cos) + ROUNDING * (np.abs(p * sin) + np.abs(q * x * cos))
        ratio = np.sqrt((2.0 * x + np.sin(2.0 * x)) / _odd_excess(2.0 * x, False))
        lam = -s * np.ldexp((p * cos + q * x * sin) / mt, big - et)
        res = np.ldexp((f_err * ratio + ROUNDING * lam_terms) / mt, big - et)
        if p >= q:
            if p == q:   # c = 1
                first, first_res = -h0, EPS * abs(h0)
            else:
                y = _sinh_root(q / p)
                if y <= 19.0:
                    first = -h0 / math.cosh(y)
                elif y < 2300.0:   # 1/cosh y = 2 e^-y, kept in range through 2^-j
                    j = int(y / math.log(2.0))
                    first = -math.ldexp(2.0 * m0 * math.exp(j * math.log(2.0) - y), e0 - j)
                else:
                    first = 0.0
                g_err = abs(p * math.tanh(y) - q * y) + ROUNDING * (p * math.tanh(y) + q * y)
                u = 2.0 * min(y, 350.0)
                ratio_h = math.sqrt((math.sinh(u) + u) / _odd_excess(u, True))
                first_res = np.ldexp(g_err * ratio_h / mt, big - et) + ROUNDING * abs(first)
            lam = np.concatenate([[first], lam])
            res = np.concatenate([[first_res], res])
    if not np.all(lam):
        raise DiscretizationError(f"an eigenvalue of h = ({h0:.6g}, {h1:.6g}) at t0 = "
                                  f"{t0:.6g} underflows double precision")
    order = np.argsort(lam)
    return SpectrumReport(eigenvalues=lam[order], residuals=res[order] + 2.0 ** -1074)


def delta_spectrum(kernel: DeltaKernel, n: int, n_max: int) -> SpectrumReport:
    """Spectrum of the reflection operator, restricted to the trusted modes
    (the first n_max of each sign, n_max <= N/4), ascending with aligned
    residuals; see branches for the two signed branches.

    Order 0 needs no solve: R^2 = I, so e_i +- e_(N-1-i) (and the middle unit
    vector for odd N) are exact eigenvectors of h0 R, and the report is n_max
    copies of -|h0| and of +|h0| with zero residuals. Order 1 needs no matrix
    either: its eigenvalues are the roots of one secular equation, each in a
    bracket of its own (see _first_order_spectrum), so N is only validated
    there (N >= 4K + 8 and n_max <= N/4, as for every order). Higher orders
    are solved by collocation: the reduced matrix is symmetric (see
    build_reflection_operator), so its eigenvalues are real; trusted
    eigenvalues and their residuals must be finite, or the solve is
    reported as a convergence failure. A collocation matrix beyond double
    range, or one whose eigenvalues all vanish because the weights
    underflow, raises DiscretizationError.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if n_max > n // 4:
        raise DomainError(f"n_max={n_max} outside the trust region N/4 = {n // 4}")
    if kernel.order == 0:
        _require_resolution(kernel, n)
        lam = abs(kernel.h_coeffs[0]) * np.repeat([-1.0, 1.0], n_max)
        return SpectrumReport(eigenvalues=lam, residuals=np.zeros(2 * n_max))
    if kernel.order == 1:
        _require_resolution(kernel, n)
        return _first_order_spectrum(kernel, n_max)
    _, reduced = build_reflection_operator(kernel, n)
    w, vecs = dense_eig(reduced)

    # w ascends: the negatives nearest zero end the negative run
    trusted = np.concatenate([np.flatnonzero(w < 0.0)[-n_max:],
                              np.flatnonzero(w > 0.0)[:n_max]])
    if trusted.size == 0:
        raise DiscretizationError(f"every collocation eigenvalue is zero at N={n}: the "
                                  f"weights h_k times D^k underflow double precision")
    lam, cols = w[trusted], vecs[:, trusted]
    with np.errstate(over="ignore", invalid="ignore"):   # reported by SpectrumReport
        residuals = np.linalg.norm(reduced @ cols - cols * lam, axis=0)
    return SpectrumReport(eigenvalues=lam, residuals=residuals)


def branches(eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_plus, lambda_minus) of an ascending spectrum: the positive
    eigenvalues ascending and the negative ones descending toward -infinity."""
    return eigenvalues[eigenvalues > 0.0], eigenvalues[eigenvalues < 0.0][::-1]


def h_squared_spectrum(kernel: DeltaKernel, n: int) -> np.ndarray:
    """Eigenvalues of the squared operator: the order-2K differential operator
    sum_{k,l} (-1)^k h_k h_l D^{k+l} with the K left conditions plus the
    adjoint-side right conditions sum_l (-1)^l h_l f^(k+l)(t0) = 0.

    The square root of this spectrum cross-validates the reflection route
    (eigenvalue magnitudes must agree; signs come from the reflection solve)
    at K <= 2. It is no check at K = 3 and N = 64: the order-6 operator on
    64 nodes misses the squares of a resolved K = 3 spectrum by up to 6e-2
    relative.
    """
    k_ord = kernel.order
    if k_ord < 1:
        raise NotApplicableError("squared-operator route needs K >= 1")
    _require_resolution(kernel, n)
    powers = [np.eye(n)] + list(_collocation_powers(n, kernel.t0, 2 * k_ord))
    m = np.zeros((n, n))
    for k, hk in enumerate(kernel.h_coeffs):
        for l, hl in enumerate(kernel.h_coeffs):
            if hk != 0.0 and hl != 0.0:
                m += (-1.0) ** k * hk * hl * powers[k + l]
    rows = [powers[k][0, :] for k in range(k_ord)]
    for k in range(k_ord):
        row = np.zeros(n)
        for l, hl in enumerate(kernel.h_coeffs):
            if hl != 0.0:
                row += (-1.0) ** l * hl * powers[k + l][-1, :]
        rows.append(row)
    w = np.linalg.eigvals(_restrict(m, *_null_space_reflectors(np.array(rows))))
    keep = np.abs(w.imag) <= RELATIVE_IMAG_TOL * np.maximum(np.abs(w), 1e-300)
    return np.sort(w.real[keep & (w.real > 0.0)])
