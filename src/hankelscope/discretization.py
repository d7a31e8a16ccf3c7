"""Finite real symmetric matrix models of both operator representations:
the integral operator in logarithmic variables (Nystrom on the uniform
x-grid) and the weighted differential operator v Q(D) v (Fourier spectral on
the dual xi-grid, in the real Hartley form U* V C V U with U = (I + iJ)/sqrt(2)
and J the reflection xi -> -xi, exact for real Q and even v; see
build_a_matrix), plus the quadratic-form evaluator that compares the two.

Both sides have about 6.2 L eigenvalues above rounding level, whatever N
is. eigen_sym solves the Hankel side whole, where no row lies below
rounding: one Rayleigh-Ritz step on a sketched range of that width (or
dense, when the width exceeds a third of N), with the other eigenvalues
reported as exact zeros whose residual is the complement bound. Its
symmetry scan runs over square tiles and the assembly and complement over
cache-sized row blocks, so only the dense path (eigh and its residual
product) allocates N x N temporaries. a_spectrum solves the A side on its
weight core alone: the row norms of V C V are one circular convolution,
the rows below rounding are deflated, and only the kept block (about 10 L
rows) is filled and solved. form_identity_check multiplies by the Nystrom
matrix without forming it, by FFT products of Toeplitz triangles weighted
with the profile's Taylor coefficients. Neither allocates an N x N array.

For the reciprocal kernel (P = 1) the Nystrom matrix is symmetric Toeplitz,
so carleman_extremes finds its two spectral ends matrix-free: circulant-
embedding FFT matvecs inside one Lanczos run with DGKS reorthogonalisation
(Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 1976). The ends of its
tridiagonal T_m take O(m) per sweep in pure Python: Laguerre's iteration on
the LDL^T pivots (Li & Zeng, SIAM J. Sci. Comput. 15, 1994) and a twisted
factorization for the eigenvectors (Parlett & Dhillon, Linear Algebra Appl.
267, 1997), so nothing here needs SciPy.

The x-grid and xi-grid form one FFT pairing, so the two discretizations share
a single resolution budget (L, N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coeff_map import QuasiCarlemanKernel, p_to_q
from .errors import ConvergenceError, DiscretizationError, DomainError
from .polynomials import RealPolynomial, is_nonnegative_on_reals
from .special_functions import gamma_half_phase
# f_transform stays importable from here; form_identity_check applies its
# phase once to both test functions instead of calling it twice
from .transforms import LogGrid, f_transform, mellin, u_map, v_eval  # noqa: F401

# essential-spectrum verdict labels
ESS_REALLINE = "R"
ESS_HALFLINE = "[0,inf)"
ESS_UNKNOWN = "unknown"

# rows per elementwise pass over an N x N matrix: 16 rows of N = 2048 doubles
# (256 KB) stay in cache, so no pass allocates an N x N temporary
ROW_BLOCK = 16


@dataclass(frozen=True)
class DiscreteOperator:
    """Dense self-adjoint matrix model of one operator side."""

    matrix: np.ndarray
    grid: LogGrid


@dataclass(frozen=True)
class SpectrumReport:
    """Ascending eigenvalues and their aligned residuals ||M x - lambda x||."""

    eigenvalues: np.ndarray
    residuals: np.ndarray


def _require_resolved(grid: LogGrid) -> None:
    """Nystrom precondition: the trapezoid rule must resolve the kernel width.

    The kernel factor 1/cosh((x - y)/2) has unit width; its trapezoid
    aliasing error is about exp(-2 pi^2 / dx), 2.7e-9 at dx = 1 and O(1)
    beyond, where the finite section can exceed the operator norm.
    """
    if grid.dx > 1.0:
        raise DomainError(f"log-grid spacing dx = 2L/N = {grid.dx:.6g} exceeds 1 and "
                          f"does not resolve the kernel; raise N or lower L")


def _offset_factors(grid: LogGrid) -> tuple[np.ndarray, np.ndarray]:
    """s_d = log1p(e^{-d dx}) = logaddexp(x, y) - max(x, y), in (0, ln 2], and
    c_d = dx / (2 cosh(d dx/2)) on the node offsets d = |i - j| = 0..N-1,
    through e^{-d dx/2} so neither overflows at large L."""
    decay = np.exp(-0.5 * grid.dx * np.arange(grid.N))
    return np.log1p(decay * decay), grid.dx * decay / (1.0 + decay * decay)


def _toeplitz(column: np.ndarray) -> np.ndarray:
    """Read-only N x N view T_ij = column[|i - j|] of a length-N column."""
    return sliding_window_view(np.concatenate([column[:0:-1], column]), column.size)[::-1]


def build_hankel_matrix(kernel: QuasiCarlemanKernel, grid: LogGrid) -> DiscreteOperator:
    """Nystrom matrix M_ij = dx * e^{(x_i+x_j)/2} h(e^{x_i} + e^{x_j}).

    It equals P(logaddexp(x, y)) dx / (2 cosh((x-y)/2)), and with
    x + y = 2 x_0 + (i + j) dx, |x - y| = |i - j| dx it splits into a Hankel
    argument plus a Toeplitz one, times a Toeplitz factor:

        M_ij = P(half_{i+j} + g_{|i-j|}) c_{|i-j|},  half_k = x_0 + k dx/2,
        g_d = d dx/2 + log1p(e^{-d dx}),  c_d = dx e^{-d dx/2} / (1 + e^{-d dx})

    No exponential can overflow, the matrix is exactly symmetric, and only
    the 2N values of g and c are transcendental: the N^2 entries are P on
    strided views, filled ROW_BLOCK rows at a time (sum, Horner and the
    factor c inside one cache-sized block, so nothing N x N but the result
    is allocated). Grids with dx > 1 raise DomainError (see
    _require_resolved); a non-finite entry raises DiscretizationError naming
    its nodes.
    """
    _require_resolved(grid)
    x, n = grid.x_nodes, grid.N
    half = sliding_window_view(x[0] + 0.5 * grid.dx * np.arange(2 * n - 1), n)
    shift, c = _offset_factors(grid)
    toeplitz_g, toeplitz_c = _toeplitz(0.5 * grid.dx * np.arange(n) + shift), _toeplitz(c)
    entries = np.empty((n, n))
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        for i in range(0, n, ROW_BLOCK):
            rows = slice(i, i + ROW_BLOCK)
            block = np.multiply(kernel.profile(half[rows] + toeplitz_g[rows]), toeplitz_c[rows],
                                out=entries[rows])
            bad = ~np.isfinite(block)
            if np.any(bad):
                bi, j = np.unravel_index(int(np.argmax(bad)), block.shape)
                raise DiscretizationError(
                    f"non-finite kernel entry at nodes (x={x[i + bi]:.6g}, y={x[j]:.6g})")
    return DiscreteOperator(matrix=entries, grid=grid)


def _a_side(q: RealPolynomial, grid: LogGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weight v on the xi-nodes and c = ifft(Q(-x)) of the circulant
    Q(D_N), as the even part of Re c and Im c (see build_a_matrix). A zero
    symbol, or a weight that is not even on the grid (v[J] != v, where
    v_eval is bitwise even), raises DomainError; a symbol value beyond double
    range on the x-grid raises DiscretizationError."""
    if q.is_zero:
        raise DomainError("the a-side model requires a nonzero symbol polynomial")
    n = grid.N
    reflect = -np.arange(n) % n
    v = v_eval(grid.xi_nodes)
    if not np.array_equal(v[reflect], v):
        raise DomainError("the real a-side model needs a weight even on the xi-grid")
    x_dual = 2.0 * math.pi * np.fft.fftfreq(n, d=grid.dxi)
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        c = np.fft.ifft(q(-x_dual))
    if not np.all(np.isfinite(c)):
        raise DiscretizationError("non-finite symbol value on the x-grid: Q(x) exceeds "
                                  "double precision there")
    return v, 0.5 * (c.real + c.real[reflect]), c.imag


def _hartley_entries(v: np.ndarray, even: np.ndarray, odd: np.ndarray,
                     rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The entries v_a v_b [even_{(a-b) mod N} - odd_{(a+b) mod N}] of the
    real form (see build_a_matrix) for a in rows and b in cols."""
    n = v.size
    return np.multiply.outer(v[rows], v[cols]) * (even[(rows[:, None] - cols) % n]
                                                  - odd[(rows[:, None] + cols) % n])


def build_a_matrix(q: RealPolynomial, grid: LogGrid) -> DiscreteOperator:
    """Spectral model V Q(D_N) V on the xi-nodes, D = i d/d xi, as a real
    symmetric matrix: the whole-matrix reference for a_spectrum.

    Q(D) acts on the mode e^{i x xi} as multiplication by Q(-x), x over the
    x-nodes, so Q(D_N) is the circulant C_ab = c_{(a-b) mod N}, c = ifft(Q(-x)).
    For real Q and even v, conj(V C V) = J (V C V) J with J: p -> (N - p) mod N
    (xi -> -xi), so the unitary U = (I + iJ)/sqrt(2) gives the real form

        (U* V C V U)_ab = v_a v_b [Re c_{(a-b) mod N} - Im c_{(a+b) mod N}]

    with the spectrum, trace and Frobenius norm of V C V, filled ROW_BLOCK
    rows at a time by _hartley_entries. Taking the even part of Re c makes
    the result exactly symmetric. See _a_side for the errors.
    """
    v, even, odd = _a_side(q, grid)
    n = grid.N
    nodes = np.arange(n)
    m = np.empty((n, n))
    for i in range(0, n, ROW_BLOCK):
        m[i:i + ROW_BLOCK] = _hartley_entries(v, even, odd, nodes[i:i + ROW_BLOCK], nodes)
    return DiscreteOperator(matrix=m, grid=grid)


def _require_finite(eigenvalues: np.ndarray, residuals: np.ndarray) -> None:
    if not (np.all(np.isfinite(eigenvalues)) and np.all(np.isfinite(residuals))):
        raise ConvergenceError("non-finite eigenvalue or residual: the matrix entries "
                               "are too large for double precision")


def _full_report(theta: np.ndarray, residuals: np.ndarray, n: int,
                 zero_residual: float) -> SpectrumReport:
    """theta with its residuals and n - theta.size exact zeros with residual
    zero_residual, in ascending order; ConvergenceError if any is not finite."""
    w = np.concatenate([theta, np.zeros(n - theta.size)])
    order = np.argsort(w, kind="stable")
    residuals = np.concatenate([residuals, np.full(n - theta.size, zero_residual)])[order]
    _require_finite(w, residuals)
    return SpectrumReport(eigenvalues=w[order], residuals=residuals)


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:   # non-finite entries
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc


# complement bound ||M - (MQ) Q^T||_F accepted for the sketched range Q,
# relative to ||M||_F; sketch columns beyond the phase-space count
RANGE_TOL = 1e-13
OVERSAMPLING = 32


def sketch_width(L: float) -> int:
    """Phase-space count of the eigenvalues above RANGE_TOL max|lambda|, plus
    oversampling: both sides act like the symbol P(x) pi / cosh(pi xi) on
    |x| <= L, which exceeds eps max|lambda| on an area of about
    4 L ln(2/eps) / pi, that is (2L / pi^2) ln(2/eps) = 6.2 L eigenvalues
    at eps = 1e-13."""
    return math.ceil(2.0 * L / math.pi ** 2 * math.log(2.0 / RANGE_TOL)) + OVERSAMPLING


def _deflation(row_sq: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Rows to keep and delta >= ||M - PMP||_F, P the projection on them,
    given upper bounds row_sq on the squared row norms.

    The rows of smallest norm are dropped while sqrt(2 * sum of their
    squared norms) <= tol / 2: M - PMP holds the dropped rows and, by
    symmetry, the dropped columns. The kept set is then closed under
    J: a -> -a mod N, which keeps at most a few rows more and makes P commute
    with the Hartley unitary U = (I + iJ)/sqrt(2); delta sums the rows still
    dropped. A non-finite tol keeps every row, with delta 0."""
    n = row_sq.size
    if not math.isfinite(tol):
        return np.arange(n), 0.0
    order = np.argsort(row_sq, kind="stable")
    drop = int(np.searchsorted(np.sqrt(2.0 * np.cumsum(row_sq[order])), 0.5 * tol,
                               side="right"))
    kept = np.zeros(n, dtype=bool)
    kept[order[drop:]] = True
    kept |= kept[-np.arange(n) % n]
    return np.flatnonzero(kept), math.sqrt(2.0 * float(np.sum(row_sq[~kept])))


def _weight_rows(v: np.ndarray, even: np.ndarray,
                 odd: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The squared row norms w_a (w * |c|^2)_a of the complex V C V, w = v^2,
    from one circular convolution, with c scaled by 2^-e so that
    |c| < sqrt(2): returns (those of 2^-e V C V, upper bounds on them, e).

    The FFT convolution of the nonnegative w and |c|^2 errs in each entry by
    at most (2 eps_F + eps)(|w|_1 |c^2|_2 + |w|_2 |c^2|_1), eps_F the
    normwise error of one FFT, at most 4 eps per radix-2 stage with accurate
    twiddles (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Thm 24.2), and |F y|_inf = |y|_1 for y >= 0. The bounds add that
    floor to every entry before the exact factor w_a, are raised by
    (N + 16) eps relative for the roundings of the entries, the products and
    any sum of at most N of them, and by the smallest normal number for
    underflow. So the sum of the bounds over any rows, as computed, is at
    least the true sum. The floor matters where |c|^2 is one spike (a
    constant Q): the convolution is then off by up to 15% in the tail rows.
    """
    n = v.size
    eps = np.finfo(float).eps
    e = math.frexp(float(max(np.max(np.abs(even)), np.max(np.abs(odd)))))[1]
    w = v * v
    c_sq = np.ldexp(even, -e) ** 2 + np.ldexp(odd, -e) ** 2
    floor = (8.0 * math.log2(n) + 1.0) * eps * (
        float(np.sum(w)) * float(np.linalg.norm(c_sq))
        + float(np.linalg.norm(w)) * float(np.sum(c_sq)))
    conv = np.abs(np.fft.irfft(np.fft.rfft(w) * np.fft.rfft(c_sq), n))
    bounds = w * (conv + floor) * (1.0 + (n + 16) * eps) + np.finfo(float).tiny
    return w * conv, bounds, e


def a_spectrum(q: RealPolynomial, grid: LogGrid) -> SpectrumReport:
    """Full spectrum of the A-side model build_a_matrix, from its weight core.

    Row a of the complex V C V has the squared norm w_a (w * |c|^2)_a with
    w = v^2: one circular convolution, whose sum is ||M||_F^2 of both forms
    (they are unitarily similar). _deflation drops the rows below rounding against the budget
    RANGE_TOL ||M||_F and keeps a J-invariant set K, about 10 L rows
    whatever N is. P on K commutes with U, so the real form deflates like
    V C V, and its K x K block is build_a_matrix's entries there: only that
    block is filled and solved by a dense eigh. Its eigenvalues carry their
    explicit residuals plus delta >= ||M - PMP||_F; the other N - |K| are
    exact zeros with residual delta, at most RANGE_TOL / 2 times the bound
    on ||M||_F. |c| is scaled by a power of two for the row norms,
    so ||M||_F may exceed double range; a non-finite eigenvalue or residual
    raises ConvergenceError (see _a_side for the input errors).
    """
    v, even, odd = _a_side(q, grid)
    _, row_sq, e = _weight_rows(v, even, odd)   # upper bounds: delta is a bound
    keep, delta = _deflation(row_sq, RANGE_TOL * math.sqrt(float(np.sum(row_sq))))
    with np.errstate(over="ignore", invalid="ignore"):   # reported by _full_report
        delta = float(np.ldexp(delta, e))
        block = _hartley_entries(v, even, odd, keep, keep)
        theta, s = _eigh(block)
        residuals = np.linalg.norm(block @ s - s * theta, axis=0) + delta
    return _full_report(theta, residuals, grid.N, delta)


def _sketched_range(m: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal Q (N x width) for the dominant range of m and the product
    m Q: one pass of a fixed-seed Gaussian sketch, Q = qr(m Omega) (Halko,
    Martinsson & Tropp, SIAM Review 2011, sections 4.3-4.5). The spectra
    here decay like pi / cosh(pi xi), fast enough that a power iteration
    buys nothing; eigen_sym's complement bound checks every range anyway."""
    omega = np.random.default_rng(0).standard_normal((m.shape[0], width))
    q = np.linalg.qr(m @ omega)[0]
    return q, m @ q


# side of the square tiles of the symmetry scan: a 128 x 128 tile of doubles
# (128 KB) and its mirror tile stay in cache
TILE = 128


def _row_scan(m: np.ndarray) -> tuple[float, float, np.ndarray]:
    """The symmetry defect max|m - m^T|, max|m| and the squared row norms.

    The defect compares each TILE x TILE tile on or above the diagonal with
    the transpose of its mirror tile, so no full transpose or N x N
    temporary is formed; max|m| and the row norms are one pass each. np.max
    over the partial maxima, so a NaN propagates."""
    n = m.shape[0]
    defect = []
    for i in range(0, n, TILE):
        for j in range(i, n, TILE):
            diff = m[i:i + TILE, j:j + TILE] - m[j:j + TILE, i:i + TILE].T
            defect += [np.max(diff), -np.min(diff)]
    return (float(np.max(defect)), float(np.max([np.max(m), -np.min(m)])),
            np.einsum("ij,ij->i", m, m))


def _complement(m: np.ndarray, q: np.ndarray, mq: np.ndarray) -> float:
    """||M - (MQ) Q^T||_F accumulated over blocks of 8 ROW_BLOCK rows, enough
    for each GEMM to run at speed, instead of two N x N temporaries."""
    qt, total, step = q.T, 0.0, 8 * ROW_BLOCK
    for i in range(0, m.shape[0], step):
        d = mq[i:i + step] @ qt
        np.subtract(m[i:i + step], d, out=d)
        total += float(np.vdot(d, d))
    return math.sqrt(total)


def _rayleigh_ritz(m: np.ndarray, width: int, budget: float):
    """Ritz pairs of m on a sketched range of width columns, doubled until
    the complement is at most budget; once 3 * width > N, the dense eigh.
    Returns (theta, residuals, width, complement)."""
    n = m.shape[0]
    while 3 * width <= n:
        q, mq = _sketched_range(m, width)
        complement = _complement(m, q, mq)
        if complement <= budget:
            break
        width *= 2
    else:
        q, mq, width, complement = None, m, n, 0.0
    theta, s = _eigh(m if q is None else q.T @ mq)
    vecs = s if q is None else q @ s
    return theta, np.linalg.norm(mq @ s - vecs * theta, axis=0), width, complement


def eigen_sym(op: DiscreteOperator) -> SpectrumReport:
    """Full spectrum of a real symmetric discrete operator from one
    Rayleigh-Ritz step on a sketched range of about sketch_width(L) columns.

    One scan gives the symmetry defect, max|m| and the squared row norms,
    whose sum is ||M||_F^2. The sketch width doubles until the complement
    bound ||M - (MQ) Q^T||_F (accumulated over row blocks) is within
    RANGE_TOL ||M||_F. Once the width exceeds a third of N (a sketch breaks
    even near 0.45 N), Q is the identity and this is the dense eigh. The
    Ritz pairs carry explicit residuals; the other N - width eigenvalues are
    exact zeros whose residual, the complement bound, covers ||M z|| for
    every unit z orthogonal to the Ritz vectors. Each reported value is
    within its residual of an eigenvalue of M. Nothing is deflated: on the
    Hankel side even the smallest row is above the rounding budget, and the
    A side solves its weight core in a_spectrum. A non-finite eigenvalue or
    residual raises ConvergenceError.
    """
    m = op.matrix
    with np.errstate(over="ignore", invalid="ignore"):   # reported by _full_report
        sym_defect, peak, row_sq = _row_scan(m)
        if sym_defect > 1e-12 * max(peak, 1e-300):
            raise DiscretizationError(f"matrix not symmetric: defect {sym_defect:.3e}")
        theta, residuals, width, complement = _rayleigh_ritz(
            m, sketch_width(op.grid.L), RANGE_TOL * math.sqrt(float(np.sum(row_sq))))
    return _full_report(theta, residuals, m.shape[0], complement)


def _carleman_matvec(grid: LogGrid):
    """x -> M x for the P = 1 Nystrom matrix, the symmetric Toeplitz
    M_ij = c_{|i-j|}, c_k = dx / (2 cosh(k dx / 2)), as one 2N circulant
    embedding [c_0 .. c_{N-1}, 0, c_{N-1} .. c_1] (Chan & Ng 1996)."""
    _require_resolved(grid)
    n = grid.N
    column = _offset_factors(grid)[1]
    symbol = np.fft.rfft(np.concatenate([column, [0.0], column[:0:-1]]))
    return lambda v: np.fft.irfft(symbol * np.fft.rfft(v, 2 * n), 2 * n)[:n]


# pivot floor of the scaled tridiagonal (entries below 1 in magnitude): a
# smaller pivot is replaced by -/+_PIVMIN, so every quotient stays finite
_PIVMIN = 2.0 ** -1000
# room for about 55 halvings of the Gershgorin interval down to tol, plus the
# Laguerre steps between them
_MAX_SWEEPS = 200


def _laguerre_sweep(a: list, b2: list, x: float) -> tuple[int, float, float]:
    """One O(m) pass over the LDL^T pivots d_i of x I - T, with b2[i] the
    squared coupling of row i to row i - 1 (b2[0] = 0).

    Returns the number of negative pivots, which is the number of
    eigenvalues above x (Sylvester), and G = p'/p, H = -(p'/p)' of
    p(x) = det(x I - T) = prod d_i, from the recurrences for r_i = d_i'/d_i
    and w_i = d_i''/d_i. A pivot within _PIVMIN of 0 counts as negative
    (LAPACK's dstebz convention)."""
    count = 0
    g = h = r = w = 0.0
    d = 1.0
    for ai, bb in zip(a, b2):
        e = bb / d
        u = 1.0 + e * r
        v = e * (w - 2.0 * r * r)
        d = x - ai - e
        if d < _PIVMIN:
            count += 1
            if d > -_PIVMIN:
                d = -_PIVMIN
        r = u / d
        w = v / d
        g += r
        h += r * r - w
    return count, g, h


def _top_eigenvalue(a: list, b2: list, x: float, lo: float, hi: float, tol: float) -> float:
    """Largest eigenvalue of the tridiagonal (a, b2), bracketed by lo (not
    above it) and hi (above the spectrum), by Laguerre's iteration from the
    start x (Li & Zeng, SIAM J. Sci. Comput. 15, 1994).

    Laguerre's step for a polynomial with real roots never passes the
    nearest root: from above the spectrum (no negative pivot) it moves down,
    from between the top two eigenvalues (one negative pivot) it moves up,
    and it converges cubically to lambda_max from either side. Each sweep's
    pivot count tightens [lo, hi]. The iteration bisects the bracket instead
    when no step can be formed (more than one eigenvalue above x, a
    non-finite G or H), when the step leaves the bracket, and when a step is
    more than half the one before: from far outside a cluster Laguerre
    converges only linearly, and halving isolates the end first. A step
    that lands on the root by rounding is converged, not halved: the
    iteration stops when a step is at most tol or the bracket is. A start
    with an eigenvalue above it is dropped for hi: near a multiple
    eigenvalue below the top, G and the square root cancel to rounding, and
    the step they give is tiny enough to pass for convergence."""
    n = len(a)
    last = math.inf
    for sweep in range(_MAX_SWEEPS):
        count, g, h = _laguerre_sweep(a, b2, x)
        if count == 0:
            hi = x
        else:
            lo = x
            if sweep == 0:
                x = hi
                continue
        step = math.nan
        if count <= 1 and math.isfinite(g) and math.isfinite(h):
            disc = (n - 1) * (n * h - g * g)
            root = math.sqrt(disc) if disc > 0.0 else 0.0
            denom = g + root if count == 0 else g - root
            if denom != 0.0:
                step = n / denom
        if abs(step) <= tol:
            return x - step
        if abs(step) <= 0.5 * last and lo < x - step < hi:
            x, last = x - step, abs(step)
        else:
            x, last = 0.5 * (lo + hi), math.inf
        if hi - lo <= tol:
            return x
    raise ConvergenceError("Laguerre iteration on the Lanczos tridiagonal did not converge")


def _pivots(shifted: list, b2: list) -> np.ndarray:
    """LDL^T pivots of the tridiagonal with diagonal shifted and squared
    couplings b2 (b2[0] = 0), top down; a pivot within _PIVMIN of 0 becomes
    _PIVMIN."""
    out = [0.0] * len(shifted)
    d = 1.0
    for i, (ai, bb) in enumerate(zip(shifted, b2)):
        d = ai - bb / d
        if -_PIVMIN < d < _PIVMIN:
            d = _PIVMIN
        out[i] = d
    return np.array(out)


def _twisted_vector(a: np.ndarray, b: np.ndarray, b2: list, lam: float) -> np.ndarray:
    """Unit eigenvector of the tridiagonal (a, b) for the eigenvalue lam, by
    a twisted factorization (Parlett & Dhillon, Linear Algebra Appl. 267,
    1997): the top-down pivots D+ and bottom-up pivots D- of T - lam I meet
    at the twist r minimising |gamma_r| = |D+_r + D-_r - (a_r - lam)|, and
    N_r z = gamma_r e_r is solved outward from z_r = 1 as two cumulative
    products of the multipliers -b / D. The residual is |gamma_r| / ||z||,
    at rounding level for an eigenvalue accurate to rounding, however small
    the last component is. ConvergenceError if z overflows."""
    shifted = a - lam
    plus = _pivots(shifted.tolist(), b2)
    minus = _pivots(shifted[::-1].tolist(), [0.0] + b2[:0:-1])[::-1]
    r = int(np.argmin(np.abs(plus + minus - shifted)))
    z = np.ones(a.size)
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        z[:r] = np.cumprod((-b[:r] / plus[:r])[::-1])[::-1]
        z[r + 1:] = np.cumprod(-b[r:] / minus[r + 1:])
        z /= np.max(np.abs(z))   # |z_r| = 1, and the norm's squares cannot overflow
    if not np.all(np.isfinite(z)):
        raise ConvergenceError("twisted factorization of the Lanczos tridiagonal overflowed")
    return z / np.linalg.norm(z)


def _tridiagonal_ends(alpha: np.ndarray, beta: np.ndarray, starts=None):
    """Smallest and largest eigenpairs of the symmetric tridiagonal T with
    diagonal alpha (m) and off-diagonal beta (m - 1), in O(m) per sweep.

    T is scaled by a power of two (exact) so its largest entry lies in
    [1/2, 1). Each end comes from _top_eigenvalue (the bottom one as the
    top of -T), started at starts = (below, above), points expected outside
    the spectrum such as the previous test's extremes moved out by their
    residual bounds, or else (also where a start proves to lie inside the
    spectrum) at the Gershgorin bounds; the eigenvectors come from
    _twisted_vector. Returns (theta, s): theta = [lambda_min, lambda_max]
    and the unit eigenvectors as the columns of s (m x 2); the zero matrix
    gives zeros and the first and last unit vectors. The entries must be
    finite; ConvergenceError if an end does not converge in _MAX_SWEEPS
    sweeps or overflows on unscaling."""
    peak = float(max(np.max(np.abs(alpha)), np.max(np.abs(beta), initial=0.0)))
    if peak == 0.0:
        return np.zeros(2), np.eye(alpha.size)[:, [0, -1]]
    shift = -math.frexp(peak)[1]
    with np.errstate(over="ignore"):   # an overflowing start is not inside (lo, hi)
        a, b = np.ldexp(alpha, shift), np.ldexp(beta, shift)
        guess = (None, None) if starts is None else np.ldexp(np.asarray(starts, float), shift)
    b2 = [0.0] + (b * b).tolist()
    radius = np.abs(np.concatenate([[0.0], b])) + np.abs(np.concatenate([b, [0.0]]))
    gl, gu = float(np.min(a - radius)), float(np.max(a + radius))
    tol = 2.0 * math.ulp(1.0) * max(-gl, gu, _PIVMIN)
    gl, gu = gl - 2.0 * tol, gu + 2.0 * tol
    lams, vectors = np.empty(2), np.empty((alpha.size, 2))
    for k, sign in enumerate((-1.0, 1.0)):
        lo, hi = (-gu, -gl) if sign < 0 else (gl, gu)
        x = hi if guess[k] is None else sign * float(guess[k])
        lam = _top_eigenvalue((sign * a).tolist(), b2, x if lo < x < hi else hi, lo, hi, tol)
        lams[k] = sign * lam
        vectors[:, k] = _twisted_vector(sign * a, sign * b, b2, lam)
    with np.errstate(over="ignore"):   # reported below
        theta = np.ldexp(lams, -shift)
    if not np.all(np.isfinite(theta)):
        raise ConvergenceError("a tridiagonal end overflows double precision")
    return theta, vectors


def _lanczos_extremes(matvec, v0: np.ndarray):
    """Smallest and largest eigenpairs of a symmetric operator from one
    deterministic Lanczos run (Paige; Parlett, The Symmetric Eigenvalue
    Problem) with full reorthogonalisation.

    Each step subtracts alpha q_j + beta q_{j-1}, then makes one classical
    Gram-Schmidt pass against the whole basis, and a second pass only when
    that pass shrank the norm below 1/sqrt(2) of its value (the DGKS rule:
    Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 1976).

    Stops when both extreme Ritz residual bounds beta_m |s_m,i| are at most
    1e-13 max|theta|, at breakdown (beta_m = 0 meets the same test), or at
    m = N. The test finds the two ends of T_m by _tridiagonal_ends, O(m) per
    sweep and warm-started from the previous test's extremes moved out by
    their bounds; it runs only every 8 steps, at breakdown and at m = N, so
    a run takes at most 7 matvecs more than a test after every step would.
    Returns (theta, residuals, steps) with theta = [lambda_min, lambda_max]
    and the explicit residuals ||M y - theta y|| of the Ritz vectors, one
    matvec each.
    """
    n = v0.size
    basis = np.empty((min(n, 64), n))
    basis[0] = v0 / np.linalg.norm(v0)
    alpha, beta = np.empty(n), np.empty(n)
    starts = None
    for m in range(1, n + 1):
        w = matvec(basis[m - 1])
        alpha[m - 1] = basis[m - 1] @ w
        w -= alpha[m - 1] * basis[m - 1]
        if m > 1:
            w -= beta[m - 2] * basis[m - 2]
        before = np.linalg.norm(w)
        w -= basis[:m].T @ (basis[:m] @ w)
        beta[m - 1] = np.linalg.norm(w)
        if beta[m - 1] < before / math.sqrt(2.0):
            w -= basis[:m].T @ (basis[:m] @ w)
            beta[m - 1] = np.linalg.norm(w)
        if not (math.isfinite(alpha[m - 1]) and math.isfinite(beta[m - 1])):
            raise ConvergenceError("Lanczos recurrence produced a non-finite coefficient")
        if m % 8 == 0 or m == n or beta[m - 1] == 0.0:
            theta, s = _tridiagonal_ends(alpha[:m], beta[:m - 1], starts)
            bounds = beta[m - 1] * np.abs(s[-1])
            scale = float(np.max(np.abs(theta)))
            if m == n or np.all(bounds <= 1e-13 * scale):
                break
            # moved out by the bound, the next test starts outside its spectrum and
            # off T_m's own eigenvalue, where the pivot recurrence cancels
            pad = bounds + 4.0 * np.finfo(float).eps * scale
            starts = (theta[0] - pad[0], theta[1] + pad[1])
        if m == basis.shape[0]:
            basis = np.concatenate([basis, np.empty((min(m, n - m), n))])
        basis[m] = w / beta[m - 1]
    ritz = s.T @ basis[:m]
    residuals = np.array([np.linalg.norm(matvec(y) - t * y) for t, y in zip(theta, ritz)])
    _require_finite(theta, residuals)
    return theta, residuals, m


def carleman_extremes(grid: LogGrid) -> tuple[SpectrumReport, int]:
    """The two spectral ends of the reciprocal-kernel (P = 1) Nystrom matrix,
    matrix-free: Toeplitz FFT matvecs inside one Lanczos run.

    Returns (report, steps): eigenvalues [lambda_min, lambda_max] with their
    explicit residuals, and the number of Lanczos steps taken.
    The start vector 1 + (-1)^j has components in both reflection classes
    (j -> N-1-j); a reflection-even start such as ones sees only the even
    eigenvectors and can miss an end. lambda_min is the converged bottom of
    a cluster of rounding-level eigenvalues.
    """
    v0 = 1.0 + (-1.0) ** np.arange(grid.N)
    theta, residuals, steps = _lanczos_extremes(_carleman_matvec(grid), v0)
    return SpectrumReport(eigenvalues=theta, residuals=residuals), steps


class FactoryTestFunction:
    """Seeded smooth, rapidly decaying test function on (0, infinity):
    f(t) = t^{-1/2} phi(ln t).

    phi is a Gaussian-windowed, modulated sinc: effectively band-limited, and
    decaying faster than any power of (1 + |ln t|) over the sampled range (the
    window width scales with the grid half-width so truncated mass stays at
    rounding level). Membership in the ideal test class is approximate and
    only certified on the sampled range.
    """

    def __init__(self, seed: int, grid: LogGrid):
        rng = np.random.default_rng(seed)
        self.bandwidth = 1.5 + 2.0 * rng.random()
        self.window = (grid.L / 8.0) * (0.95 + 0.10 * rng.random())
        self.center = -1.0 + 2.0 * rng.random()
        self.modulation = -2.0 + 4.0 * rng.random()

    def log_profile(self, x):
        """The profile phi evaluated in the logarithmic variable."""
        x = np.asarray(x, dtype=float)
        s = x - self.center
        return (np.sinc(self.bandwidth * s / math.pi)
                * np.exp(-0.5 * (s / self.window) ** 2)
                * np.cos(self.modulation * s))

    def __call__(self, t):
        lt = np.log(np.asarray(t, dtype=float))
        return np.exp(-0.5 * lt) * self.log_profile(lt)


@dataclass(frozen=True)
class IdentityCheck:
    """Both sides of the quadratic-form identity and their relative gap."""

    lhs: complex
    rhs: complex
    relative_gap: float
    violation: bool  # gap above the discretization-adequacy threshold


def _taylor_rows(p: RealPolynomial, x: np.ndarray) -> np.ndarray:
    """Rows P^(k)(x) / k!, k = 0..deg P, on the nodes x: Horner's scheme
    repeated on the coefficients (the Taylor shift to each node), in
    O(deg^2 N)."""
    rows = np.repeat(p.coeffs[:, None], x.size, axis=1)
    top = rows.shape[0] - 1
    for k in range(top):
        for j in range(top - 1, k - 1, -1):
            rows[j] += x * rows[j + 1]
    return rows


def _hankel_product(kernel: QuasiCarlemanKernel, grid: LogGrid, u: np.ndarray) -> np.ndarray:
    """M u for the Nystrom matrix M of build_hankel_matrix, without forming M.

    logaddexp(x_i, x_j) = max(x_i, x_j) + s_{|i-j|}, with the shift s_d of
    _offset_factors in (0, ln 2]. Expanding each triangle's entries about its
    larger node,

        M u = sum_k [p_k o (T_k^low u) + T_k^up (p_k o u)],  p_k = P^(k)(x) / k!,

    where T_k is the Toeplitz matrix of the column c_d s_d^k, split into its
    lower triangle with the diagonal and its strict upper triangle. The
    shift is small and positive, so the Taylor terms shrink with k and do not
    cancel. Each product is one circulant embedding of size 2N (Chan & Ng
    1996), whose strict upper part has the conjugate symbol less c_0 s_0^k,
    and the upper terms share one inverse FFT: O(deg N log N) in all. dx > 1
    raises DomainError (see _require_resolved); a non-finite p_k names its
    node, and a non-finite product raises the same DiscretizationError.
    """
    if np.iscomplexobj(u):
        return _hankel_product(kernel, grid, u.real) + 1j * _hankel_product(kernel, grid, u.imag)
    _require_resolved(grid)
    n, x = grid.N, grid.x_nodes
    shift, column = _offset_factors(grid)
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        taylor = _taylor_rows(kernel.profile, x)
        bad = np.any(~np.isfinite(taylor), axis=0)
        if np.any(bad):
            raise DiscretizationError(
                f"non-finite kernel entry at node x={x[int(np.argmax(bad))]:.6g}")
        spectrum_u = np.fft.rfft(u, 2 * n)
        out, upper = np.zeros(n), np.zeros(n + 1, dtype=complex)
        for p_k in taylor:
            lower = np.fft.rfft(column, 2 * n)
            out += p_k * np.fft.irfft(lower * spectrum_u, 2 * n)[:n]
            upper += np.conj(lower - column[0]) * np.fft.rfft(p_k * u, 2 * n)
            column = column * shift
        out += np.fft.irfft(upper, 2 * n)[:n]
    if not np.all(np.isfinite(out)):
        raise DiscretizationError("non-finite kernel entry in the product M u: "
                                  "it overflows double precision")
    return out


def form_identity_check(p: RealPolynomial, f1, f2, grid: LogGrid) -> IdentityCheck:
    """Compare (H f1, f2) against (A F f1, F f2) on one grid.

    lhs: double log-variable quadrature of the integral operator, as
    dx <u2, M u1> with the structured product _hankel_product.
    rhs: single quadrature of v * Q(D)(v * Ff1) * conj(Ff2) with the spectral
    derivative, evaluated on the 3-times zero-extended grid: the xi-sampling
    error of the weight decays like exp(-3 L), while the x-extension adds
    nothing because the integrands already vanish at the window edge. F is
    f_transform's gamma-phase Mellin transform, with the phase computed once
    for both test functions.
    A gap above 1e-3 flags discretization inadequacy (violation), not a math
    failure; a form or gap beyond double range raises DiscretizationError.
    """
    u1 = u_map(f1, grid)
    u2 = u_map(f2, grid)
    lhs = complex(grid.dx * np.vdot(u2.values,
                                    _hankel_product(QuasiCarlemanKernel(p), grid, u1.values)))

    grid_p = LogGrid(L=3 * grid.L, N=3 * grid.N)
    m1 = mellin(u_map(f1, grid_p))
    m2 = mellin(u_map(f2, grid_p))
    phase = gamma_half_phase(m1.coords)
    g1, g2 = phase * m1.values, phase * m2.values
    v = v_eval(m1.coords)
    q = p_to_q(p)
    x_dual = 2.0 * math.pi * np.fft.fftfreq(grid_p.N, d=grid_p.dxi)
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        qdw = np.fft.ifft(q(-x_dual) * np.fft.fft(v * g1))
        rhs = complex(grid_p.dxi * np.sum(v * qdw * np.conj(g2)))
    try:
        scale = max(abs(lhs), abs(rhs))
        gap = abs(lhs - rhs) / scale if scale > 0.0 else 0.0
    except OverflowError:   # a modulus beyond double range
        gap = math.inf
    if not (np.isfinite(lhs) and np.isfinite(rhs) and math.isfinite(gap)):
        raise DiscretizationError("non-finite quadratic form: the identity check exceeds "
                                  "double precision")
    return IdentityCheck(lhs=lhs, rhs=rhs, relative_gap=gap, violation=gap > 1e-3)


def essential_spectrum(p: RealPolynomial) -> str:
    """Essential spectrum by degree parity: the whole line for odd degree, the
    right half-line for even degree with positive leading coefficient (theorem
    predictions; finite sections only corroborate). Preconditions not met
    (constant P, or even degree with nonpositive leading coefficient) give
    ESS_UNKNOWN."""
    k = p.degree
    if k >= 1 and k % 2 == 1:
        return ESS_REALLINE
    if k >= 1 and p.leading > 0.0:
        return ESS_HALFLINE
    return ESS_UNKNOWN


def spectral_rules(p: RealPolynomial, eigenvalues: np.ndarray) -> dict:
    """What the theorems say about the profile P, beside the extremes and the
    negative count of its finite-section spectrum (ascending).

    essential_spectrum: see essential_spectrum. certificate: the nonnegativity
    certificate of the symbol Q = p_to_q(P), whose `nonnegative` is the
    positivity verdict; None whenever the essential-spectrum preconditions
    are not met.
    """
    ess = essential_spectrum(p)
    scale = float(np.max(np.abs(eigenvalues)))
    return {
        "essential_spectrum": ess,
        "certificate": None if ess == ESS_UNKNOWN else is_nonnegative_on_reals(p_to_q(p)),
        "min_eigenvalue": float(eigenvalues[0]),
        "max_eigenvalue": float(eigenvalues[-1]),
        "negative_count": int(np.sum(eigenvalues < -1e-10 * max(scale, 1e-300))),
    }
