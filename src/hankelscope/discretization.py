"""Finite real symmetric matrix models of both operator representations:
the integral operator in logarithmic variables (Nystrom on the uniform
x-grid) and the weighted differential operator v Q(D) v (Fourier spectral on
the dual xi-grid, in the real Hartley form U* V C V U with U = (I + iJ)/sqrt(2)
and J the reflection xi -> -xi, exact for real Q and even v; see
build_a_matrix), plus the quadratic-form evaluator that compares the two.

Both sides have about 6.2 L eigenvalues above rounding level, whatever N
is. hankel_spectrum solves the Hankel side whole, where no row lies below
rounding, without forming its matrix: _sampled_spectrum takes one
Rayleigh-Ritz step on the range of about that many kernel rows, with the
other eigenvalues reported as exact zeros whose residual is the complement
bound, and only the dense route (when the rows would exceed half of N)
allocates N x N. eigen_sym runs the same solver on rows copied from any
symmetric matrix it is given. a_spectrum solves the A side on its weight
core alone: the row norms of V C V are one circular convolution, the rows
below rounding are deflated, and only the kept block (about 10 L rows) is
filled and solved. form_identity_check multiplies by the Nystrom matrix
without forming it, by FFT products of Toeplitz triangles weighted with
the profile's Taylor coefficients. None of the three allocates an N x N
array.

For the reciprocal kernel (P = 1) carleman_extremes solves on Gauss-Legendre
nodes instead (Nystrom with M = S K S, S the square roots of the weights):
the kernel is analytic in a strip, so the two spectral ends converge
exponentially in the node count, and sketch_width(L) nodes (at most N)
give them to rounding in one dense eigh.

The x-grid and xi-grid form one FFT pairing, so the two discretizations share
a single resolution budget (L, N).
"""

from __future__ import annotations

import math
import sys
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
    """Ascending eigenvalues and their aligned residuals ||M x - lambda x||.

    Construction raises ConvergenceError when either array holds a
    non-finite entry, so no report carries one."""

    eigenvalues: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite(self.eigenvalues)) and np.all(np.isfinite(self.residuals))):
            raise ConvergenceError("non-finite eigenvalue or residual: a value exceeds "
                                   "double precision")


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


def _hankel_rows(kernel: QuasiCarlemanKernel, grid: LogGrid, scale: int = 0):
    """The row filler of build_hankel_matrix: fill(rows, out) writes the
    rows (2^-scale M)[rows, :] (a slice or an index array) into out and
    returns it.

    Each entry is P(half_{i+j} + g_{|i-j|}) c_{|i-j|} (see
    build_hankel_matrix), the same floating-point operations whatever rows
    are asked for, so M[J, :] equals M[:, J].T bit for bit. The scale goes
    into the N factors c, so P is evaluated unscaled. Grids with dx > 1
    raise DomainError (see _require_resolved); a non-finite entry, which
    arises exactly where P overflows since c <= 1/2, raises
    DiscretizationError naming its nodes.
    """
    _require_resolved(grid)
    x, n = grid.x_nodes, grid.N
    half = sliding_window_view(x[0] + 0.5 * grid.dx * np.arange(2 * n - 1), n)
    shift, c = _offset_factors(grid)
    toeplitz_g = _toeplitz(0.5 * grid.dx * np.arange(n) + shift)
    toeplitz_c = _toeplitz(np.ldexp(c, -scale))

    def fill(rows, out: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):   # reported below
            np.add(half[rows], toeplitz_g[rows], out=out)   # P's argument, in place
            block = np.multiply(kernel.profile(out), toeplitz_c[rows], out=out)
        bad = ~np.isfinite(block)
        if np.any(bad):
            bi, j = np.unravel_index(int(np.argmax(bad)), block.shape)
            raise DiscretizationError(
                f"non-finite kernel entry at nodes (x={x[rows][bi]:.6g}, y={x[j]:.6g})")
        return block
    return fill


def build_hankel_matrix(kernel: QuasiCarlemanKernel, grid: LogGrid) -> DiscreteOperator:
    """Nystrom matrix M_ij = dx * e^{(x_i+x_j)/2} h(e^{x_i} + e^{x_j}).

    It equals P(logaddexp(x, y)) dx / (2 cosh((x-y)/2)), and with
    x + y = 2 x_0 + (i + j) dx, |x - y| = |i - j| dx it splits into a Hankel
    argument plus a Toeplitz one, times a Toeplitz factor:

        M_ij = P(half_{i+j} + g_{|i-j|}) c_{|i-j|},  half_k = x_0 + k dx/2,
        g_d = d dx/2 + log1p(e^{-d dx}),  c_d = dx e^{-d dx/2} / (1 + e^{-d dx})

    No exponential can overflow, the matrix is exactly symmetric, and only
    the 2N values of g and c are transcendental: the N^2 entries are P on
    strided views, filled ROW_BLOCK rows at a time by _hankel_rows (sum,
    Horner and the factor c inside one cache-sized block, so nothing N x N
    but the result is allocated). See _hankel_rows for the errors.
    """
    return DiscreteOperator(matrix=_filled(_hankel_rows(kernel, grid), grid.N), grid=grid)


def _filled(fill, n: int) -> np.ndarray:
    """The N x N matrix of a row filler fill(rows, out) (see _hankel_rows),
    ROW_BLOCK rows at a time."""
    entries = np.empty((n, n))
    for i in range(0, n, ROW_BLOCK):
        fill(slice(i, i + ROW_BLOCK), entries[i:i + ROW_BLOCK])
    return entries


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

    with the spectrum, trace and Frobenius norm of V C V, filled by _filled
    from _hartley_entries. Taking the even part of Re c makes
    the result exactly symmetric. See _a_side for the errors.
    """
    v, even, odd = _a_side(q, grid)
    nodes = np.arange(grid.N)

    def fill(rows, out: np.ndarray) -> np.ndarray:
        out[...] = _hartley_entries(v, even, odd, nodes[rows], nodes)
        return out
    return DiscreteOperator(matrix=_filled(fill, grid.N), grid=grid)


def _full_report(theta: np.ndarray, residuals: np.ndarray, n: int,
                 zero_residual: float) -> SpectrumReport:
    """theta with its residuals and n - theta.size exact zeros with residual
    zero_residual, in ascending order (see SpectrumReport for the errors)."""
    w = np.concatenate([theta, np.zeros(n - theta.size)])
    order = np.argsort(w, kind="stable")
    residuals = np.concatenate([residuals, np.full(n - theta.size, zero_residual)])[order]
    return SpectrumReport(eigenvalues=w[order], residuals=residuals)


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:   # non-finite entries
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc


# complement bound ||M - (MQ) Q^T||_F accepted for the sampled range Q,
# relative to ||M||_F; sampled rows beyond the phase-space count
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
    on ||M||_F: _dense_spectrum pads with residual 0, and delta is added
    here to every residual of its report. |c| is scaled by a power of two
    for the row norms, so ||M||_F may exceed double range; a non-finite
    eigenvalue or residual raises ConvergenceError (see SpectrumReport, and
    _a_side for the input errors).
    """
    v, even, odd = _a_side(q, grid)
    _, row_sq, e = _weight_rows(v, even, odd)   # upper bounds: delta is a bound
    keep, delta = _deflation(row_sq, RANGE_TOL * math.sqrt(float(np.sum(row_sq))))
    with np.errstate(over="ignore", invalid="ignore"):   # reported by SpectrumReport
        report = _dense_spectrum(_hartley_entries(v, even, odd, keep, keep), grid.N)
        return SpectrumReport(eigenvalues=report.eigenvalues,
                              residuals=report.residuals + np.ldexp(delta, e))


# rows per block of the range pass: 64 rows of N = 2048 doubles (1 MiB) are
# enough for each GEMM to run at speed (128 rows are no faster)
PASS_BLOCK = 4 * ROW_BLOCK


def _ritz_on_range(fill, q: np.ndarray) -> SpectrumReport | None:
    """Rayleigh-Ritz on the range of the orthonormal q (N x w), in one pass
    over PASS_BLOCK-row blocks of a symmetric M, each written by the row
    filler fill into one reused buffer: a block gives Y[rows] = M[rows, :] Q
    and adds to ||M||_F^2 and to the complement ||M - Y Q^T||_F^2 (Halko,
    Martinsson & Tropp, SIAM Review 53, 2011, section 4.3).

    None when the complement exceeds RANGE_TOL ||M||_F. Otherwise the Ritz
    pairs from eigh(Q^T Y) carry explicit residuals ||Y s - Q s theta||,
    and the other N - w eigenvalues are exact zeros whose residual, the
    complement, covers ||M z|| for every unit z orthogonal to Q: the report
    is of the matrix fill writes, and a caller that fills a scaled matrix
    scales the report back itself (see hankel_spectrum). A non-finite
    ||M||_F or complement raises ConvergenceError at once."""
    n = q.shape[0]
    y = np.empty_like(q)
    buffer = np.empty((PASS_BLOCK, n))
    fro_sq = complement_sq = 0.0
    for i in range(0, n, PASS_BLOCK):
        rows = slice(i, i + PASS_BLOCK)
        block = fill(rows, buffer[:n - i])
        np.matmul(block, q, out=y[rows])
        d = y[rows] @ q.T
        d -= block
        fro_sq += float(np.vdot(block, block))
        complement_sq += float(np.vdot(d, d))
        del d   # freed before the next block is filled
    fro, complement = math.sqrt(fro_sq), math.sqrt(complement_sq)
    if not (math.isfinite(fro) and math.isfinite(complement)):
        raise ConvergenceError("non-finite norm of the matrix or of its range complement: "
                               "the matrix entries are too large for double precision")
    if complement > RANGE_TOL * fro:
        return None
    theta, s = _eigh(q.T @ y)
    y = y @ s   # M Q s, in place of M Q
    ritz = q @ s
    ritz *= theta
    y -= ritz
    residuals = np.sqrt(np.einsum("ij,ij->j", y, y))
    return _full_report(theta, residuals, n, complement)


# rows always sampled at each end of the window, beside the uniform ones
EDGE_ROWS = 8


def _sampled_spectrum(fill, n: int, L: float) -> SpectrumReport | None:
    """Full spectrum of the symmetric N x N matrix M whose rows fill writes
    (see _hankel_rows), from one Rayleigh-Ritz step on the range of sampled
    rows (_ritz_on_range); None once they would exceed N / 2, for the
    caller's dense eigh (with one BLAS thread, rows are faster to 0.6 N).

    Q = qr(M[J, :].T) for the rows J = round(linspace(0, N - 1, w - 16))
    plus the first and last EDGE_ROWS, w = sketch_width(L): by symmetry the
    columns M[:, J], a column sample of the range as in an interpolative
    decomposition (Cheng, Gimbutas, Martinsson & Rokhlin, SIAM J. Sci.
    Comput. 26, 2005). While the complement exceeds RANGE_TOL ||M||_F, the
    uniform row count doubles.
    """
    edges = np.r_[0:EDGE_ROWS, n - EDGE_ROWS:n]
    count = sketch_width(L) - 2 * EDGE_ROWS
    while 2 * (count + 2 * EDGE_ROWS) <= n:
        rows = np.union1d(np.rint(np.linspace(0, n - 1, count)).astype(np.intp), edges)
        q = np.linalg.qr(fill(rows, np.empty((rows.size, n))).T)[0]
        report = _ritz_on_range(fill, q)
        if report is not None:
            return report
        count *= 2
    return None


def _dense_spectrum(m: np.ndarray, n: int) -> SpectrumReport:
    """Dense eigh of m with the explicit residual of every pair, and
    n - len(m) exact zeros with residual 0 (see _full_report). A caller
    that solved a scaled matrix scales the report back (hankel_spectrum),
    and one that deflated adds its bound to the residuals (a_spectrum)."""
    theta, s = _eigh(m)
    residuals = np.linalg.norm(m @ s - s * theta, axis=0)
    return _full_report(theta, residuals, n, 0.0)


# side of the square tiles of the symmetry scan: a 128 x 128 tile of doubles
# (128 KB) and its mirror tile stay in cache
TILE = 128


def _symmetry_scan(m: np.ndarray) -> tuple[float, float]:
    """The symmetry defect max|m - m^T| and max|m|.

    The defect compares each TILE x TILE tile on or above the diagonal with
    the transpose of its mirror tile, so no full transpose or N x N
    temporary is formed; max|m| is one pass. np.max over the partial
    maxima, so a NaN propagates."""
    n = m.shape[0]
    defect = []
    for i in range(0, n, TILE):
        for j in range(i, n, TILE):
            diff = m[i:i + TILE, j:j + TILE] - m[j:j + TILE, i:i + TILE].T
            defect += [np.max(diff), -np.min(diff)]
    return float(np.max(defect)), float(np.max([np.max(m), -np.min(m)]))


def eigen_sym(op: DiscreteOperator) -> SpectrumReport:
    """Full spectrum of an arbitrary real symmetric discrete operator: after
    a tiled symmetry scan, hankel_spectrum's solve (_sampled_spectrum, or
    the dense eigh once 2 w > N) on rows copied from the matrix, so on the
    Hankel side the result is hankel_spectrum's bit for bit. Nothing is
    deflated: where the uniform rows miss the A side's weight core, the rows
    double up to the dense eigh (a_spectrum solves that core alone). A
    non-finite eigenvalue, residual or norm raises ConvergenceError."""
    m = op.matrix
    n = m.shape[0]

    def fill(rows, out: np.ndarray) -> np.ndarray:
        out[...] = m[rows]
        return out
    with np.errstate(over="ignore", invalid="ignore"):   # reported by SpectrumReport
        sym_defect, peak = _symmetry_scan(m)
        if sym_defect > 1e-12 * max(peak, 1e-300):
            raise DiscretizationError(f"matrix not symmetric: defect {sym_defect:.3e}")
        report = _sampled_spectrum(fill, n, op.grid.L)
        return report if report is not None else _dense_spectrum(m, n)


# exponent of the bound on ||M||_F that hankel_spectrum keeps: squares and
# sums of squares of entries below 2^511 stay a factor 4 below DBL_MAX
NORM_EXPONENT = 511


def _row_exponent(profile: RealPolynomial, grid: LogGrid) -> int:
    """The e >= 0 of hankel_spectrum's 2^-e scaling of the Nystrom matrix M.

    Every entry is P(a) c_|i-j| with a in [x_0, L + ln 2] (see
    build_hankel_matrix), so |P(a)| <= B = sum |p_j| R^j, R = L + ln 2, and
    ||M||_F^2 <= B^2 N (c_0^2 + 2 sum_{d>=1} c_d^2), about 2 L B^2. e is the
    least power of two that brings this bound below 2^NORM_EXPONENT: 0
    wherever the bound cannot overflow the sums of squares. B is summed on
    the coefficients scaled by the exponent of the largest, so it does not
    overflow itself.
    """
    coeffs = np.abs(profile.coeffs)
    top = math.frexp(float(np.max(coeffs)))[1]
    r = grid.L + math.log(2.0)
    scaled = sum(float(p) * r ** j for j, p in enumerate(np.ldexp(coeffs, -top)))
    c = _offset_factors(grid)[1]
    c_sq = grid.N * (2.0 * float(np.dot(c, c)) - float(c[0]) ** 2)
    return max(0, top + math.frexp(scaled * math.sqrt(c_sq))[1] - NORM_EXPONENT)


def hankel_spectrum(kernel: QuasiCarlemanKernel, grid: LogGrid) -> SpectrumReport:
    """Full spectrum of build_hankel_matrix's Nystrom matrix M, without
    forming M: _sampled_spectrum on the kernel rows of _hankel_rows, or,
    once 2 w > N, the dense eigh of the whole matrix, the only route that
    allocates N x N. Each entry depends only on i + j and |i - j|, so
    M[J, :] equals M[:, J].T bit for bit. See _hankel_rows for the input
    errors; a non-finite eigenvalue, residual or norm raises
    ConvergenceError.

    Where ||M||_F^2 could overflow, both routes solve 2^-e M, filled already
    scaled, and the finished report is scaled back here by 2^e, exactly and
    in the same order; the scaled-back report is checked for finiteness
    again (e from _row_exponent; 0, and nothing scaled, wherever that bound
    cannot overflow).
    """
    e = _row_exponent(kernel.profile, grid)
    fill = _hankel_rows(kernel, grid, e)
    with np.errstate(over="ignore", invalid="ignore"):   # reported by SpectrumReport
        report = _sampled_spectrum(fill, grid.N, grid.L)
        if report is None:
            report = _dense_spectrum(_filled(fill, grid.N), grid.N)
        return SpectrumReport(eigenvalues=np.ldexp(report.eigenvalues, e),
                              residuals=np.ldexp(report.residuals, e))


def _legendre_pair(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(P_m(x), P_{m-1}(x)) by the three-term recurrence, m >= 1, in place
    on three buffers."""
    p_prev, p, xp = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(1, m):
        np.multiply(x, p, out=xp)
        xp *= (2 * k + 1) / (k + 1)
        p_prev *= k / (k + 1)
        np.subtract(xp, p_prev, out=p_prev)
        p, p_prev = p_prev, p
    return p, p_prev


def gauss_legendre(grid: LogGrid) -> tuple[np.ndarray, np.ndarray]:
    """Ascending Gauss-Legendre nodes on [-L, L] and their weights, n =
    min(N, sketch_width(L)) of them: the phase-space count of the
    eigenvalues above rounding, capped by the grid's sample count.

    The nodes are L times the roots of P_n. On the left half the
    Gatteschi-Pittaluga estimates -cos(tau + cot(tau) / (8 r^2)), with
    tau = (j - 1/4) pi / r and r = n + 1/2, lie within 0.006 / n^2 of them;
    three Newton steps with P_n' = n (x P_n - P_{n-1}) / (x^2 - 1) take them
    to rounding, and the right half mirrors the left, so the set is exactly
    symmetric about 0. The weights are 2 L / ((1 - x^2) P_n'(x)^2) at the
    rounded node. At a root, 2 L (1 - x^2) / (n P_{n-1})^2 is equal but has
    an n + 1 times larger logarithmic derivative, so the rounding of x near
    +-1 moves the chosen form n + 1 times less (relative error 2e-11 at
    n = 1274).
    """
    n = min(grid.N, sketch_width(grid.L))
    r = n + 0.5
    tau = (np.arange(1, n // 2 + 1) - 0.25) * math.pi / r
    x = -np.cos(tau + 1.0 / (8.0 * r * r * np.tan(tau)))
    for _ in range(3):
        p, p_prev = _legendre_pair(x, n)
        x = x - p * (x * x - 1.0) / (n * (x * p - p_prev))
    if n % 2:
        x = np.append(x, 0.0)
    p, p_prev = _legendre_pair(x, n)
    w = 2.0 * (1.0 - x * x) / (n * (p_prev - x * p)) ** 2
    half = n // 2
    return (grid.L * np.concatenate([x, -x[:half][::-1]]),
            grid.L * np.concatenate([w, w[:half][::-1]]))


def carleman_extremes(grid: LogGrid) -> SpectrumReport:
    """The two spectral ends of the reciprocal-kernel (P = 1) operator on
    [-L, L]: Nystrom on the nodes and weights of gauss_legendre (Atkinson,
    The Numerical Solution of Integral Equations of the Second Kind, 1997,
    ch. 4; Bornemann, Math. Comp. 79, 2010), solved by one dense eigh.

    M = S K S, K_ij = k(x_i - x_j), S = diag(sqrt(w)), is symmetric with the
    spectrum of the weighted Nystrom matrix K W. k(d) = 1 / (2 cosh(d/2)),
    taken as e^{-|d|/2} / (1 + e^{-|d|}) so it cannot overflow, is analytic
    in the strip |Im d| < pi, so the ends converge exponentially in the node
    count. Returns [lambda_min, lambda_max] with their explicit residuals
    ||M y - theta y||; lambda_min is the bottom of a cluster at rounding
    level. dx = 2L/N > 1 raises DomainError (see _require_resolved), and a
    non-finite eigenvalue or residual ConvergenceError.
    """
    _require_resolved(grid)
    x, w = gauss_legendre(grid)
    m = np.exp(-0.5 * np.abs(np.subtract.outer(x, x)))
    m /= 1.0 + m * m
    s = np.sqrt(w)
    m *= np.multiply.outer(s, s)
    theta, vectors = _eigh(m)
    ends, y = theta[[0, -1]], vectors[:, [0, -1]]
    residuals = np.linalg.norm(m @ y - y * ends, axis=0)
    return SpectrumReport(eigenvalues=ends, residuals=residuals)


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


# relative gap of the identity check above which the grid is inadequate
ADEQUACY_GAP = 1e-3
# beyond |x| = ln(DBL_MAX) a sample of e^x, or of e^-x, is outside double range
_LOG_DBL_MAX = math.log(sys.float_info.max)


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
    A gap above ADEQUACY_GAP flags discretization inadequacy (violation), not
    a math failure; a form or gap beyond double range raises DiscretizationError.
    A non-finite sample on the 3L grid raises DomainError naming that grid:
    for the seeded test functions that happens only at nodes with
    |x| > ln(DBL_MAX), so L <= ln(DBL_MAX)/3 = 236.594... keeps every node
    in range.
    P is mapped to Q first, so an unmappable P raises before any assembly.
    """
    kernel = QuasiCarlemanKernel(p)
    q = p_to_q(p)
    u1 = u_map(f1, grid)
    u2 = u_map(f2, grid)
    lhs = complex(grid.dx * np.vdot(u2.values, _hankel_product(kernel, grid, u1.values)))

    grid_p = LogGrid(L=3 * grid.L, N=3 * grid.N)
    try:
        m1 = mellin(u_map(f1, grid_p))
        m2 = mellin(u_map(f2, grid_p))
    except DomainError as exc:   # name the grid, which the caller never chose
        reason = f"{exc} on the right side's [-3L, 3L] grid"
        if grid_p.L > _LOG_DBL_MAX:
            limit = math.floor(100.0 * _LOG_DBL_MAX / 3.0) / 100.0   # rounded down
            reason += (f", where e^|x| overflows beyond ln(DBL_MAX) = {_LOG_DBL_MAX:.2f}; "
                       f"L <= {limit:.2f} keeps every node in range")
        raise DomainError(reason) from exc
    phase = gamma_half_phase(m1.coords)
    g1, g2 = phase * m1.values, phase * m2.values
    v = v_eval(m1.coords)
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
    return IdentityCheck(lhs=lhs, rhs=rhs, relative_gap=gap, violation=gap > ADEQUACY_GAP)


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


def spectral_rules(p: RealPolynomial, q: RealPolynomial, eigenvalues: np.ndarray) -> dict:
    """What the theorems say about the profile P with symbol Q = p_to_q(P),
    beside the extremes and the negative count of its finite-section
    spectrum (ascending).

    essential_spectrum: see essential_spectrum. certificate: the nonnegativity
    certificate of Q, whose `nonnegative` is the positivity verdict; None
    whenever the essential-spectrum preconditions are not met.
    """
    ess = essential_spectrum(p)
    scale = float(np.max(np.abs(eigenvalues)))
    return {
        "essential_spectrum": ess,
        "certificate": None if ess == ESS_UNKNOWN else is_nonnegative_on_reals(q),
        "min_eigenvalue": float(eigenvalues[0]),
        "max_eigenvalue": float(eigenvalues[-1]),
        "negative_count": int(np.sum(eigenvalues < -1e-10 * max(scale, 1e-300))),
    }
