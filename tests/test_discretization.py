"""Matrix models of both operator representations. Grid sizes here are kept
small enough for quick runs; the headline resolutions live in the acceptance
module. Frozen eigenvalues were produced by this package and cross-checked
against an independent Toeplitz construction of the same kernel."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.legendre import legvander
from scipy.special import roots_legendre

from hankelscope import discretization
from hankelscope.coeff_map import QuasiCarlemanKernel, p_to_q
from hankelscope.discretization import (EDGE_ROWS, RANGE_TOL, ROW_BLOCK, DiscreteOperator,
                                        SpectrumReport, _a_side, _deflation, _hankel_product,
                                        _hankel_rows, _hartley_entries, _offset_factors,
                                        _symmetry_scan, _toeplitz, _weight_rows, a_spectrum,
                                        build_a_matrix, build_hankel_matrix, carleman_extremes,
                                        eigen_sym, form_identity_check, gauss_legendre,
                                        hankel_spectrum, sketch_width, spectral_rules)
from hankelscope.discretization import FactoryTestFunction as make_test_function
from hankelscope.errors import ConvergenceError, DiscretizationError, DomainError
from hankelscope.polynomials import RealPolynomial
from hankelscope.transforms import LogGrid, u_map, v_eval
from identity_ladder import identity_gap_ladder, observed_orders

# converged finite-section values (L-truncation limited, stable in N)
CARLEMAN_MAX_L10 = 2.895012925305
CARLEMAN_MAX_L14 = 2.998851044375
EPS = np.finfo(float).eps


def poly(*coeffs):
    return RealPolynomial(np.array(coeffs, dtype=float))


def _meshgrid_hankel(kernel, grid):
    """The N^2-entry reference: P(logaddexp(x, y)) dx / (2 cosh((x - y)/2))
    evaluated on the full node meshgrid."""
    x = grid.x_nodes
    xs, ys = np.meshgrid(x, x, indexing="ij")
    return grid.dx * kernel.profile(np.logaddexp(xs, ys)) / (2.0 * np.cosh(0.5 * (xs - ys)))


def _one_shot_hankel(kernel, grid):
    """The unblocked assembly: P(hankel(half) + toeplitz(g)) * toeplitz(c)
    on full N x N views, with N x N temporaries."""
    x, n = grid.x_nodes, grid.N
    half = x[0] + 0.5 * grid.dx * np.arange(2 * n - 1)
    shift, c = _offset_factors(grid)
    entries = kernel.profile(sliding_window_view(half, n)
                             + _toeplitz(0.5 * grid.dx * np.arange(n) + shift))
    entries *= _toeplitz(c)
    return entries


class TestHankelMatrix:
    @pytest.mark.parametrize("L, n", [(8.0, 18), (8.0, 130), (30.0, 2048)])
    @pytest.mark.parametrize("degree", range(7))
    def test_row_blocks_equal_the_one_shot_assembly(self, degree, L, n):
        # N = 18 and 130 end in a partial block of ROW_BLOCK rows
        kern = QuasiCarlemanKernel(poly(*((-1) ** j * (j + 2) / (j + 3)
                                          for j in range(degree + 1))))
        grid = LogGrid(L=L, N=n)
        assert np.array_equal(build_hankel_matrix(kern, grid).matrix,
                              _one_shot_hankel(kern, grid))

    def test_non_finite_entry_in_a_later_block_names_its_nodes(self):
        # P = s x with s = DBL_MAX / 8.05 overflows for arguments above 8.05;
        # at L = 8, N = 64 (x_63 = 7.75) the first such entry in row order is
        # row 59, column 63: logaddexp(6.75, 7.75) = 8.063, in the fourth block
        kern = QuasiCarlemanKernel(poly(0.0, np.finfo(float).max / 8.05))
        grid = LogGrid(L=8.0, N=64)
        with np.errstate(over="ignore"):
            finite = np.isfinite(_one_shot_hankel(kern, grid))
        assert np.all(finite[:59]) and not finite[59, 63] and np.all(finite[59, :63])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DiscretizationError, match=r"x=6\.75, y=7\.75\)"):
                build_hankel_matrix(kern, grid)

    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize("L", [8.0, 30.0])
    @pytest.mark.parametrize("degree", range(5))
    def test_matches_meshgrid_reference(self, degree, L, n):
        kern = QuasiCarlemanKernel(poly(*((-1) ** j * (j + 1) / (j + 3)
                                          for j in range(degree + 1))))
        grid = LogGrid(L=L, N=n)
        m = build_hankel_matrix(kern, grid).matrix
        ref = _meshgrid_hankel(kern, grid)
        assert np.abs(m - ref).max() <= 4 * np.finfo(float).eps * np.abs(ref).max()
        assert np.array_equal(m, m.T)

    def test_overflow_is_a_typed_error_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DiscretizationError, match="x=-30, y=-30"):
                build_hankel_matrix(QuasiCarlemanKernel(poly(0, 0, 0, 0, 1e305)),
                                    LogGrid(L=30.0, N=64))

    def test_carleman_is_symmetric_toeplitz(self):
        grid = LogGrid(L=8.0, N=64)
        m = build_hankel_matrix(QuasiCarlemanKernel(poly(1.0)), grid).matrix
        assert np.array_equal(m, m.T)
        x = grid.x_nodes
        expect = grid.dx / (2.0 * np.cosh(0.5 * (x[:, None] - x[None, :])))
        np.testing.assert_allclose(m, expect, rtol=1e-14)
        # toeplitz: entry depends on i - j only
        np.testing.assert_allclose(m[0, :-1], m[1, 1:], rtol=1e-13)

    def test_entry_formula_general_profile(self):
        grid = LogGrid(L=6.0, N=32)
        p = poly(0.5, -1.0, 2.0)
        m = build_hankel_matrix(QuasiCarlemanKernel(p), grid).matrix
        i, j = 5, 20
        t, s = math.exp(grid.x_nodes[i]), math.exp(grid.x_nodes[j])
        expect = grid.dx * math.exp(0.5 * (grid.x_nodes[i] + grid.x_nodes[j])) \
            * p(math.log(t + s)) / (t + s)
        assert abs(m[i, j] - expect) < 1e-14 * abs(expect)

    def test_carleman_top_eigenvalue_converged_values(self):
        for L, n, ref in ((10.0, 512, CARLEMAN_MAX_L10), (14.0, 1024, CARLEMAN_MAX_L14)):
            rep = eigen_sym(build_hankel_matrix(QuasiCarlemanKernel(poly(1.0)),
                                                LogGrid(L=L, N=n)))
            assert abs(rep.eigenvalues[-1] - ref) < 1e-8
            assert rep.eigenvalues[-1] < math.pi

    def test_carleman_top_eigenvalue_monotone_in_window(self):
        tops = []
        for L in (6.0, 10.0, 14.0):
            rep = eigen_sym(build_hankel_matrix(QuasiCarlemanKernel(poly(1.0)),
                                                LogGrid(L=L, N=512)))
            tops.append(rep.eigenvalues[-1])
        assert tops[0] < tops[1] < tops[2] < math.pi

    @pytest.mark.parametrize("L, n", [(1e6, 64), (40.0, 64), (1.5, 2)])
    def test_under_resolved_grid_rejected(self, L, n):
        # dx = 2L/N > 1: the trapezoid rule aliases the unit-width kernel
        with pytest.raises(DomainError, match="dx"):
            build_hankel_matrix(QuasiCarlemanKernel(poly(1.0)), LogGrid(L=L, N=n))

    def test_unit_spacing_accepted(self):
        op = build_hankel_matrix(QuasiCarlemanKernel(poly(1.0)), LogGrid(L=32.0, N=64))
        assert op.matrix.shape == (64, 64)

    def test_odd_profile_spectrum_fills_both_signs(self):
        kern = QuasiCarlemanKernel(poly(0.0, 1.0))
        ranges = []
        for L in (8.0, 12.0, 16.0):
            w = eigen_sym(build_hankel_matrix(kern, LogGrid(L=L, N=256))).eigenvalues
            assert w[0] < -1.0 and w[-1] > 1.0
            ranges.append(w[-1] - w[0])
        assert ranges[0] < ranges[1] < ranges[2]


class TestAMatrix:
    def test_constant_symbol_is_weight_squared(self):
        grid = LogGrid(L=10.0, N=128)
        op = build_a_matrix(poly(1.0), grid)
        np.testing.assert_allclose(op.matrix,
                                   np.diag(v_eval(grid.xi_nodes) ** 2), atol=1e-14)
        w = eigen_sym(op).eigenvalues
        # true diagonal values are positive; eigh jitters the tiny ones by eps
        assert w[0] > -1e-13
        assert abs(w[-1] - math.pi) < 1e-14  # xi = 0 is a node

    def test_square_symbol_with_unit_weight(self, monkeypatch):
        grid = LogGrid(L=4.0, N=16)
        monkeypatch.setattr(discretization, "v_eval", np.ones_like)
        op = build_a_matrix(poly(0.0, 0.0, 1.0), grid)
        dual = 2.0 * math.pi * np.fft.fftfreq(16, d=grid.dxi)
        np.testing.assert_allclose(np.sort(eigen_sym(op).eigenvalues),
                                   np.sort(dual**2), atol=1e-12)

    def test_negative_constant_flips_sign(self):
        grid = LogGrid(L=8.0, N=64)
        w_pos = eigen_sym(build_a_matrix(poly(2.0), grid)).eigenvalues
        w_neg = eigen_sym(build_a_matrix(poly(-2.0), grid)).eigenvalues
        assert np.all(w_neg < 0.0)
        np.testing.assert_allclose(np.sort(w_neg), np.sort(-w_pos)[::-1].copy()[::-1],
                                   atol=1e-14)

    def test_hermitian_for_odd_symbol(self):
        grid = LogGrid(L=8.0, N=64)
        m = build_a_matrix(poly(0.0, 1.0), grid).matrix
        np.testing.assert_allclose(m, m.conj().T, atol=1e-15)
        # the real form is exactly symmetric and keeps the complex spectrum
        assert np.array_equal(m, m.T)
        ref = np.linalg.eigvalsh(complex_a_model(poly(0.0, 1.0), grid))
        w = np.linalg.eigvalsh(m)
        assert np.abs(w - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_zero_symbol_rejected(self):
        with pytest.raises(DomainError):
            build_a_matrix(poly(0.0), LogGrid(L=4.0, N=16))


def complex_a_model(q, grid, v=None):
    """V C V with C = ifft(Q(-x) fft(I)), the circulant of the Fourier
    multiplier assembled column by column from first principles."""
    n = grid.N
    x_dual = 2.0 * math.pi * np.fft.fftfreq(n, d=grid.dxi)
    c = np.fft.ifft(q(-x_dual)[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    v = v_eval(grid.xi_nodes) if v is None else v
    return v[:, None] * c * v[None, :]


class TestRealForm:
    SYMBOLS = [(0.0, 1.0), (0.3, -1.0, 0.2, 0.5),          # odd degree
               (1.0,), (0.1, 1.0, 0.7), (2.0, 0.0, -1.0, 0.0, 0.25)]  # even

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("qc", SYMBOLS)
    def test_spectrum_matches_complex_model(self, qc, n):
        grid = LogGrid(L=8.0, N=n)
        m = build_a_matrix(poly(*qc), grid).matrix
        assert not np.iscomplexobj(m)
        assert np.array_equal(m, m.T)
        ref = np.linalg.eigvalsh(complex_a_model(poly(*qc), grid))
        assert np.abs(np.linalg.eigvalsh(m) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("qc", [(0.0, 1.0), (0.5, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0)])
    def test_unit_weight_override(self, qc, monkeypatch):
        grid = LogGrid(L=4.0, N=64)
        monkeypatch.setattr(discretization, "v_eval", np.ones_like)
        m = build_a_matrix(poly(*qc), grid).matrix
        assert np.array_equal(m, m.T)
        ref = np.linalg.eigvalsh(complex_a_model(poly(*qc), grid, np.ones(64)))
        assert np.abs(np.linalg.eigvalsh(m) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_non_even_weight_rejected(self, monkeypatch):
        grid = LogGrid(L=4.0, N=16)
        monkeypatch.setattr(discretization, "v_eval", lambda xi: np.exp(-0.1 * xi))
        with pytest.raises(DomainError):
            build_a_matrix(poly(0.0, 1.0), grid)


class TestSpectrumReport:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["eigenvalues", "residuals"])
    def test_non_finite_entry_raises(self, field, bad):
        arrays = {"eigenvalues": np.array([-1.0, 0.0, 2.0]),
                  "residuals": np.array([1e-16, 0.0, 1e-15])}
        arrays[field][1] = bad
        with pytest.raises(ConvergenceError, match="^non-finite eigenvalue or residual: a "
                           "value exceeds double precision$"):
            SpectrumReport(**arrays)


class TestEigenSym:
    def test_identity_matrix(self):
        grid = LogGrid(L=4.0, N=16)
        rep = eigen_sym(DiscreteOperator(np.eye(16), grid))
        np.testing.assert_array_equal(rep.eigenvalues, np.ones(16))

    def test_diagonal_weight_sorted(self):
        grid = LogGrid(L=6.0, N=64)
        rep = eigen_sym(build_a_matrix(poly(1.0), grid))
        np.testing.assert_allclose(rep.eigenvalues,
                                   np.sort(v_eval(grid.xi_nodes) ** 2), atol=1e-15)

    def test_residual_bound(self):
        grid = LogGrid(L=12.0, N=256)
        rep = eigen_sym(build_hankel_matrix(QuasiCarlemanKernel(poly(1.0, 0.5)), grid))
        assert rep.residuals.max() <= 1e-8 * np.abs(rep.eigenvalues).max()

    def test_non_finite_residual_raises(self):
        # entries near 1e300 overflow the residual norms of the core
        with pytest.raises(ConvergenceError):
            a_spectrum(poly(1e300, 0.0, 1.0), LogGrid(L=8.0, N=64))


def _dense_eigen(m):
    """The dense reference: eigh and its N x N residual product."""
    w, vecs = np.linalg.eigh(m)
    return w, np.linalg.norm(m @ vecs - vecs * w[None, :], axis=0)


def _exact_row_sq(q, grid):
    """The squared row norms w_a sum_b w_b |c_(a-b)|^2 of the complex V C V
    (w = v^2, c = ifft(Q(-x))) as O(N^2) sums of positive terms, 256 rows
    at a time."""
    n = grid.N
    w = v_eval(grid.xi_nodes) ** 2
    c_sq = np.abs(np.fft.ifft(q(-2.0 * math.pi * np.fft.fftfreq(n, d=grid.dxi)))) ** 2
    cols = np.arange(n)
    row_sq = np.empty(n)
    for i in range(0, n, 256):
        rows = np.arange(i, min(n, i + 256))
        row_sq[rows] = w[rows] * (c_sq[(rows[:, None] - cols) % n] @ w)
    return row_sq


def _kept_rows(q, grid):
    """The number of rows the deflation rule keeps on the exact row norms:
    the smallest dropped while sqrt(2 * sum of their squares) <=
    RANGE_TOL ||M||_F / 2, then the kept set closed under J: a -> -a mod N.
    a_spectrum keeps at least these, since it works on upper bounds."""
    row_sq = _exact_row_sq(q, grid)
    n = row_sq.size
    order = np.argsort(row_sq, kind="stable")
    tail = np.sqrt(2.0 * np.cumsum(row_sq[order]))
    kept = np.zeros(n, dtype=bool)
    kept[order[int(np.sum(tail <= 0.5 * RANGE_TOL * math.sqrt(row_sq.sum()))):]] = True
    return int(np.sum(kept | kept[-np.arange(n) % n]))


def _rank_deficient(n, rank, seed=5):
    """Random symmetric n x n matrix of the given rank, eigenvalues of both
    signs between 0.5 and 2 in magnitude."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    d = rng.choice([-1.0, 1.0], rank) * rng.uniform(0.5, 2.0, rank)
    m = (basis * d) @ basis.T
    return 0.5 * (m + m.T)


def _sampled_rows(n, count):
    """|J|, the kernel rows hankel_spectrum samples: round(linspace(0, N - 1,
    count)) and the first and last 8 rows; count = sketch_width(L) - 16
    first."""
    uniform = np.rint(np.linspace(0, n - 1, count)).astype(int)
    return np.union1d(uniform, np.r_[0:EDGE_ROWS, n - EDGE_ROWS:n]).size


def _ritz_passes(monkeypatch):
    """The list that records each _ritz_on_range pass from now on: None for
    a complement over budget, "report" for a result."""
    seen, ritz = [], discretization._ritz_on_range

    def spy(*args):
        report = ritz(*args)
        seen.append(None if report is None else "report")
        return report
    monkeypatch.setattr(discretization, "_ritz_on_range", spy)
    return seen


class TestSketchedEigenSym:
    """hankel_spectrum on the range of sampled kernel rows and eigen_sym on
    sampled rows of the matrix it is given (Ritz pairs plus exact zeros
    whose residual is the complement bound), and a_spectrum on its weight
    core, against the dense eigh of the whole matrix."""

    A_SYMBOLS = {"a": (0.5, 0.3, 1.0), "a-odd": (0.1, 1.0, 0.0, 0.4)}
    KERNELS = {"hankel": QuasiCarlemanKernel(poly(1.7, 0.0, 1.0)),
               "hankel-odd": QuasiCarlemanKernel(poly(0.5, -1.0, 0.3, 0.2))}
    SIDES = {"hankel": lambda g: build_hankel_matrix(TestSketchedEigenSym.KERNELS["hankel"], g),
             "hankel-odd": lambda g: build_hankel_matrix(TestSketchedEigenSym.KERNELS["hankel-odd"], g),
             "a": lambda g: build_a_matrix(poly(*TestSketchedEigenSym.A_SYMBOLS["a"]), g),
             "a-odd": lambda g: build_a_matrix(poly(*TestSketchedEigenSym.A_SYMBOLS["a-odd"]), g)}

    @pytest.mark.parametrize("n", [512, 1024])
    @pytest.mark.parametrize("L", [8.0, 20.0, 30.0])
    @pytest.mark.parametrize("side", sorted(SIDES))
    def test_matches_dense(self, side, L, n):
        grid = LogGrid(L=L, N=n)
        op = self.SIDES[side](grid)
        symbol = self.A_SYMBOLS.get(side)
        if symbol is None:
            rep = hankel_spectrum(self.KERNELS[side], grid)
        else:
            rep = a_spectrum(poly(*symbol), grid)
        w, dense_res = _dense_eigen(op.matrix)
        scale = np.abs(w).max()
        dev = np.abs(rep.eigenvalues - w).max()
        # each side is within its residual of the spectrum of M
        assert dev <= rep.residuals.max() + dense_res.max()
        assert dev <= 1e-13 * scale
        assert rep.residuals.max() <= 1e-13 * scale
        assert np.all(np.diff(rep.eigenvalues) >= 0.0)
        zeros = rep.eigenvalues == 0.0
        if symbol is not None:
            # the weight core is solved dense, the other rows are deflated
            assert n - int(zeros.sum()) == _kept_rows(poly(*symbol), grid)
        else:
            # the first row sample suffices, with no doubling; beyond N/2
            # rows the dense path runs
            first = _sampled_rows(n, sketch_width(L) - 2 * EDGE_ROWS)
            assert n - int(zeros.sum()) == (first if 2 * sketch_width(L) <= n else n)
        assert np.all(rep.residuals[zeros] <= 1e-13 * np.linalg.norm(op.matrix))

    def test_wide_window_at_large_n_needs_no_doubling(self):
        grid = LogGrid(L=30.0, N=2048)
        op = self.SIDES["hankel"](grid)
        rep = hankel_spectrum(self.KERNELS["hankel"], grid)
        zeros = rep.eigenvalues == 0.0
        first = _sampled_rows(2048, sketch_width(30.0) - 2 * EDGE_ROWS)
        assert op.matrix.shape[0] - int(zeros.sum()) == first
        assert np.all(rep.residuals[zeros] <= 1e-13 * np.linalg.norm(op.matrix))
        assert rep.residuals.max() <= 1e-13 * np.abs(rep.eigenvalues).max()

    def test_rank_above_the_first_row_sample_doubles(self, monkeypatch):
        # rank w + 20 exceeds the first sample of w rows, so its complement
        # fails and the doubled sample, still below N/2, passes
        grid = LogGrid(L=4.0, N=512)
        count = sketch_width(grid.L) - 2 * EDGE_ROWS
        assert 2 * (2 * count + 2 * EDGE_ROWS) <= grid.N
        m = _rank_deficient(grid.N, sketch_width(grid.L) + 20)
        seen = _ritz_passes(monkeypatch)
        rep = eigen_sym(DiscreteOperator(m, grid))
        w, _ = _dense_eigen(m)
        assert seen == [None, "report"]
        assert np.sum(rep.eigenvalues == 0.0) == grid.N - _sampled_rows(grid.N, 2 * count)
        assert np.abs(rep.eigenvalues - w).max() <= 1e-13 * np.abs(w).max()
        assert rep.residuals.max() <= 1e-13 * np.linalg.norm(m)

    def test_a_side_rows_miss_the_core_and_go_dense(self, monkeypatch):
        # the uniform rows of an A-side matrix miss its weight core: both
        # row samples (91 and 182 uniform rows) fail, and the dense eigh runs
        grid = LogGrid(L=12.0, N=512)
        m = self.SIDES["a"](grid).matrix
        seen = _ritz_passes(monkeypatch)
        rep = eigen_sym(DiscreteOperator(m, grid))
        w = np.linalg.eigvalsh(m)
        assert seen == [None, None]
        assert not np.any(rep.eigenvalues == 0.0)
        assert np.abs(rep.eigenvalues - w).max() <= 1e-13 * np.abs(w).max()
        assert rep.residuals.max() <= 1e-13 * np.abs(w).max()

    @pytest.mark.parametrize("make", [np.eye, lambda n: _rank_deficient(n, n)],
                             ids=["identity", "random-symmetric"])
    def test_full_rank_is_the_dense_path_bitwise(self, make):
        grid = LogGrid(L=4.0, N=512)
        m = make(grid.N)
        rep = eigen_sym(DiscreteOperator(m, grid))
        w, res = _dense_eigen(m)
        assert np.array_equal(rep.eigenvalues, w)
        assert np.array_equal(rep.residuals, res)

    @pytest.mark.parametrize("solver", ["hankel_spectrum", "eigen_sym"])
    def test_repeated_calls_bit_identical(self, solver):
        grid = LogGrid(L=8.0, N=512)
        if solver == "hankel_spectrum":
            solve = lambda: hankel_spectrum(self.KERNELS["hankel"], grid)
        else:
            op = self.SIDES["hankel"](grid)
            solve = lambda: eigen_sym(op)
        first, second = solve(), solve()
        assert np.sum(first.eigenvalues == 0.0) > 0
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.residuals, second.residuals)

    def test_non_symmetric_raises(self):
        m = _rank_deficient(512, 40)
        m[0, 1] += 1e-6
        with pytest.raises(DiscretizationError):
            eigen_sym(DiscreteOperator(m, LogGrid(L=4.0, N=512)))

    def test_non_finite_residual_raises_at_sketch_size(self):
        with pytest.raises(ConvergenceError):
            eigen_sym(build_a_matrix(poly(1e300, 0.0, 1.0), LogGrid(L=8.0, N=512)))

    @pytest.mark.parametrize("p", [(1e300,), (0.0, 1e154)], ids=["constant", "linear"])
    def test_non_finite_norm_raises_at_once(self, monkeypatch, p):
        # eigen_sym sums the squares of the matrix it is given: finite
        # entries whose squares overflow ||M||_F^2 raise ConvergenceError on
        # the first pass, not a doubling towards the dense route
        passes, ritz = [], discretization._ritz_on_range

        def spy(*args):
            passes.append(1)
            return ritz(*args)
        monkeypatch.setattr(discretization, "_ritz_on_range", spy)
        op = build_hankel_matrix(QuasiCarlemanKernel(poly(*p)), LogGrid(L=8.0, N=512))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="non-finite norm"):
                eigen_sym(op)
        assert passes == [1]


def _signed_profile(degree, sign):
    """sign * (-1)^j (j + 1) / ((j + 3) j!), j = 0..degree: every degree up
    to 12 stays within double range on the widest window tested."""
    return poly(*(sign * (-1) ** j * (j + 1) / ((j + 3) * math.factorial(j))
                  for j in range(degree + 1)))


class TestHankelSpectrum:
    """hankel_spectrum forms no N x N matrix: its range comes from kernel
    rows, and one row-block pass gives M Q and the complement."""

    # (L, N, degree, sign of the leading coefficient): every window, every
    # size from 256 to 4096, degrees 0-12, both signs; (100, 512) is dense
    # (2 w > N), the others take the row-block route
    CASES = [(0.5, 256, 0, 1.0), (1.0, 256, 1, -1.0), (8.0, 256, 2, 1.0),
             (8.0, 512, 3, -1.0), (14.0, 1024, 4, 1.0), (14.0, 512, 5, -1.0),
             (30.0, 1024, 6, 1.0), (30.0, 2048, 7, -1.0), (60.0, 2048, 8, 1.0),
             (60.0, 1024, 9, -1.0), (100.0, 2048, 10, 1.0), (100.0, 512, 11, -1.0),
             (14.0, 4096, 12, 1.0), (1.0, 2048, 12, -1.0), (100.0, 2048, 0, 1.0)]

    @pytest.mark.parametrize("L, n, degree, sign", CASES)
    def test_matches_eigvalsh(self, L, n, degree, sign):
        grid = LogGrid(L=L, N=n)
        kernel = QuasiCarlemanKernel(_signed_profile(degree, sign))
        rep = hankel_spectrum(kernel, grid)
        m = build_hankel_matrix(kernel, grid).matrix
        w = np.linalg.eigvalsh(m)
        scale, budget = np.abs(w).max(), RANGE_TOL * np.linalg.norm(m)
        dev = np.abs(rep.eigenvalues - w).max()
        assert rep.eigenvalues.size == n and np.all(np.diff(rep.eigenvalues) >= 0.0)
        # every reported value is within its residual of the spectrum, and
        # no residual exceeds the complement budget
        assert dev <= budget and rep.residuals.max() <= budget
        if L <= 30.0:
            assert dev <= 1e-14 * scale
        zeros = rep.eigenvalues == 0.0
        if 2 * sketch_width(L) <= n:
            assert n - int(zeros.sum()) == _sampled_rows(n, sketch_width(L) - 2 * EDGE_ROWS)
        else:
            assert not np.any(zeros)

    @pytest.mark.parametrize("L, n", [(8.0, 512), (12.0, 2048)])
    def test_sampled_rows_are_columns_bit_for_bit(self, L, n):
        grid = LogGrid(L=L, N=n)
        rows = np.r_[0:EDGE_ROWS, 3:n:37, n - EDGE_ROWS:n]
        m = build_hankel_matrix(TestSketchedEigenSym.KERNELS["hankel-odd"], grid).matrix
        sample = _hankel_rows(TestSketchedEigenSym.KERNELS["hankel-odd"], grid)(
            rows, np.empty((rows.size, n)))
        assert np.array_equal(sample, m[rows]) and np.array_equal(sample, m[:, rows].T)

    @pytest.mark.parametrize("L, n", [(12.0, 1024), (8.0, 64)], ids=["rows", "dense"])
    def test_eigen_sym_of_the_matrix_is_hankel_spectrum_bitwise(self, L, n):
        # one solver for both: eigen_sym reads the rows that hankel_spectrum
        # fills, on the row route (2 w <= N) and on the dense one
        grid = LogGrid(L=L, N=n)
        kernel = TestSketchedEigenSym.KERNELS["hankel-odd"]
        rep = hankel_spectrum(kernel, grid)
        whole = eigen_sym(build_hankel_matrix(kernel, grid))
        assert np.array_equal(whole.eigenvalues, rep.eigenvalues)
        assert np.array_equal(whole.residuals, rep.residuals)
        assert np.any(rep.eigenvalues == 0.0) == (2 * sketch_width(L) <= n)

    @pytest.mark.parametrize("L, n, count, passes", [
        (4.0, 1024, 4, [None, None, None, "report"]),
        (8.0, 256, 40, [None, "report"]),
        (12.0, 256, 60, [None])])
    def test_shortfall_of_the_row_rule_doubles_or_goes_dense(self, monkeypatch, L, n,
                                                             count, passes):
        # too few rows: the uniform count doubles until the complement is
        # within budget (4 -> 32 at L = 4, N = 1024; 40 -> 80 at L = 8,
        # N = 256), or until 2 w > N (60 -> 120 at L = 12, N = 256), where the
        # dense eigh runs
        grid = LogGrid(L=L, N=n)
        kernel = TestSketchedEigenSym.KERNELS["hankel"]
        monkeypatch.setattr(discretization, "sketch_width", lambda L: count + 2 * EDGE_ROWS)
        seen = _ritz_passes(monkeypatch)
        rep = hankel_spectrum(kernel, grid)
        assert seen == passes
        m = build_hankel_matrix(kernel, grid).matrix
        budget = RANGE_TOL * np.linalg.norm(m)
        assert np.abs(rep.eigenvalues - np.linalg.eigvalsh(m)).max() <= budget
        assert rep.residuals.max() <= budget
        kept = n - int(np.sum(rep.eigenvalues == 0.0))
        final = count * 2 ** (len(passes) - 1)
        assert kept == (n if passes[-1] is None else _sampled_rows(n, final))

    @pytest.mark.parametrize("p", [(1e300,), (0.0, 1e154)], ids=["constant", "linear"])
    def test_entries_beyond_half_double_range_are_scaled(self, p):
        # ||M||_F^2 overflows unscaled; the rows are filled scaled by 2^-e
        # and the report is 10^k times that of the profile divided by 10^k
        k = int(math.log10(max(p)))
        grid = LogGrid(L=8.0, N=512)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = hankel_spectrum(QuasiCarlemanKernel(poly(*p)), grid)
        unit = hankel_spectrum(QuasiCarlemanKernel(poly(*(c / 10.0 ** k for c in p))), grid)
        scale = np.abs(rep.eigenvalues).max()
        assert np.abs(rep.eigenvalues - 10.0 ** k * unit.eigenvalues).max() <= 1e-13 * scale
        assert np.all(np.isfinite(rep.residuals)) and rep.residuals.max() <= 1e-13 * scale

    def test_row_scale_only_where_the_bound_can_overflow(self):
        # e = 0 below the bound, so those profiles solve unscaled, bit for bit
        grid = LogGrid(L=8.0, N=512)
        assert discretization._row_exponent(poly(1.7, 0.0, 1.0), grid) == 0
        assert discretization._row_exponent(poly(0.0, 1e150), grid) == 0
        assert discretization._row_exponent(poly(0.0, 1e154), grid) > 0

    def test_no_n_by_n_allocation(self):
        # one N x N double array at N = 2048 is 32 MiB; the traced peak stays
        # below a quarter of it
        grid = LogGrid(L=12.0, N=2048)
        call = lambda: hankel_spectrum(TestSketchedEigenSym.KERNELS["hankel-odd"], grid)
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * grid.N ** 2 / 4


class TestDeflatedEigenSym:
    """The A side solves only its weight core: a_spectrum deflates the rows
    below rounding by the convolution rule, fills the kept block alone, and
    its spectrum still matches the dense eigh of the whole matrix."""

    SYMBOLS = {"even": (0.5, 0.3, 1.0), "odd": (0.1, 1.0, 0.0, 0.4)}

    def _check_core(self, q, grid):
        rep = a_spectrum(q, grid)
        m = build_a_matrix(q, grid).matrix
        # the dense reference solves m with its entries below 1e-150 max|m|
        # set to 0, a perturbation of 2-norm at most N 1e-150 max|m|, which
        # moves no eigenvalue by more (Weyl); the 6.3e5 subnormal entries at
        # N = 4096 made eigvalsh about 3 times slower
        floor = 1e-150 * np.abs(m).max()
        w = np.linalg.eigvalsh(np.where(np.abs(m) < floor, 0.0, m))
        scale = np.abs(w).max()
        assert np.abs(rep.eigenvalues - w).max() <= 1e-13 * scale
        assert rep.residuals.max() <= 1e-13 * scale
        zeros = rep.eigenvalues == 0.0
        kept = grid.N - int(zeros.sum())
        assert kept == _kept_rows(q, grid)
        assert np.all(rep.residuals[zeros] <= RANGE_TOL * np.linalg.norm(m))
        return kept

    @pytest.mark.parametrize("n", [2048, 4096])
    @pytest.mark.parametrize("parity", sorted(SYMBOLS))
    def test_weight_core_matches_dense(self, parity, n):
        kept = self._check_core(poly(*self.SYMBOLS[parity]), LogGrid(L=12.0, N=n))
        assert kept <= n // 2

    @pytest.mark.parametrize("parity", sorted(SYMBOLS))
    def test_core_above_half_the_rows_deflates(self, parity):
        # L = 30, N = 512: the core (281 and 335 rows) is more than N/2, where
        # the earlier whole-matrix route kept every row
        kept = self._check_core(poly(*self.SYMBOLS[parity]), LogGrid(L=30.0, N=512))
        assert 512 // 2 < kept < 512

    @pytest.mark.parametrize("L, n", [(8.0, 512), (12.0, 2048), (30.0, 512), (30.0, 2048)])
    @pytest.mark.parametrize("parity", sorted(SYMBOLS))
    def test_kept_set_is_j_invariant_and_the_norm_matches(self, parity, L, n):
        grid = LogGrid(L=L, N=n)
        q = poly(*self.SYMBOLS[parity])
        v, even, odd = _a_side(q, grid)
        conv_sq, row_sq, e = _weight_rows(v, even, odd)
        m = build_a_matrix(q, grid).matrix
        fro = math.ldexp(math.sqrt(float(np.sum(conv_sq))), e)
        assert abs(fro - np.linalg.norm(m)) <= 2e-15 * np.linalg.norm(m)
        keep, delta = _deflation(row_sq, RANGE_TOL * math.sqrt(float(np.sum(row_sq))))
        assert np.array_equal(np.sort(-keep % n), keep)
        assert 0.0 < delta <= 0.5 * RANGE_TOL * math.sqrt(float(np.sum(row_sq)))
        # the core block holds build_a_matrix's entries bit for bit
        assert np.array_equal(_hartley_entries(v, even, odd, keep, keep), m[np.ix_(keep, keep)])

    @pytest.mark.parametrize("L, n", [(8.0, 512), (12.0, 2048), (30.0, 2048)])
    @pytest.mark.parametrize("side", ["hankel", "hankel-odd"])
    def test_hankel_side_drops_no_row(self, side, L, n):
        m = TestSketchedEigenSym.SIDES[side](LogGrid(L=L, N=n)).matrix
        row_sq = np.sum(m * m, axis=1)
        # even the smallest row alone is above the deflation budget
        assert math.sqrt(2.0 * row_sq.min()) > 0.5 * RANGE_TOL * np.linalg.norm(m)
        keep, delta = _deflation(row_sq, RANGE_TOL * np.linalg.norm(m))
        assert np.array_equal(keep, np.arange(n)) and delta == 0.0

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_no_deflation_on_a_non_finite_norm(self, tol):
        row_sq = np.concatenate([np.full(8, 1e-300), np.ones(2)])
        keep, delta = _deflation(row_sq, tol)
        assert keep.tolist() == list(range(10)) and delta == 0.0
        # rows 8 and 9 carry the norm; closing under J: a -> -a mod 10 adds
        # their mirrors 2 and 1, and delta sums the other six
        keep, delta = _deflation(row_sq, 1.0)
        assert keep.tolist() == [1, 2, 8, 9] and 0.0 < delta <= 0.5
        assert delta == math.sqrt(2.0 * 6e-300)

    @pytest.mark.parametrize("L, n", [(8.0, 512), (30.0, 512), (12.0, 2048)])
    @pytest.mark.parametrize("symbol", [(1.0,), (0.5, 0.3, 1.0)], ids=["constant", "even"])
    def test_delta_bounds_the_exact_dropped_norm(self, symbol, L, n):
        # delta against sqrt(2 * sum of the dropped rows' squared norms) of
        # build_a_matrix, summed entry by entry; the kept set is J-closed, so
        # the real form's dropped rows carry the complex form's norm
        grid = LogGrid(L=L, N=n)
        q = poly(*symbol)
        v, even, odd = _a_side(q, grid)
        _, row_sq, e = _weight_rows(v, even, odd)
        keep, delta = _deflation(row_sq, RANGE_TOL * math.sqrt(float(np.sum(row_sq))))
        delta = math.ldexp(delta, e)
        m = build_a_matrix(q, grid).matrix
        dropped = np.ones(n, dtype=bool)
        dropped[keep] = False
        exact = math.sqrt(2.0 * float(np.sum(m[dropped] ** 2)))
        outside = m.copy()
        outside[np.ix_(keep, keep)] = 0.0
        assert np.linalg.norm(outside) <= exact
        assert exact <= delta <= 0.5 * RANGE_TOL * np.linalg.norm(m) * (1.0 + 1e-12)
        # every bound holds its exact row norm, and a_spectrum reports delta
        assert np.all(row_sq >= np.ldexp(_exact_row_sq(q, grid), -2 * e))
        rep = a_spectrum(q, grid)
        assert np.all(rep.residuals[rep.eigenvalues == 0.0] == delta)

    def test_huge_entries_still_raise_at_core_size(self):
        # ||M||_F is about 1e301: the scaled row norms still deflate, and the
        # residual norms of the core overflow
        with pytest.raises(ConvergenceError):
            a_spectrum(poly(1e300, 0.0, 1.0), LogGrid(L=8.0, N=2048))

    def test_symbol_overflow_on_the_grid_is_a_discretization_error(self):
        # Q(x) = 1e308 x^2 overflows at the x-nodes beyond |x| = 1.34
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DiscretizationError, match="non-finite symbol value"):
                a_spectrum(poly(0.0, 0.0, 1e308), LogGrid(L=8.0, N=64))

    @pytest.mark.parametrize("route", ["spectrum-a", "equiv-check"])
    def test_no_n_by_n_allocation(self, route):
        # one N x N double array at N = 4096 is 128 MiB; the traced peak of
        # either route stays below a sixteenth of it
        grid = LogGrid(L=12.0, N=4096)
        if route == "spectrum-a":
            call = lambda: a_spectrum(poly(0.5, 0.3, 1.0), grid)
        else:
            f1, f2 = make_test_function(11, grid), make_test_function(12, grid)
            call = lambda: form_identity_check(poly(0.5, -1.0, 0.3, 0.2), f1, f2, grid)
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * grid.N ** 2 / 16


def _row_block_scan(m):
    """The earlier scan in ROW_BLOCK-row blocks: the defect of each block
    row against the column strip below it, and max|m|."""
    n = m.shape[0]
    starts = range(0, n, ROW_BLOCK)
    defect, peak = np.empty(len(starts)), np.empty(len(starts))
    for b, i in enumerate(starts):
        rows = m[i:i + ROW_BLOCK]
        defect[b] = np.max(np.abs(rows[:, i:] - m[i:, i:i + ROW_BLOCK].T))
        peak[b] = np.max(np.abs(rows))
    return float(np.max(defect)), float(np.max(peak))


class TestSymmetryScan:
    """The tiled symmetry scan gives the row-block scan's numbers bit for
    bit, so every eigen_sym result stays the same."""

    @pytest.mark.parametrize("n", [2, 18, 130, 300, 2048])
    def test_matches_the_row_block_scan(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        m = m + m.T + 1e-12 * rng.standard_normal((n, n))
        defect, peak = _symmetry_scan(m)
        ref = _row_block_scan(m)
        assert defect == ref[0] and peak == ref[1]

    def test_hankel_matrix_is_exactly_symmetric(self):
        m = build_hankel_matrix(QuasiCarlemanKernel(poly(1.7, 0.0, 1.0)),
                                LogGrid(L=12.0, N=1024)).matrix
        defect, peak = _symmetry_scan(m)
        assert defect == 0.0 and peak == np.abs(m).max()

    @pytest.mark.parametrize("where", [(0, 0), (5, 200), (299, 3)])
    def test_nan_propagates(self, where):
        m = np.eye(300)
        m[where] = np.nan
        with np.errstate(invalid="ignore"):
            defect, peak = _symmetry_scan(m)
        assert math.isnan(defect) and math.isnan(peak)


class TestFactory:
    def test_u_map_recovers_log_profile(self):
        grid = LogGrid(L=12.0, N=512)
        f = make_test_function(7, grid)
        from hankelscope.transforms import u_map
        np.testing.assert_allclose(u_map(f, grid).values,
                                   f.log_profile(grid.x_nodes), rtol=1e-12, atol=1e-300)

    def test_norm_matches_profile_norm(self):
        grid = LogGrid(L=12.0, N=512)
        f = make_test_function(3, grid)
        from hankelscope.transforms import GridFunction, u_map
        phi = GridFunction(grid.x_nodes, f.log_profile(grid.x_nodes))
        assert abs(u_map(f, grid).norm() - phi.norm()) < 1e-8

    def test_seeds_give_independent_samples(self):
        grid = LogGrid(L=12.0, N=512)
        us = []
        for seed in (1, 2, 3):
            u = make_test_function(seed, grid).log_profile(grid.x_nodes)
            us.append(u / np.linalg.norm(u))
        gram = np.array([[float(a @ b) for b in us] for a in us])
        assert np.linalg.det(gram) > 1e-6

    def test_determinism(self):
        grid = LogGrid(L=12.0, N=64)
        a = make_test_function(9, grid)(np.array([0.5, 1.5]))
        b = make_test_function(9, grid)(np.array([0.5, 1.5]))
        np.testing.assert_array_equal(a, b)


class TestFormIdentity:
    def test_carleman_pair(self):
        grid = LogGrid(L=12.0, N=256)
        f1 = make_test_function(11, grid)
        f2 = make_test_function(12, grid)
        chk = form_identity_check(poly(1.0), f1, f2, grid)
        assert chk.relative_gap < 1e-6
        assert not chk.violation

    def test_bilinearity_zero_argument(self):
        grid = LogGrid(L=12.0, N=128)
        f1 = make_test_function(11, grid)
        chk = form_identity_check(poly(1.0), f1, lambda t: np.zeros_like(t), grid)
        assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.relative_gap == 0.0

    def test_symmetric_pair_is_real(self):
        grid = LogGrid(L=12.0, N=256)
        f1 = make_test_function(4, grid)
        chk = form_identity_check(poly(0.0, 1.0), f1, f1, grid)
        assert abs(chk.lhs.imag) < 1e-8 * abs(chk.lhs)
        assert chk.relative_gap < 1e-6

    def test_cubic_profile(self):
        grid = LogGrid(L=12.0, N=256)
        f1 = make_test_function(5, grid)
        f2 = make_test_function(6, grid)
        chk = form_identity_check(poly(0.5, 0.2, -0.1, 0.3), f1, f2, grid)
        assert chk.relative_gap < 1e-6

    def test_coarse_window_is_a_violation(self):
        # L = 1: the seeded test functions' window, L/8 wide, is not resolved
        # at N = 64, and the gap (0.1993, as equiv-check reports it) is far
        # above the adequacy threshold
        grid = LogGrid(L=1.0, N=64)
        f1 = make_test_function(11, grid)
        f2 = make_test_function(12, grid)
        chk = form_identity_check(poly(1.0), f1, f2, grid)
        assert chk.violation

    def test_gap_ladder_shows_spectral_convergence(self):
        ladder = identity_gap_ladder(poly(1.0, -0.5, 0.25), 11, 12, 12.0, (32, 64, 128))
        orders, converged = observed_orders(ladder)
        assert converged or (orders and max(orders) >= 2.0)


def _profile(degree, odd):
    """Alternating coefficients (-1)^j (j + 1)/(j + 3); odd keeps only the
    odd powers, an odd profile for an odd degree."""
    return poly(*(0.0 if odd and j % 2 == 0 else (-1) ** j * (j + 1) / (j + 3)
                  for j in range(degree + 1)))


class TestHankelProduct:
    """The structured product M u of form_identity_check against the dense
    Nystrom matrix of build_hankel_matrix."""

    @pytest.mark.parametrize("n", [512, 1024, 2048])
    @pytest.mark.parametrize("L", [12.0, 20.0, 30.0])
    @pytest.mark.parametrize("degree, odd", [(k, False) for k in range(7)]
                             + [(k, True) for k in (1, 3, 5)])
    def test_form_matches_dense(self, degree, odd, L, n):
        # measured over degrees 0-6, L = 12-30, N = 256-2048 and two seed
        # pairs: at most 4.6e-16 of |u2|^T |M| |u1|; relative to the form
        # itself up to 3e-14, where it is 0.2% of that magnitude
        grid = LogGrid(L=L, N=n)
        kern = QuasiCarlemanKernel(_profile(degree, odd))
        u1 = u_map(make_test_function(11, grid), grid).values
        u2 = u_map(make_test_function(12, grid), grid).values
        m = build_hankel_matrix(kern, grid).matrix
        dense = u2 @ (m @ u1)
        fast = u2 @ _hankel_product(kern, grid, u1)
        assert abs(fast - dense) <= 2e-15 * (np.abs(u2) @ (np.abs(m) @ np.abs(u1)))

    def test_complex_vector_is_split(self):
        grid = LogGrid(L=12.0, N=256)
        kern = QuasiCarlemanKernel(poly(0.5, -1.0, 0.3))
        rng = np.random.default_rng(3)
        u = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        m = build_hankel_matrix(kern, grid).matrix
        fast = _hankel_product(kern, grid, u)
        assert np.iscomplexobj(fast)
        assert np.linalg.norm(fast - m @ u) <= 1e-14 * np.linalg.norm(np.abs(m) @ np.abs(u))

    def test_lhs_is_the_dense_form(self):
        grid = LogGrid(L=12.0, N=512)
        p = poly(1.0, -0.5, 0.25)
        f1, f2 = make_test_function(11, grid), make_test_function(12, grid)
        u1, u2 = u_map(f1, grid).values, u_map(f2, grid).values
        dense = grid.dx * (u2 @ (build_hankel_matrix(QuasiCarlemanKernel(p), grid).matrix @ u1))
        assert abs(form_identity_check(p, f1, f2, grid).lhs - dense) <= 1e-14 * abs(dense)

    def test_overflowing_taylor_row_names_its_node(self):
        # P = 1e305 x^4 overflows at the first node x = -30
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DiscretizationError, match=r"non-finite kernel entry at node x=-30"):
                _hankel_product(QuasiCarlemanKernel(poly(0, 0, 0, 0, 1e305)),
                                LogGrid(L=30.0, N=64), np.ones(64))

    def test_overflowing_product_is_a_discretization_error(self):
        # every p_k is finite, but P = 1e308 times a Toeplitz row sum above 2 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DiscretizationError, match="non-finite kernel entry in the product"):
                _hankel_product(QuasiCarlemanKernel(poly(1e308)), LogGrid(L=12.0, N=64),
                                np.ones(64))

    def test_under_resolved_grid_rejected(self):
        with pytest.raises(DomainError, match="dx"):
            _hankel_product(QuasiCarlemanKernel(poly(1.0)), LogGrid(L=40.0, N=64), np.ones(64))


def _hankel_eigenvalues(p, grid):
    return eigen_sym(build_hankel_matrix(QuasiCarlemanKernel(p), grid)).eigenvalues


class TestSpectralRules:
    def test_odd_degree_real_line(self):
        grid = LogGrid(L=8.0, N=128)
        p = poly(0.0, 1.0)
        rules = spectral_rules(p, p_to_q(p), _hankel_eigenvalues(p, grid))
        assert rules["essential_spectrum"] == "R"
        assert rules["certificate"].nonnegative is False  # odd-degree symbol
        assert set(rules) == {"essential_spectrum", "certificate", "min_eigenvalue",
                              "max_eigenvalue", "negative_count"}

    def test_carleman_positive(self):
        grid = LogGrid(L=8.0, N=128)
        p = poly(2.0)  # constant profile: verdicts need degree >= 1
        rules = spectral_rules(p, p_to_q(p), _hankel_eigenvalues(p, grid))
        assert rules["essential_spectrum"] == "unknown"
        assert rules["certificate"] is None

    def test_quadratic_positivity_threshold(self):
        grid = LogGrid(L=10.0, N=128)
        for p0, expected in ((math.pi**2 / 6.0 + 0.05, True),
                             (math.pi**2 / 6.0 - 0.05, False)):
            p = poly(p0, 0.0, 1.0)
            rules = spectral_rules(p, p_to_q(p), _hankel_eigenvalues(p, grid))
            assert rules["certificate"].nonnegative is expected
            assert rules["essential_spectrum"] == "[0,inf)"

    def test_quadratic_closed_form_inequality(self):
        # verdict must match p1^2 + 2 pi^2 p2^2 / 3 <= 4 p0 p2 exactly
        rng = np.random.default_rng(17)
        grid = LogGrid(L=6.0, N=32)
        for _ in range(40):
            p0, p1 = rng.uniform(-3, 5, size=2)
            p2 = rng.uniform(0.1, 3)
            margin = p1**2 + 2.0 * math.pi**2 * p2**2 / 3.0 - 4.0 * p0 * p2
            if abs(margin) < 1e-9:
                continue
            p = poly(p0, p1, p2)
            rules = spectral_rules(p, p_to_q(p), _hankel_eigenvalues(p, grid))
            assert rules["certificate"].nonnegative is bool(margin <= 0.0), (p0, p1, p2)

    def test_negative_leading_even_degree_unknown(self):
        grid = LogGrid(L=6.0, N=32)
        p = poly(1.0, 0.0, -1.0)
        rules = spectral_rules(p, p_to_q(p), _hankel_eigenvalues(p, grid))
        assert rules["essential_spectrum"] == "unknown"
        assert rules["certificate"] is None

    def test_positive_case_min_eigenvalue(self):
        # forward direction of the positivity theorem, finite-section surrogate
        grid = LogGrid(L=14.0, N=512)
        p = poly(1.70, 0.0, 1.0)
        rules = spectral_rules(p, p_to_q(p), _hankel_eigenvalues(p, grid))
        assert rules["certificate"].nonnegative is True
        assert rules["min_eigenvalue"] >= -1e-10

    def test_negative_cascade_converged_in_window(self):
        # a symbol dipping negative gives a geometric cascade of negative
        # eigenvalues accumulating at zero; the resolvable ones are already
        # window-converged at L=10 (the infinitude shows as accumulation at
        # 0-, not as new O(1) entries when the window grows)
        p = poly(0.0, 0.0, 1.0)
        lead = {}
        for L in (10.0, 14.0):
            w = eigen_sym(build_hankel_matrix(QuasiCarlemanKernel(p),
                                              LogGrid(L=L, N=512))).eigenvalues
            lead[L] = w[:3]
        np.testing.assert_allclose(lead[10.0], lead[14.0], rtol=1e-4)
        assert lead[14.0][0] < -0.5  # leading well mode
        ratios = lead[14.0][:2] / lead[14.0][1:3]
        assert np.all(ratios > 10.0)  # geometric decay toward 0-


    def test_negative_count_cut_is_relative_to_the_largest_magnitude(self):
        # the cut is -1e-10 max|lambda|: with max|lambda| = 2, -2.2e-10 and
        # -1e-6 count, -1.8e-10 (rounding level) does not; a cut at 1e-3 of
        # max|lambda| would count only -0.5, one at 1e-12 also -1.8e-10
        p = poly(0.0, 1.0)
        eigenvalues = np.array([-0.5, -1e-6, -2.2e-10, -1.8e-10, 0.0, 0.3, 2.0])
        assert spectral_rules(p, p_to_q(p), eigenvalues)["negative_count"] == 3
        assert spectral_rules(p, p_to_q(p), 1e-200 * eigenvalues)["negative_count"] == 3

class TestCarlemanEigenform:
    def test_rayleigh_quotient_tracks_multiplier(self):
        # a wavepacket concentrated near dual frequency xi0 has quadratic form
        # close to the multiplier value pi / cosh(pi xi0)
        grid = LogGrid(L=64.0, N=1024)
        m = build_hankel_matrix(QuasiCarlemanKernel(poly(1.0)), grid).matrix
        x = grid.x_nodes
        for xi0 in (0.0, 0.5, 1.0):
            phi = np.exp(-0.5 * (x / 16.0) ** 2) * np.exp(1j * xi0 * x)
            ray = (np.vdot(phi, m @ phi) / np.vdot(phi, phi)).real
            target = math.pi / math.cosh(math.pi * xi0)
            assert abs(ray - target) < 0.03 * target


def _scipy_gl_extremes(L, n):
    """Both ends of the P = 1 Nystrom matrix on SciPy's n-point
    Gauss-Legendre rule, with the kernel 1 / (2 cosh(d/2)) taken directly."""
    t, w = roots_legendre(n)
    x, s = L * t, np.sqrt(L * w)
    return np.linalg.eigvalsh(s[:, None] * s / (2.0 * np.cosh(0.5 * (x[:, None] - x))))[[0, -1]]


class TestCarlemanExtremes:
    """The reciprocal-kernel route: Nystrom on Gauss-Legendre nodes."""

    @pytest.mark.parametrize("L, n", [(0.5, 2), (1.5, 4), (8.0, 64), (14.0, 1024),
                                      (100.0, 4096)])
    def test_rule_matches_scipy(self, L, n):
        x, w = gauss_legendre(LogGrid(L=L, N=n))
        m = x.size
        assert m == min(n, sketch_width(L))
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        t, ws = roots_legendre(m)
        np.testing.assert_allclose(x / L, t, rtol=0.0, atol=4.0 * EPS)
        # SciPy's weights nearest +-1 are good to about 3e-9
        np.testing.assert_allclose(w / L, ws, rtol=1e-8)
        # exact to degree 2m - 1: sum_i w_i P_j(t_i) = 2 delta_j0
        moments = (w / L) @ legvander(x / L, 2 * m - 1)
        moments[0] -= 2.0
        assert np.max(np.abs(moments)) <= 1e-14

    # SciPy's nodes err by up to 1.5 ulp, which moves its top by 2e-14 pi at
    # L = 30 and 9e-14 pi at L = 200, where the rule here agrees with an
    # 80-bit Newton refinement to 4e-16 pi; wider windows are covered by the
    # convergence test
    @pytest.mark.parametrize("L", [1.0, 4.0, 8.0, 14.0])
    @pytest.mark.parametrize("n", [2 ** j for j in range(1, 12)])
    def test_extremes_match_scipy_rule(self, L, n):
        grid = LogGrid(L=L, N=n)
        if grid.dx > 1.0:
            with pytest.raises(DomainError):
                carleman_extremes(grid)
            return
        rep = carleman_extremes(grid)
        assert rep.eigenvalues.shape == (2,) and rep.residuals.shape == (2,)
        np.testing.assert_allclose(rep.eigenvalues,
                                   _scipy_gl_extremes(L, min(n, sketch_width(L))),
                                   rtol=0.0, atol=1e-14 * math.pi)
        assert rep.residuals.max() <= 1e-13 * math.pi

    @pytest.mark.parametrize("L", [8.0, 14.0, 30.0, 100.0])
    def test_top_converged_in_the_node_count(self, monkeypatch, L):
        grid = LogGrid(L=L, N=4096)
        rep = carleman_extremes(grid)
        width = discretization.sketch_width
        monkeypatch.setattr(discretization, "sketch_width", lambda L: round(1.25 * width(L)))
        finer = carleman_extremes(grid)
        assert abs(finer.eigenvalues[1] - rep.eigenvalues[1]) <= 1e-13
        assert max(rep.residuals.max(), finer.residuals.max()) <= 1e-13 * math.pi

    def test_richardson_on_the_uniform_grid_agrees(self):
        # the uniform-grid tops are second order in dx (2.998851044375 at
        # N = 1024, 2.998850747645 at 2048); their Richardson value meets the
        # Gauss-Legendre top to 3e-13
        kernel = QuasiCarlemanKernel(poly(1.0))
        coarse, fine = (eigen_sym(build_hankel_matrix(kernel, LogGrid(L=14.0, N=n))).eigenvalues[-1]
                        for n in (1024, 2048))
        top = carleman_extremes(LogGrid(L=14.0, N=1024)).eigenvalues[1]
        assert abs((4.0 * fine - coarse) / 3.0 - top) <= 1e-12
        assert abs(top - 2.9988506487355) <= 1e-12

    @pytest.mark.parametrize("n", [2 ** j for j in range(1, 12)])
    def test_band_on_admissible_grids(self, n):
        # S K S is a Gram matrix of the positive-definite kernel k, whose
        # Fourier transform pi / cosh(pi xi) is positive, so the bottom is 0
        # up to rounding; the top stays at least 1e-5 below pi on this ladder
        # (the closest is N = 2048 at dx = 1)
        for dx in (1.0, 0.95, 0.5, 0.1):
            rep = carleman_extremes(LogGrid(L=dx * n / 2.0, N=n))
            assert 0.0 <= rep.eigenvalues[0] + 4.0 * EPS * math.pi
            assert rep.eigenvalues[1] < math.pi

    def test_deterministic(self):
        grid = LogGrid(L=20.0, N=1024)
        first, second = carleman_extremes(grid), carleman_extremes(grid)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.residuals, second.residuals)
