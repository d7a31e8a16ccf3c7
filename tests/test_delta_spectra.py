"""Reflection-differential spectra: closed forms for the first-derivative
kernel, the squared-operator cross-route, growth asymptotics, and the exact
algebra relating them. The clamped-free beam roots (cos b cosh b = -1) serve
as an independent oracle for the second-derivative kernel."""

import math
import tracemalloc

import mpmath

import numpy as np
import pytest
from numpy.polynomial import legendre
from scipy.linalg import null_space
from scipy.optimize import brentq

from hankelscope.delta_spectra import (DeltaKernel, _collocation_powers, _differentiation,
                                       _lobatto_rule, _null_space_reflectors, branches,
                                       build_reflection_operator, delta_spectrum,
                                       exact_delta_prime_eigs, h_squared_spectrum,
                                       weyl_prediction)
from hankelscope.errors import DiscretizationError, DomainError, NotApplicableError

EPS = np.finfo(float).eps
BEAM_BETA_SQ = [3.5160152685001512, 22.034491564666770, 61.697214413549102,
                120.90191605230572, 199.85953011680345, 298.55553096773009]


def beam_roots(count):
    """Roots of cos(b) cosh(b) = -1, computed fresh as the oracle."""
    roots = []
    f = lambda b: math.cos(b) * math.cosh(b) + 1.0
    for m in range(1, count + 1):
        lo, hi = (m - 1) * math.pi + 1e-3, m * math.pi
        roots.append(brentq(f, lo, hi, xtol=1e-13))
    return roots


def lgl_oracle(n):
    """LGL nodes from numpy.polynomial.legendre (the roots of P_m' and the
    endpoints), weights by the formula 2 / (m N P_m(x)^2) with P_m(+-1) =
    (+-1)^m exact, and the differentiation matrix from barycentric weights
    1 / prod_k (x_j - x_k) with the negative-sum diagonal."""
    m = n - 1
    unit = [0.0] * m + [1.0]
    x = np.concatenate([[-1.0], np.sort(legendre.legroots(legendre.legder(unit))), [1.0]])
    p = legendre.legval(x, unit)
    p[0], p[-1] = (-1.0) ** m, 1.0
    w = 2.0 / (m * n * p * p)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    lam = 1.0 / np.prod(diff, axis=1)
    d = (lam[None, :] / lam[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return x, w, d


class TestNodesAndModel:
    def test_nodes_symmetric_about_midpoint(self):
        for n in (2, 3, 32, 33):
            nodes, w, _ = _lobatto_rule(n)
            assert nodes[0] == -1.0 and nodes[-1] == 1.0
            assert np.all(np.diff(nodes) > 0.0)
            assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(w, w[::-1])

    @pytest.mark.parametrize("n", [8, 17, 64, 129, 512])
    def test_nodes_and_weights_match_numpy_legendre(self, n):
        nodes, w, _ = _lobatto_rule(n)
        ref_x, ref_w, _ = lgl_oracle(n)
        # both tolerances are the oracle's: legroots and legval round at
        # about 1e-14 and 2e-13 at N = 512
        np.testing.assert_allclose(nodes, ref_x, rtol=0, atol=5e-14)
        np.testing.assert_allclose(w, ref_w, rtol=1e-12)
        assert abs(w.sum() - 2.0) < 1e-14

    @pytest.mark.parametrize("n", [8, 17, 64, 129])
    def test_summation_by_parts(self, n):
        # W D + D^T W = diag(-1, 0, ..., 0, 1): LGL quadrature is exact to
        # degree 2N - 3, and every product of a polynomial of degree < N with
        # the derivative of another has degree <= 2N - 3
        nodes, w, pm = _lobatto_rule(n)
        d = _differentiation(nodes, pm)[0]
        boundary = np.zeros((n, n))
        boundary[0, 0], boundary[-1, -1] = -1.0, 1.0
        wd = w[:, None] * d
        np.testing.assert_allclose(wd + wd.T, boundary, rtol=0, atol=1e-15)

    def test_differentiation_exact_on_polynomials(self):
        # exact on x^k, k < N, to rounding: relative to the rounding scale
        # |D| |x^k|, the nodes next to +-1 carry an error of eps against a
        # spacing of order 1/N^2
        for n in (8, 17, 64, 129):
            nodes, _, pm = _lobatto_rule(n)
            d = _differentiation(nodes, pm)[0]
            for k in range(n):
                v = nodes ** k
                exact = k * nodes ** (k - 1) if k else np.zeros(n)
                err = np.abs(d @ v - exact) / (np.abs(d) @ np.abs(v))
                assert err.max() < 1e-12, (n, k, err.max())

    def test_derivative_powers_exact_on_polynomials(self):
        # D^(k) of Welfert's recursion, k = 1..3, is exact on x^j, j < N, to
        # rounding relative to |D^(k)| |x^j| (t0 = 2: the interval [-1, 1])
        for n in (8, 17, 64, 129):
            nodes = _lobatto_rule(n)[0]
            powers = [np.eye(n)] + list(_collocation_powers(n, 2.0, 3))
            for j in range(n):
                v = nodes ** j
                for k in (1, 2, 3):
                    exact = math.perm(j, k) * nodes ** max(j - k, 0)
                    err = np.abs(powers[k] @ v - exact) / (np.abs(powers[k]) @ np.abs(v))
                    assert err.max() < 1e-12, (n, j, k, err.max())

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    def test_recursion_matches_matrix_products(self, n):
        # bounds 10x the largest measured deviation over n (4.5e-12 and
        # 1.6e-11 of max|D^k| at n = 512), and 10x the measured error on a
        # Legendre series of degree n/4 (1.3e-9 at n = 512, k = 3, where the
        # products err by 3.5e-8)
        nodes, _, pm = _lobatto_rule(n)
        d = _differentiation(nodes, pm)[0]
        powers = [np.eye(n)] + list(_collocation_powers(n, 2.0, 3))
        products = {2: d @ d, 3: d @ d @ d}
        for k, bound in ((2, 5e-11), (3, 2e-10)):
            dev = np.abs(powers[k] - products[k]).max() / np.abs(products[k]).max()
            assert dev < bound, (k, dev)
        coef = np.random.default_rng(1).standard_normal(n // 4 + 1)
        f = legendre.legval(nodes, coef)
        exact = legendre.legval(nodes, legendre.legder(coef, 3))
        err = np.abs(powers[3] @ f - exact).max() / np.abs(exact).max()
        assert err < 1.3e-8 and err <= np.abs(products[3] @ f - exact).max() / np.abs(exact).max()

    def test_rule_cached_read_only(self):
        rule = _lobatto_rule(96)
        assert all(a is b for a, b in zip(rule, _lobatto_rule(96)))
        for a in rule:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_minimum_resolution_enforced(self):
        with pytest.raises(DomainError):
            build_reflection_operator(DeltaKernel([0.0, 0.0, 1.0], 1.0), 10)

    def test_squared_route_minimum_resolution_enforced(self):
        with pytest.raises(DomainError):
            h_squared_spectrum(DeltaKernel([0.0, 0.0, 1.0], 1.0), 15)


MIXED_WEIGHTS = [[-1.5], [0.5, -1.0], [0.3, -0.2, 1.0], [0.1, 0.0, -0.5, 2.0]]


def oracle_powers(kernel, n, order):
    """Square-root weights and [I, D, ..., D^order] on [0, t0], by repeated
    products with the negative-sum diagonal."""
    _, w, d = lgl_oracle(n)
    d = d * (2.0 / kernel.t0)
    powers = [np.eye(n)]
    for _ in range(order):
        nxt = d @ powers[-1]
        np.fill_diagonal(nxt, 0.0)
        np.fill_diagonal(nxt, -nxt.sum(axis=1))
        powers.append(nxt)
    return np.sqrt(w), powers


def boundary_rows(kernel, n, squared):
    """The K left-endpoint rows: f^(k)(0) scaled by the inverse square-root
    weights on the reflection route; unscaled, followed by the K
    right-endpoint rows sum_l (-1)^l h_l f^(k+l)(t0), on the squared route."""
    k_ord = kernel.order
    s, powers = oracle_powers(kernel, n, 2 * k_ord if squared else k_ord)
    if not squared:
        return np.array([powers[k][0, :] / s for k in range(k_ord)])
    rows = [powers[k][0, :] for k in range(k_ord)]
    rows += [sum((-1.0) ** l * hl * powers[k + l][-1, :]
                 for l, hl in enumerate(kernel.h_coeffs)) for k in range(k_ord)]
    return np.array(rows)


def reflection_oracle(kernel, n):
    """First-principles assembly: the reflection as an explicit permutation
    matrix, the similarity S M S^-1 with S the square roots of the weights,
    and SciPy's null space of the row-normalized scaled boundary rows
    (identity basis for K = 0). Returns the basis and B^T S M S^-1 B, not
    symmetrized."""
    s, powers = oracle_powers(kernel, n, kernel.order)
    refl = np.eye(n)[::-1]
    m = np.zeros((n, n))
    for k, hk in enumerate(kernel.h_coeffs):
        if hk != 0.0:
            m += (-1.0) ** k * hk * (refl @ powers[k])
    basis = np.eye(n)
    if kernel.order > 0:
        rows = boundary_rows(kernel, n, squared=False)
        basis = null_space(rows / np.linalg.norm(rows, axis=1, keepdims=True))
    return basis, basis.T @ np.diag(s) @ m @ np.diag(1.0 / s) @ basis


def reflector_basis(reflectors):
    """The null-space basis B = H[:, K:] of the product H = I - V T V^T of
    the reflectors (V, T): the identity for K = 0."""
    v, t = reflectors
    k = v.shape[1]
    return (np.eye(v.shape[0]) - v @ t @ v.T)[:, k:]


class TestReflectionAssembly:
    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("h", MIXED_WEIGHTS)
    def test_matches_first_principles_oracle(self, h, n):
        # the null-space basis is fixed only up to a rotation, so compare the
        # projector B B^T and the lifted operator B A B^T
        kernel = DeltaKernel(h, 1.5)
        reflectors, reduced = build_reflection_operator(kernel, n)
        basis = reflector_basis(reflectors)
        ref_basis, ref_reduced = reflection_oracle(kernel, n)
        np.testing.assert_allclose(basis @ basis.T, ref_basis @ ref_basis.T,
                                   rtol=0, atol=1e-12)
        lifted = basis @ reduced @ basis.T
        ref_lifted = ref_basis @ ref_reduced @ ref_basis.T
        scale = np.abs(ref_lifted).max()
        assert np.abs(lifted - ref_lifted).max() <= 1e-11 * scale
        # the oracle is not symmetrized: its skew part is rounding only
        assert np.abs(ref_reduced - ref_reduced.T).max() <= 1e-11 * scale

    @pytest.mark.parametrize("n", [32, 64, 512])
    @pytest.mark.parametrize("h", MIXED_WEIGHTS)
    def test_reduced_matrix_exactly_symmetric(self, h, n):
        _, reduced = build_reflection_operator(DeltaKernel(h, 0.7), n)
        assert np.array_equal(reduced, reduced.T)

    @pytest.mark.parametrize("h", MIXED_WEIGHTS)
    def test_basis_is_orthonormal_null_space(self, h):
        n = 64
        kernel = DeltaKernel(h, 1.5)
        reflectors, reduced = build_reflection_operator(kernel, n)
        basis = reflector_basis(reflectors)
        k_ord = kernel.order
        assert basis.shape == (n, n - k_ord) and reduced.shape == (n - k_ord, n - k_ord)
        np.testing.assert_allclose(basis.T @ basis, np.eye(n - k_ord), rtol=0, atol=1e-12)
        nodes, w, pm = _lobatto_rule(n)
        d = _differentiation(nodes, pm)[0]
        for k in range(k_ord):
            row = np.linalg.matrix_power(d, k)[0, :] / np.sqrt(w)
            assert np.abs(row @ basis).max() <= 1e-12 * np.linalg.norm(row)

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("squared", [False, True], ids=["reflection", "squared"])
    @pytest.mark.parametrize("h", MIXED_WEIGHTS[1:], ids=["K1", "K2", "K3"])
    def test_reflector_basis_spans_scipy_null_space(self, h, squared, n):
        # the basis is fixed only up to a rotation: compare projectors
        rows = boundary_rows(DeltaKernel(h, 1.5), n, squared)
        v, t = _null_space_reflectors(rows)
        k = rows.shape[0]
        assert v.shape == (n, k) and t.shape == (k, k)
        basis = reflector_basis((v, t))
        ref = null_space(rows / np.linalg.norm(rows, axis=1, keepdims=True))
        np.testing.assert_allclose(basis.T @ basis, np.eye(n - k), rtol=0, atol=1e-14)
        np.testing.assert_allclose(basis @ basis.T, ref @ ref.T, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("route", ["build_reflection_operator", "delta_spectrum"])
    @pytest.mark.parametrize("h", MIXED_WEIGHTS[1:], ids=["K1", "K2", "K3"])
    def test_peak_memory_at_the_eigensolver_floor(self, h, route):
        # the orders stream into one accumulator, so the traced peak stays
        # near the five N x N arrays of eigh, whatever K is (it grew as
        # (K + 5) N^2 while every order was kept)
        n = 512
        kernel = DeltaKernel(h, 1.5)
        if route == "build_reflection_operator":
            call = lambda: build_reflection_operator(kernel, n)
        else:
            call = lambda: delta_spectrum(kernel, n, n // 4)
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * 8 * n ** 2

    @pytest.mark.parametrize("rows", [[[1.0, 2.0, 0.0], [-2.0, -4.0, 0.0]],
                                      [[1.0, 2.0, 0.0], [0.0, 0.0, 0.0]]],
                             ids=["parallel", "zero"])
    def test_rank_deficient_rows_rejected(self, rows):
        with pytest.raises(DiscretizationError):
            _null_space_reflectors(np.array(rows))


class TestKernelType:
    def test_trailing_zeros_trimmed(self):
        k = DeltaKernel([1.0, 2.0, 0.0], 1.0)
        assert k.order == 1

    def test_zero_kernel_rejected(self):
        with pytest.raises(DomainError):
            DeltaKernel([0.0], 1.0)

    def test_negative_location_rejected(self):
        with pytest.raises(DomainError):
            DeltaKernel([1.0], -2.0)


class TestOrderZero:
    def test_exact_two_point_spectrum(self):
        # the operator is h0 times the reflection permutation
        h0 = 2.5
        rep = delta_spectrum(DeltaKernel([h0], 1.0), 32, 8)
        vals = np.unique(np.round(rep.eigenvalues, 10))
        np.testing.assert_array_equal(vals, [-h0, h0])
        assert rep.residuals.max() < 1e-12

    @pytest.mark.parametrize("h0, n, n_max", [(1.4230776672218808, 256, 42), (-0.8, 64, 16),
                                              (3.0, 33, 8), (-1.4230776672218808, 257, 64)])
    def test_closed_form_is_exact(self, h0, n, n_max):
        # R^2 = I: e_i +- e_(N-1-i) (and the middle unit vector for odd N)
        # are exact eigenvectors of h0 R, with eigenvalues exactly +-|h0|
        rep = delta_spectrum(DeltaKernel([h0], 1.3), n, n_max)
        want = np.concatenate([np.full(n_max, -abs(h0)), np.full(n_max, abs(h0))])
        assert np.array_equal(rep.eigenvalues, want)
        assert np.array_equal(rep.residuals, np.zeros(2 * n_max))

    @pytest.mark.parametrize("h0, n", [(1.4230776672218808, 256), (-0.8, 64), (3.0, 33)])
    def test_model_spectrum_matches_closed_form(self, h0, n):
        # the model (I, h0 R) stays the reference: its eigh spectrum is
        # ceil(N/2) copies of h0 and floor(N/2) of -h0, to rounding
        reflectors, reduced = build_reflection_operator(DeltaKernel([h0], 1.3), n)
        assert np.array_equal(reflector_basis(reflectors), np.eye(n))
        w = np.linalg.eigvalsh(reduced)
        want = np.sort(np.concatenate([np.full((n + 1) // 2, h0), np.full(n // 2, -h0)]))
        assert np.abs(w - want).max() <= 4.0 * EPS * abs(h0)


class TestExactFirstDerivativeKernel:
    def test_formula_values(self):
        assert exact_delta_prime_eigs(1.0, 1) == (1.5 * math.pi, -0.5 * math.pi)
        lp, lm = exact_delta_prime_eigs(2.0, 1)
        assert abs(lp - 0.75 * math.pi) < 1e-15 and abs(lm + 0.25 * math.pi) < 1e-15
        lp, lm = exact_delta_prime_eigs(1.0, 10)
        assert abs(lp - 19.5 * math.pi) < 1e-12 and abs(lm + 18.5 * math.pi) < 1e-12

    def test_invalid_index(self):
        with pytest.raises(DomainError):
            exact_delta_prime_eigs(1.0, 0)

    def test_collocation_reproduces_closed_form(self):
        rep = delta_spectrum(DeltaKernel([0.0, 1.0], 1.0), 64, 10)
        lp, lm = branches(rep.eigenvalues)
        for i in range(10):
            ep, em = exact_delta_prime_eigs(1.0, i + 1)
            assert abs(lp[i] - ep) < 1e-10
            assert abs(lm[i] - em) < 1e-10

    def test_closed_form_at_high_resolution(self):
        # h1 < 0 swaps the branches; the first N/5 modes of each sign hold the
        # closed form to 1e-12 |h1| / t0 at N = 512
        h1, t0, n_max = -1.7, 0.6, 102
        rep = delta_spectrum(DeltaKernel([0.0, h1], t0), 512, n_max)
        lp, lm = branches(rep.eigenvalues)
        exact = np.array([exact_delta_prime_eigs(t0, i + 1) for i in range(n_max)]) * h1
        assert lp.size == lm.size == n_max
        err = max(np.abs(lp - exact[:, 1]).max(), np.abs(lm - exact[:, 0]).max())
        assert err <= 1e-12 * abs(h1) / t0, err

    def test_smallest_magnitude_bounded_away_from_zero(self):
        rep = delta_spectrum(DeltaKernel([0.0, 1.0], 1.0), 64, 10)
        assert abs(np.abs(rep.eigenvalues).min() - math.pi / 2.0) < 1e-10

    def test_spectral_convergence_between_resolutions(self):
        for n in (48, 64):
            r1 = delta_spectrum(DeltaKernel([0.0, 1.0], 1.0), n, n // 8)
            r2 = delta_spectrum(DeltaKernel([0.0, 1.0], 1.0), 2 * n, n // 8)
            k = n // 8
            (p1, m1), (p2, m2) = branches(r1.eigenvalues), branches(r2.eigenvalues)
            assert np.abs(p1[:k] - p2[:k]).max() < 1e-10
            assert np.abs(m1[:k] - m2[:k]).max() < 1e-10


class TestWeylPrediction:
    def test_first_order(self):
        lp, lm = weyl_prediction(DeltaKernel([0.0, 1.0], 1.0), 5)
        assert abs(lp - 10.0 * math.pi) < 1e-12 and lm == -lp

    def test_second_order(self):
        lp, _ = weyl_prediction(DeltaKernel([0.0, 0.0, 1.0], 1.0), 3)
        assert abs(lp - 36.0 * math.pi**2) < 1e-10

    def test_order_zero_not_applicable(self):
        with pytest.raises(NotApplicableError):
            weyl_prediction(DeltaKernel([1.0], 1.0), 1)

    @pytest.mark.parametrize("h, t0, n", [
        ((5e-324, 5e-324), 3e-308, 1),        # 2 pi / t0 overflows
        ((0.0, -1e-300), 1e-310, 3),          # subnormal t0
        ((0.0, 0.0, 1e-20), 1e-160, 2),       # the float power raises
        ((0.1, 0.0, 0.0, -3e-300), 1e-105, 1)])
    def test_scaled_where_two_pi_n_over_t0_overflows(self, h, t0, n):
        # the pair is finite, and t0 = m 2^e, |h_K| = a 2^f keep every
        # intermediate in range: a few roundings off the exact pair
        kernel = DeltaKernel(list(h), t0)
        lp, lm = weyl_prediction(kernel, n)
        with mpmath.workdps(40):
            exact = abs(mpmath.mpf(h[-1])) * (2 * mpmath.pi * n / mpmath.mpf(t0)) ** kernel.order
            assert abs(lp - exact) <= 4 * 2.0 ** -53 * exact
        assert lm == -lp

    def test_beyond_double_precision_is_infinite(self):
        assert weyl_prediction(DeltaKernel([0.0, 1.0], 1e-310), 1) == (math.inf, -math.inf)
        assert weyl_prediction(DeltaKernel([0.0, 0.0, 1.0], 1e-160), 1) == (math.inf, -math.inf)

    def test_deviation_from_exact_is_quarter_over_n(self):
        # plus branch: |exact - weyl| / weyl = 1/(4n) exactly;
        # minus branch: 3/(4n) exactly
        kernel = DeltaKernel([0.0, 1.0], 1.0)
        for n in (1, 2, 5, 10, 50):
            wp, wm = weyl_prediction(kernel, n)
            ep, em = exact_delta_prime_eigs(1.0, n)
            assert abs(abs(ep - wp) / wp - 1.0 / (4 * n)) < 1e-12
            assert abs(abs(em - wm) / abs(wm) - 3.0 / (4 * n)) < 1e-12


class TestSecondDerivativeKernel:
    def test_magnitudes_match_beam_oracle(self):
        # |lambda| sorted are the squares of the clamped-free beam roots
        rep = delta_spectrum(DeltaKernel([0.0, 0.0, 1.0], 1.0), 96, 8)
        mags = np.sort(np.abs(rep.eigenvalues))
        betas = beam_roots(8)
        np.testing.assert_allclose(BEAM_BETA_SQ, [b * b for b in betas[:6]],
                                   rtol=1e-12)
        for i in range(8):
            assert abs(mags[i] - betas[i] ** 2) < 1e-6 * betas[i] ** 2

    def test_sign_alternation(self):
        # odd beam modes carry the positive branch, even modes the negative
        rep = delta_spectrum(DeltaKernel([0.0, 0.0, 1.0], 1.0), 96, 8)
        lp, lm = branches(rep.eigenvalues)
        betas = beam_roots(6)
        assert abs(lp[0] - betas[0] ** 2) < 1e-6 * betas[0] ** 2
        assert abs(lm[0] + betas[1] ** 2) < 1e-6 * betas[1] ** 2

    def test_quarter_shift_asymptotics(self):
        # positive branch tracks (2 pi (n - 3/4)/t0)^2 exponentially closely
        rep = delta_spectrum(DeltaKernel([0.0, 0.0, 1.0], 1.0), 256, 20)
        lp, _ = branches(rep.eigenvalues)
        for n in (10, 15, 20):
            shifted = (2.0 * math.pi * (n - 0.75)) ** 2
            assert abs(lp[n - 1] - shifted) < 1e-8 * shifted

    def test_growth_ratio_deviation_constant(self):
        # |ratio - 1| <= C/n with C = 3/2 from the quarter shift; estimate and
        # bound the constant over the trusted tail
        kernel = DeltaKernel([0.0, 0.0, 1.0], 1.0)
        rep = delta_spectrum(kernel, 256, 20)
        lp, _ = branches(rep.eigenvalues)
        c_estimates = []
        for n in range(10, 21):
            wp, _ = weyl_prediction(kernel, n)
            c_estimates.append(n * abs(lp[n - 1] / wp - 1.0))
        c_est = max(c_estimates)
        assert c_est < 1.6, f"deviation constant estimate {c_est:.3f}"


class TestSquaredOperatorRoute:
    def test_first_order_route_agreement(self):
        kernel = DeltaKernel([0.0, 1.0], 1.0)
        rep = delta_spectrum(kernel, 64, 8)
        lam = np.sort(np.abs(rep.eigenvalues))
        mu = h_squared_spectrum(kernel, 64)
        k = min(10, lam.size, mu.size)
        rel = np.abs(np.sort(lam**2)[:k] - mu[:k]) / mu[:k]
        assert rel.max() < 1e-10

    def test_second_order_route_agreement(self):
        kernel = DeltaKernel([0.0, 0.0, 1.0], 1.0)
        rep = delta_spectrum(kernel, 48, 8)
        lam = np.sort(np.abs(rep.eigenvalues))
        mu = h_squared_spectrum(kernel, 48)
        k = min(8, lam.size, mu.size)
        rel = np.abs(np.sort(lam**2)[:k] - mu[:k]) / mu[:k]
        assert rel.max() < 1e-6

    def test_mixed_coefficients_route_agreement(self):
        kernel = DeltaKernel([0.5, 1.0], 1.0)
        rep = delta_spectrum(kernel, 64, 8)
        lam = np.sort(np.abs(rep.eigenvalues))
        mu = h_squared_spectrum(kernel, 64)
        k = min(8, lam.size, mu.size)
        rel = np.abs(np.sort(lam**2)[:k] - mu[:k]) / mu[:k]
        assert rel.max() < 1e-8

    def test_not_applicable_for_order_zero(self):
        with pytest.raises(NotApplicableError):
            h_squared_spectrum(DeltaKernel([1.0], 1.0), 32)


class TestReportContract:
    def test_scaling_linearity(self):
        r1 = delta_spectrum(DeltaKernel([0.0, 1.0], 1.0), 64, 8)
        r3 = delta_spectrum(DeltaKernel([0.0, 3.0], 1.0), 64, 8)
        np.testing.assert_allclose(r3.eigenvalues, 3.0 * r1.eigenvalues,
                                   rtol=0, atol=1e-11)

    def test_trust_region_enforced(self):
        with pytest.raises(DomainError):
            delta_spectrum(DeltaKernel([0.0, 1.0], 1.0), 64, 17)

    def test_residual_bound(self):
        rep = delta_spectrum(DeltaKernel([0.0, 0.0, 1.0], 1.0), 256, 20)
        assert rep.residuals.max() <= 1e-8 * np.abs(rep.eigenvalues).max()

    def test_multiplicity_clusters_reported(self):
        # the trusted eigenvalues of h = (0, 1) are simple: consecutive values
        # on each branch differ by more than 1e-6 relative
        rep = delta_spectrum(DeltaKernel([0.0, 1.0], 1.0), 64, 10)
        for branch in branches(rep.eigenvalues):
            mags = np.abs(branch)
            assert mags.size == 10
            assert np.all(np.diff(mags) > 1e-6 * np.maximum(mags[1:], mags[:-1]))

    def test_eigenvalues_sorted_with_aligned_residuals(self):
        rep = delta_spectrum(DeltaKernel([0.0, 0.0, 1.0], 1.0), 96, 8)
        assert np.all(np.diff(rep.eigenvalues) > 0)
        assert rep.eigenvalues.size == rep.residuals.size == 16


# one kernel per first-mode regime of c = h1 / (h0 t0), each with both signs
# of h1: c < 0, 0 < c < 1 (the sinh mode), c = 1 (f = t), c > 1, and h0 = 0
FIRST_ORDER = {
    "c<0": (-0.7, 1.2, 0.6), "c<0,h1<0": (0.9, -1.1, 1.3),
    "0<c<1": (2.0, 0.9, 1.1), "0<c<1,h1<0": (-1.5, -0.4, 0.8),
    "c=1": (1.25, 1.25, 1.0), "c=1,h1<0": (-0.5, -1.0, 2.0),
    "c>1": (0.4, 1.7, 1.4), "c>1,h1<0": (-0.3, -1.9, 0.7),
    "pure": (0.0, 1.3, 0.9), "pure,h1<0": (0.0, -0.8, 1.6),
}


def mp_first_order(h0, h1, t0, count):
    """The count eigenvalues nearest zero of h0 delta + h1 delta', ascending,
    from the roots of h0 t0 sin x = h1 x cos x found by mpmath at 50 digits
    in the brackets of the secular route: lambda = -(h0 cos x + h1 x / t0
    sin x), or -h0 / cosh y with tanh y = c y, or -h0 for c = 1."""
    with mpmath.workdps(50):
        h0, h1, t0 = mpmath.mpf(h0), mpmath.mpf(h1), mpmath.mpf(t0)
        lam = lambda x: -(h0 * mpmath.cos(x) + h1 * x / t0 * mpmath.sin(x))
        secular = lambda x: h0 * t0 * mpmath.sinc(x) - h1 * mpmath.cos(x)   # F t0 / x
        p, q = h0 * t0 * mpmath.sign(h1), abs(h1)
        out = []
        if p == q:
            out.append(-h0)
        elif p > q:
            c = q / p
            y = mpmath.findroot(lambda y: mpmath.tanh(y) / y - c,
                                (mpmath.sqrt(3 * (1 - c)) / 2, 1 / c), solver="anderson")
            out.append(-h0 / mpmath.cosh(y))
        elif p == 0:
            out.append(lam(mpmath.pi / 2))
        else:
            lo = mpmath.pi / 2 if p < 0 else mpmath.sqrt(3 * (q / p - 1)) / (2 * q / p)
            hi = mpmath.pi if p < 0 else mpmath.pi / 2
            out.append(lam(mpmath.findroot(secular, (lo, hi), solver="anderson")))
        for k in range(1, count):
            lo = k * mpmath.pi + (mpmath.pi / 2 if p < 0 else 0)
            if p == 0:
                out.append(lam(lo + mpmath.pi / 2))
            else:
                out.append(lam(mpmath.findroot(secular, (lo, lo + mpmath.pi / 2),
                                               solver="anderson")))
        return np.array(sorted(float(v) for v in out))


class TestSecularRoute:
    @pytest.fixture(autouse=True)
    def no_matrix(self, monkeypatch):
        # order 1 forms no collocation matrix and runs no eigensolver
        import hankelscope.delta_spectra as ds

        def forbidden(*args):
            raise AssertionError("the secular route called a matrix solver")
        for name in ("build_reflection_operator", "dense_eig"):
            monkeypatch.setattr(ds, name, forbidden)

    @pytest.mark.parametrize("h0, h1, t0", FIRST_ORDER.values(), ids=FIRST_ORDER.keys())
    def test_matches_mpmath_roots_within_the_residuals(self, h0, h1, t0):
        # H is self-adjoint, so an eigenvalue lies within each residual; the
        # residuals are a few eps relative, far below the gaps
        rep = delta_spectrum(DeltaKernel([h0, h1], t0), 96, 24)
        want = mp_first_order(h0, h1, t0, 48)
        err = np.abs(rep.eigenvalues - want)
        assert np.all(err <= rep.residuals), (err / rep.residuals).max()
        assert np.all(rep.residuals <= 1e-13 * np.abs(want))
        assert np.all(err <= 4.0 * EPS * np.abs(want))

    @pytest.mark.parametrize("h0, h1, t0", FIRST_ORDER.values(), ids=FIRST_ORDER.keys())
    def test_first_mode_regime(self, h0, h1, t0):
        # the mode nearest zero is the one of c's regime, with sign -sign(h0)
        # except for c < 0 (and -sign(h1) for h0 = 0), and the signs alternate
        # along the modes sorted by magnitude
        rep = delta_spectrum(DeltaKernel([h0, h1], t0), 64, 16)
        lam = rep.eigenvalues[np.argsort(np.abs(rep.eigenvalues))]
        first = lam[0]
        c = h1 / (h0 * t0) if h0 else math.inf
        if c == 1.0:
            assert first == -h0
        elif 0.0 < c < 1.0:
            y = brentq(lambda y: math.tanh(y) - c * y, 1e-3, 1.0 / c)
            assert abs(first + h0 / math.cosh(y)) <= 1e-13 * abs(h0)
        else:
            x = math.pi / 2 if h0 == 0.0 else brentq(
                lambda x: h0 * t0 * math.sin(x) - h1 * x * math.cos(x),
                *((math.pi / 2, math.pi) if c < 0 else (1e-9, math.pi / 2)))
            want = -(h0 * math.cos(x) + h1 * x / t0 * math.sin(x))
            assert abs(first - want) <= 1e-13 * abs(want)
            assert (math.pi / 2 < x < math.pi) if c < 0 else (0.0 < x <= math.pi / 2)
        assert np.all(np.sign(lam[1:]) == -np.sign(lam[:-1]))
        assert np.all(np.diff(np.abs(lam)) > 0.0)

    @pytest.mark.parametrize("n", [128, 512])
    def test_trust_edge_returns_the_exact_modes(self, n):
        # n_max = N/4 used to end in one spurious mode (then every later mode
        # one index late); each mode's index now follows from its bracket
        rep = delta_spectrum(DeltaKernel([0.0, 1.0], 1.0), n, n // 4)
        lp, lm = branches(rep.eigenvalues)
        exact = np.array([exact_delta_prime_eigs(1.0, i + 1) for i in range(n // 4)])
        assert lp.size == lm.size == n // 4
        np.testing.assert_allclose(lp, exact[:, 0], rtol=4.0 * EPS, atol=0.0)
        np.testing.assert_allclose(lm, exact[:, 1], rtol=4.0 * EPS, atol=0.0)
        rep = delta_spectrum(DeltaKernel([0.5, 1.0], 1.0), 128, 32)
        err = np.abs(rep.eigenvalues - mp_first_order(0.5, 1.0, 1.0, 64))
        assert np.all(err <= rep.residuals)

    def test_extreme_weights_keep_their_scale(self):
        # h0 t0 and h1 are scaled by a power of two, so weights near the ends
        # of the double range give the scaled spectrum of (0.5, 1) at t0 = 1,
        # and (h0, h1 s, t0 s) has the spectrum of (h0, h1, t0) for every s
        unit = delta_spectrum(DeltaKernel([0.5, 1.0], 1.0), 64, 8).eigenvalues
        for scale in (2.0 ** -1000, 2.0 ** 1000):
            rep = delta_spectrum(DeltaKernel([0.5 * scale, scale], 1.0), 64, 8)
            assert np.array_equal(rep.eigenvalues, scale * unit)
            rep = delta_spectrum(DeltaKernel([0.5, scale], scale), 64, 8)
            assert np.array_equal(rep.eigenvalues, unit)

    def test_sinh_mode_beyond_the_range_of_cosh(self):
        # c = 1e-3: y = 1000 and cosh y overflows, but -h0 / cosh y = -1e300 *
        # 2 e^-1000 is a normal number
        rep = delta_spectrum(DeltaKernel([1e300, 1e297], 1.0), 64, 4)
        with mpmath.workdps(30):
            want = float(-mpmath.mpf(1e300) / mpmath.cosh(mpmath.mpf(1e297) ** -1 * 1e300))
        first = rep.eigenvalues[np.argmin(np.abs(rep.eigenvalues))]
        assert abs(first - want) <= 1e-12 * abs(want)

    def test_underflowing_sinh_mode_is_an_error(self):
        # c = 1e-3: the sinh mode's -h0 / cosh(1000) is below every subnormal
        with pytest.raises(DiscretizationError, match="underflows double precision"):
            delta_spectrum(DeltaKernel([1.0, 1e-3], 1.0), 64, 4)


@pytest.mark.parametrize("h0, h1, t0", FIRST_ORDER.values(), ids=FIRST_ORDER.keys())
def test_secular_route_matches_collocation_at_768_nodes(h0, h1, t0):
    # collocation, solved independently at N = 768, agrees on the first 150
    # modes of each sign to 1e-12 of the largest (its error is absolute, about
    # 1e-14 of max|lambda|)
    kernel = DeltaKernel([h0, h1], t0)
    lam = delta_spectrum(kernel, 600, 150).eigenvalues
    w = np.linalg.eigvalsh(build_reflection_operator(kernel, 768)[1])
    want = np.concatenate([w[w < 0.0][-150:], w[w > 0.0][:150]])
    assert np.abs(lam - want).max() <= 1e-12 * np.abs(want).max()
