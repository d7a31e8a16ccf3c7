"""Forward/inverse coefficient map, checked against the closed-form low-order
formulas and against the Laplace-integral representation evaluated by
adaptive quadrature (the independent oracle for the inverse)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from hankelscope.coeff_map import (QuasiCarlemanKernel, build_map_matrix,
                                   p_to_q, q_to_p)
from hankelscope.errors import DomainError, UnsupportedOrderError
from hankelscope.polynomials import RealPolynomial, eval_poly

GAMMA = np.euler_gamma
PI26 = math.pi**2 / 6.0


def poly(*coeffs):
    return RealPolynomial(np.array(coeffs, dtype=float))


class TestMapMatrix:
    def test_order_zero(self):
        np.testing.assert_array_equal(build_map_matrix(0), [[1.0]])

    def test_order_one(self):
        m = build_map_matrix(1)
        np.testing.assert_allclose(m, [[1.0, -GAMMA], [0.0, 1.0]], atol=1e-15)

    def test_order_two_middle_row(self):
        m = build_map_matrix(2)
        np.testing.assert_allclose(m[1], [0.0, 1.0, -2.0 * GAMMA], atol=1e-15)

    def test_unit_diagonal_and_triangularity(self):
        m = build_map_matrix(8)
        np.testing.assert_allclose(np.diag(m), np.ones(9), atol=0)
        assert np.all(np.tril(m, k=-1) == 0.0)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            build_map_matrix(13)


class TestForwardMap:
    def test_linear_shortcut(self):
        q = p_to_q(poly(3.0, 2.0))
        np.testing.assert_allclose(q.coeffs, [3.0 - 2.0 * GAMMA, 2.0], atol=1e-14)

    def test_quadratic_shortcut(self):
        p0, p1, p2 = 0.7, -1.3, 2.1
        q = p_to_q(poly(p0, p1, p2))
        np.testing.assert_allclose(
            q.coeffs,
            [p0 - GAMMA * p1 + (GAMMA**2 - PI26) * p2, p1 - 2.0 * GAMMA * p2, p2],
            atol=1e-13)

    def test_constant_fixed_point(self):
        np.testing.assert_array_equal(p_to_q(poly(1.0)).coeffs, [1.0])

    def test_degree_and_leading_preserved(self):
        p = poly(0.3, -0.2, 0.9, 1.7)
        q = p_to_q(p)
        assert q.degree == p.degree
        assert q.leading == p.leading

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            p_to_q(poly(0.0))


class TestInverseMap:
    def test_two_by_two_inverse(self):
        p = q_to_p(poly(1.0, 4.0))
        np.testing.assert_allclose(p.coeffs, [1.0 + 4.0 * GAMMA, 4.0], atol=1e-14)

    def test_laplace_integral_oracle(self):
        # t * int_0^inf Q(-ln s) e^{-t s} ds must reproduce the profile at ln t;
        # substitution s = e^{-y} gives a smooth doubly-infinite integrand
        q = poly(1.0, 0.0, 1.0)
        p = q_to_p(q)
        for t in (0.5, 1.0, 2.0):
            integrand = lambda y: eval_poly(q, y) * math.exp(-t * math.exp(-y)) * math.exp(-y)
            val, err = quad(integrand, -30.0, 60.0, limit=400)
            assert err < 1e-7
            assert abs(t * val - eval_poly(p, math.log(t))) < 1e-6

    @pytest.mark.parametrize("qc", [(2.0,), (0.5, -1.0), (1.0, 0.3, -0.8),
                                    (0.2, 0.0, 1.1, 0.7)])
    def test_laplace_oracle_low_degrees(self, qc):
        q = poly(*qc)
        p = q_to_p(q)
        t = 1.7
        integrand = lambda y: eval_poly(q, y) * math.exp(-t * math.exp(-y)) * math.exp(-y)
        val, _ = quad(integrand, -30.0, 60.0, limit=400)
        assert abs(t * val - eval_poly(p, math.log(t))) < 1e-6


coeffs_strategy = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    min_size=1, max_size=9).filter(lambda c: abs(c[-1]) > 1e-6)


@given(coeffs_strategy)
@settings(max_examples=200)
def test_roundtrip_identity(coeffs):
    # tolerance scales with the intermediate symbol norm (the inverse map's
    # contract is relative to ||Q||)
    p = RealPolynomial(np.array(coeffs))
    q = p_to_q(p)
    back = q_to_p(q)
    np.testing.assert_allclose(back.coeffs, p.coeffs,
                               atol=1e-12 * max(1.0, np.abs(q.coeffs).max()))


@given(coeffs_strategy, coeffs_strategy,
       st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.floats(min_value=-3, max_value=3, allow_nan=False))
@settings(max_examples=100)
def test_linearity(c1, c2, a, b):
    n = max(len(c1), len(c2))
    v1 = np.zeros(n); v1[:len(c1)] = c1
    v2 = np.zeros(n); v2[:len(c2)] = c2
    combo = a * v1 + b * v2
    if abs(combo[-1]) < 1e-9 or abs(v1[-1]) < 1e-9 or abs(v2[-1]) < 1e-9:
        return
    lhs = p_to_q(RealPolynomial(combo)).coeffs
    rhs = a * p_to_q(RealPolynomial(v1)).coeffs + b * p_to_q(RealPolynomial(v2)).coeffs
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * (1 + abs(a) + abs(b)))


class TestKernelType:
    def test_kernel_evaluation(self):
        kern = QuasiCarlemanKernel(poly(1.0))
        np.testing.assert_allclose(kern(np.array([0.5, 2.0])), [2.0, 0.5])

    def test_log_profile_kernel(self):
        kern = QuasiCarlemanKernel(poly(0.0, 1.0))
        t = 3.0
        assert abs(kern(t) - math.log(t) / t) < 1e-15

    def test_zero_profile_rejected(self):
        with pytest.raises(DomainError):
            QuasiCarlemanKernel(poly(0.0))
