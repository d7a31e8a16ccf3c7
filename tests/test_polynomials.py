import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hankelscope.errors import DomainError
from hankelscope.polynomials import RealPolynomial, eval_poly, is_nonnegative_on_reals


def poly(*coeffs):
    return RealPolynomial(np.array(coeffs, dtype=float))


class TestEval:
    def test_constant(self):
        assert eval_poly(poly(1.0), 5.0) == 1.0

    def test_identity(self):
        assert eval_poly(poly(0.0, 1.0), 3.0) == 3.0

    def test_double_root(self):
        assert eval_poly(poly(1.0, -2.0, 1.0), 1.0) == 0.0

    def test_array_input(self):
        x = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(eval_poly(poly(1.0, 0.0, 1.0), x), 1.0 + x**2)


# exact zeros or honest magnitudes: the oracle rejects polynomials whose
# leading coefficient sits below the relative noise floor
coeff_entry = st.one_of(
    st.just(0.0),
    st.floats(min_value=-10, max_value=10, allow_nan=False,
              allow_infinity=False).filter(lambda v: abs(v) > 1e-6))
coeff_lists = st.lists(coeff_entry, min_size=1, max_size=9)


class TestTrimming:
    def test_trailing_zeros_removed(self):
        assert poly(1.0, 2.0, 0.0, 0.0).degree == 1

    def test_zero_polynomial(self):
        p = poly(0.0, 0.0)
        assert p.is_zero and p.degree == -1

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            poly(1.0, np.nan)


class TestNonnegativityExamples:
    def test_sum_of_squares(self):
        assert is_nonnegative_on_reals(poly(1.0, 0.0, 1.0)).nonnegative

    def test_odd_degree_with_witness(self):
        cert = is_nonnegative_on_reals(poly(0.0, 1.0))
        assert not cert.nonnegative
        assert cert.witness == -1.0
        assert cert.witness_value < 0.0

    def test_negative_leading(self):
        cert = is_nonnegative_on_reals(poly(1.0, 0.0, -1.0))
        assert not cert.nonnegative and eval_poly(poly(1.0, 0.0, -1.0), cert.witness) < 0

    def test_touching_double_root(self):
        cert = is_nonnegative_on_reals(poly(1.0, -2.0, 1.0))
        assert cert.nonnegative

    def test_double_pair(self):
        # (x^2 - 1)^2 touches zero at two points
        cert = is_nonnegative_on_reals(poly(1.0, 0.0, -2.0, 0.0, 1.0))
        assert cert.nonnegative and cert.all_roots_even_multiplicity

    def test_negative_constant(self):
        cert = is_nonnegative_on_reals(poly(-2.0))
        assert not cert.nonnegative and cert.witness_value == -2.0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DomainError):
            is_nonnegative_on_reals(poly(0.0))

    def test_noise_floor_leading_coefficient_rejected(self):
        with pytest.raises(DomainError):
            is_nonnegative_on_reals(poly(1.0, 1e-211))

    def test_certificate_shape_on_positive_case(self):
        cert = is_nonnegative_on_reals(poly(2.0, 3.0, 4.0, 3.0, 1.0))
        if cert.nonnegative:
            assert cert.distinct_real_roots is not None
            assert cert.all_roots_even_multiplicity


quadratics = st.tuples(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=0.05, max_value=5, allow_nan=False),
)


@given(quadratics)
@settings(max_examples=300)
def test_degree_two_matches_discriminant_rule(t):
    c0, c1, c2 = t
    disc = c1 * c1 - 4.0 * c0 * c2
    if abs(disc) < 1e-9:
        return  # boundary case: both answers acceptable at rounding level
    cert = is_nonnegative_on_reals(poly(c0, c1, c2))
    assert cert.nonnegative == (disc < 0.0)
    if not cert.nonnegative:
        # dense sampling around the vertex confirms the witness region
        xv = -c1 / (2.0 * c2)
        xs = np.linspace(xv - 1.0, xv + 1.0, 101)
        assert eval_poly(poly(c0, c1, c2), xs).min() < 0.0
        assert eval_poly(poly(c0, c1, c2), cert.witness) < 0.0


@given(coeff_lists)
@settings(max_examples=300)
def test_nonnegative_verdict_backed_by_samples(coeffs):
    p = RealPolynomial(np.array(coeffs))
    if p.is_zero:
        return
    cert = is_nonnegative_on_reals(p)
    if cert.nonnegative:
        x = np.linspace(-50.0, 50.0, 10_000)
        bound = -1e-12 * (1.0 + np.abs(x)) ** max(p.degree, 0)
        assert np.all(eval_poly(p, x) >= bound)
    else:
        assert eval_poly(p, cert.witness) < 0.0
