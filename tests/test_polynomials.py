import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hankelscope import polynomials
from hankelscope.errors import DomainError
from hankelscope.polynomials import (SIGN_EPS, RealPolynomial, _cauchy_bound,
                                     _companion_verdict, _prepared, _sturm_chain,
                                     _UncertainSign, _variations, eval_poly,
                                     is_nonnegative_on_reals)


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


# ---------------------------------------------------------------- Sturm chain

def _polyval_variations(chain, x):
    """Sign variations of a raw Sturm chain at x, one np.polyval per member:
    the evaluation `polynomials._variations` replaced, kept as its oracle."""
    signs = []
    for c in chain:
        val = float(np.polyval(c[::-1], x))
        if np.isinf(val):
            signs.append(1 if val > 0 else -1)
            continue
        with np.errstate(over="ignore"):
            scale = float(np.max(np.abs(c)) * np.float64(max(1.0, abs(x))) ** (c.size - 1))
        if not np.isfinite(val) or not np.isfinite(scale) or abs(val) <= SIGN_EPS * scale:
            if c is chain[0] and np.isfinite(scale):
                continue
            raise _UncertainSign(f"sturm sign uncertain at x={x}")
        signs.append(1 if val > 0 else -1)
    return int(np.sum(np.asarray(signs[:-1]) != np.asarray(signs[1:]))) if len(signs) > 1 else 0


def _count_or_raise(variations, chain, x):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return variations(chain, x)
    except _UncertainSign as exc:
        return ("uncertain", str(exc))


# dyadic roots keep the expanded coefficients exact, so Horner hits the
# roots themselves exactly (the chain-0 skip)
DYADIC_ROOTS = (-3.0, -2.0, -1.5, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0)
float_coeff = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                        allow_infinity=False).filter(lambda v: abs(v) > 1e-3)
chain_polys = st.one_of(
    st.lists(float_coeff, min_size=2, max_size=13),
    st.tuples(st.lists(st.sampled_from(DYADIC_ROOTS), min_size=1, max_size=12),
              st.sampled_from((1.0, -1.0, 0.5, 8.0)))
    .map(lambda t: list(t[1] * np.polynomial.polynomial.polyfromroots(t[0]))),
)


def _probe_points(coeffs):
    bound = _cauchy_bound(coeffs)
    roots = np.roots(coeffs[::-1])
    real = sorted({float(r.real) for r in roots if abs(r.imag) <= 1e-9 * max(1.0, abs(r))})
    points = [bound, -bound, 0.0, 1e200, -1e200, 1e300, -1e300]
    # just below and above where the leading term alone overflows
    log_edge = (math.log(np.finfo(float).max) - math.log(abs(coeffs[-1]))) / (coeffs.size - 1)
    points += [s * math.exp(min(log_edge + t, 709.0)) for s in (1, -1) for t in (-0.5, 0.5)]
    for r in real:
        points += [r, r * (1.0 + 1e-13) + 1e-14, r - 1e-13 * max(1.0, abs(r)),
                   np.nextafter(r, np.inf), np.nextafter(r, -np.inf)]
    return [float(x) for x in points if np.isfinite(x)]


class TestSturmChainEvaluation:
    @given(chain_polys)
    @settings(max_examples=200, deadline=None)
    def test_variations_match_the_polyval_oracle(self, coeffs):
        p = RealPolynomial(np.array(coeffs))
        if p.degree < 1:
            return
        chain = _sturm_chain(p.coeffs)
        prepared = _prepared(chain)
        for x in _probe_points(p.coeffs):
            assert (_count_or_raise(_variations, prepared, x)
                    == _count_or_raise(_polyval_variations, chain, x)), x

    def test_probes_reach_every_branch(self):
        # the strategy's probes cover the chain-0 skip, uncertain signs and
        # infinite members: pin one polynomial that hits each
        p = poly(*np.polynomial.polynomial.polyfromroots([-1.0, 0.5, 2.0, 2.0]))
        chain = _sturm_chain(p.coeffs)
        assert eval_poly(p, 0.5) == 0.0
        assert _variations(_prepared(chain), 0.5) == _polyval_variations(chain, 0.5)
        with pytest.raises(_UncertainSign):
            _variations(_prepared(chain), 2.0 + 1e-13)
        with pytest.raises(_UncertainSign):
            _polyval_variations(chain, 2.0 + 1e-13)
        with np.errstate(over="ignore"):
            assert np.isinf(np.polyval(p.coeffs[::-1], 1e300))
            assert _variations(_prepared(chain), 1e300) == _polyval_variations(chain, 1e300)

    @given(st.one_of(
        st.lists(float_coeff, min_size=3, max_size=13).filter(lambda c: len(c) % 2 == 1),
        st.lists(st.sampled_from(DYADIC_ROOTS), min_size=1, max_size=6)
        .map(lambda r: list(np.polynomial.polynomial.polyfromroots(r + r[:len(r) // 2]))),
    ))
    @settings(max_examples=200, deadline=None)
    def test_certificates_match_the_polyval_reference(self, coeffs):
        coeffs[-1] = abs(coeffs[-1])
        p = RealPolynomial(np.array(coeffs))
        if p.degree < 1:
            return
        cert = is_nonnegative_on_reals(p)
        # the reference verdict: the same _sturm_verdict on the raw chain
        # and the np.polyval evaluation
        with mock.patch.object(polynomials, "_prepared", lambda chain: chain), \
                mock.patch.object(polynomials, "_variations", _polyval_variations), \
                np.errstate(over="ignore", invalid="ignore"):
            ref = is_nonnegative_on_reals(p)
        assert dataclasses.asdict(cert) == dataclasses.asdict(ref)


# ------------------------------------------------------------ witness scan

class TestWitnessScanOverflow:
    def test_finite_witness_below_the_first_overflow(self):
        # Q = 3.1e307 + 1.2e308 x - 1e308 x^2: Horner overflows at x = 2, 4, ...
        # and at every root-based candidate, but Q(1.5) ~ -2.2e307 is finite
        q = poly(3.1175614304050783e+307, 1.1544313298030658e+308, -1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = is_nonnegative_on_reals(q)
        assert not cert.nonnegative and cert.method == "degree-sign"
        assert np.isfinite(cert.witness_value) and cert.witness_value < 0.0
        assert cert.witness > 1.3765 and eval_poly(q, cert.witness) == cert.witness_value

    def test_overflowing_samples_raise_no_warning(self):
        q = poly(-1.5772156649015329e+308, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = is_nonnegative_on_reals(q)
        assert cert.witness == 0.0 and cert.witness_value == -1.5772156649015329e+308


class TestOverflowingFallback:
    """Coefficients near DBL_MAX: the Sturm chain overflows and the companion
    fallback decides, without numpy warnings and without a non-finite witness."""

    def test_chain_overflow_falls_back_to_companion(self):
        # Q' = 2e308 x - ... overflows in the chain's first derivative
        q = poly(-8.889718079420407e+307, -1.5443132980306573e+307, 1e308)
        with pytest.raises(_UncertainSign, match="overflows"):
            _sturm_chain(q.coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = is_nonnegative_on_reals(q)
        assert cert.method == "companion" and not cert.nonnegative
        assert "sturm chain overflows double precision" in cert.detail
        assert np.isfinite(cert.witness_value) and eval_poly(q, cert.witness) < 0.0

    def test_overflowing_cluster_probes_are_skipped(self):
        # roots near -3.3e9 (every probe overflows) and 1.7e-28 (finite probes)
        q = poly(-3.6388600709536234e+277, 2.1223335812455025e+305, 6.431817956381441e+295)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = is_nonnegative_on_reals(q)
        assert cert.method == "companion" and not cert.nonnegative
        assert np.isfinite(cert.witness_value) and eval_poly(q, cert.witness) < 0.0

    def test_overflowing_probe_is_no_witness(self):
        # real roots at -1.1e79 and 10.9: every probe of the first overflows,
        # and beside the second the samples reach -inf before any finite one
        # dips below the threshold; -inf is no witness value
        q = poly(1.5457990055864605e+275, -1.84315624264069e+200, -8.789700724378668e+270,
                 -6.60780938033716e+306, -6.1248344632289215e+227)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="companion root probes overflow"):
                _companion_verdict(q)

    def test_undecidable_when_only_overflowing_probes_remain(self):
        # the sign changes at about +-2.6e5 cannot be sampled in double
        # precision; the pair of roots near 1e-16 merges into one even cluster
        q = poly(1.907372146575506e+273, -1.0922513918083833e+292, -3.9858107320800984e+307,
                 -5.844409286089505e+258, 5.9857001573818945e+296)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="companion root probes overflow"):
                is_nonnegative_on_reals(q)
