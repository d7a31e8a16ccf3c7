import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hankelscope.errors import DomainError
from hankelscope.polynomials import (NonnegativityCertificate, RealPolynomial,
                                     _horner_with_bound, eval_poly, is_nonnegative_on_reals)


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
        assert cert.nonnegative and cert.witness is None

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
        # minimum 0.9 near x = -0.6, no real root
        cert = is_nonnegative_on_reals(poly(2.0, 3.0, 4.0, 3.0, 1.0))
        assert cert.nonnegative and cert.method == "critical-points"
        assert cert.witness is None and cert.witness_value is None


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

    def test_negative_sample_within_its_bound_is_no_witness(self):
        # Horner gives -2.2e-308 at x = -1, where the exact value is +3.8e-307;
        # that sample lies within its rounding bound, and the scan goes on
        # (exact in rational arithmetic: 80 digits cannot hold 1 + 4e-307)
        q = poly(0.0, 2.2250738585072014e-308, 1.0, 0.0, 3.997604096325102e-307, 1.0)
        rational = lambda x: sum(Fraction(c) * Fraction(x) ** k for k, c in enumerate(q.coeffs))
        assert eval_poly(q, -1.0) < 0.0 < rational(-1.0)
        cert = decide_without_warnings(q)
        assert not cert.nonnegative and cert.method == "degree-sign"
        assert cert.witness_value < 0.0 and rational(cert.witness) < 0


def exact_value(q, x):
    """q(x) for the float coefficients and the float x, to 80 digits."""
    with mpmath.workdps(80):
        return sum(mpmath.mpf(float(c)) * mpmath.mpf(x) ** k for k, c in enumerate(q.coeffs))


def decide_without_warnings(q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return is_nonnegative_on_reals(q)


class TestOverflowingFallback:
    """Coefficients near DBL_MAX: the rule decides on power-of-two scaled
    coefficients where the unscaled bound overflows, without numpy warnings,
    and reports a finite witness or raises DomainError. Elsewhere it decides
    on the coefficients as given."""

    def test_chain_overflow_falls_back_to_companion(self):
        # Q' = 2e308 x - 1.5e307 overflows unless the coefficients are scaled
        q = poly(-8.889718079420407e+307, -1.5443132980306573e+307, 1e308)
        cert = decide_without_warnings(q)
        assert cert.method == "critical-points" and not cert.nonnegative
        assert np.isfinite(cert.witness_value) and eval_poly(q, cert.witness) < 0.0

    def test_overflowing_cluster_probes_are_skipped(self):
        # roots near -3.3e9 and 1.7e-28: Q at the vertex, -1.8e314, overflows,
        # and the witness moves toward -2 B until Q is finite
        q = poly(-3.6388600709536234e+277, 2.1223335812455025e+305, 6.431817956381441e+295)
        cert = decide_without_warnings(q)
        assert cert.method == "critical-points" and not cert.nonnegative
        assert np.isfinite(cert.witness_value) and eval_poly(q, cert.witness) < 0.0

    def test_overflowing_probe_is_no_witness(self):
        # real roots at -1.1e79 and 10.9; the leading coefficient is 1e-79 of
        # the largest, below the noise floor, so no witness is attempted
        q = poly(1.5457990055864605e+275, -1.84315624264069e+200, -8.789700724378668e+270,
                 -6.60780938033716e+306, -6.1248344632289215e+227)
        with pytest.raises(DomainError, match="noise floor"):
            decide_without_warnings(q)

    def test_undecidable_when_only_overflowing_probes_remain(self):
        # sign changes at about +-2.6e5; Q at the critical point of the right
        # well overflows, and the witness moves toward 2 B until it is finite
        q = poly(1.907372146575506e+273, -1.0922513918083833e+292, -3.9858107320800984e+307,
                 -5.844409286089505e+258, 5.9857001573818945e+296)
        cert = decide_without_warnings(q)
        assert cert.method == "critical-points" and not cert.nonnegative
        assert 2.5e5 < abs(cert.witness) < 2.7e5
        assert np.isfinite(cert.witness_value) and cert.witness_value < 0.0
        assert eval_poly(q, cert.witness) == cert.witness_value
        assert exact_value(q, cert.witness) < 0

    def test_witness_value_where_unscaled_horner_overflows(self):
        # Q(-0.884) = -5.97e307 is finite, but Horner on the unscaled
        # coefficients overflows on the way; the scaled value times 2^e is not
        D = 1.7976931348623157e+308
        q = poly(D, D, -1.5962229353583416e+48, D, 0.0, 6.789329004772812e+16,
                 5.537175945353114e+16, D, D, 0.0, D)
        cert = decide_without_warnings(q)
        assert cert.method == "critical-points" and not cert.nonnegative
        assert np.isfinite(cert.witness_value) and cert.witness_value < 0.0
        exact = exact_value(q, cert.witness)
        assert exact < 0 and abs(cert.witness_value - exact) < 1e-12 * abs(exact)

    def test_tiny_coefficients_are_not_flushed(self):
        # scaled by 2^-665, -1e-200 underflows to 0 and Q(0) would read 0;
        # the unscaled bound is finite, so the unscaled value decides
        q = poly(-1e-200, 0.0, 1e200)
        cert = decide_without_warnings(q)
        assert cert.method == "critical-points" and not cert.nonnegative
        assert cert.witness == 0.0 and cert.witness_value == -1e-200
        assert exact_value(q, cert.witness) < 0

    def test_bisection_keeps_only_certified_points(self):
        # the critical value near 2e10 is negative beyond its scaled bound but
        # overflows unscaled; towards 2 B every finite value is a cancellation
        # of two terms near 1e332, far inside its bound. The bisection used to
        # stop at x = 20138350931.76822, scaled value -6.9e-46 against a bound
        # of 1.2e56, where Q is positive
        q = poly(1.785479572446698e-226, 4.694635104544615e-97, -5.6331279133927756e-269,
                 -1.035892369592044e+184, 2.3059347283968587e-271, -2.2218806991542718e+20,
                 -3.359991368447391e-90, -9.664699310514662e+259, 4.799151302537197e+249)
        with pytest.raises(DomainError, match="not representable"):
            decide_without_warnings(q)

    def test_overflowing_critical_value_is_no_verdict(self):
        # Q = x^29 (1e-12 x - 1): the critical value at 9.7e11 overflows even
        # scaled, so its sign has no bound; no silent "nonnegative"
        q = poly(*([0.0] * 29 + [-1.0, 1e-12]))
        with pytest.raises(DomainError, match="critical values overflow"):
            decide_without_warnings(q)


# ------------------------------------------------------- the running bound

@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1,
                max_size=13),
       st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_running_bound_covers_the_rounding_error(coeffs, x):
    # Higham's bound is first order in u; the second-order slack is far
    # below the 1e-6 relative margin allowed here
    c = np.array(coeffs)
    value, bound = _horner_with_bound(c, np.float64(x))
    assert value == eval_poly(RealPolynomial(c), x)
    exact = exact_value(RealPolynomial(c), x)
    with mpmath.workdps(80):
        assert abs(mpmath.mpf(float(value)) - exact) <= bound * (1 + 1e-6)


def test_running_bound_covers_underflow():
    # (x + 3e-160) x at x = -1.7e-160 is subnormal: the product's rounding
    # error is absolute, far above u times the value, and the bound holds it
    c = np.array([0.0, 3e-160, 1.0])
    value, bound = _horner_with_bound(c, np.float64(-1.7e-160))
    exact = exact_value(RealPolynomial(c), -1.7e-160)
    with mpmath.workdps(80):
        error = abs(mpmath.mpf(float(value)) - exact)
    assert error > 2.0 ** -53 * abs(value) and error <= bound



def _exact_horner(coeffs, x):
    """Horner in exact rational arithmetic: the partial values y_n, ..., y_0
    of the float coefficients (ascending) at the float x."""
    x = Fraction(x)
    partials = [Fraction(coeffs[-1])]
    for c in coeffs[-2::-1]:
        partials.append(partials[-1] * x + Fraction(c))
    return partials


@pytest.mark.parametrize("degree", range(2, 13))
def test_running_bound_is_higham_bound_of_the_exact_partials(degree):
    # Alg. 5.1 run on the exact partial values: mu = |y_n| / 2, then
    # mu = |x| mu + |y_i|, bound u (2 mu - |y_0|). The computed bound must
    # cover the exact error, and lie within a factor 2 of this one, so a bound
    # 10 times too large (or too small) fails. The points are near roots,
    # where Horner cancels and the error is largest relative to the value.
    rng = np.random.default_rng(degree)
    coeffs = rng.uniform(-1.0, 1.0, degree + 1)
    roots = np.roots(coeffs[::-1])
    points = list(roots.real[np.abs(roots.imag) < 1e-9]) + list(rng.uniform(-2.0, 2.0, 4))
    for x in points:
        value, bound = _horner_with_bound(coeffs, np.float64(x))
        partials = _exact_horner(coeffs, float(x))
        assert abs(Fraction(float(value)) - partials[-1]) <= Fraction(float(bound))
        mu = abs(partials[0]) / 2
        for y in partials[1:]:
            mu = abs(Fraction(float(x))) * mu + abs(y)
        reference = Fraction(2) ** -53 * (2 * mu - abs(partials[-1]))
        assert reference / 2 <= Fraction(float(bound)) <= 2 * reference, (x, bound)

# ------------------------------------- the scalar rule against the array one

def _reference_cauchy_bound(coeffs):
    return 1.0 + float(np.max(np.abs(coeffs[:-1])) / abs(coeffs[-1])) if coeffs.size > 1 else 1.0


def _reference_finite_witness(scaled, exponent, x):
    lo, hi = x, math.copysign(2.0 * _reference_cauchy_bound(scaled), x)
    val = np.ldexp(_horner_with_bound(scaled, lo)[0], exponent)
    while not (val < 0.0 and np.isfinite(val)):
        mid = lo + 0.5 * (hi - lo)
        if mid in (lo, hi):
            raise DomainError("negative critical value not representable in double precision")
        y, bound = _horner_with_bound(scaled, mid)
        if y + bound < 0.0:
            lo, val = mid, np.ldexp(y, exponent)
        else:
            hi = mid
    return lo, float(val)


@np.errstate(over="ignore", invalid="ignore")
def _reference_critical_verdict(poly):
    """The critical-point rule evaluated on numpy arrays of all critical
    points at once, kept as it was before the oracle moved to Python floats:
    the scalar rule must reproduce it bit for bit."""
    coeffs = poly.coeffs
    exponent = int(np.frexp(np.max(np.abs(coeffs)))[1])
    scaled = np.ldexp(coeffs, -exponent)
    deriv = coeffs[1:] * np.arange(1, coeffs.size)
    if not np.isfinite(deriv).all():
        deriv = scaled[1:] * np.arange(1, coeffs.size)
    crit = np.roots(deriv[::-1]).real
    values, bounds = _horner_with_bound(coeffs, crit)
    negative = values + bounds < 0.0
    over = ~np.isfinite(bounds)
    if over.any():
        scaled_values, scaled_bounds = _horner_with_bound(scaled, crit[over])
        negative[over] = scaled_values + scaled_bounds < 0.0
        values[over] = np.ldexp(scaled_values, exponent)
    if negative.any():
        deepest = int(np.argmin(np.where(negative, values, np.inf)))
        x, val = float(crit[deepest]), float(values[deepest])
        if over[deepest]:
            x, val = _reference_finite_witness(scaled, exponent, x)
        return NonnegativityCertificate(False, witness=x, witness_value=val,
                                        method="critical-points",
                                        detail="critical value negative beyond its rounding bound")
    if over.any() and not np.isfinite(scaled_bounds).all():
        raise DomainError("critical values overflow double precision")
    return NonnegativityCertificate(True, method="critical-points",
                                    detail="no critical value negative beyond its rounding bound")


def _bits(x):
    return None if x is None else np.float64(x).tobytes()


def _outcome(decide, q):
    """Every field of the certificate, floats as their bytes, or the
    DomainError message."""
    try:
        cert = decide(q)
    except DomainError as exc:
        return str(exc)
    return (cert.nonnegative, _bits(cert.witness), _bits(cert.witness_value),
            cert.method, cert.detail)


@st.composite
def even_profiles(draw):
    """Even degree 2 to 12, positive leading coefficient above the noise
    floor; the other coefficients are 0 or +-m 10^e, m in [1, 1.79),
    e in [-300, 308], so that Horner's bound overflows at some critical
    points and the scaled rule decides there."""
    degree = draw(st.sampled_from(range(2, 13, 2)))
    mantissas = st.floats(1.0, 1.79)
    coeffs, exponents = [], []
    for _ in range(degree):
        if draw(st.integers(0, 5)) == 0:
            coeffs.append(0.0)
            continue
        exponents.append(draw(st.integers(-300, 308)))
        coeffs.append(draw(st.sampled_from((-1.0, 1.0))) * draw(mantissas) * 10.0 ** exponents[-1])
    # at most 11 decades below the largest: never below the 1e-12 noise floor
    low = max(-300, max(exponents, default=-300) - 11)
    coeffs.append(draw(mantissas) * 10.0 ** draw(st.integers(low, 308)))
    return coeffs


D = 1.7976931348623157e+308


@given(even_profiles())
@example([-8.889718079420407e+307, -1.5443132980306573e+307, 1e308])
@example([-3.6388600709536234e+277, 2.1223335812455025e+305, 6.431817956381441e+295])
@example([1.907372146575506e+273, -1.0922513918083833e+292, -3.9858107320800984e+307,
          -5.844409286089505e+258, 5.9857001573818945e+296])
@example([D, D, -1.5962229353583416e+48, D, 0.0, 6.789329004772812e+16,
          5.537175945353114e+16, D, D, 0.0, D])
@example([-1e-200, 0.0, 1e200])
@example([1.785479572446698e-226, 4.694635104544615e-97, -5.6331279133927756e-269,
          -1.035892369592044e+184, 2.3059347283968587e-271, -2.2218806991542718e+20,
          -3.359991368447391e-90, -9.664699310514662e+259, 4.799151302537197e+249])
@example([0.0] * 29 + [-1.0, 1e-12])
# several negative critical values with overflowing bounds: the deepest is
# chosen by the scaled depth, not by the overflowed unscaled value
@example([-1.5680696677540775e+308, 1.6324210742890593e+286, -1.192455331276634e+301,
          -1.4085236404642958e+306, 1.4600642592574716e+290, -1.3356236195373057e+304,
          -1.744789564542641e+294, 1.4925207472195628e+301, 1.7795755425253956e+308,
          1.1267891793416358e+307, 1.6408782854626247e+299, -1.1542083656835247e+295,
          1.2330902852969823e+306])
@settings(max_examples=400, deadline=None)
def test_critical_verdict_is_bitwise_the_array_rule(coeffs):
    q = RealPolynomial(np.array(coeffs))
    assert q.degree % 2 == 0 and q.leading > 0.0
    assert _outcome(decide_without_warnings, q) == _outcome(_reference_critical_verdict, q)
