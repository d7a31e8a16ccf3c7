"""Dense real polynomials and a global-nonnegativity oracle.

Coefficients are stored lowest degree first. Degree bookkeeping trims exact
zeros only; callers scrub numerical noise themselves. Odd degree or a
negative leading coefficient is decided by a witness scan toward the
dominating infinity. Otherwise the polynomial is negative somewhere exactly
when it is at a critical point (the real parts of the companion roots of its
derivative). On both paths each value comes with Horner's running error
bound, and only a value negative beyond its bound is a witness. A touch
within rounding, such as an exact double root, counts as nonnegative.

Both paths apply that one rule through _certified_sign: where the bound
overflows, near DBL_MAX, it decides on the coefficients scaled by an exact
power of two instead, computed only there. The values are Python floats in
eval_poly's operation order, so they equal eval_poly's bit for bit; a
verdict evaluates a dozen points at most, where numpy's per-call cost would
dominate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# IEEE double precision: the unit roundoff, and the smallest subnormal, which
# bounds the error of a product that underflows
_UNIT_ROUNDOFF, _UNDERFLOW = 2.0 ** -53, 2.0 ** -1074


@dataclass
class RealPolynomial:
    """Real polynomial sum_k coeffs[k] * x**k, trailing coefficient nonzero."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise DomainError("coefficient vector must be a nonempty 1-d array")
        if not np.isfinite(c).all():
            raise DomainError("coefficients must be finite reals")
        # trim exact zeros only; keep one coefficient for the zero polynomial
        nz = np.nonzero(c)[0]
        self.coeffs = c[: nz[-1] + 1].copy() if nz.size else np.zeros(1)

    @property
    def degree(self) -> int:
        """Highest index with nonzero entry; -1 for the zero polynomial."""
        return -1 if self.is_zero else self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0.0

    @property
    def leading(self) -> float:
        return float(self.coeffs[-1])

    def __call__(self, x):
        return eval_poly(self, x)


def eval_poly(poly: RealPolynomial, x):
    """Evaluate by Horner's rule; accepts scalars or numpy arrays."""
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x)
    for c in poly.coeffs[::-1]:   # in place: no temporary per step on large grids
        acc *= x
        acc += c
    return float(acc) if acc.ndim == 0 else acc


@dataclass
class NonnegativityCertificate:
    """Evidence backing a nonnegativity verdict.

    Either a witness point with a strictly negative value, or no critical
    value that is negative beyond Horner's rounding bound.
    """

    nonnegative: bool
    witness: float | None = None
    witness_value: float | None = None
    method: str = ""
    detail: str = ""


def _cauchy_bound(coeffs) -> float:
    """All real roots lie in [-B, B] with B = 1 + max|c_k|/|c_K|."""
    return 1.0 + float(max(map(abs, coeffs[:-1])) / abs(coeffs[-1])) if len(coeffs) > 1 else 1.0


@np.errstate(over="ignore", invalid="ignore")
def _scan_negative(poly: RealPolynomial, direction: float) -> tuple[float, float]:
    """Scan toward the dominating infinity by doubling until poly is negative
    beyond Horner's rounding bound; samples that overflow are skipped."""
    limit = 4.0 * _cauchy_bound(poly.coeffs) + 4.0
    xs = [direction]
    while abs(xs[-1]) < limit and len(xs) < 200:
        xs.append(direction * min(2.0 * abs(xs[-1]), limit))
    witness = _first_witness(poly, xs)
    if witness is not None:
        return witness
    overflow = next((x for x in xs if not np.isfinite(eval_poly(poly, x))), None)
    # extreme coefficient scales put the crossing out of doubling range:
    # locate it from the outermost real companion root instead
    roots = np.roots(poly.coeffs[::-1])
    real = np.sort(roots[np.abs(roots.imag) <= 1e-8 * np.maximum(1.0, np.abs(roots))].real)
    candidates = []
    if real.size:
        edge = real[0] if direction < 0 else real[-1]
        candidates.extend(direction * abs(edge) * np.array([2.0, 4.0, 16.0]))
        candidates.extend([edge - abs(edge), edge + abs(edge)])
        if overflow is not None and direction * (overflow - edge) > 0.0:
            # halve the way from the first overflowing sample to the root
            candidates.extend(edge + (overflow - edge) * 0.5 ** np.arange(1, 60))
    witness = _first_witness(poly, [float(x) for x in candidates])
    if witness is None:
        raise DomainError("negative-witness scan failed: coefficient scales exceed "
                          "the representable range")
    return witness


def _first_witness(poly: RealPolynomial, xs: list[float]) -> tuple[float, float] | None:
    """The first x in xs where poly is negative beyond its rounding bound
    (_certified_sign) and its unscaled value is finite and negative, with
    that value."""
    coeffs = poly.coeffs.tolist()
    for x in xs:
        negative, value, _ = _certified_sign(coeffs, x)
        if negative and -math.inf < value < 0.0:
            return x, value
    return None


def _scaled(coeffs: list[float]) -> tuple[list[float], int]:
    """The coefficients times 2^-e, e the binary exponent of the largest
    |c_k|, and e: the scaling is exact and keeps every sign, except that a
    coefficient below 2^-1074 of the largest flushes to zero."""
    exponent = math.frexp(max(map(abs, coeffs)))[1]
    return [math.ldexp(c, -exponent) for c in coeffs], exponent


def _unscaled(value: float, exponent: int) -> float:
    """value * 2^exponent, rounded once; +-inf beyond DBL_MAX, where
    math.ldexp raises."""
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        return math.copysign(math.inf, value)


def _certified_sign(coeffs: list[float], x: float
                    ) -> tuple[bool, float, tuple[float, float, int] | None]:
    """(negative, value, rescaled) for the polynomial with these coefficients
    at x: Horner's value, and whether it is negative beyond its running
    bound, the oracle's one rule. Where the bound overflows, near DBL_MAX,
    the rule is applied to the _scaled coefficients instead, and rescaled
    holds their value, its bound and the exponent e (value ~ scaled value *
    2^e); otherwise rescaled is None. Scaling only there keeps tiny
    coefficients from flushing to zero."""
    value, bound = _horner_with_bound(coeffs, x)
    if math.isfinite(bound):
        return value + bound < 0.0, value, None
    scaled, exponent = _scaled(coeffs)
    scaled_value, scaled_bound = _horner_with_bound(scaled, x)
    return scaled_value + scaled_bound < 0.0, value, (scaled_value, scaled_bound, exponent)


def _horner_with_bound(coeffs, x):
    """Horner values at x (a float or an array), in eval_poly's operation
    order, with Higham's running error bound (Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, Alg. 5.1) plus the underflow of each
    product carried through the later steps: |value - exact| <= bound to
    first order in u."""
    ax = abs(x)
    zero = 0.0 * ax
    y, tiny = zero + coeffs[-1], zero
    mu = 0.5 * abs(y)
    for c in coeffs[-2::-1]:
        y = y * x + c
        mu = mu * ax + abs(y)
        tiny = tiny * ax + _UNDERFLOW
    return y, _UNIT_ROUNDOFF * (2.0 * mu - abs(y)) + tiny


def _finite_witness(scaled: list[float], exponent: int, x: float) -> tuple[float, float]:
    """x and its unscaled value (scaled value * 2**exponent) when that is
    finite and negative; otherwise bisect toward 2 B (B the Cauchy bound, so
    the value there is positive) until it is, keeping only points whose
    scaled value is negative beyond its rounding bound."""
    lo, hi = x, math.copysign(2.0 * _cauchy_bound(scaled), x)
    val = _unscaled(_horner_with_bound(scaled, lo)[0], exponent)
    while not (val < 0.0 and math.isfinite(val)):
        mid = lo + 0.5 * (hi - lo)
        if mid in (lo, hi):
            raise DomainError("negative critical value not representable in double precision")
        y, bound = _horner_with_bound(scaled, mid)
        if y + bound < 0.0:
            lo, val = mid, _unscaled(y, exponent)
        else:
            hi = mid
    return lo, val


def _critical_verdict(poly: RealPolynomial) -> NonnegativityCertificate:
    """Even degree, positive leading coefficient: poly >= 0 unless its value
    at some critical point (a real part of a companion root of its
    derivative) is negative beyond its rounding bound (_certified_sign).

    The deepest such value is the witness; where the bound overflowed, the
    depth is the scaled value times 2^e, and _finite_witness moves the
    witness to a point with a finite unscaled value. The derivative is
    formed from the _scaled coefficients only where it overflows.
    """
    coeffs = poly.coeffs.tolist()
    deriv = [k * c for k, c in enumerate(coeffs[1:], 1)]
    if not all(map(math.isfinite, deriv)):
        deriv = [k * c for k, c in enumerate(_scaled(coeffs)[0][1:], 1)]
    deepest, unbounded = None, False
    for x in np.roots(deriv[::-1]).real.tolist():
        negative, value, rescaled = _certified_sign(coeffs, x)
        if rescaled is not None:
            scaled_value, scaled_bound, exponent = rescaled
            value = _unscaled(scaled_value, exponent)   # the depth, maybe -inf
            unbounded = unbounded or not math.isfinite(scaled_bound)
        if negative and (deepest is None or value < deepest[1]):
            deepest = x, value, rescaled is not None
    if deepest is not None:
        x, val, over = deepest
        if over:
            x, val = _finite_witness(*_scaled(coeffs), x)
        return NonnegativityCertificate(False, witness=x, witness_value=val,
                                        method="critical-points",
                                        detail="critical value negative beyond its rounding bound")
    if unbounded:
        raise DomainError("critical values overflow double precision")
    return NonnegativityCertificate(True, method="critical-points",
                                    detail="no critical value negative beyond its rounding bound")


def is_nonnegative_on_reals(poly: RealPolynomial) -> NonnegativityCertificate:
    """Decide whether poly(x) >= 0 for every real x, with a certificate.

    A double real root (the polynomial touching zero) counts as nonnegative.
    Raises DomainError for the identically zero polynomial.
    """
    if poly.is_zero:
        raise DomainError("nonnegativity oracle requires a nonzero polynomial")
    if abs(poly.leading) < 1e-12 * float(np.max(np.abs(poly.coeffs))):
        # the sign of the leading term cannot assert itself at representable
        # arguments; the formal degree is numerical noise
        raise DomainError("leading coefficient below the relative noise floor; "
                          "scrub coefficients before the nonnegativity test")
    deg = poly.degree
    if deg == 0:
        c0 = float(poly.coeffs[0])
        if c0 >= 0.0:
            return NonnegativityCertificate(True, method="degree-sign",
                                            detail="nonnegative constant")
        return NonnegativityCertificate(False, witness=0.0, witness_value=c0,
                                        method="degree-sign", detail="negative constant")
    if deg % 2 == 1 or poly.leading < 0.0:
        # scan toward the infinity where the leading term dominates negatively
        direction = -1.0 if (deg % 2 == 1 and poly.leading > 0.0) else 1.0
        x, val = _scan_negative(poly, direction)
        reason = "odd degree" if deg % 2 == 1 else "negative leading coefficient"
        return NonnegativityCertificate(False, witness=x, witness_value=val,
                                        method="degree-sign", detail=reason)
    return _critical_verdict(poly)
