"""Dense real polynomials and a global-nonnegativity oracle.

Coefficients are stored lowest degree first. Degree bookkeeping trims exact
zeros only; callers scrub numerical noise themselves. The nonnegativity test
runs a Sturm-sequence real-root count with sign-uncertainty detection, and
falls back to companion-matrix rooting with multiplicity clustering when the
Sturm signs are too close to zero to trust (the touching-root boundary case)
or the chain overflows. The chain is evaluated by Horner's rule on Python
floats, in the operation order of np.polyval (multiply, then add; no fused
multiply-add), so every sign count equals the numpy evaluation's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Sign values closer to zero than SIGN_EPS * scale are treated as uncertain.
SIGN_EPS = 1e-12
# Companion-matrix roots closer than CLUSTER_TOL (relative) merge into one root.
CLUSTER_TOL = 1e-8


@dataclass
class RealPolynomial:
    """Real polynomial sum_k coeffs[k] * x**k, trailing coefficient nonzero."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise DomainError("coefficient vector must be a nonempty 1-d array")
        if not np.all(np.isfinite(c)):
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

    Either a witness point with a strictly negative value, or a real-root
    census showing every real root has even multiplicity while the leading
    coefficient is positive with even degree.
    """

    nonnegative: bool
    witness: float | None = None
    witness_value: float | None = None
    distinct_real_roots: int | None = None
    all_roots_even_multiplicity: bool | None = None
    method: str = ""
    detail: str = ""


def _cauchy_bound(coeffs: np.ndarray) -> float:
    """All real roots lie in [-B, B] with B = 1 + max|c_k|/|c_K|."""
    return 1.0 + float(np.max(np.abs(coeffs[:-1])) / abs(coeffs[-1])) if coeffs.size > 1 else 1.0


@np.errstate(over="ignore", invalid="ignore")
def _scan_negative(poly: RealPolynomial, direction: float) -> tuple[float, float]:
    """Scan toward the dominating infinity by doubling until poly < 0; samples
    that overflow are skipped."""
    limit = 4.0 * _cauchy_bound(poly.coeffs) + 4.0
    x, overflow = direction, None
    for _ in range(200):
        x = direction * min(abs(x), limit)
        val = eval_poly(poly, x)
        if val < 0.0 and np.isfinite(val):
            return float(x), float(val)
        if overflow is None and not np.isfinite(val):
            overflow = x
        if abs(x) == limit:
            break
        x *= 2.0
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
    for x in candidates:
        val = eval_poly(poly, float(x))
        if val < 0.0 and np.isfinite(val):
            return float(x), float(val)
    raise DomainError("negative-witness scan failed: coefficient scales exceed "
                      "the representable range")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _sturm_chain(coeffs: np.ndarray) -> list[np.ndarray]:
    """Sturm chain with per-element max-norm scaling (signs are unchanged);
    raises _UncertainSign if a member overflows."""
    chain = [coeffs.copy()]
    if coeffs.size > 1:
        chain.append(coeffs[1:] * np.arange(1, coeffs.size))
    while chain[-1].size > 1:
        num, den = chain[-2], chain[-1]
        den = den / np.max(np.abs(den))
        rem = num.copy()
        while rem.size >= den.size:
            q = rem[-1] / den[-1]
            rem = rem[:-1].copy()
            if den.size > 1:
                rem[-(den.size - 1):] -= q * den[:-1]
            nz = np.nonzero(rem)[0]
            rem = rem[: nz[-1] + 1] if nz.size else np.zeros(1)
            if rem.size == 1 and rem[0] == 0.0:
                break
        if rem.size == 1 and rem[0] == 0.0:
            break
        chain.append(-rem)
    if not np.isfinite(np.concatenate(chain)).all():
        raise _UncertainSign("sturm chain overflows double precision")
    return chain


class _UncertainSign(Exception):
    """Raised when a chain value is too close to zero to trust its sign."""


def _deepest_negative(poly: RealPolynomial,
                      isolated: list[tuple[float, float]]) -> tuple[float, float]:
    """Most negative sample among root midpoints and near-root probes."""
    candidates: list[float] = []
    for (a, b), (a2, _) in zip(isolated[:-1], isolated[1:]):
        candidates.append(0.5 * (b + a2))
    for a, b in isolated:
        h = max(b - a, 1e-6 * max(1.0, abs(a)))
        candidates.extend((a - h, b + h, a - 4 * h, b + 4 * h))
    vals = [(float(eval_poly(poly, x)), float(x)) for x in candidates]
    best_val, best_x = min(vals)
    return best_x, best_val


def _prepared(chain: list[np.ndarray]) -> list[tuple[list[float], float, int]]:
    """Each member as (coefficients highest degree first, max|c|, degree)."""
    return [(c[::-1].tolist(), float(np.max(np.abs(c))), c.size - 1) for c in chain]


def _variations(chain: list[tuple[list[float], float, int]], x: float) -> int:
    ax = max(1.0, abs(x))
    signs = []
    for i, (coeffs, cmax, deg) in enumerate(chain):
        val = 0.0
        for c in coeffs:   # np.polyval's operation order, on Python floats
            val = val * x + c
        if math.isinf(val):
            signs.append(1 if val > 0 else -1)
            continue
        try:
            scale = cmax * ax ** deg
        except OverflowError:
            scale = math.inf
        if not math.isfinite(val) or not math.isfinite(scale) or abs(val) <= SIGN_EPS * scale:
            if i == 0 and math.isfinite(scale):
                # x sits on a root of p itself: count variations of the rest
                continue
            raise _UncertainSign(f"sturm sign uncertain at x={x}")
        signs.append(1 if val > 0 else -1)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_verdict(poly: RealPolynomial) -> NonnegativityCertificate:
    """Decide nonnegativity for even degree, positive leading coefficient."""
    chain = _prepared(_sturm_chain(poly.coeffs))
    bound = _cauchy_bound(poly.coeffs)
    v_low, v_high = _variations(chain, -bound), _variations(chain, bound)
    n_roots = v_low - v_high
    if n_roots <= 0:
        val0 = eval_poly(poly, 0.0)
        if val0 <= 0.0:
            raise _UncertainSign("rootless polynomial not positive at 0")
        return NonnegativityCertificate(
            True, distinct_real_roots=0, all_roots_even_multiplicity=True,
            method="sturm", detail="no real roots; positive leading coefficient, even degree")

    # isolate the distinct real roots by bisection on the variation count;
    # each interval carries the counts at its ends, (a, va, b, vb, roots)
    intervals = [(-bound, v_low, bound, v_high, n_roots)]
    isolated: list[tuple[float, float]] = []
    for _ in range(20000):
        if not intervals:
            break
        a, va, b, vb, k = intervals.pop()
        if k == 1 and (b - a) <= 1e-9 * max(1.0, abs(a), abs(b)):
            isolated.append((a, b))
            continue
        m = 0.5 * (a + b)
        vm = _variations(chain, m)
        ka = va - vm
        kb = vm - vb
        if ka > 0:
            intervals.append((a, va, m, vm, ka))
        if kb > 0:
            intervals.append((m, vm, b, vb, kb))
        if ka + kb < k:
            # a root sits on the sample point m itself; isolate it tightly
            isolated.append((m - 1e-12 * max(1.0, abs(m)), m + 1e-12 * max(1.0, abs(m))))
    if len(isolated) < n_roots:
        raise _UncertainSign("root isolation incomplete")

    # parity via the sign of p just outside each isolated root
    scale = float(np.max(np.abs(poly.coeffs)))
    isolated = sorted(isolated)
    negative_found = False
    for a, b in isolated:
        h = max(b - a, 1e-9 * max(1.0, abs(a)))
        left, right = eval_poly(poly, a - h), eval_poly(poly, b + h)
        lscale = scale * max(1.0, abs(a - h)) ** max(poly.degree, 1)
        rscale = scale * max(1.0, abs(b + h)) ** max(poly.degree, 1)
        if abs(left) <= SIGN_EPS * lscale or abs(right) <= SIGN_EPS * rscale:
            raise _UncertainSign("sign probe too close to zero near a root")
        if left < 0.0 or right < 0.0:
            negative_found = True
            break
    if negative_found:
        x, val = _deepest_negative(poly, isolated)
        return NonnegativityCertificate(
            False, witness=x, witness_value=val,
            distinct_real_roots=n_roots, all_roots_even_multiplicity=False,
            method="sturm", detail="odd-multiplicity real root (sign change)")
    return NonnegativityCertificate(
        True, distinct_real_roots=n_roots, all_roots_even_multiplicity=True,
        method="sturm", detail="all real roots have even multiplicity")


@np.errstate(over="ignore", invalid="ignore")
def _companion_verdict(poly: RealPolynomial) -> NonnegativityCertificate:
    """Fallback: cluster companion-matrix roots and check parity per cluster;
    DomainError if probes overflowed and no finite negative sample turned up."""
    roots = np.roots(poly.coeffs[::-1])
    order = np.argsort(roots.real)
    clusters: list[list[complex]] = []
    for r in roots[order]:
        if clusters and abs(r - np.mean(clusters[-1])) <= CLUSTER_TOL * max(1.0, abs(r)):
            clusters[-1].append(r)
        else:
            clusters.append([r])
    n_real, overflowed = 0, False
    for cl in clusters:
        center = complex(np.mean(cl))
        if abs(center.imag) > CLUSTER_TOL * max(1.0, abs(center)):
            continue
        n_real += 1
        if len(cl) % 2 == 1:
            # odd multiplicity: p changes sign; search for a negative sample
            x0 = center.real
            h0 = max(1e-7, 10 * CLUSTER_TOL * max(1.0, abs(x0)))
            for h in h0 * 4.0 ** np.arange(12):
                for x in (x0 - h, x0 + h):
                    val = eval_poly(poly, x)
                    overflowed |= not np.isfinite(val)
                    if np.isfinite(val) and val < (-SIGN_EPS * np.max(np.abs(poly.coeffs))
                                                   * max(1.0, abs(x)) ** poly.degree):
                        return NonnegativityCertificate(
                            False, witness=float(x), witness_value=float(val),
                            distinct_real_roots=n_real, all_roots_even_multiplicity=False,
                            method="companion", detail="odd-multiplicity real root cluster")
            # no resolvable negative dip: treat the touch as nonnegative
    if overflowed:
        raise DomainError("companion root probes overflow double precision")
    return NonnegativityCertificate(
        True, distinct_real_roots=n_real, all_roots_even_multiplicity=True,
        method="companion", detail="all real root clusters have even size")


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
            return NonnegativityCertificate(True, distinct_real_roots=0,
                                            all_roots_even_multiplicity=True,
                                            method="degree-sign", detail="nonnegative constant")
        return NonnegativityCertificate(False, witness=0.0, witness_value=c0,
                                        method="degree-sign", detail="negative constant")
    if deg % 2 == 1 or poly.leading < 0.0:
        # scan toward the infinity where the leading term dominates negatively
        direction = -1.0 if (deg % 2 == 1 and poly.leading > 0.0) else 1.0
        x, val = _scan_negative(poly, direction)
        reason = "odd degree" if deg % 2 == 1 else "negative leading coefficient"
        return NonnegativityCertificate(False, witness=x, witness_value=val,
                                        method="degree-sign", detail=reason)
    try:
        return _sturm_verdict(poly)
    except _UncertainSign as exc:
        cert = _companion_verdict(poly)
        cert.detail += f" (sturm fallback: {exc})"
        return cert
