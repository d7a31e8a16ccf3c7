"""carleman's Lanczos run: the O(m) tridiagonal ends against SciPy's
eigh_tridiagonal, and the whole run against the SciPy-based reference it
replaced (two full Gram-Schmidt passes per step, eigh_tridiagonal for the
two ends every 8 steps)."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from hankelscope import discretization
from hankelscope.discretization import (_carleman_matvec, _lanczos_extremes, _require_finite,
                                        _tridiagonal_ends, carleman_extremes)
from hankelscope.errors import ConvergenceError
from hankelscope.transforms import LogGrid

EPS = np.finfo(float).eps


def reference_lanczos_extremes(matvec, v0: np.ndarray):
    """Smallest and largest eigenpairs of a symmetric operator from one
    deterministic Lanczos run (Paige; Parlett, The Symmetric Eigenvalue
    Problem) with full reorthogonalisation, done twice.

    Stops when both extreme Ritz residual bounds beta_m |s_m,i| are at most
    1e-13 max|theta|, at breakdown (beta_m = 0 meets the same test), or at
    m = N. The test solves two tridiagonal eigenproblems, so it runs only
    every 8 steps, at breakdown and at m = N: a run takes at most 7 matvecs
    more than a test after every step would. Returns (theta, residuals,
    steps) with theta = [lambda_min, lambda_max] and the explicit residuals
    ||M y - theta y|| of the Ritz vectors, one matvec each.
    """
    n = v0.size
    basis = np.empty((min(n, 64), n))
    basis[0] = v0 / np.linalg.norm(v0)
    alpha, beta = np.empty(n), np.empty(n)
    for m in range(1, n + 1):
        w = matvec(basis[m - 1])
        alpha[m - 1] = basis[m - 1] @ w
        for _ in range(2):
            w -= basis[:m].T @ (basis[:m] @ w)
        beta[m - 1] = np.linalg.norm(w)
        if not (math.isfinite(alpha[m - 1]) and math.isfinite(beta[m - 1])):
            raise ConvergenceError("Lanczos recurrence produced a non-finite coefficient")
        if m % 8 == 0 or m == n or beta[m - 1] == 0.0:
            ends = [eigh_tridiagonal(alpha[:m], beta[:m - 1], select="i",
                                     select_range=(i, i)) for i in (0, m - 1)]
            scale = max(abs(float(theta[0])) for theta, _ in ends)
            if m == n or all(beta[m - 1] * abs(s[-1, 0]) <= 1e-13 * scale for _, s in ends):
                break
        if m == basis.shape[0]:
            basis = np.concatenate([basis, np.empty((min(m, n - m), n))])
        basis[m] = w / beta[m - 1]
    theta = np.array([float(t[0]) for t, _ in ends])
    ritz = [basis[:m].T @ s[:, 0] for _, s in ends]
    residuals = np.array([np.linalg.norm(matvec(y) - t * y) for t, y in zip(theta, ritz)])
    _require_finite(theta, residuals)
    return theta, residuals, m


@pytest.mark.parametrize("L, n", [(1.0, 2), (2.0, 4), (4.0, 8), (4.0, 16), (8.0, 64), (8.0, 512),
                                  (14.0, 1024), (20.0, 2048), (30.0, 2048)])
def test_lanczos_matches_the_scipy_reference(L, n):
    grid = LogGrid(L=L, N=n)
    matvec, v0 = _carleman_matvec(grid), 1.0 + (-1.0) ** np.arange(n)
    theta, residuals, steps = _lanczos_extremes(matvec, v0)
    ref_theta, _, ref_steps = reference_lanczos_extremes(matvec, v0)
    assert steps == ref_steps
    assert np.max(np.abs(theta - ref_theta)) <= 1e-15 * math.pi
    assert residuals.max() <= 1e-13 * math.pi


def _tridiagonal(alpha, beta):
    return np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)


def check_ends(alpha, beta, starts=None):
    """_tridiagonal_ends against eigh_tridiagonal: eigenvalues within
    4 eps ||T||, residuals at rounding, and the last components (which drive
    Lanczos' stop test) within 1e-6 relative wherever they exceed 1e-12.
    That last bound widens by 4 eps ||T|| / gap, twice the Davis-Kahan
    angle of a rounding-level residual: at the carleman bottom (gap 1e-11)
    SciPy and a dense eigh differ by 1e-5 relative too."""
    alpha, beta = np.asarray(alpha, float), np.asarray(beta, float)
    theta, s = _tridiagonal_ends(alpha, beta, starts)
    ends = [eigh_tridiagonal(alpha, beta, select="i", select_range=(i, i))
            for i in (0, alpha.size - 1)]
    ref_theta = np.array([float(t[0]) for t, _ in ends])
    ref_last = np.array([abs(v[-1, 0]) for _, v in ends])
    t = _tridiagonal(alpha, beta)
    w = np.linalg.eigvalsh(t)
    norm = max(abs(w[0]), abs(w[-1]))
    assert np.all(np.abs(theta - ref_theta) <= 4.0 * EPS * norm), (theta, ref_theta)
    np.testing.assert_allclose(np.linalg.norm(s, axis=0), 1.0, rtol=0.0, atol=4.0 * EPS)
    assert np.all(np.linalg.norm(t @ s - s * theta, axis=0) <= 4.0 * EPS * norm)
    gaps = np.array([w[1] - w[0], w[-1] - w[-2]]) if w.size > 1 else np.full(2, np.inf)
    with np.errstate(divide="ignore"):   # a double end (gap 0) has no determined vector
        bound = 1e-6 * ref_last + 4.0 * EPS * norm / gaps
    checked = ref_last > 1e-12
    assert np.all(np.abs(np.abs(s[-1]) - ref_last)[checked] <= bound[checked])
    return theta, s


class TestTridiagonalEnds:
    @pytest.mark.parametrize("m", [1, 2, 3, 64, 500])
    def test_random(self, m):
        rng = np.random.default_rng(m)
        check_ends(rng.standard_normal(m), rng.standard_normal(m - 1))

    @pytest.mark.parametrize("magnitude", [1e150, 1e-150])
    def test_entries_near_the_exponent_limits(self, magnitude):
        rng = np.random.default_rng(9)
        check_ends(magnitude * rng.standard_normal(40), magnitude * rng.standard_normal(39))

    @pytest.mark.parametrize("L, n", [(14.0, 1024), (30.0, 2048)])
    def test_carleman_bottom_cluster(self, L, n, monkeypatch):
        # the last T_m of a run: the bottom end is a rounding-level eigenvalue
        # 1e-11 below the next one; checked cold and from the run's own start
        calls = []
        ends = discretization._tridiagonal_ends

        def spy(alpha, beta, starts=None):
            calls.append((alpha.copy(), beta.copy(), starts))
            return ends(alpha, beta, starts)

        monkeypatch.setattr(discretization, "_tridiagonal_ends", spy)
        carleman_extremes(LogGrid(L=L, N=n))
        alpha, beta, starts = calls[-1]
        w = np.linalg.eigvalsh(_tridiagonal(alpha, beta))
        assert abs(w[0]) < 1e-14 * w[-1] and w[1] - w[0] < 1e-9 * w[-1]
        cold, _ = check_ends(alpha, beta)
        warm, _ = check_ends(alpha, beta, starts)
        assert np.max(np.abs(cold - warm)) <= 2.0 * EPS * w[-1]

    def test_exact_zero_pivots(self):
        # [[1, 1], [1, 1]]: the last pivot of T - lambda I is exactly 0 at
        # both ends; a start at 0 zeroes the first pivot of [[0, 1, 0], ...]
        check_ends([1.0, 1.0], [1.0])
        check_ends([0.0, 0.0, 0.0], [1.0, 1.0], starts=(0.0, 0.0))
        check_ends([2.0, 0.0, 0.0], [1.0, 1.0], starts=(0.0, 2.0))

    def test_double_top_end_of_a_split_matrix(self):
        # beta_2 = 0 splits off [2]; [[1, 1], [1, 1]] shares the top 2, so
        # the middle pivot of T - 2 I is exactly 0
        check_ends([1.0, 1.0, 2.0], [1.0, 0.0])

    def test_starts_inside_the_spectrum_fall_back(self):
        rng = np.random.default_rng(3)
        alpha, beta = rng.standard_normal(64), rng.standard_normal(63)
        cold, _ = check_ends(alpha, beta)
        for starts in [(0.0, 0.0), (cold[1], cold[0]), (-1e300, 1e300), (cold[0], cold[1])]:
            theta, _ = check_ends(alpha, beta, starts)
            assert np.max(np.abs(theta - cold)) <= 4.0 * EPS * np.max(np.abs(cold))


class TestSweepCounts:
    """The warm start and the bisection safeguard keep the number of O(m)
    sweeps small; both results are right without them, only slower."""

    @pytest.fixture
    def counted(self, monkeypatch):
        sweeps, ends, calls = [0], [0], []
        sweep, top, tridiagonal = (discretization._laguerre_sweep,
                                   discretization._top_eigenvalue,
                                   discretization._tridiagonal_ends)

        def counted_sweep(*args):
            sweeps[0] += 1
            return sweep(*args)

        def counted_top(*args):
            ends[0] += 1
            return top(*args)

        def spy(alpha, beta, starts=None):
            calls.append((alpha.copy(), beta.copy()))
            return tridiagonal(alpha, beta, starts)

        monkeypatch.setattr(discretization, "_laguerre_sweep", counted_sweep)
        monkeypatch.setattr(discretization, "_top_eigenvalue", counted_top)
        monkeypatch.setattr(discretization, "_tridiagonal_ends", spy)
        return sweeps, ends, calls, tridiagonal

    def test_warm_starts_take_about_two_sweeps_per_end(self, counted):
        sweeps, ends, _, _ = counted
        carleman_extremes(LogGrid(L=60.0, N=600))   # 35 tests, m up to 280
        assert ends[0] == 70 and sweeps[0] <= 3 * ends[0]

    def test_a_cold_start_isolates_the_bottom_cluster(self, counted):
        # from the Gershgorin bound Laguerre alone creeps towards the cluster
        # (about 140 sweeps here); halving the bracket isolates the end first
        sweeps, _, calls, tridiagonal = counted
        carleman_extremes(LogGrid(L=60.0, N=600))
        alpha, beta = calls[-1]
        sweeps[0] = 0
        tridiagonal(alpha, beta)
        assert sweeps[0] <= 80


def _tridiagonal_strategy():
    reals = st.floats(allow_nan=False, allow_infinity=False)
    return st.integers(1, 24).flatmap(lambda m: st.tuples(
        st.lists(reals, min_size=m, max_size=m), st.lists(reals, min_size=m - 1, max_size=m - 1),
        st.one_of(st.none(), st.tuples(reals, reals))))


# a warm start just above a double eigenvalue 0, below the top 5.9e261
INSIDE_START = ([0.0, 0.0, 5.9041514747105345e+261], [0.0, 0.0],
                (-1.0, 7.751074183610109e+229))


@given(_tridiagonal_strategy())
@settings(max_examples=300, deadline=None)
@example(INSIDE_START)
def test_tridiagonal_ends_raise_nothing_but_convergence_errors(case):
    alpha, beta, starts = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            theta, s = _tridiagonal_ends(np.array(alpha), np.array(beta), starts)
        except ConvergenceError:
            return
    assert np.all(np.isfinite(theta)) and theta[0] <= theta[1]
    assert np.all(np.isfinite(s)) and s.shape == (len(alpha), 2)


_SCALE = 2 ** 1130   # makes every double, and every end +- 4 eps |end|, an integer


def count_at_least(alpha, beta, y: Fraction) -> int:
    """Exact number of eigenvalues of the tridiagonal (alpha, beta) at or
    above y: the sign changes of p_k = det(y I - T_k), k = 0 ... m, in
    integer arithmetic (Sylvester). A zero p_k takes the sign opposite to
    p_(k-1), as for y moved infinitesimally down; a zero coupling splits T,
    and the sequence restarts."""
    scaled = y * _SCALE
    assert scaled.denominator == 1
    count, p, p_prev, sign = 0, 1, 0, 1
    for i, a in enumerate(alpha):
        b = int(Fraction(beta[i - 1]) * _SCALE) if i else 0
        if b == 0:
            p, p_prev, sign = 1, 0, 1
        p, p_prev = (scaled.numerator - int(Fraction(a) * _SCALE)) * p - b * b * p_prev, p
        new_sign = -sign if p == 0 else (1 if p > 0 else -1)
        count += new_sign != sign
        sign = new_sign
    return count


def test_exact_count_matches_eigvalsh():
    rng = np.random.default_rng(4)
    for m in (1, 2, 5, 12):
        alpha, beta = rng.standard_normal(m), rng.standard_normal(m - 1)
        if m > 3:
            beta[2] = 0.0
        w = np.linalg.eigvalsh(_tridiagonal(alpha, beta))
        for y in np.linspace(-4.0, 4.0, 41):
            assert count_at_least(alpha, beta, Fraction(y)) == np.sum(w >= y)
    assert count_at_least([0.0, 0.0], [0.0], Fraction(0)) == 2
    assert count_at_least([1.0, 1.0], [1.0], Fraction(2)) == 1


@given(_tridiagonal_strategy())
@settings(max_examples=300, deadline=None)
@example(INSIDE_START)
@example(([0.0], [], None))
def test_tridiagonal_ends_are_exact_to_four_ulps_of_the_norm(case):
    # each end lies within 4 eps max|lambda| (plus the smallest subnormal,
    # the rounding of an end on the subnormal grid) of the exact end,
    # bracketed by exact Sylvester counts. numpy.linalg.eigvalsh is no
    # reference at this tolerance: with zero diagonal and couplings
    # (1.14e119, 5.07e273) it misses the ends by 8.5 eps of the norm even
    # after an exact power-of-two scaling, where these ends are exact
    alpha, beta, starts = case
    try:
        theta, _ = _tridiagonal_ends(np.array(alpha), np.array(beta), starts)
    except ConvergenceError:
        return
    m = len(alpha)
    tol = Fraction(4.0 * EPS) * Fraction(float(np.max(np.abs(theta)))) + Fraction(2.0 ** -1074)
    bottom, top = Fraction(float(theta[0])), Fraction(float(theta[1]))
    assert count_at_least(alpha, beta, bottom - tol) == m
    assert count_at_least(alpha, beta, bottom + tol) < m
    assert count_at_least(alpha, beta, top - tol) >= 1
    assert count_at_least(alpha, beta, top + tol) == 0
