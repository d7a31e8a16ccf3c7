"""Gamma machinery checks against independent oracles: scipy.special for
gamma values, and mpmath for the jet table (the Abramowitz & Stegun 6.1.34
recurrence at 60 digits, and finite differences of 1/Gamma(1-z)). The library
itself never imports these; they are oracle-only."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gamma as sp_gamma
from scipy.special import loggamma as sp_loggamma

from hankelscope.errors import DomainError, UnsupportedOrderError
from hankelscope.special_functions import (MAX_JET_ORDER, build_gamma_jet, gamma_half_phase,
                                           log_cosh, log_gamma)

# frozen 25-digit references (40-digit arithmetic, independent of the library)
GAMMA_REF = 0.5772156649015328606065121
OMEGA2_REF = -1.311756143040507762154039  # also equals gamma^2 - pi^2/6
PHASE5_REF = -0.9962999775719266713376 + 0.0859439043224032944221j


class TestEulerGammaAndZeta:
    def test_euler_gamma(self):
        assert abs(-build_gamma_jet(1)[1] - GAMMA_REF) < 1e-15


class TestGammaJet:
    def test_low_order_invariants(self):
        jet = build_gamma_jet(2)
        assert jet[0] == 1.0
        assert abs(jet[1] + np.euler_gamma) < 1e-15
        assert abs(jet[2] - (np.euler_gamma**2 - math.pi**2 / 6.0)) < 1e-14

    def test_order_one(self):
        jet = build_gamma_jet(1)
        np.testing.assert_allclose(jet, [1.0, -GAMMA_REF], atol=1e-15)

    def test_second_derivative_against_fd_oracle(self):
        # independent oracle: high-order central differences of 1/Gamma(1-z)
        # evaluated with scipy's gamma (error ~ h^8 with h=0.08)
        h = 0.08
        w = lambda z: 1.0 / sp_gamma(1.0 - z)
        c = np.array([-1/560, 8/315, -1/5, 8/5, -205/72, 8/5, -1/5, 8/315, -1/560])
        z = h * np.arange(-4, 5)
        oracle = float(np.sum(c * w(z))) / h**2
        assert abs(oracle - OMEGA2_REF) < 1e-9
        jet = build_gamma_jet(2)
        assert abs(jet[2] - oracle) < 1e-9

    def test_jet_against_mpmath_derivatives(self):
        jet = build_gamma_jet(12)
        with mp.workdps(50):
            for m in range(13):
                ref = float(mp.diff(lambda z: 1 / mp.gamma(1 - z), 0, m))
                assert abs(jet[m] - ref) <= 1e-13, m

    def test_table_against_recurrence_in_mpmath(self):
        # A&S 6.1.34 for 1/Gamma(1+z) = sum c_n z^n: c_0 = 1, c_1 = gamma,
        # n c_n = gamma c_{n-1} + sum_{j=2}^n (-1)^{j+1} zeta(j) c_{n-j}
        jet = build_gamma_jet(MAX_JET_ORDER)
        with mp.workdps(60):
            c = [mp.mpf(1), +mp.euler]
            for n in range(2, MAX_JET_ORDER + 1):
                acc = mp.euler * c[n - 1]
                for j in range(2, n + 1):
                    acc += (-1) ** (j + 1) * mp.zeta(j) * c[n - j]
                c.append(acc / n)
            ref = np.array([float((-1) ** m * mp.factorial(m) * c[m]) for m in range(len(c))])
        ulps = np.abs(jet - ref) / np.spacing(np.abs(ref))
        assert jet.size == 31 and ulps.max() <= 1.0, ulps

    def test_returns_a_fresh_array(self):
        first = build_gamma_jet(4)
        kept = first.copy()
        first[:] = 0.0
        np.testing.assert_array_equal(build_gamma_jet(4), kept)
        np.testing.assert_array_equal(build_gamma_jet(MAX_JET_ORDER)[:5], kept)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            build_gamma_jet(31)

    def test_negative_order(self):
        with pytest.raises(DomainError):
            build_gamma_jet(-1)


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) < 1e-13

    def test_at_half(self):
        assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14

    def test_half_line_modulus_identity(self):
        # |Gamma(1/2 + i)|^2 = pi/cosh(pi)
        val = abs(np.exp(log_gamma(0.5 + 1j))) ** 2
        assert abs(val - math.pi / math.cosh(math.pi)) < 1e-13

    @pytest.mark.parametrize("re", [0.5, 1.0])
    def test_vertical_lines_against_scipy(self, re):
        xi = np.linspace(-200.0, 200.0, 801)
        mine = log_gamma(re + 1j * xi)
        ref = sp_loggamma(re + 1j * xi)
        rel = np.abs(mine - ref) / np.maximum(np.abs(ref), 1.0)
        assert rel.max() < 1e-12

    def test_small_real_part_shift(self):
        z = 0.25 + 3.0j
        assert abs(log_gamma(z) - sp_loggamma(z)) < 1e-12 * abs(sp_loggamma(z))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            log_gamma(-1.0 + 2.0j)
        with pytest.raises(DomainError):
            log_gamma(0.0)

    def test_stirling_regime(self):
        # leading asymptotics of log|Gamma(1/2 + i xi)| at xi = 100
        xi = 100.0
        asym = 0.5 * math.log(2.0 * math.pi / math.e) - math.pi * xi / 2.0
        mine = log_gamma(0.5 + 1j * xi).real
        assert abs(mine - asym) / abs(mine) < 1e-2


class TestGammaHalfPhase:
    def test_unit_modulus(self):
        xi = np.linspace(-200.0, 200.0, 1001)
        assert np.abs(np.abs(gamma_half_phase(xi)) - 1.0).max() < 1e-12

    def test_at_zero(self):
        assert abs(gamma_half_phase(0.0) - 1.0) < 1e-13

    def test_conjugation_symmetry(self):
        xi = np.array([0.3, 1.7, 9.2, 55.0])
        np.testing.assert_allclose(gamma_half_phase(-xi),
                                   np.conj(gamma_half_phase(xi)), atol=1e-12)

    def test_against_direct_gamma_oracle(self):
        # independent route: scipy gamma value normalized to unit modulus
        g5 = sp_gamma(0.5 + 5j)
        assert abs(gamma_half_phase(5.0) - g5 / abs(g5)) < 1e-12
        assert abs(gamma_half_phase(5.0) - PHASE5_REF) < 1e-12


class TestLogCosh:
    def test_small_argument(self):
        y = 0.37
        assert abs(log_cosh(y) - math.log(math.cosh(y))) < 1e-15

    def test_huge_argument_no_overflow(self):
        y = 5000.0
        assert abs(log_cosh(y) - (y - math.log(2.0))) < 1e-12
