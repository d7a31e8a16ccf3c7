"""Acceptance gate: the package's headline guarantees at reference
resolutions, one test per criterion, each printing a PASS/FAIL line (run
pytest with -s or -rA to see them all).

Three sub-checks are known to be unreachable at these resolutions and are
kept at their stated tolerances deliberately, failing honestly:
  - criterion 3: the finite-section top eigenvalue of the reciprocal kernel
    obeys pi - lambda_max ~ (pi^3/2)(pi/2L)^2 (window curvature), which is
    1.4e-1 at L=14 -- far above the 1e-3 target (reaching it needs L ~ 200,
    which the test beside it checks on Gauss-Legendre nodes);
  - criterion 5 (second and third parts): below the positivity threshold the
    negative eigenvalues form a geometric cascade accumulating at 0- and are
    window-converged by L=10 (values -4.8e-5, -1.1e-10, ...), so no fixed
    threshold count reaches 3 or grows with L;
  - criterion 7 (ratio window): the positive branch tracks
    (2 pi (n - 3/4)/t0)^2, so the ratio to (2 pi n/t0)^2 is (1 - 3/(4n))^2,
    between 0.856 and 0.927 on n in [10, 20] -- outside [0.95, 1.05].
"""

import math

import numpy as np
import pytest

from hankelscope.coeff_map import QuasiCarlemanKernel, build_map_matrix, p_to_q, q_to_p
from hankelscope.delta_spectra import (DeltaKernel, branches, delta_spectrum,
                                       exact_delta_prime_eigs)
from hankelscope.discretization import (build_a_matrix, build_hankel_matrix,
                                        carleman_extremes, eigen_sym,
                                        form_identity_check)
from hankelscope.discretization import FactoryTestFunction as make_test_function
from hankelscope.polynomials import RealPolynomial
from hankelscope.special_functions import log_gamma
from hankelscope.transforms import GridFunction, LogGrid, f_transform, mellin, u_map, v_eval
from identity_ladder import identity_gap_ladder, observed_orders


def poly(*coeffs):
    return RealPolynomial(np.array(coeffs, dtype=float))


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")


def gamma_by_lanczos_differences(h: float = 0.01) -> float:
    """Euler's constant from Richardson-combined order-8 central differences
    of log Gamma at 1, independent of the series route the map uses."""
    stencil = np.array([1/280, -4/105, 1/5, -4/5, 0.0, 4/5, -1/5, 4/105, -1/280])

    def diff(step):
        z = 1.0 + step * np.arange(-4, 5)
        vals = np.array([log_gamma(zz).real for zz in z])
        return -float(stencil @ vals) / step

    return (256.0 * diff(h) - diff(2.0 * h)) / 255.0


def test_criterion_1_coefficient_map_low_order_exactness():
    gamma_fd = gamma_by_lanczos_differences()
    pi26 = math.pi ** 2 / 6.0
    worst = 0.0
    for p0, p1 in ((1.0, 2.0), (-0.3, 0.7), (4.0, -1.5)):
        q = p_to_q(poly(p0, p1))
        worst = max(worst, abs(q.coeffs[0] - (p0 - gamma_fd * p1)))
    for p0, p1, p2 in ((1.0, 2.0, 3.0), (0.5, -0.4, 1.1)):
        q = p_to_q(poly(p0, p1, p2))
        worst = max(worst, abs(q.coeffs[0] - (p0 - gamma_fd * p1 + (gamma_fd**2 - pi26) * p2)))
        worst = max(worst, abs(q.coeffs[1] - (p1 - 2.0 * gamma_fd * p2)))
    ok = worst <= 1e-12
    report("1 (coefficient map)", ok, f"max deviation {worst:.3e} vs 1e-12")
    assert ok


def test_criterion_2_roundtrip():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        deg = int(rng.integers(0, 9))
        c = rng.uniform(-1.0, 1.0, size=deg + 1)
        c[-1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0)
        p = RealPolynomial(c)
        back = q_to_p(p_to_q(p))
        worst = max(worst, float(np.abs(back.coeffs - p.coeffs).max()))
    ok = worst <= 1e-10
    report("2 (roundtrip)", ok, f"max-norm deviation {worst:.3e} vs 1e-10")
    assert ok


def test_criterion_3_carleman_reference_run():
    grid = LogGrid(L=14.0, N=2048)
    rep = eigen_sym(build_hankel_matrix(QuasiCarlemanKernel(poly(1.0)), grid))
    lam_max, lam_min = float(rep.eigenvalues[-1]), float(rep.eigenvalues[0])
    gap = abs(lam_max - math.pi)
    in_band = lam_min >= -1e-6 and lam_max <= math.pi + 1e-3
    ok = gap < 1e-3 and in_band
    report("3 (carleman reference)", ok,
           f"max eig {lam_max:.6f}, |max - pi| = {gap:.3e} vs 1e-3 "
           f"(window-curvature limit ~ (pi^3/2)(pi/2L)^2 = "
           f"{(math.pi**3 / 2) * (math.pi / 28) ** 2:.3e}); "
           f"band check {'ok' if in_band else 'violated'} (min {lam_min:.2e})")
    assert in_band, "eigenvalue band [-1e-6, pi + 1e-3] violated"
    assert gap < 1e-3, (
        f"finite-section gap {gap:.3e} exceeds 1e-3: the compression of the "
        f"multiplier's quadratic maximum onto [-14, 14] caps the top "
        f"eigenvalue near pi - 0.143 regardless of N")


def test_carleman_wide_window_reaches_the_reference_gap():
    # criterion 3's 1e-3 target at the window the curvature law asks for,
    # L = 200 (model gap 9.6e-4), on 1274 Gauss-Legendre nodes
    rep = carleman_extremes(LogGrid(L=200.0, N=2048))
    lam_min, lam_max = (float(v) for v in rep.eigenvalues)
    gap = math.pi - lam_max
    ok = 0.0 < gap < 1e-3 and lam_min >= -1e-12 and rep.residuals.max() <= 1e-12
    report("3 beside (carleman, L = 200)", ok,
           f"pi - max eig = {gap:.4e} vs 1e-3, min eig {lam_min:.2e}, "
           f"residual {rep.residuals.max():.2e}")
    assert ok


def test_criterion_4_unitary_equivalence_identity():
    grid = LogGrid(L=12.0, N=1024)
    seed_pairs = ((11, 12), (21, 22), (31, 32))
    worst = 0.0
    for degree_coeffs in ((1.0,), (0.0, 1.0), (1.0, -0.5, 0.25), (0.5, 0.2, -0.1, 0.3)):
        for s1, s2 in seed_pairs:
            chk = form_identity_check(poly(*degree_coeffs),
                                      make_test_function(s1, grid),
                                      make_test_function(s2, grid), grid)
            worst = max(worst, chk.relative_gap)
    gaps_ok = worst < 1e-6

    ladder = identity_gap_ladder(poly(1.0, -0.5, 0.25), 11, 12, 12.0,
                                 (32, 64, 128, 256, 512, 1024, 2048))
    orders, converged = observed_orders(ladder)
    order_ok = converged or (bool(orders) and max(orders) >= 2.0)
    detail_ladder = ", ".join(f"N={n}:{g:.1e}" for n, g in ladder)
    ok = gaps_ok and order_ok
    report("4 (form identity)", ok,
           f"max gap {worst:.3e} vs 1e-6; ladder [{detail_ladder}]; "
           f"measurable orders {['%.1f' % o for o in orders]} "
           f"{'(converged below floor beyond)' if converged or orders else ''}")
    assert gaps_ok, f"identity gap {worst:.3e} above 1e-6"
    assert order_ok, "no refinement pair shows order >= 2 above the floor"


def test_criterion_5_positivity_boundary():
    kern = lambda p0: QuasiCarlemanKernel(poly(p0, 0.0, 1.0))

    rep_pos = eigen_sym(build_hankel_matrix(kern(1.70), LogGrid(L=14.0, N=2048)))
    min_pos = float(rep_pos.eigenvalues[0])
    part_a = min_pos >= -1e-4

    w14 = eigen_sym(build_hankel_matrix(kern(1.50), LogGrid(L=14.0, N=1024))).eigenvalues
    w10 = eigen_sym(build_hankel_matrix(kern(1.50), LogGrid(L=10.0, N=1024))).eigenvalues
    count14 = int(np.sum(w14 < -1e-3))
    count10 = int(np.sum(w10 < -1e-3))
    part_b = count14 >= 3
    part_c = count14 > count10

    ok = part_a and part_b and part_c
    report("5 (positivity boundary)", ok,
           f"p0=1.70 min eig {min_pos:.2e} vs -1e-4 ({'ok' if part_a else 'fail'}); "
           f"p0=1.50 count(< -1e-3) at L=14 is {count14} vs >=3 "
           f"({'ok' if part_b else 'fail'}; leading negatives {w14[:3]}); "
           f"L growth {count10} -> {count14} ({'ok' if part_c else 'fail'}: "
           f"cascade is window-converged by L=10)")
    assert part_a, f"min eigenvalue {min_pos:.3e} below -1e-4 at p0=1.70"
    assert part_b, (
        f"only {count14} eigenvalues below -1e-3 at p0=1.50, L=14: the "
        f"negative spectrum is a geometric cascade ({w14[:3]}) accumulating "
        f"at 0-, not O(1)-spaced")
    assert part_c, (
        f"negative count does not grow ({count10} -> {count14}): the "
        f"resolvable cascade entries are already window-converged at L=10")


def test_criterion_6_delta_prime_exact_spectrum():
    rep = delta_spectrum(DeltaKernel([0.0, 1.0], 1.0), 64, 10)
    lp, lm = branches(rep.eigenvalues)
    worst = 0.0
    for n in range(1, 11):
        ep, em = exact_delta_prime_eigs(1.0, n)
        worst = max(worst, abs(lp[n - 1] - ep), abs(lm[n - 1] - em))
    ok = worst <= 1e-8
    report("6 (first-derivative kernel exact spectrum)", ok,
           f"max |collocation - closed form| = {worst:.3e} vs 1e-8")
    assert ok


def test_criterion_7_weyl_asymptotics():
    kernel = DeltaKernel([0.0, 0.0, 1.0], 1.0)
    lp256, _ = branches(delta_spectrum(kernel, 256, 20).eigenvalues)
    lp384, _ = branches(delta_spectrum(kernel, 384, 20).eigenvalues)
    cross = float(np.abs(lp256[:20] - lp384[:20]).max()
                  / np.abs(lp384[:20]).max())
    cross_ok = cross < 1e-6

    ratios = np.array([lp256[n - 1] / (2.0 * math.pi * n) ** 2 for n in range(10, 21)])
    window_ok = bool(np.all((ratios >= 0.95) & (ratios <= 1.05)))

    ok = cross_ok and window_ok
    report("7 (weyl growth)", ok,
           f"cross-resolution agreement {cross:.2e} vs 1e-6 "
           f"({'ok' if cross_ok else 'fail'}); ratio range "
           f"[{ratios.min():.4f}, {ratios.max():.4f}] vs [0.95, 1.05] "
           f"({'ok' if window_ok else 'fail'}: positive branch follows "
           f"(1 - 3/(4n))^2)")
    assert cross_ok, f"resolutions disagree: {cross:.3e}"
    assert window_ok, (
        f"ratio range [{ratios.min():.4f}, {ratios.max():.4f}] misses "
        f"[0.95, 1.05]: the quarter-shifted lattice (2 pi (n - 3/4))^2 "
        f"keeps the ratio below 0.95 until n ~ 30")


def test_criterion_8_order_zero_two_point_spectrum():
    h0 = 1.75
    rep = delta_spectrum(DeltaKernel([h0], 1.0), 32, 8)
    dev = float(np.abs(np.abs(rep.eigenvalues) - h0).max())
    ok = dev < 1e-12
    report("8 (order-zero kernel)", ok, f"|lambda| deviation from h0: {dev:.2e}")
    assert ok


def test_criterion_9_property_suites():
    checks = []

    grid = LogGrid(L=12.0, N=512)
    rng = np.random.default_rng(5)
    g = GridFunction(grid.x_nodes, rng.normal(size=512) + 1j * rng.normal(size=512))
    checks.append(("mellin unitary 1e-10",
                   abs(mellin(g).norm() - g.norm()) < 1e-10 * g.norm()))
    f = lambda t: np.exp(-t)
    checks.append(("gamma-phase transform unitary 1e-8",
                   abs(f_transform(f, grid).norm() - u_map(f, grid).norm()) < 1e-8))

    xi = np.linspace(0.0, 150.0, 251)
    v = v_eval(xi)
    checks.append(("weight even", bool(np.all(v == v_eval(-xi)))))
    checks.append(("weight positive", bool(np.all(v > 0.0))))
    checks.append(("weight decay bound", bool(np.all(
        v <= math.sqrt(2 * math.pi) * np.exp(-math.pi * xi / 2) * (1 + 1e-12)))))

    grid_s = LogGrid(L=8.0, N=64)
    mh = build_hankel_matrix(QuasiCarlemanKernel(poly(0.3, 1.0, 0.5)), grid_s).matrix
    checks.append(("hankel-side symmetric", bool(np.array_equal(mh, mh.T))))
    ma = build_a_matrix(poly(0.1, 1.0, 0.7), grid_s).matrix
    checks.append(("a-side hermitian 1e-12",
                   float(np.abs(ma - ma.conj().T).max()) < 1e-12 * np.abs(ma).max()))

    m = build_map_matrix(6)
    checks.append(("map unit diagonal", bool(np.all(np.diag(m) == 1.0))))
    checks.append(("map upper triangular", bool(np.all(np.tril(m, -1) == 0.0))))
    pa, pb = poly(0.2, -0.4, 0.6), poly(1.0, 0.5, -0.1)
    lin = np.abs(p_to_q(RealPolynomial(2.0 * pa.coeffs + 3.0 * pb.coeffs)).coeffs
                 - (2.0 * p_to_q(pa).coeffs + 3.0 * p_to_q(pb).coeffs)).max()
    checks.append(("map linear 1e-12", lin < 1e-12))

    r1 = delta_spectrum(DeltaKernel([0.0, 1.0], 1.0), 64, 8)
    r2 = delta_spectrum(DeltaKernel([0.0, -2.5], 1.0), 64, 8)
    scale_dev = float(np.abs(np.sort(-2.5 * r1.eigenvalues) - r2.eigenvalues).max())
    checks.append(("delta spectrum scales linearly", scale_dev < 1e-10))

    ok = all(flag for _, flag in checks)
    report("9 (property suites)", ok,
           "; ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in checks))
    assert ok, [name for name, flag in checks if not flag]
