import contextlib
import io
import json
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hankelscope import cli, discretization
from hankelscope.cli import main
from hankelscope.delta_spectra import exact_delta_prime_eigs
from hankelscope.discretization import SpectrumReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCoefficientCommands:
    def test_pq_linear(self, capsys):
        code, out, _ = run_cli(capsys, "pq", "--p", "1,2")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "hankelscope/1"
        np.testing.assert_allclose(doc["q_coeffs"], [1.0 - 2.0 * np.euler_gamma, 2.0],
                                   atol=1e-14)
        assert isinstance(doc["paper_refs"], list) and doc["paper_refs"]

    def test_qp_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "qp", "--q", "1,2")
        doc = json.loads(out)
        np.testing.assert_allclose(doc["p_coeffs"], [1.0 + 2.0 * np.euler_gamma, 2.0],
                                   atol=1e-14)

    def test_leading_negative_coefficient_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "qp", "--q", "-4.1,-1.5,3")
        assert code == 0
        doc = json.loads(out)
        assert doc["p_coeffs"][-1] == 3.0

    def test_positivity_fields(self, capsys):
        code, out, _ = run_cli(capsys, "positivity", "--p", "1.7,0,1")
        doc = json.loads(out)
        assert doc["positivity"]["verdict"] is True
        assert doc["essential_spectrum"] == "[0,inf)"
        assert "certificate" in doc["positivity"]

    def test_positivity_negative_with_witness(self, capsys):
        code, out, _ = run_cli(capsys, "positivity", "--p", "1.5,0,1")
        doc = json.loads(out)
        assert doc["positivity"]["verdict"] is False
        assert doc["positivity"]["certificate"]["witness"] is not None


def exact_q_min(q_coeffs):
    """Minimum of c0 + c1 x + c2 x^2 (c2 > 0) for the float coefficients, to
    60 digits: c0 - c1^2 / (4 c2)."""
    with mpmath.workdps(60):
        c0, c1, c2 = (mpmath.mpf(c) for c in q_coeffs)
        return c0 - c1 * c1 / (4 * c2)


PI26 = math.pi ** 2 / 6.0


class TestPositivityThreshold:
    """P = p0 + x^2 near p0 = pi^2/6, where Q = p_to_q(P) touches zero: the
    verdict is the sign of the exact minimum of the float coefficients of Q,
    once that minimum is beyond the rounding of Horner's rule at the vertex."""

    @pytest.mark.parametrize("p0", [repr(PI26 + d) for d in
                                    (1e-13, -1e-13, 1e-12, -1e-12, 1e-10, -1e-10, -2.6e-14)]
                             + ["1.644934066848"])
    def test_verdict_is_the_sign_of_the_exact_minimum(self, capsys, p0):
        code, out, _ = run_cli(capsys, "positivity", "--p", f"{p0},0,1")
        doc = json.loads(out)
        q_min = exact_q_min(doc["q_coeffs"])
        assert code == 0 and abs(q_min) > 1e-14
        assert doc["positivity"]["verdict"] is bool(q_min > 0)
        cert = doc["positivity"]["certificate"]
        assert cert["method"] == "critical-points"
        if q_min < 0:
            x = mpmath.mpf(cert["witness"])
            with mpmath.workdps(60):
                exact = sum(mpmath.mpf(c) * x ** k for k, c in enumerate(doc["q_coeffs"]))
            assert cert["witness_value"] < 0 and exact < 0
            assert abs(exact - q_min) < 1e-3 * abs(q_min)

    def test_threshold_itself_touches_within_rounding(self, capsys):
        # the exact minimum of the float coefficients is -7.9e-17, inside
        # Horner's bound at the vertex: a touch, not a witness
        code, out, _ = run_cli(capsys, "positivity", "--p", f"{PI26!r},0,1")
        doc = json.loads(out)
        assert -1e-16 < exact_q_min(doc["q_coeffs"]) < 0
        assert code == 0 and doc["positivity"]["verdict"] is True


class TestSpectrumCommands:
    def test_carleman_small_grid(self, capsys):
        code, out, _ = run_cli(capsys, "carleman", "--L", "8", "--N", "128")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_eigenvalue"] < math.pi
        assert abs(doc["gap"] - (math.pi - doc["max_eigenvalue"])) < 1e-15
        assert doc["grid"] == {"L": 8, "N": 128}

    def test_carleman_reports_two_gauss_legendre_extremes(self, capsys):
        code, out, _ = run_cli(capsys, "carleman", "--L", "14", "--N", "1024")
        assert code == 0
        doc = json.loads(out)
        # the Gauss-Legendre top, which Richardson extrapolation of the
        # uniform-grid tops at N = 1024 and 2048 meets to 3e-13
        assert abs(doc["max_eigenvalue"] - 2.9988506487355) < 1e-12
        assert abs(doc["min_eigenvalue"]) < 1e-14
        assert doc["residual_max"] < 1e-12

    def test_spectrum_hankel_verdicts(self, capsys):
        # odd degree: the whole line and a certified verdict; even degree with
        # a negative leading coefficient: no theorem applies, so no verdict
        for p, ess, verdict in (("0,1", "R", False), ("1,0,-1", "unknown", None)):
            code, out, _ = run_cli(capsys, "spectrum-hankel", "--p", p,
                                   "--L", "8", "--N", "64")
            assert code == 0
            doc = json.loads(out)
            assert doc["essential_spectrum"] == ess
            assert len(doc["eigenvalues"]) == 64
            assert doc["negative_count"] > 0
            assert doc["grid"] == {"L": 8.0, "N": 64}
            if verdict is None:
                assert doc["positivity"] == {"verdict": None}
            else:
                assert doc["positivity"]["verdict"] is verdict
                assert "certificate" in doc["positivity"]

    def test_spectrum_hankel_beyond_half_double_range(self, capsys):
        # ||M||_F^2 of P = 1e154 x overflows unscaled; the solve runs on
        # 2^-e M and reports 1e154 times the spectrum of P = x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "spectrum-hankel", "--p", "0,1e154",
                                   "--L", "8", "--N", "512")
        assert code == 0
        big = np.array(json.loads(out)["eigenvalues"])
        _, out, _ = run_cli(capsys, "spectrum-hankel", "--p", "0,1", "--L", "8", "--N", "512")
        unit = np.array(json.loads(out)["eigenvalues"])
        assert np.abs(big - 1e154 * unit).max() <= 1e-13 * np.abs(big).max()

    @pytest.mark.parametrize("p, unit_p, factor", [("1e300", "1", 1e300),
                                                    ("0,1e200", "0,1", 1e200)],
                             ids=["constant", "linear"])
    def test_dense_route_beyond_half_double_range(self, capsys, p, unit_p, factor):
        # 2 w > N at L = 30, N = 256: the dense eigh runs on 2^-e M, whose
        # residual components square without overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "spectrum-hankel", "--p", p,
                                     "--L", "30", "--N", "256")
        assert code == 0 and err == ""
        big = np.array(json.loads(out)["eigenvalues"])
        _, out, _ = run_cli(capsys, "spectrum-hankel", "--p", unit_p, "--L", "30", "--N", "256")
        unit = np.array(json.loads(out)["eigenvalues"])
        assert np.abs(big - factor * unit).max() <= 1e-13 * np.abs(big).max()

    def test_spectrum_a_diagonal_case(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum-a", "--q", "1",
                               "--L", "8", "--N", "64")
        doc = json.loads(out)
        assert abs(max(doc["eigenvalues"]) - math.pi) < 1e-12

    def test_delta_eigs_csv(self, capsys):
        code, out, _ = run_cli(capsys, "delta-eigs", "--h", "0,1", "--t0", "1",
                               "--N", "64", "--n-max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eigenvalue,residual"
        vals = sorted(float(ln.split(",")[0]) for ln in lines[1:])
        expect = sorted([1.5 * math.pi, 3.5 * math.pi, 5.5 * math.pi,
                         -0.5 * math.pi, -2.5 * math.pi, -4.5 * math.pi])
        np.testing.assert_allclose(vals, expect, atol=1e-9)

    def test_delta_eigs_json(self, capsys):
        code, out, _ = run_cli(capsys, "delta-eigs", "--h", "0,1", "--format",
                               "json", "--N", "64")
        doc = json.loads(out)
        assert "lambda_plus" in doc and "exact_first_pair" in doc

    def test_delta_eigs_json_scaled_first_pair(self, capsys):
        # -2.5 delta'(. - 2): the unit pair (1.5 pi/2, -0.5 pi/2) scaled by
        # h1 < 0 swaps branches, so the field stays [positive, negative]
        code, out, _ = run_cli(capsys, "delta-eigs", "--h", "0,-2.5", "--t0", "2",
                               "--format", "json", "--N", "64")
        assert code == 0
        doc = json.loads(out)
        expect = [2.5 * 0.25 * math.pi, -2.5 * 0.75 * math.pi]
        np.testing.assert_allclose(doc["exact_first_pair"], expect, rtol=1e-15)
        np.testing.assert_allclose(doc["exact_first_pair"],
                                   [doc["lambda_plus"][0], doc["lambda_minus"][0]],
                                   rtol=1e-9)

    def test_equiv_check(self, capsys):
        code, out, _ = run_cli(capsys, "equiv-check", "--p", "1", "--L", "12",
                               "--N", "128")
        doc = json.loads(out)
        assert doc["relative_gap"] < 1e-6


class TestConstantProfileBand:
    """For constant P = p0 the Nystrom matrix is p0 times a Toeplitz section
    of a positive symbol at most pi (1 + eps_alias): a reported eigenvalue
    outside p0 [0, pi (1 + eps_alias)] by more than its residual exits 3."""

    @pytest.mark.parametrize("argv", [
        ("spectrum-hankel", "--p", "1", "--L", "8", "--N", "256"),
        ("spectrum-hankel", "--p", "-2.5", "--L", "14", "--N", "512"),
        ("spectrum-hankel", "--p", "1", "--L", "32", "--N", "64"),   # dx = 1
        ("carleman", "--L", "32", "--N", "64"),
        ("carleman", "--L", "30", "--N", "2048")])
    def test_computed_spectra_lie_in_the_band(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        doc = json.loads(out)
        p0 = float(argv[2]) if argv[0] == "spectrum-hankel" else 1.0
        dx = 2.0 * doc["grid"]["L"] / doc["grid"]["N"]
        lo, hi = sorted((0.0, p0 * math.pi * (1.0 + 2.0 / math.cosh(2.0 * math.pi ** 2 / dx))))
        tol = doc["residual_max"] + 1e-15 * abs(p0)
        assert lo - tol <= doc["min_eigenvalue"] <= doc["max_eigenvalue"] <= hi + tol

    @pytest.mark.parametrize("p, end, value", [
        ("1", -1, math.pi + 1e-9), ("1", 0, -1e-9),
        ("-2.5", 0, -2.5 * math.pi - 1e-9), ("-2.5", -1, 1e-9)])
    def test_spectrum_hankel_outside_the_band_exits_3(self, capsys, monkeypatch, p, end, value):
        solve = cli.hankel_spectrum

        def patched(kernel, grid):
            w = solve(kernel, grid).eigenvalues.copy()
            w[end] = value   # one end just past the band edge (dx = 1/16: eps_alias = 0)
            return SpectrumReport(w, np.full_like(w, 1e-16))

        monkeypatch.setattr(cli, "hankel_spectrum", patched)
        code, out, err = run_cli(capsys, "spectrum-hankel", "--p", p, "--L", "8", "--N", "256")
        assert code == 3 and out == ""
        assert "outside the constant-profile band" in err

    @pytest.mark.parametrize("p, L, n", [("1e-310", "8", "64"), ("-1e-310", "8", "64"),
                                         ("1e-320", "12", "1024")],
                             ids=["dense", "dense-negative", "rows"])
    def test_subnormal_constant_profile_lies_in_the_band(self, capsys, p, L, n):
        # entries below the normal range round absolutely, so eigenvalues of
        # a few subnormal units (-4.9e-324 dense, -1.5e-321 on the rows) sit
        # outside p0 [0, pi] by more than any relative slack; the band takes
        # N 2^-1074 for them
        code, out, err = run_cli(capsys, "spectrum-hankel", "--p", p, "--L", L, "--N", n)
        assert code == 0 and err == ""
        doc = json.loads(out)
        lo, hi = sorted((0.0, float(p) * math.pi * (1.0 + 1e-12)))
        tol = doc["residual_max"] + int(n) * 2.0 ** -1074
        assert lo - tol <= doc["min_eigenvalue"] <= doc["max_eigenvalue"] <= hi + tol

    @pytest.mark.parametrize("ends", [(-1e-9, 3.0), (0.0, math.pi + 1e-9)])
    def test_carleman_outside_the_band_exits_3(self, capsys, monkeypatch, ends):
        report = SpectrumReport(np.array(ends), np.full(2, 1e-16))
        monkeypatch.setattr(cli, "carleman_extremes", lambda grid: report)
        code, out, err = run_cli(capsys, "carleman", "--L", "8", "--N", "256")
        assert code == 3 and out == ""
        assert "outside the constant-profile band" in err


class TestDeterminismAndFormat:
    def test_bit_identical_output(self, capsys):
        _, out1, _ = run_cli(capsys, "spectrum-hankel", "--p", "1,1",
                             "--L", "6", "--N", "32")
        _, out2, _ = run_cli(capsys, "spectrum-hankel", "--p", "1,1",
                             "--L", "6", "--N", "32")
        assert out1 == out2

    def test_reals_serialized_17_digits(self, capsys):
        _, out, _ = run_cli(capsys, "pq", "--p", "1,2")
        # gamma-dependent value needs all 17 significant digits
        assert format(1.0 - 2.0 * np.euler_gamma, ".17g") in out

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "pq", "--p", "1", "--output", str(path))
        assert code == 0 and out == ""
        doc = json.loads(path.read_text())
        assert doc["q_coeffs"] == [1.0]

    def test_list_elements_of_every_kind(self):
        # np.float64 is a float subclass: it prints like a float, non-finite
        # values as "inf"/"nan" strings, in a mixed list and in an all-float one
        payload = {
            "mixed": [np.float64(0.1), 1.5, 2, True, None, 'a"b',
                      {"k": np.float64(-np.inf)}, np.float64(np.nan)],
            "floats": list(np.array([1.0 / 3.0, -2.5e-300, np.inf])),
            "empty": [],
        }
        assert cli._dumps(payload) == """{
  "mixed": [
    0.10000000000000001,
    1.5,
    2,
    true,
    null,
    "a\\"b",
    {
      "k": "-inf"
    },
    "nan"
  ],
  "floats": [
    0.33333333333333331,
    -2.5e-300,
    "inf"
  ],
  "empty": []
}"""


# stdout of `positivity --p=-1e308,1e308`: the verdict and every digit are
# those printed before the scan's overflow warnings were silenced
SCAN_OVERFLOW_DOC = """{
  "schema": "hankelscope/1",
  "command": "positivity",
  "input": {
    "p_coeffs": [
      -1e+308,
      1e+308
    ]
  },
  "q_coeffs": [
    -1.5772156649015329e+308,
    1e+308
  ],
  "positivity": {
    "verdict": false,
    "certificate": {
      "method": "degree-sign",
      "witness": 0,
      "witness_value": -1.5772156649015329e+308,
      "detail": "odd degree"
    }
  },
  "essential_spectrum": "R",
  "paper_refs": [
    "positivity-iff-symbol-nonnegative",
    "essential-spectrum-by-degree-parity"
  ]
}
"""


class TestValidation:
    def test_malformed_coefficients(self, capsys):
        code, _, err = run_cli(capsys, "pq", "--p", "1,abc")
        assert code == 2
        assert "--p" in err

    def test_non_power_of_two(self, capsys):
        for n in ("100", "1"):
            code, _, err = run_cli(capsys, "carleman", "--L", "8", "--N", n)
            assert code == 2
            assert "a power of two >= 2" in err

    def test_empty_coefficients(self, capsys):
        code, _, _ = run_cli(capsys, "positivity", "--p", ",")
        assert code == 2

    @pytest.mark.parametrize("text", ["1,,2", "1,2,", ",1", "1, ,2"])
    def test_empty_coefficient_token(self, capsys, text):
        # every comma-separated token is a coefficient; none is dropped
        code, out, err = run_cli(capsys, "pq", "--p", text)
        assert code == 2 and out == ""
        assert "malformed coefficient list for --p" in err

    @pytest.mark.parametrize("argv", [
        ("carleman", "--L", "1e6", "--N", "64"),
        ("spectrum-hankel", "--p", "1", "--L", "1e6", "--N", "64")])
    def test_under_resolved_log_grid(self, capsys, argv):
        # dx = 2L/N = 31250 used to give lambda_max = 15625, above ||H|| = pi
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "dx" in err

    @pytest.mark.parametrize("command", ["spectrum-hankel", "equiv-check"])
    def test_unmappable_profile_exits_before_assembly(self, capsys, monkeypatch, command):
        # degree 13 is beyond p_to_q's jet budget: the exit code and message
        # are those of pq, and no matrix, product or test function is built
        built = []

        def spy(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                built.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        spy(cli, "build_hankel_matrix")
        spy(discretization, "u_map")
        spy(discretization, "_hankel_product")
        p = ",".join(["1"] * 14)
        _, _, expected = run_cli(capsys, "pq", "--p", p)
        code, out, err = run_cli(capsys, command, "--p", p, "--L", "12", "--N", "2048")
        assert code == 2 and out == "" and err == expected
        assert "map order 13 > 12" in err
        assert built == []

    def test_non_finite_spectrum_is_a_convergence_failure(self, capsys):
        code, out, err = run_cli(capsys, "spectrum-a", "--q", "1e300,0,1",
                                 "--L", "8", "--N", "64")
        assert code == 3 and out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("argv, code", [
        (("spectrum-a", "--q", "1", "--L", "inf", "--N", "64"), 2),
        (("spectrum-a", "--q", "1", "--L", "nan", "--N", "64"), 2),
        (("carleman", "--L", "nan", "--N", "64"), 2),
        (("delta-eigs", "--h", "1", "--t0", "inf", "--N", "64", "--n-max", "2"), 2),
        (("delta-eigs", "--h", "0,0,1", "--t0", "1e-100", "--N", "64", "--n-max", "2"), 3),
        (("delta-eigs", "--h", "0,1", "--t0", "3e-308", "--N", "64", "--n-max", "2"), 3)])
    def test_non_finite_input_is_rejected(self, capsys, argv, code):
        # a tiny t0 drives the collocation residuals (K = 2) or the secular
        # eigenvalues 2 pi (n - 1/4) / t0 (K = 1) beyond double range
        rc, out, err = run_cli(capsys, *argv)
        assert rc == code and out == ""
        expected = "convergence failure: non-finite" if code == 3 else "finite and positive"
        assert expected in err

    def test_non_integer_seeds(self, capsys):
        code, out, err = run_cli(capsys, "equiv-check", "--p", "1", "--seeds", "a,b",
                                 "--N", "64", "--L", "4")
        assert code == 2 and out == ""
        assert "--seeds needs exactly two integers" in err

    @pytest.mark.parametrize("seeds", [("--seeds=-1,2",), ("--seeds", "-1,2"),
                                       ("--seeds", "3,-4")])
    def test_negative_seeds(self, capsys, seeds):
        # np.random.default_rng rejects a negative seed with a traceback
        code, out, err = run_cli(capsys, "equiv-check", "--p", "1", *seeds,
                                 "--N", "64", "--L", "4")
        assert code == 2 and out == ""
        assert "--seeds needs exactly two integers" in err and ">= 0" in err

    def test_unwritable_output(self, capsys, tmp_path):
        for target in (tmp_path / "missing" / "out.json", tmp_path):
            code, out, err = run_cli(capsys, "carleman", "--L", "4", "--N", "64",
                                     "--output", str(target))
            assert code == 2 and out == ""
            assert err.startswith("error: cannot write --output") and str(target) in err

    @pytest.mark.parametrize("h, t0, power", [("0,0,1", "1e-300", 2),
                                              ("0,0,0,1", "1e-100", 3)])
    def test_tiny_t0_overflow_is_a_validation_error(self, capsys, h, t0, power):
        # D^power overflows before any solve: D^2 at t0 = 1e-300, and the
        # third power of Welfert's recursion at t0 = 1e-100
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "delta-eigs", "--h", h, "--t0", t0,
                                     "--N", "64", "--n-max", "2")
        assert code == 2 and out == ""
        assert f"derivative power {power} overflows" in err and "Warning" not in err
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("command", ["spectrum-hankel", "equiv-check"])
    def test_profile_overflow_is_a_discretization_error(self, capsys, command):
        # P = 1e305 x^4 overflows at the window corner x = y = -30
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, "--p", "0,0,0,0,1e305",
                                     "--L", "30", "--N", "64")
        assert code == 2 and out == ""
        assert "non-finite kernel entry" in err and "Warning" not in err

    def test_product_overflow_is_a_discretization_error(self, capsys):
        # every entry of M is finite for P = 1e308, but M u is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "equiv-check", "--p", "1e308",
                                     "--L", "12", "--N", "64")
        assert code == 2 and out == ""
        assert "non-finite kernel entry" in err and "Warning" not in err

    def test_symbol_overflow_is_a_discretization_error(self, capsys):
        # Q(x) = 1e308 x^2 overflows on the x-grid of the A side
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "spectrum-a", "--q", "0,0,1e308",
                                     "--L", "8", "--N", "64")
        assert code == 2 and out == ""
        assert "non-finite symbol value" in err and "Warning" not in err

    @pytest.mark.parametrize("argv", [
        ("pq", "--p", "1e308,-1e308,1e308"),
        ("qp", "--q", "1e308,1e308,1e308"),
        ("positivity", "--p", "-1e308,0,1e308")])
    def test_coefficient_map_overflow_is_a_domain_error(self, capsys, argv):
        # finite input whose image under the triangular map exceeds DBL_MAX
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "coefficient map overflows double precision" in err and "Warning" not in err

    def test_scan_overflow_finds_a_finite_witness(self, capsys):
        # Q = 3.1e307 + 1.2e308 x - 1e308 x^2: every doubling sample and
        # root-based candidate overflows, Q(1.5) ~ -2.2e307 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "positivity", "--p=-1e308,-1,-1e308")
        assert code == 0 and err == ""
        cert = json.loads(out)["positivity"]
        assert cert["verdict"] is False
        assert -math.inf < cert["certificate"]["witness_value"] < 0.0

    def test_scan_overflow_prints_no_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "positivity", "--p=-1e308,1e308")
        assert code == 0 and err == ""
        assert out == SCAN_OVERFLOW_DOC

    @pytest.mark.parametrize("exc", [
        MemoryError("Unable to allocate 8.00 TiB for an array with shape (1048576, 1048576) "
                    "and data type float64"),
        MemoryError()], ids=["numpy", "bare"])
    def test_allocation_failure_is_a_validation_error(self, capsys, monkeypatch, exc):
        # an N x N array at N = 2^20 is 8 TiB; the solver raises instead of
        # allocating anything here
        def solve(kernel, grid):
            raise exc
        monkeypatch.setattr(cli, "hankel_spectrum", solve)
        code, out, err = run_cli(capsys, "spectrum-hankel", "--p", "1,0.5",
                                 "--L", "400000", "--N", "1048576")
        assert code == 2 and out == ""
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert str(exc) in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (("--h", "1e308,1e308,1e308", "--t0", "1", "--N", "16"), "non-finite collocation entry"),
        (("--h", "5e-324,5e-324,5e-324", "--t0", "1e10", "--N", "16"),
         "every collocation eigenvalue is zero")],
        ids=["overflow", "underflow"])
    def test_delta_weights_beyond_double_range(self, capsys, argv, message):
        # h_k D^k overflows, or underflows so that no eigenvalue is nonzero
        # (which used to end in a ValueError traceback)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "delta-eigs", *argv, "--n-max", "1",
                                     "--format", "json")
        assert code == 2 and out == ""
        assert message in err and "Warning" not in err

    @pytest.mark.parametrize("argv, code, message", [
        (("--h", "1e308,1e308", "--t0", "1", "--N", "12"), 3,
         "convergence failure: non-finite eigenvalue"),
        (("--h", "5e-324,5e-324", "--t0", "1e300", "--N", "14"), 2,
         "error: an eigenvalue of h = (4.94066e-324, 4.94066e-324) at t0 = 1e+300 "
         "underflows double precision")],
        ids=["overflow", "underflow"])
    def test_first_order_weights_beyond_double_range(self, capsys, argv, code, message):
        # c = h1 / (h0 t0) = 1: the first mode is -h0 = -1e308, the next one
        # about 4.6e308; c = 1e-300: the sinh mode's -h0 / cosh(1e300) is
        # below every subnormal, so its sign is lost
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(capsys, "delta-eigs", *argv, "--n-max", "1",
                                   "--format", "json")
        assert rc == code and out == ""
        assert err.startswith(message) and "Warning" not in err

    def test_first_pair_beyond_double_range_exits_3(self, capsys):
        # the spectrum of (5e-324, 5e-324) at t0 = 3e-308 is about 1e-15,
        # but the JSON document's Weyl pair 2 pi |h1| / t0 overflows in
        # 2 pi / t0; the CSV list carries the spectrum only
        argv = ("delta-eigs", "--h", "5e-324,5e-324", "--t0", "3e-308", "--N", "12",
                "--n-max", "2")
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 3 and out == ""
        assert err.startswith("convergence failure: non-finite first pair")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and len(out.splitlines()) == 5

    def test_first_order_tiny_t0_answers_in_closed_form(self, capsys):
        # delta' at t0 = 1e-300: 2 pi (n - 1/4) / t0 and -2 pi (n - 3/4) / t0
        # are finite, and the secular route forms no derivative matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "delta-eigs", "--h", "0,1", "--t0", "1e-300",
                                     "--N", "64", "--n-max", "2", "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        want = sorted(v for n in (1, 2) for v in exact_delta_prime_eigs(1e-300, n))
        np.testing.assert_allclose(doc["eigenvalues"], want, rtol=1e-15, atol=0)
        assert 0.0 < doc["residual_max"] <= 1e-13 * max(abs(v) for v in want)

    def test_delta_trust_region(self, capsys):
        code, _, _ = run_cli(capsys, "delta-eigs", "--h", "0,1", "--N", "64",
                             "--n-max", "50")
        assert code == 2

    def test_format_only_for_delta_eigs(self, capsys):
        # only delta-eigs has a CSV form; elsewhere --format is an unknown flag
        with pytest.raises(SystemExit) as exc:
            main(["pq", "--p", "1", "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


class TestParserReuse:
    """main parses with one parser built at import; no call may leave state
    in it that a later call sees."""

    @staticmethod
    def _outcome(capsys, argv, output=None):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out = capsys.readouterr()
        written = output.read_text() if output is not None and output.exists() else None
        return code, out.out, out.err, written

    def test_sequence_matches_a_fresh_parser(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "eigs.json"
        delta = ["delta-eigs", "--h", "0.5,0,1", "--t0", "1.5", "--N", "64", "--n-max", "8"]
        equiv = ["equiv-check", "--p", "1,0.5", "--L", "12", "--N", "64"]
        sequence = [
            delta + ["--format", "json", "--output", str(target)],
            delta,                      # CSV to stdout, no --output
            equiv + ["--seeds", "3,4"],
            equiv,                      # the default seeds 11,12
            ["pq", "--p", "1", "--format", "csv"],   # argparse error, exit 2
            ["pq", "--p", "1,2"],
        ]
        cached = []
        for argv in sequence:
            cached.append(self._outcome(capsys, argv, target))
            target.unlink(missing_ok=True)
        assert [c[0] for c in cached] == [0, 0, 0, 0, ("SystemExit", 2), 0]
        assert cached[0][1] == "" and cached[0][3].startswith("{")
        assert cached[1][1].startswith("eigenvalue,residual\n")
        assert json.loads(cached[2][1])["input"]["seeds"] == [3, 4]
        assert json.loads(cached[3][1])["input"]["seeds"] == [11, 12]
        for argv, outcome in zip(sequence, cached):
            monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
            assert self._outcome(capsys, argv, target) == outcome, argv
            target.unlink(missing_ok=True)


# extreme coefficient entries for the symbol commands; half the lists are
# finite, so most draws get past input validation
FINITE_EXTREMES = ("1e308", "-1e308", "5e-324", "-5e-324", "0", "1e-12", "-1e-12",
                   repr(math.pi ** 2 / 6.0))
EXTREMES = FINITE_EXTREMES + ("nan", "inf", "-inf")
QUOTED_NON_FINITE = re.compile(r'"-?(nan|inf)"')


def _assert_clean_exit(argv):
    """Warnings are errors; exit 0 prints no quoted non-finite value and
    nothing on stderr, exit 2 or 3 prints one message and no output.
    Returns the exit code and the message."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        assert not QUOTED_NON_FINITE.search(out.getvalue())
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == "" and err.getvalue().startswith(("error: ", "convergence"))
    return code, err.getvalue()


@given(st.sampled_from(("pq", "qp", "positivity")),
       st.one_of(st.lists(st.sampled_from(FINITE_EXTREMES), min_size=1, max_size=14),
                 st.lists(st.sampled_from(EXTREMES), min_size=1, max_size=14)))
@settings(max_examples=200, deadline=None)
def test_symbol_commands_on_extreme_coefficients(command, coeffs):
    flag = "--q" if command == "qp" else "--p"
    _assert_clean_exit([command, f"{flag}={','.join(coeffs)}"])


@given(st.sampled_from(("spectrum-a", "equiv-check", "spectrum-hankel")),
       st.one_of(st.lists(st.sampled_from(FINITE_EXTREMES), min_size=1, max_size=14),
                 st.lists(st.sampled_from(EXTREMES), min_size=1, max_size=14)),
       st.floats(0.25, 60.0), st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_grid_commands_on_extreme_coefficients(command, coeffs, L, k):
    # N up to 256: spectrum-hankel takes its row-block route there for
    # L below about 8.5, the dense route otherwise
    flag = "--q" if command == "spectrum-a" else "--p"
    _assert_clean_exit([command, f"{flag}={','.join(coeffs)}", "--L", repr(L), "--N", str(2 ** k)])


@pytest.mark.parametrize("L, n, message", [
    ("700", "2048", "non-finite sample at node x=-2100"),
    ("1e-300", "64", "both quadratic forms are exactly 0"),
    ("1e-3", "64", "both quadratic forms are exactly 0")])
def test_equiv_check_on_extreme_windows(L, n, message):
    # beyond the fuzzed windows: e^x overflows on the 3L grid at L = 700;
    # the test functions' window, L/8 wide, underflows at every node at
    # L = 1e-300 and 1e-3, so lhs = rhs = 0 and the check would compare
    # nothing. Each exits 2 without a numpy warning
    code, err = _assert_clean_exit(["equiv-check", "--p", "1", "--L", L, "--N", n])
    assert code == 2 and message in err


@pytest.mark.parametrize("L", ["237", "700"])
def test_equiv_check_names_the_right_side_grid(L):
    # the failing node lies on the 3L grid of the right side, which the user
    # never chose: the message names that grid and the window limit
    code, err = _assert_clean_exit(["equiv-check", "--p", "1", "--L", L, "--N", "2048"])
    assert code == 2 and err.startswith("error: non-finite sample at node x=")
    assert "on the right side's [-3L, 3L] grid" in err
    assert "ln(DBL_MAX) = 709.78; L <= 236.59 keeps every node in range" in err


@pytest.mark.parametrize("argv", [
    ["spectrum-hankel", "--p", "1e308", "--L", "8", "--N", "64"],
    ["spectrum-hankel", "--p", "1e308", "--L", "8", "--N", "512"],
    ["delta-eigs", "--h", "1e300,0,1e300", "--t0", "1", "--N", "64", "--n-max", "8"]],
    ids=["hankel-dense", "hankel-rows", "delta"])
def test_non_finite_report_exits_3(argv):
    # spectrum-hankel solves 2^-e M, whose report is finite, and overflows
    # only when it is scaled back by 2^e; delta-eigs overflows in the
    # residuals of its trusted modes
    code, err = _assert_clean_exit(argv)
    assert code == 3
    assert err == ("convergence failure: non-finite eigenvalue or residual: the matrix "
                   "entries are too large for double precision\n")


def test_equiv_check_on_an_unresolved_window_exits_3():
    # the seeded test functions' window, L/8 wide, is not resolved at
    # L = 1, N = 64: the gap is the adequacy verdict, not a fault
    code, err = _assert_clean_exit(["equiv-check", "--p", "1", "--L", "1", "--N", "64"])
    assert code == 3
    assert err == ("convergence failure: identity gap 1.993e-01 above the adequacy "
                   "threshold 1e-3\n")


@pytest.mark.parametrize("L", ["236", "236.59"])
def test_equiv_check_answers_below_the_window_limit(L):
    # 3L <= 709.77 < ln(DBL_MAX): every sample of the 3L grid is finite
    code, _ = _assert_clean_exit(["equiv-check", "--p", "1", "--L", L, "--N", "2048"])
    assert code == 0


@given(st.one_of(st.lists(st.sampled_from(FINITE_EXTREMES), min_size=1, max_size=5),
                 st.lists(st.sampled_from(EXTREMES), min_size=1, max_size=5)),
       st.sampled_from(("1", "0.5", "2.5", "1e-300", "1e300", "5e-324", "0", "-1", "nan")),
       st.integers(1, 64), st.integers(0, 20), st.sampled_from(("json", "csv")))
@settings(max_examples=200, deadline=None)
def test_delta_eigs_on_extreme_coefficients(coeffs, t0, n, n_max, fmt):
    _assert_clean_exit(["delta-eigs", f"--h={','.join(coeffs)}", "--t0", t0, "--N", str(n),
                        "--n-max", str(n_max), "--format", fmt])


@given(st.floats(0.25, 60.0), st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_carleman_on_small_grids(L, k):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["carleman", "--L", repr(L), "--N", str(2 ** k)])
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        doc = json.loads(out.getvalue())
        assert doc["min_eigenvalue"] >= -1e-12 * math.pi
        assert doc["max_eigenvalue"] < math.pi
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == "" and err.getvalue().startswith(("error: ", "convergence"))
