"""Reference checks for one job's output.

`check(job, rc, stdout)` returns the failed checks as (check id, message)
pairs; an empty list means the output is right. Every tolerance is one of
the repository's pinned test tolerances or looser, and each comes from a
mathematical fact about the answer, never from an earlier run's output.
"""

from __future__ import annotations

import json
import math

import numpy as np

import refmath

SCHEMA = "hankelscope/1"
RESIDUAL_TOL = 1e-10        # residual per eigenpair, relative to max |lambda|
NONNEG_TOL = 1e-6           # a nonnegative symbol's finite section: min >= -tol max
IDENTITY_GAP_LOW = 1e-6     # criterion 4, degree <= 3
IDENTITY_GAP_ADEQUATE = 1e-3  # the CLI's own adequacy threshold above degree 3
TWO_POINT_TOL = 1e-12       # criterion 8
CLOSED_FORM_TOL = 1e-8      # criterion 6, for h1 / t0 = 1
CROSS_RES_TOL = 1e-6        # criterion 7's cross-resolution agreement


def check(job, rc: int, out: str) -> list[tuple[str, str]]:
    if rc != 0:
        return [("exit", f"exit code {rc}")]
    try:
        if job.command == "delta-eigs" and job.ref["fmt"] == "csv":
            doc = _parse_csv(out)
        else:
            doc = json.loads(out)
            if doc.get("schema") != SCHEMA or doc.get("command") != job.command:
                return [("schema", f"schema/command {doc.get('schema')}/{doc.get('command')}")]
    except (ValueError, IndexError) as exc:
        return [("parse", f"unparseable output: {exc}")]
    return _CHECKERS[job.command](job.ref, doc)


def _parse_csv(out: str) -> dict:
    lines = out.strip().splitlines()
    if lines[0] != "eigenvalue,residual":
        raise ValueError(f"bad CSV header {lines[0]!r}")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {"eigenvalues": rows[:, 0].tolist(), "residuals": rows[:, 1].tolist()}


def _fail(check_id: str, message: str) -> list[tuple[str, str]]:
    return [(check_id, message)]


def _coeffs(name: str, got, want: np.ndarray, bound: np.ndarray):
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return _fail(name, f"{got.size} coefficients, expected {want.size}")
    excess = np.abs(got - want) / bound
    k = int(np.argmax(excess))
    if not excess[k] <= 1.0:
        return _fail(name, f"{name}[{k}] off by {abs(got[k] - want[k]):.3g} "
                           f"> bound {bound[k]:.3g}")
    return []


def _check_pq(ref, doc):
    return _coeffs("q_coeffs", doc.get("q_coeffs"), ref["out"], ref["bound"])


def _check_qp(ref, doc):
    return _coeffs("p_coeffs", doc.get("p_coeffs"), ref["out"], ref["bound"])


def _verdicts(ref, doc):
    fails = []
    verdict = doc["positivity"]["verdict"]
    if verdict is not ref["verdict"]:
        fails += _fail("verdict", f"positivity verdict {verdict}, construction says {ref['verdict']}")
    if doc["essential_spectrum"] != ref["ess"]:
        fails += _fail("essential-spectrum",
                       f"essential spectrum {doc['essential_spectrum']!r}, "
                       f"degree-parity rule says {ref['ess']!r}")
    return fails + _coeffs("q_coeffs", doc.get("q_coeffs"), ref["q"], ref["bound"])


def _check_positivity(ref, doc):
    fails = _verdicts(ref, doc)
    cert = doc["positivity"]["certificate"]
    x = cert.get("witness")
    if not ref["verdict"] and x is not None:
        # the witness must be a point where the exact symbol is negative, up
        # to the float evaluation error the coefficient bound allows
        slack = float(np.sum(ref["bound"] * abs(x) ** np.arange(ref["bound"].size)))
        value = refmath.q_eval(ref["p"], x)
        if not value < slack:
            fails += _fail("witness", f"Q({x:.6g}) = {value:.3g} is not negative")
    return fails


def _check_spectrum(ref, doc):
    lam = np.asarray(doc.get("eigenvalues", []), dtype=float)
    N = ref["N"]
    if lam.size != N or not np.all(np.isfinite(lam)) or np.any(np.diff(lam) < 0.0):
        return _fail("eigenvalues", f"expected {N} finite ascending eigenvalues")
    fails = []
    scale = float(np.max(np.abs(lam)))
    if doc["grid"] != {"L": ref["L"], "N": N}:
        fails += _fail("grid", f"grid echo {doc['grid']}")
    if not doc["residual_max"] <= RESIDUAL_TOL * scale:
        fails += _fail("residual", f"residual {doc['residual_max']:.3g} > "
                                   f"{RESIDUAL_TOL:g} max|lambda|")
    # an eigenvalue is within its residual of the matrix's, so the sums of
    # lambda and lambda^2 match the trace and ||M||_F^2 within N residuals
    budget = N * RESIDUAL_TOL * scale
    if not abs(lam.sum() - ref["trace"]) <= budget:
        fails += _fail("trace", f"sum of eigenvalues {lam.sum():.12g} vs trace {ref['trace']:.12g}")
    if not abs(np.dot(lam, lam) - ref["fro2"]) <= 2.0 * scale * budget:
        fails += _fail("frobenius", f"sum of squares {np.dot(lam, lam):.12g} "
                                    f"vs ||M||_F^2 {ref['fro2']:.12g}")
    if ref["kind"] == "nonneg" and not lam[0] >= -NONNEG_TOL * scale:
        fails += _fail("sign", f"nonnegative symbol but min eigenvalue {lam[0]:.3g}")
    if ref["kind"] == "odd" and not (lam[0] < -NONNEG_TOL * scale < NONNEG_TOL * scale < lam[-1]):
        fails += _fail("sign", f"odd symbol but spectrum [{lam[0]:.3g}, {lam[-1]:.3g}] "
                               f"does not take both signs")
    return fails


def _check_spectrum_hankel(ref, doc):
    fails = _check_spectrum(ref, doc)
    if fails and fails[0][0] == "eigenvalues":
        return fails
    lam = doc["eigenvalues"]
    if doc["min_eigenvalue"] != lam[0] or doc["max_eigenvalue"] != lam[-1]:
        fails += _fail("extremes", "min/max_eigenvalue differ from the spectrum's ends")
    return fails + _verdicts(ref, doc)


def _check_carleman(ref, doc):
    lam_max, lam_min = doc["max_eigenvalue"], doc["min_eigenvalue"]
    # window-curvature model of the finite section's gap below pi; the
    # observed gap is 0.49-0.87 of it for L = 6-30
    model = (math.pi ** 3 / 2.0) * (math.pi / (2.0 * ref["L"])) ** 2
    fails = []
    if not 0.0 < math.pi - lam_max <= model:
        fails += _fail("carleman-gap", f"pi - lambda_max = {math.pi - lam_max:.6g} "
                                       f"outside (0, {model:.6g}]")
    if not lam_min >= -1e-12 * math.pi:
        fails += _fail("carleman-min", f"min eigenvalue {lam_min:.3g} of a positive kernel")
    if doc["gap"] != abs(lam_max - math.pi):
        fails += _fail("carleman-gap", f"reported gap {doc['gap']!r} is not |lambda_max - pi|")
    if not doc["residual_max"] <= RESIDUAL_TOL * math.pi:
        fails += _fail("residual", f"residual {doc['residual_max']:.3g}")
    if doc["grid"] != {"L": ref["L"], "N": ref["N"]}:
        fails += _fail("grid", f"grid echo {doc['grid']}")
    return fails


def _check_equiv(ref, doc):
    lhs = complex(doc["lhs"]["re"], doc["lhs"]["im"])
    rhs = complex(doc["rhs"]["re"], doc["rhs"]["im"])
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    tol = IDENTITY_GAP_LOW if ref["degree"] <= 3 else IDENTITY_GAP_ADEQUATE
    fails = []
    if not abs(gap - doc["relative_gap"]) <= 1e-6 * gap + 1e-15:
        fails += _fail("identity-gap", f"reported gap {doc['relative_gap']:.3g}, "
                                       f"lhs/rhs give {gap:.3g}")
    if not gap <= tol:
        fails += _fail("identity-gap", f"gap {gap:.3g} > {tol:g} at degree {ref['degree']}")
    return fails


def _first_of_each_sign(values: np.ndarray, n: int) -> np.ndarray | None:
    neg = np.sort(values[values < 0.0])[::-1][:n]
    pos = np.sort(values[values > 0.0])[:n]
    return np.sort(np.concatenate([neg, pos])) if neg.size == n == pos.size else None


def _check_delta(ref, doc):
    lam = np.sort(np.asarray(doc.get("eigenvalues", []), dtype=float))
    n = ref["n_max"]
    if (lam.size != 2 * n or _first_of_each_sign(lam, n) is None
            or not np.all(np.isfinite(lam))):
        return _fail("eigenvalues", f"expected {n} finite eigenvalues of each sign")
    fails = []
    residuals = doc.get("residuals", [doc.get("residual_max")])
    if not all(r is not None and 0.0 <= r < math.inf for r in residuals):
        fails += _fail("residual", "residuals must be finite and nonnegative")

    route, h, t0 = ref["route"], ref["h"], ref["t0"]
    if route == "two-point":
        dev = float(np.max(np.abs(np.abs(lam) - abs(h[0]))))
        if not dev <= TWO_POINT_TOL * max(1.0, abs(h[0])):
            fails += _fail(route, f"|lambda| deviates from |h0| by {dev:.3g}")
    elif route == "closed-form":
        err = float(np.max(np.abs(lam - ref["exact"])))
        if not err <= CLOSED_FORM_TOL * max(1.0, abs(h[1]) / t0):
            worst = int(np.argmax(np.abs(lam - ref["exact"])))
            fails += _fail(route, f"eigenvalue {lam[worst]:.10g} vs closed form "
                                  f"{ref['exact'][worst]:.10g}")
    else:
        want = _first_of_each_sign(ref["exact"], n)
        err = float(np.max(np.abs(lam - want)) / np.max(np.abs(want)))
        if not err <= CROSS_RES_TOL:
            worst = int(np.argmax(np.abs(lam - want)))
            fails += _fail(route, f"eigenvalue {lam[worst]:.10g} vs {want[worst]:.10g} "
                                  f"at the finer resolution (relative {err:.3g})")
    if ref["fmt"] == "json":
        fails += _delta_json_fields(ref, doc, lam)
    return fails


def _delta_json_fields(ref, doc, lam):
    fails = []
    plus, minus = np.asarray(doc["lambda_plus"]), np.asarray(doc["lambda_minus"])
    if not (np.array_equal(plus, lam[lam > 0.0])
            and np.array_equal(minus, lam[lam < 0.0][::-1])):
        fails += _fail("branches", "lambda_plus/lambda_minus disagree with eigenvalues")
    h, t0, K = ref["h"], ref["t0"], ref["K"]
    if K >= 1:
        growth = abs(h[-1]) * (2.0 * math.pi / t0) ** K
        if not np.allclose(doc["weyl_first_pair"], [growth, -growth], rtol=1e-12, atol=0.0):
            fails += _fail("weyl_first_pair", f"{doc['weyl_first_pair']} vs +-{growth:.10g}")
    if ref["route"] == "closed-form":
        first = _first_of_each_sign(refmath.delta_prime_exact(h[1], t0, 1), 1)[::-1]
        if not np.allclose(doc.get("exact_first_pair"), first, rtol=1e-12, atol=0.0):
            fails += _fail("exact_first_pair",
                           f"{doc.get('exact_first_pair')} vs closed form {first.tolist()} "
                           f"for h1 = {h[1]:.6g}")
    return fails


_CHECKERS = {
    "pq": _check_pq, "qp": _check_qp, "positivity": _check_positivity,
    "spectrum-hankel": _check_spectrum_hankel, "spectrum-a": _check_spectrum,
    "carleman": _check_carleman, "equiv-check": _check_equiv,
    "delta-eigs": _check_delta,
}
