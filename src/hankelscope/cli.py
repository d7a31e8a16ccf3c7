"""Command-line surface: coefficient maps, positivity verdicts, spectra of
both operator classes, and the unitary-equivalence check.

JSON is the machine interface (run heads every document with "schema":
"hankelscope/1" and "command"; reals carry 17 significant digits); CSV is
emitted only by delta-eigs (--format csv, its default) as an
eigenvalue,residual list. Identical configurations produce bit-identical
output (fixed seeds, fixed solver order) at a fixed BLAS thread count;
between 1 and 2 threads spectrum-hankel, carleman and delta-eigs differ in
the last bits. Exit codes: 0 success, 2 validation error (including a log
grid with dx = 2L/N > 1, too coarse for the Nystrom kernel, an L or t0
that is not finite and positive, a t0 so small that the collocation
derivative powers overflow, a coefficient list with an empty entry,
--seeds that are not two integers >= 0, a kernel entry, symbol value,
delta collocation entry or equiv-check form beyond double precision, delta
weights that underflow to a zero spectrum, equiv-check forms that are both
exactly 0, an unwritable --output, and an allocation that fails for lack
of memory), 3 numerical-convergence failure (including a non-finite
eigenvalue, residual or Frobenius norm, and a spectrum-hankel or carleman
eigenvalue of a constant profile P = p0 outside the Toeplitz band p0 [0,
pi (1 + eps_alias)] by more than its residual).

carleman computes only the two ends of its spectrum, by one dense solve of
the reciprocal kernel's Nystrom matrix on min(N, 6.2 L + 32) Gauss-Legendre
nodes: its residual_max covers those two eigenpairs, and min_eigenvalue is
the bottom of a cluster at rounding level. No command imports SciPy.

spectrum-hankel and spectrum-a report every eigenvalue, and the ones below
1e-13 of the matrix's Frobenius norm (a rounding-level cluster) come out as
exact zeros whose residual bounds them; the others agree with a dense solve
to rounding. spectrum-hankel forms no N x N matrix unless N < 2 (6.2 L +
32), spectrum-a and equiv-check none at all (see discretization).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .coeff_map import QuasiCarlemanKernel, p_to_q, q_to_p
from .delta_spectra import (DeltaKernel, branches, delta_spectrum, exact_delta_prime_eigs,
                            weyl_prediction)
# build_a_matrix, build_hankel_matrix and eigen_sym, which no command calls,
# stay in the package's public surface, which mirrors these imports
from .discretization import (ADEQUACY_GAP, FactoryTestFunction, a_spectrum, build_a_matrix,
                             build_hankel_matrix, carleman_extremes, eigen_sym,
                             essential_spectrum, form_identity_check, hankel_spectrum,
                             spectral_rules)
from .errors import ConvergenceError, HankelscopeError
from .polynomials import RealPolynomial, is_nonnegative_on_reals
from .transforms import LogGrid

SCHEMA = "hankelscope/1"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3


def _format_real(x: float) -> str:
    x = float(x)   # repr(np.float64("nan")) is "np.float64(nan)", not "nan"
    if math.isnan(x) or math.isinf(x):
        return '"%s"' % repr(x)
    return format(x, ".17g")


def _dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON with all reals at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f'{inner}"{k}": {_dumps(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        if len(obj) == 0:
            return "[]"
        items = ",\n".join(inner + (_format_real(v) if isinstance(v, float)
                                     else _dumps(v, indent + 1)) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_real(float(obj))
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _serialize(command: str, result) -> str:
    """JSON for a payload dict, under the schema header; an
    eigenvalue,residual CSV for a row list."""
    if isinstance(result, dict):
        return _dumps({"schema": SCHEMA, "command": command, **result}) + "\n"
    lines = ["eigenvalue,residual"] + [f"{_format_real(lam)},{_format_real(res)}"
                                       for lam, res in result]
    return "\n".join(lines) + "\n"


def _write(text: str, args: argparse.Namespace) -> None:
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise HankelscopeError(f"cannot write --output {args.output!r}: "
                               f"{exc.strerror or exc}") from None


def _parse_reals(text: str, flag: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise HankelscopeError(f"malformed coefficient list for {flag}: {text!r}")
    if not vals or not all(math.isfinite(v) for v in vals):
        raise HankelscopeError(f"coefficients for {flag} must be finite reals")
    return vals


def _require_pow2(n: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise HankelscopeError(f"--N must be a power of two >= 2 for FFT-based commands, got {n}")


def _spectrum_payload(report, args: argparse.Namespace) -> dict:
    return {
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "residual_max": float(np.max(report.residuals)),
        "grid": {"L": args.L, "N": args.N},
    }


def _require_in_band(report, p0: float, grid: LogGrid) -> None:
    """Constant P = p0: the Nystrom matrix is p0 times the Toeplitz section of
    the symbol sum_k pi / cosh(pi (theta + 2 pi k) / dx), which is positive
    and at most pi (1 + eps_alias), eps_alias = 2 sum_{k>=1} 1/cosh(2 pi^2 k
    / dx). Every eigenvalue must lie in p0 [0, pi (1 + eps_alias)] up to its
    residual, the rounding of the entries (4 eps of a row sum) and N 2^-1074
    for underflow: below the normal range a product errs by up to half the
    smallest subnormal 2^-1074 absolutely, not relatively (sums of
    subnormals are exact), so an eigenvalue, an inner product of N such
    products with unit vectors, may move by N 2^-1074 more; one outside
    raises ConvergenceError.

    carleman's Gauss-Legendre S K S (p0 = 1) meets the band for other
    reasons: it is a Gram matrix of k(d) = 1 / (2 cosh(d/2)), whose Fourier
    transform pi / cosh(pi xi) is positive, so its bottom is 0 up to
    rounding; its top stays 1e-5 below pi (measured) for N <= 2048 and
    dx <= 1, and at N = 4096 exceeds it from about dx = 0.95 on, where so
    few nodes under-resolve so wide a window."""
    a = 2.0 * math.pi ** 2 / grid.dx   # dx <= 1 here: terms beyond k = 3 are below 1e-25
    eps_alias = 2.0 * sum(2.0 * math.exp(-a * k) / (1.0 + math.exp(-2.0 * a * k))
                          for k in (1, 2, 3))
    top = p0 * math.pi * (1.0 + eps_alias)
    lo, hi = min(0.0, top), max(0.0, top)
    slack = report.residuals + 4.0 * np.finfo(float).eps * abs(top) + grid.N * 2.0 ** -1074
    outside = (report.eigenvalues < lo - slack) | (report.eigenvalues > hi + slack)
    if np.any(outside):
        lam = float(report.eigenvalues[np.argmax(outside)])
        raise ConvergenceError(f"eigenvalue {lam:.17g} outside the constant-profile band "
                               f"[{lo:.17g}, {hi:.17g}]")


def _certificate(cert) -> dict:
    return {"method": cert.method, "witness": cert.witness,
            "witness_value": cert.witness_value}


def _cmd_pq(args: argparse.Namespace) -> dict:
    p = RealPolynomial(np.array(args.coefficients))
    q = p_to_q(p)
    return {
        "input": {"p_coeffs": list(p.coeffs)},
        "q_coeffs": list(q.coeffs),
        "paper_refs": ["coefficient-map-triangular"],
    }


def _cmd_qp(args: argparse.Namespace) -> dict:
    q = RealPolynomial(np.array(args.coefficients))
    p = q_to_p(q)
    return {
        "input": {"q_coeffs": list(q.coeffs)},
        "p_coeffs": list(p.coeffs),
        "paper_refs": ["coefficient-map-inverse-laplace"],
    }


def _cmd_positivity(args: argparse.Namespace) -> dict:
    p = RealPolynomial(np.array(args.coefficients))
    q = p_to_q(p)
    cert = is_nonnegative_on_reals(q)
    return {
        "input": {"p_coeffs": list(p.coeffs)},
        "q_coeffs": list(q.coeffs),
        "positivity": {
            "verdict": cert.nonnegative,
            "certificate": {**_certificate(cert), "detail": cert.detail},
        },
        "essential_spectrum": essential_spectrum(p),
        "paper_refs": ["positivity-iff-symbol-nonnegative",
                       "essential-spectrum-by-degree-parity"],
    }


def _cmd_spectrum_hankel(args: argparse.Namespace) -> dict:
    _require_pow2(args.N)
    p = RealPolynomial(np.array(args.coefficients))
    grid = LogGrid(L=args.L, N=args.N)
    kernel = QuasiCarlemanKernel(p)
    q = p_to_q(p)   # before the assembly: an unmappable P exits 2 at once
    report = hankel_spectrum(kernel, grid)
    if p.degree == 0:
        _require_in_band(report, p.leading, grid)
    rules = spectral_rules(p, q, report.eigenvalues)
    cert = rules["certificate"]
    return {
        "input": {"p_coeffs": list(p.coeffs)},
        "q_coeffs": list(q.coeffs),
        **_spectrum_payload(report, args),
        "positivity": {"verdict": None} if cert is None else
                      {"verdict": cert.nonnegative, "certificate": _certificate(cert)},
        "essential_spectrum": rules["essential_spectrum"],
        "min_eigenvalue": rules["min_eigenvalue"],
        "max_eigenvalue": rules["max_eigenvalue"],
        "negative_count": rules["negative_count"],
        "paper_refs": ["nystrom-log-variable-model",
                       "essential-spectrum-by-degree-parity",
                       "positivity-iff-symbol-nonnegative"],
    }


def _cmd_spectrum_a(args: argparse.Namespace) -> dict:
    _require_pow2(args.N)
    q = RealPolynomial(np.array(args.coefficients))
    grid = LogGrid(L=args.L, N=args.N)
    report = a_spectrum(q, grid)
    return {
        "input": {"q_coeffs": list(q.coeffs)},
        **_spectrum_payload(report, args),
        "paper_refs": ["weighted-differential-model"],
    }


def _cmd_equiv_check(args: argparse.Namespace) -> dict:
    _require_pow2(args.N)
    p = RealPolynomial(np.array(args.coefficients))
    grid = LogGrid(L=args.L, N=args.N)
    f1 = FactoryTestFunction(args.seeds[0], grid)
    f2 = FactoryTestFunction(args.seeds[1], grid)
    chk = form_identity_check(p, f1, f2, grid)
    if chk.lhs == 0.0 and chk.rhs == 0.0:
        raise HankelscopeError("both quadratic forms are exactly 0 (the seeded test functions "
                               "underflow on this grid), so the check compares nothing")
    if chk.violation:
        threshold = np.format_float_scientific(ADEQUACY_GAP, trim="-", exp_digits=1)
        raise ConvergenceError(
            f"identity gap {chk.relative_gap:.3e} above the adequacy threshold {threshold}")
    return {
        "input": {"p_coeffs": list(p.coeffs), "seeds": list(args.seeds)},
        "lhs": {"re": chk.lhs.real, "im": chk.lhs.imag},
        "rhs": {"re": chk.rhs.real, "im": chk.rhs.imag},
        "relative_gap": chk.relative_gap,
        "grid": {"L": args.L, "N": args.N},
        "paper_refs": ["quadratic-form-unitary-equivalence"],
    }


def _cmd_delta_eigs(args: argparse.Namespace) -> dict | list:
    kernel = DeltaKernel(np.array(args.coefficients), args.t0)
    report = delta_spectrum(kernel, args.N, args.n_max)
    if args.fmt == "csv":
        return list(zip(report.eigenvalues, report.residuals))
    lam_plus, lam_minus = branches(report.eigenvalues)
    payload = {
        "input": {"h_coeffs": list(kernel.h_coeffs), "t0": kernel.t0},
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "residual_max": float(np.max(report.residuals)),
        "lambda_plus": [float(v) for v in lam_plus],
        "lambda_minus": [float(v) for v in lam_minus],
        "grid": {"t0": kernel.t0, "N": args.N},
        "paper_refs": ["reflection-operator-spectrum",
                       "weyl-eigenvalue-asymptotics"],
    }
    if kernel.order == 1 and kernel.h_coeffs[0] == 0.0:
        # h1 delta' scales the unit pair; h1 < 0 swaps the signs of the branches
        h1 = kernel.h_coeffs[1]
        pair = [h1 * lam for lam in exact_delta_prime_eigs(kernel.t0, 1)]
        payload["exact_first_pair"] = pair if h1 > 0.0 else pair[::-1]
    if kernel.order >= 1:
        payload["weyl_first_pair"] = list(weyl_prediction(kernel, 1))
    return payload


def _cmd_carleman(args: argparse.Namespace) -> dict:
    _require_pow2(args.N)
    grid = LogGrid(L=args.L, N=args.N)
    report = carleman_extremes(grid)
    _require_in_band(report, 1.0, grid)
    lam_max = float(report.eigenvalues[-1])
    return {
        "max_eigenvalue": lam_max,
        "min_eigenvalue": float(report.eigenvalues[0]),
        "gap": abs(lam_max - math.pi),
        "residual_max": float(np.max(report.residuals)),
        "grid": {"L": args.L, "N": args.N},
        "paper_refs": ["carleman-multiplier-bound"],
    }


_HANDLERS = {
    "pq": _cmd_pq, "qp": _cmd_qp, "positivity": _cmd_positivity,
    "spectrum-hankel": _cmd_spectrum_hankel, "spectrum-a": _cmd_spectrum_a,
    "equiv-check": _cmd_equiv_check, "delta-eigs": _cmd_delta_eigs,
    "carleman": _cmd_carleman,
}


def run(args: argparse.Namespace) -> int:
    """Dispatch one validated invocation; returns the process exit code."""
    try:
        result = _HANDLERS[args.command](args)
        _write(_serialize(args.command, result), args)
        return EXIT_OK
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence failure: {exc}\n")
        return EXIT_CONVERGENCE
    except HankelscopeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except MemoryError as exc:   # e.g. an N x N array at large N
        sys.stderr.write(f"error: out of memory: {str(exc) or 'allocation failed'}; "
                         f"lower N\n")
        return EXIT_VALIDATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelscope",
        description="Spectral toolkit for log-polynomial and point-supported "
                    "Hankel kernels")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid(sp):
        sp.add_argument("--L", type=float, default=12.0, help="log-grid half-width")
        sp.add_argument("--N", type=int, default=1024, help="sample count (power of two >= 2)")

    sp = sub.add_parser("pq", help="map kernel-profile coefficients to the symbol")
    sp.add_argument("--p", required=True, help="comma-separated profile coefficients")
    sp = sub.add_parser("qp", help="map symbol coefficients back to the profile")
    sp.add_argument("--q", required=True, help="comma-separated symbol coefficients")
    sp = sub.add_parser("positivity", help="positivity and essential-spectrum verdicts")
    sp.add_argument("--p", required=True)
    sp = sub.add_parser("spectrum-hankel", help="spectrum of the log-kernel integral model")
    sp.add_argument("--p", required=True)
    add_grid(sp)
    sp = sub.add_parser("spectrum-a", help="spectrum of the weighted differential model")
    sp.add_argument("--q", required=True)
    add_grid(sp)
    sp = sub.add_parser("equiv-check", help="quadratic-form identity check on seeded test functions")
    sp.add_argument("--p", required=True)
    sp.add_argument("--seeds", default="11,12", help="two integer seeds")
    add_grid(sp)
    sp = sub.add_parser("delta-eigs", help="collocation spectrum of a point-supported kernel")
    sp.add_argument("--h", required=True, help="comma-separated delta-derivative weights")
    sp.add_argument("--t0", type=float, default=1.0)
    sp.add_argument("--N", type=int, default=64)
    sp.add_argument("--n-max", type=int, default=10)
    sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default="csv")
    sp = sub.add_parser("carleman", help="reference run for the reciprocal kernel")
    sp.add_argument("--L", type=float, default=14.0)
    sp.add_argument("--N", type=int, default=2048,
                    help="cap on the Gauss-Legendre node count (power of two >= 2)")

    for action in sub.choices.values():
        action.add_argument("--output", default=None, help="write to file instead of stdout")
    return parser


_PARSER = _build_parser()   # built once per process; parse_args only reads it

_VALUE_FLAGS = ("--p", "--q", "--h", "--seeds")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join '--p -1,2' into '--p=-1,2' so coefficient lists may start with a
    minus sign without confusing the option tokenizer."""
    merged = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            merged.append(tok)
    return merged


def parse_args(argv=None) -> argparse.Namespace:
    """Parsed arguments, with the coefficient list validated into
    `coefficients` and `--seeds` into a pair of ints in `seeds`."""
    if argv is None:
        argv = sys.argv[1:]
    args = _PARSER.parse_args(_merge_negative_values(list(argv)))
    coeff_flag = {"pq": "--p", "qp": "--q", "positivity": "--p",
                  "spectrum-hankel": "--p", "spectrum-a": "--q",
                  "equiv-check": "--p", "delta-eigs": "--h"}
    if args.command in coeff_flag:
        flag = coeff_flag[args.command]
        args.coefficients = _parse_reals(getattr(args, flag.lstrip("-")), flag)
    if hasattr(args, "seeds"):
        try:
            first, second = (int(tok) for tok in args.seeds.split(","))
            if min(first, second) < 0:   # np.random.default_rng rejects it
                raise ValueError
        except ValueError:
            raise HankelscopeError("--seeds needs exactly two integers, both >= 0") from None
        args.seeds = (first, second)
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except HankelscopeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
