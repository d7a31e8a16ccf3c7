#!/usr/bin/env python3
"""Bit-identity listing: one SHA-256 per fixed computation.

Runs a fixed argv list through ``hankelscope.cli.main`` in-process and hashes
each run's exit code, stdout and stderr, covering all eight commands and
(``REPORT_CASES``) the spectra that are scaled back, floored or refused for
a non-finite entry; it also hashes the bytes of ``h_squared_spectrum``, of
the Householder reflectors (V, then T) and the reduced collocation matrix
returned by ``build_reflection_operator`` (the reflectors only for K >= 1; at
K = 0 there are none), of the A-side matrix returned by ``build_a_matrix`` and of the
spectra and residuals that ``eigen_sym`` gives for a Hankel-side and an
A-side matrix on a row-sampled and a dense grid. Imports the package from
the ``src/`` next to this script, so running it in two checkouts and diffing
the listings shows whether a change moved any output by a single bit:

    python3 scripts/output_identity.py > before.txt    # in the old checkout
    python3 scripts/output_identity.py > after.txt     # in the new checkout
    diff before.txt after.txt

BLAS/LAPACK are pinned to one thread so the listing does not depend on the
thread count. Standard library only (plus the package under test).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hankelscope.cli import main  # noqa: E402
from hankelscope.delta_spectra import (DeltaKernel, build_reflection_operator,  # noqa: E402
                                       h_squared_spectrum)
from hankelscope.coeff_map import QuasiCarlemanKernel  # noqa: E402
from hankelscope.discretization import (build_a_matrix, build_hankel_matrix,  # noqa: E402
                                        eigen_sym)
from hankelscope.polynomials import RealPolynomial  # noqa: E402
from hankelscope.transforms import LogGrid  # noqa: E402

DELTA_WEIGHTS = {0: "1.5", 1: "0.5,-1", 2: "0.3,0,1", 3: "0.1,0.2,-0.5,1"}
# order 1 at t0 = 1.5, one kernel per first mode of the secular route
# (c = h1 / (h0 t0)): c < 0, 0 < c < 1 with either sign of h1, c = 1, c > 1
# and pure delta'
FIRST_ORDER_WEIGHTS = ("-0.5,1", "2,1", "-2,-1", "1,1.5", "0.25,1", "0,1")
DELTA_N = (64, 256, 512)
LOG_N = (64, 256)
A_SYMBOLS = ("0.5,0.3,1", "0.1,1,0,0.4")
A_N = (64, 256, 1024)
# (L, N) of the eigen_sym hashes: sampled rows (2 w <= N) at L = 12, N = 512
# for the Hankel side, where the A side doubles to the dense eigh; dense on
# both sides at L = 8, N = 64
EIGEN_SYM_GRIDS = ((12.0, 512), (8.0, 64))
PI26 = math.pi ** 2 / 6.0
# positivity profiles, one or more per verdict path of the oracle
POSITIVITY = (
    "1.7,0,1", "1.5,0,1", "0.5,1,0.3,0.2",
    # Q = (x - gamma)^2 +- 1e-8 and +- 1e-13: one critical point, the vertex,
    # whose value is positive or a witness; 1e-13 is about 1000 times
    # Horner's rounding bound there
    f"{PI26 + 1e-8!r},0,1", f"{PI26 - 1e-8!r},0,1",
    f"{PI26 + 1e-13!r},0,1", f"{PI26 - 1e-13!r},0,1",
    # 6 and 8 distinct simple real roots of Q: the deepest of 5 and 7
    # critical values is the witness
    "420.4811864780612,421.9330081266201,206.0094801892975,71.06964880740416,"
    "17.439081954204596,2.2132939894091974,1.0",
    "29655.58655909014,29635.486542235307,14798.562558455382,4919.432146758467,"
    "1220.811191405869,244.3463098582926,39.32463573836647,4.617725319212263,1.0",
    # odd degree and negative leading coefficient: the witness scan
    "0.5,-1,0.3,0.2,-0.7,0.4", "1,0.5,2,0.1,-1",
    # degree 12: 6 simple real roots, and (below, _coeffs(12)) an alternating
    # profile
    "44498504.93839437,44493889.88337403,22242339.632493075,7411031.996399784,"
    "1851269.147021981,369600.0303770628,61442.18079386835,8692.63564825408,"
    "1087.2549292394374,112.12037132499239,12.363070522633395,0.6426587978818394,0.1",
    # Q near DBL_MAX, where Horner's bound overflows at a critical point and
    # the rule decides on power-of-two scaled coefficients: Q's derivative
    # overflows too; a witness moved to a finite value (degrees 2, 4, 6); a
    # verdict "nonnegative" from 3 scaled critical values; and exit 2, where
    # no negative value is representable
    "1e308,1.1544313298030657e308,1e308",
    "1.2250441905137596e+305,2.1223335819880116e+305,6.431817956381441e+295",
    "-7.884380000202475e+307,-4.601344782474904e+307,-3.985810731369675e+307,"
    "1.38201595849776e+297,5.9857001573818945e+296",
    "1.3748909008301571e+308,1.3736550840785376e+308,6.378126224520274e+307,"
    "2.295710427764217e+307,3.501074635416662e+306,1.1380962338835012e+306,1.1e+304",
    "1.7900000002407175e+308,2.2251180731369334e+298,1.2125714126947812e+298,"
    "2.3588661562992568e+297,1.0216571983981306e+297",
    "-5.616020036179547e+295,-6.120866511558431e+295,-1.7860768499220137e+295,"
    "-1.0314324198367415e+295,1.6412045856356207e+284",
    # the witness scan where every certified doubling sample overflows: the
    # bisection toward 0 from the first of them (degrees 1, 2 and 5)
    "-1e308,1e308", "-1e308,-1,-1e308",
    "-8.53913920491298e+305,-7.844221819649216e+306,4.2930038750420105e+306,"
    "7.303599598505621e+306,5.04903083397509e+306,4.650069286133329e+305",
)


# spectrum-hankel scaled by 2^-e on the dense route and on the rows, and
# exit 3 after the scale-back on both; spectrum-a exit 3 through the
# deflation floor; delta-eigs exit 3 through its report, by collocation and
# on the secular route; delta-eigs first pairs scaled where 2 pi / t0
# overflows, and exit 3 where the Weyl pair exceeds double precision; the
# widest carleman
REPORT_CASES = (
    ["spectrum-hankel", "--p", "1e300", "--L", "8", "--N", "64"],
    ["spectrum-hankel", "--p", "0,1e154", "--L", "8", "--N", "512"],
    ["spectrum-hankel", "--p", "1e308", "--L", "8", "--N", "64"],
    ["spectrum-hankel", "--p", "1e308", "--L", "8", "--N", "512"],
    ["spectrum-a", "--q", "1e300,0,1", "--L", "8", "--N", "256"],
    ["delta-eigs", "--h", "1e300,0,1e300", "--t0", "1", "--N", "64", "--n-max", "8"],
    ["delta-eigs", "--h", "1e308,1e308"],
    ["delta-eigs", "--h", "5e-324,5e-324", "--t0", "3e-308", "--N", "12", "--n-max", "2",
     "--format", "json"],
    ["delta-eigs", "--h", "0,-5e-324", "--t0", "3e-308", "--N", "12", "--n-max", "2",
     "--format", "json"],
    ["delta-eigs", "--h", "0,1e308", "--t0", "3.3", "--N", "12", "--n-max", "1",
     "--format", "json"],
    ["carleman", "--L", "30", "--N", "2048"],
)


def _coeffs(degree: int) -> str:
    return ",".join(repr((-1) ** j * (j + 1) / (j + 3)) for j in range(degree + 1))


def cli_cases() -> list[list[str]]:
    cases = []
    for degree in range(13):
        cases.append(["pq", "--p", _coeffs(degree)])
        cases.append(["qp", "--q", _coeffs(degree)])
    for p in POSITIVITY + (_coeffs(12),):
        cases.append(["positivity", "--p", p])
    for n in LOG_N:
        for p in ("1", "0,1", "1.7,0,1", "0.5,-1,0.3,0.2", "1,0,-1"):
            cases.append(["spectrum-hankel", "--p", p, "--L", "8", "--N", str(n)])
        for q in ("1", "0.5,1", "1,0,1", "0.1,1,0.7"):
            cases.append(["spectrum-a", "--q", q, "--L", "8", "--N", str(n)])
        for p in ("1,0.5", "1,-0.5,0.25", "0.3,0,-1,0.5"):
            cases.append(["equiv-check", "--p", p, "--L", "12", "--N", str(n),
                          "--seeds", "11,12"])
        cases.append(["carleman", "--L", "8", "--N", str(n)])
        # pure delta' with h1 < 0: swapped exact_first_pair, branches
        cases.append(["delta-eigs", "--h", "0,-2", "--t0", "1.5", "--N", str(n),
                      "--n-max", str(n // 8), "--format", "json"])
    for h in list(DELTA_WEIGHTS.values()) + list(FIRST_ORDER_WEIGHTS):
        for n in DELTA_N:
            for fmt in ("csv", "json"):
                cases.append(["delta-eigs", "--h", h, "--t0", "1.5", "--N", str(n),
                              "--n-max", str(n // 8), "--format", fmt])
    return cases + list(REPORT_CASES)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return _digest(f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode())


def main_listing() -> None:
    for argv in cli_cases():
        print(run_cli(argv), " ".join(argv))
    for k in (1, 2, 3):
        kernel = DeltaKernel([float(t) for t in DELTA_WEIGHTS[k].split(",")], 1.5)
        print(_digest(h_squared_spectrum(kernel, 64).tobytes()),
              f"h_squared_spectrum K={k} N=64")
    for k, h in DELTA_WEIGHTS.items():
        kernel = DeltaKernel([float(t) for t in h.split(",")], 1.5)
        for n in DELTA_N:
            (v, t), reduced = build_reflection_operator(kernel, n)
            print(_digest(reduced.tobytes()), f"build_reflection_operator K={k} N={n}")
            if k:
                print(_digest(v.tobytes() + t.tobytes()),
                      f"build_reflection_operator reflectors K={k} N={n}")
    for q in A_SYMBOLS:
        symbol = RealPolynomial([float(t) for t in q.split(",")])
        for n in A_N:
            matrix = build_a_matrix(symbol, LogGrid(L=12.0, N=n)).matrix
            print(_digest(matrix.tobytes()), f"build_a_matrix q={q} L=12 N={n}")
    profile, symbol = "0.5,-1,0.3,0.2", A_SYMBOLS[0]
    for L, n in EIGEN_SYM_GRIDS:
        grid = LogGrid(L=L, N=n)
        kernel = QuasiCarlemanKernel(RealPolynomial([float(t) for t in profile.split(",")]))
        for name, op in (
                (f"build_hankel_matrix p={profile}", build_hankel_matrix(kernel, grid)),
                (f"build_a_matrix q={symbol}",
                 build_a_matrix(RealPolynomial([float(t) for t in symbol.split(",")]), grid))):
            report = eigen_sym(op)
            print(_digest(report.eigenvalues.tobytes() + report.residuals.tobytes()),
                  f"eigen_sym {name} L={L:g} N={n}")


if __name__ == "__main__":
    main_listing()
