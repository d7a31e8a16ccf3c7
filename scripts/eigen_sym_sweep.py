#!/usr/bin/env python3
"""The solvers of both operator sides against dense full spectra: the
phase-space count of eigenvalues above 1e-13 max|lambda|, the width solved
on, dense and solver time, max |dlambda| / max|lambda| and the reported
residual_max / max|lambda|, the margin of the exact zeros, and the memory
peak of the solve.

The Hankel side uses P = 1.7 + x^2, solved by hankel_spectrum without
forming its matrix, and the A side its symbol Q = p_to_q(P), solved by
a_spectrum on its weight core, so both rows of one (L, N) model the same
operator. "count" is the number of dense eigenvalues above 1e-13
max|lambda|, to be read against the estimate (2L / pi^2) ln(2e13) = 6.2 L.
"width" is N minus the number of exact zeros in the reported spectrum: the
number |J| of sampled kernel rows, or N when hankel_spectrum solves dense,
on the Hankel side; the weight core, about 10 L rows whatever N is, on the
A side. The dense reference is np.linalg.eigh with its N x N residual
product, of build_hankel_matrix or of build_a_matrix. "margin" is the
residual of the exact zeros over RANGE_TOL ||M||_F: the range complement
over its budget on the Hankel side, the deflation bound on the A side, at
most 1 by construction ("-" when there are no zeros). "solve MB" is the
tracemalloc peak of the solver call, taken in a separate untimed call; an
N x N double array is 8 N^2 bytes (32 MiB at N = 2048). BLAS is pinned to
one thread.

    PYTHONPATH=src python3 scripts/eigen_sym_sweep.py [--windows 8,20] [--sizes 512,1024]
"""

import argparse
import math
import os
import time
import tracemalloc

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from hankelscope.coeff_map import QuasiCarlemanKernel, p_to_q  # noqa: E402
from hankelscope.discretization import (RANGE_TOL, a_spectrum,  # noqa: E402
                                        build_a_matrix, build_hankel_matrix, hankel_spectrum)
from hankelscope.polynomials import RealPolynomial  # noqa: E402
from hankelscope.transforms import LogGrid  # noqa: E402

PROFILE = RealPolynomial(np.array([1.7, 0.0, 1.0]))


def dense(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, vecs = np.linalg.eigh(m)
    return w, np.linalg.norm(m @ vecs - vecs * w[None, :], axis=0)


def peak_mb(call) -> float:
    """Peak traced memory of one call, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--windows", default="8,12,20,30,60")
    parser.add_argument("--sizes", default="512,1024,2048,4096")
    args = parser.parse_args()
    kernel, symbol = QuasiCarlemanKernel(PROFILE), p_to_q(PROFILE)
    # side: (the dense reference matrix, the solver)
    sides = {"hankel": (lambda grid: build_hankel_matrix(kernel, grid),
                        lambda grid: hankel_spectrum(kernel, grid)),
             "a": (lambda grid: build_a_matrix(symbol, grid),
                   lambda grid: a_spectrum(symbol, grid))}

    print(f"{'side':>6} {'L':>5} {'N':>5} {'estimate':>8} {'count':>5} "
          f"{'width':>5} {'dense s':>8} {'solve s':>8} {'speedup':>7} {'max dlam':>9} "
          f"{'residual':>9} {'margin':>8} {'solve MB':>8}")
    for side, (build, solve) in sides.items():
        for L in (float(tok) for tok in args.windows.split(",")):
            for n in (int(tok) for tok in args.sizes.split(",")):
                if 2.0 * L / n > 1.0:
                    continue   # too coarse for the Nystrom kernel
                grid = LogGrid(L=L, N=n)
                solve_mb = peak_mb(lambda: solve(grid))
                op = build(grid)
                start = time.perf_counter()
                w, _ = dense(op.matrix)
                dense_s = time.perf_counter() - start
                start = time.perf_counter()
                rep = solve(grid)
                solve_s = time.perf_counter() - start
                scale = float(np.max(np.abs(w)))
                estimate = 2.0 * L / math.pi ** 2 * math.log(2.0 / RANGE_TOL)
                count = int(np.sum(np.abs(w) > RANGE_TOL * scale))
                zeros = rep.eigenvalues == 0.0
                width = n - int(np.sum(zeros))
                bound = RANGE_TOL * np.linalg.norm(op.matrix)
                margin = f"{rep.residuals[zeros].max() / bound:8.3f}" if width < n else f"{'-':>8}"
                print(f"{side:>6} {L:5.0f} {n:5d} {estimate:8.1f} {count:5d} {width:5d} "
                      f"{dense_s:8.3f} {solve_s:8.3f} {dense_s / solve_s:7.1f} "
                      f"{np.max(np.abs(rep.eigenvalues - w)) / scale:9.1e} "
                      f"{rep.residuals.max() / scale:9.1e} {margin} {solve_mb:8.1f}", flush=True)

if __name__ == "__main__":
    main()
