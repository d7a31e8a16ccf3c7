#!/usr/bin/env python3
"""Sketched against dense full spectra on both operator sides: the
phase-space count of eigenvalues above 1e-13 max|lambda|, the sketch width
eigen_sym used, dense and sketched time, max |dlambda| / max|lambda| and the
reported residual_max / max|lambda|, and the complement margin.

The Hankel side uses P = 1.7 + x^2 and the A side its symbol Q = p_to_q(P),
so both rows of one (L, N) model the same operator. "count" is the number of
dense eigenvalues above 1e-13 max|lambda|, to be read against the estimate
(2L / pi^2) ln(2e13) = 6.2 L. "width" is N minus the number of exact zeros
in the sketched spectrum (N on the dense path). The dense reference is
np.linalg.eigh with its N x N residual product, what eigen_sym did before it
sketched. "margin" is the complement bound ||M - (MQ) Q^T||_F that
eigen_sym reports as the residual of its exact zeros, over the accepted
RANGE_TOL ||M||_F: below 1 the one-pass range is accepted without doubling
the width ("-" on the dense path, which has no complement). BLAS is pinned to
one thread.

    PYTHONPATH=src python3 scripts/eigen_sym_sweep.py [--windows 8,20] [--sizes 512,1024]
"""

import argparse
import math
import os
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from hankelscope.coeff_map import QuasiCarlemanKernel, p_to_q  # noqa: E402
from hankelscope.discretization import (RANGE_TOL, build_a_matrix,  # noqa: E402
                                        build_hankel_matrix, eigen_sym)
from hankelscope.polynomials import RealPolynomial  # noqa: E402
from hankelscope.transforms import LogGrid  # noqa: E402

PROFILE = RealPolynomial(np.array([1.7, 0.0, 1.0]))


def dense(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, vecs = np.linalg.eigh(m)
    return w, np.linalg.norm(m @ vecs - vecs * w[None, :], axis=0)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--windows", default="8,12,20,30,60")
    parser.add_argument("--sizes", default="512,1024,2048,4096")
    args = parser.parse_args()
    sides = {"hankel": lambda grid: build_hankel_matrix(QuasiCarlemanKernel(PROFILE), grid),
             "a": lambda grid: build_a_matrix(p_to_q(PROFILE), grid)}

    print(f"{'side':>6} {'L':>5} {'N':>5} {'estimate':>8} {'count':>5} {'width':>5} "
          f"{'dense s':>8} {'sketch s':>8} {'speedup':>7} {'max dlam':>9} {'residual':>9} "
          f"{'margin':>8}")
    for side, build in sides.items():
        for L in (float(tok) for tok in args.windows.split(",")):
            for n in (int(tok) for tok in args.sizes.split(",")):
                if 2.0 * L / n > 1.0:
                    continue   # too coarse for the Nystrom kernel
                op = build(LogGrid(L=L, N=n))
                start = time.perf_counter()
                w, _ = dense(op.matrix)
                dense_s = time.perf_counter() - start
                start = time.perf_counter()
                rep = eigen_sym(op)
                sketch_s = time.perf_counter() - start
                scale = float(np.max(np.abs(w)))
                estimate = 2.0 * L / math.pi ** 2 * math.log(2.0 / RANGE_TOL)
                count = int(np.sum(np.abs(w) > RANGE_TOL * scale))
                zeros = rep.eigenvalues == 0.0
                width = n - int(np.sum(zeros))
                bound = RANGE_TOL * np.linalg.norm(op.matrix)
                margin = f"{rep.residuals[zeros].max() / bound:8.3f}" if width < n else f"{'-':>8}"
                print(f"{side:>6} {L:5.0f} {n:5d} {estimate:8.1f} {count:5d} {width:5d} "
                      f"{dense_s:8.3f} {sketch_s:8.3f} {dense_s / sketch_s:7.1f} "
                      f"{np.max(np.abs(rep.eigenvalues - w)) / scale:9.1e} "
                      f"{rep.residuals.max() / scale:9.1e} {margin}", flush=True)


if __name__ == "__main__":
    main()
