#!/usr/bin/env python3
"""Window-size sweep for the reciprocal kernel: how the finite-section top
eigenvalue approaches the multiplier supremum pi.

The gap follows the window-curvature law pi - lambda_max ~ (pi^3/2)(pi/2L)^2,
so the reference tolerance 1e-3 is reachable only near L ~ 200. This table is
the backing data for the deliberately red acceptance check. Both spectral
ends come from one dense solve on min(N, 6.2 L + 32) Gauss-Legendre nodes
(carleman_extremes), so windows up to L = 400 take seconds; by default N is
the even count nearest to 10 L, which keeps the grid spacing dx = 2L/N near
0.2; the nodes column shows the node count after that cap.

    PYTHONPATH=src python3 scripts/carleman_window_sweep.py [--windows 6,14,200] [--N 4096]
"""

import argparse
import math
import time

from hankelscope.discretization import carleman_extremes, sketch_width
from hankelscope.transforms import LogGrid


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", type=int, default=None,
                        help="cap on the node count for every window (default: 10 L)")
    parser.add_argument("--windows", default="6,10,14,20,30,60,100,200,400")
    args = parser.parse_args()

    print(f"{'L':>6} {'N':>6} {'lambda_max':>14} {'pi - lambda_max':>16} "
          f"{'curvature model':>16} {'min eig':>12} {'nodes':>6} {'time s':>8}")
    for L in (float(tok) for tok in args.windows.split(",")):
        n = args.N or 2 * max(1, round(5.0 * L))
        start = time.perf_counter()
        rep = carleman_extremes(LogGrid(L=L, N=n))
        elapsed = time.perf_counter() - start
        bottom, top = rep.eigenvalues
        model = (math.pi**3 / 2.0) * (math.pi / (2.0 * L)) ** 2
        print(f"{L:6.1f} {n:6d} {top:14.9f} {math.pi - top:16.3e} "
              f"{model:16.3e} {bottom:12.2e} {min(n, sketch_width(L)):6d} "
              f"{elapsed:8.2f}")


if __name__ == "__main__":
    main()
