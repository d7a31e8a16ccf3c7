#!/usr/bin/env python3
"""Eigenvalue tables for the point-supported kernels: the exact
quarter-shifted lattices and the leading-order growth ratio on both branches.

For the first-derivative kernel the collocation values match
2 pi (n - 1/4)/t0 and -2 pi (n - 3/4)/t0 to rounding. For the
second-derivative kernel the positive branch tracks (2 pi (n - 3/4)/t0)^2 and
the negative branch -(2 pi (n - 1/4)/t0)^2, so the ratio to (2 pi n/t0)^K
carries a 3/(4n) (resp. 1/(4n)) relative deficit.
"""

import argparse

import numpy as np

from hankelscope import (DeltaKernel, branches, delta_spectrum, exact_delta_prime_eigs,
                         weyl_prediction)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t0", type=float, default=1.0)
    parser.add_argument("--N", type=int, default=256)
    parser.add_argument("--n-max", type=int, default=20)
    args = parser.parse_args()

    kd1 = DeltaKernel(np.array([0.0, 1.0]), args.t0)
    plus1, minus1 = branches(delta_spectrum(kd1, max(64, args.N // 4),
                                            min(args.n_max, 10)).eigenvalues)
    print("first-derivative kernel: collocation vs closed form")
    print(f"{'n':>3} {'lambda+':>14} {'exact+':>14} {'lambda-':>14} {'exact-':>14}")
    for n in range(1, min(args.n_max, 10) + 1):
        ep, em = exact_delta_prime_eigs(args.t0, n)
        lp, lm = plus1[n - 1], minus1[n - 1]
        print(f"{n:3d} {lp:14.9f} {ep:14.9f} {lm:14.9f} {em:14.9f}")

    kd2 = DeltaKernel(np.array([0.0, 0.0, 1.0]), args.t0)
    plus2, minus2 = branches(delta_spectrum(kd2, args.N, args.n_max).eigenvalues)
    print("\nsecond-derivative kernel: growth ratios")
    print(f"{'n':>3} {'lambda+ / (2 pi n/t0)^2':>24} {'model (1-3/4n)^2':>18} "
          f"{'|lambda-| ratio':>16} {'model (1-1/4n)^2':>18}")
    for n in range(10, args.n_max + 1):
        wp, _ = weyl_prediction(kd2, n)
        rp = plus2[n - 1] / wp
        rm = -minus2[n - 1] / wp
        print(f"{n:3d} {rp:24.6f} {(1 - 0.75 / n) ** 2:18.6f} "
              f"{rm:16.6f} {(1 - 0.25 / n) ** 2:18.6f}")


if __name__ == "__main__":
    main()
