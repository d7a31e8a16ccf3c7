"""Resolution ladder of the quadratic-form identity gap, shared by the
discretization tests and acceptance criterion 4."""

import math

from hankelscope.discretization import FactoryTestFunction, form_identity_check
from hankelscope.transforms import LogGrid

# gaps at or below this carry no order information (rounding/truncation floor)
GAP_FLOOR = 1e-11


def identity_gap_ladder(p, seed1: int, seed2: int, L: float,
                        n_ladder) -> list[tuple[int, float]]:
    """Relative identity gap across a dyadic resolution ladder at fixed L.

    Factory functions are re-seeded per grid so the profile is identical; the
    gap decays spectrally until it reaches the rounding/truncation floor.
    """
    out = []
    for n in n_ladder:
        grid = LogGrid(L=L, N=n)
        f1 = FactoryTestFunction(seed1, grid)
        f2 = FactoryTestFunction(seed2, grid)
        out.append((n, form_identity_check(p, f1, f2, grid).relative_gap))
    return out


def observed_orders(ladder: list[tuple[int, float]]):
    """log2 gap ratios for consecutive ladder pairs above GAP_FLOOR.

    Returns (orders, converged): pairs with both gaps below the floor carry no
    order information; if every pair is below the floor the sequence is
    reported as converged.
    """
    orders = []
    measurable = False
    for (_, g0), (_, g1) in zip(ladder[:-1], ladder[1:]):
        if g0 > GAP_FLOOR and g1 > 0.0:
            orders.append(math.log2(g0 / max(g1, 1e-300)))
            measurable = True
    converged = not measurable and all(g <= GAP_FLOOR for _, g in ladder)
    return orders, converged
