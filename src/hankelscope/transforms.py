"""Numerical transforms on the logarithmic grid: the substitution map U, the
Mellin transform (FFT realization), the gamma-phase unitary F, the universal
weight v, and the first-order diagonalizing change of variables T.

Grid conventions (fixed package-wide):
  x-nodes   x_j = -L + j*dx, dx = 2L/N, j = 0..N-1
  xi-nodes  xi_j = (j - N/2)*dxi, dxi = pi/L  (ascending, contains 0)
The discrete Fourier pairing maps x-samples to xi-samples; a GridFunction's
norm uses its own spacing, so the pairing is exactly unitary in the discrete
norms.

All transforms are pure functions of their inputs; the FFT backend keeps no
per-grid plan objects, so concurrent callers need no synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneratePolynomialError, DomainError
from .special_functions import gamma_half_phase, log_cosh


def v_eval(xi):
    """Universal weight sqrt(pi/cosh(pi xi)), evaluated in log space so large
    |xi| never overflows."""
    xi = np.asarray(xi, dtype=float)
    out = np.exp(0.5 * (math.log(math.pi) - log_cosh(math.pi * xi)))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LogGrid:
    """Uniform grid in x = ln t with its dual frequency grid."""

    L: float
    N: int

    def __post_init__(self):
        if not (self.L > 0 and math.isfinite(self.L)):
            raise DomainError("grid half-width L must be finite and positive")
        if self.N < 2 or self.N % 2 != 0:
            raise DomainError("N must be an even integer >= 2")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def dxi(self) -> float:
        return math.pi / self.L

    @cached_property
    def x_nodes(self) -> np.ndarray:
        return -self.L + self.dx * np.arange(self.N)

    @cached_property
    def xi_nodes(self) -> np.ndarray:
        return self.dxi * (np.arange(self.N) - self.N // 2)


@dataclass
class GridFunction:
    """Samples of a function on a uniform coordinate grid."""

    coords: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        self.values = np.asarray(self.values)
        if self.coords.shape != self.values.shape:
            raise DomainError("coords and values must have matching shapes")

    @property
    def spacing(self) -> float:
        return float(self.coords[1] - self.coords[0])

    def norm(self) -> float:
        """Discrete L2 surrogate sqrt(spacing * sum |values|^2)."""
        return math.sqrt(self.spacing * float(np.sum(np.abs(self.values) ** 2)))


def u_map(f, grid: LogGrid) -> GridFunction:
    """Substitution (Uf)(x) = e^{x/2} f(e^x) sampled on the x-nodes."""
    x = grid.x_nodes
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):   # reported below
        vals = np.asarray(np.exp(x / 2.0) * f(np.exp(x)))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise DomainError(f"non-finite sample at node x={x[j]:.6g} (index {j})")
    return GridFunction(coords=x, values=vals)


def mellin(u: GridFunction) -> GridFunction:
    """Discrete Mellin/Fourier transform (2pi)^{-1/2} int u(x) e^{-ix xi} dx.

    Input samples live on a uniform x-grid starting at -L; output samples live
    on the ascending frequency grid xi_j = (j - N/2) * pi/L. Realized by FFT
    with dx scaling and the boundary phase shift; discrete Parseval is exact
    up to rounding.
    """
    x = u.coords
    n = x.size
    dx = u.spacing
    left = float(x[0])
    xi_fft = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    vals = dx / math.sqrt(2.0 * math.pi) * np.exp(-1j * left * xi_fft) * np.fft.fft(u.values)
    return GridFunction(coords=np.fft.fftshift(xi_fft), values=np.fft.fftshift(vals))


def f_transform(f, grid: LogGrid) -> GridFunction:
    """Gamma-phase Mellin transform (Ff)(xi) = phase(xi) * (Mf)(xi)."""
    mf = mellin(u_map(f, grid))
    return GridFunction(coords=mf.coords, values=gamma_half_phase(mf.coords) * mf.values)


def reparametrization(xi):
    """Closed form of int_0^xi v(eta)^{-2} d eta = sinh(pi xi)/pi^2 for the
    canonical weight."""
    return np.sinh(math.pi * np.asarray(xi, dtype=float)) / math.pi**2


def _sinc_interp(g: GridFunction, targets: np.ndarray, block: int = 512) -> np.ndarray:
    """Band-limited (Whittaker) interpolation of uniform samples; points
    outside the sampled window follow the decaying sinc tails."""
    out = np.empty(targets.shape, dtype=complex)
    d = g.spacing
    for start in range(0, targets.size, block):
        sl = slice(start, min(start + block, targets.size))
        out[sl] = np.sinc((targets[sl, None] - g.coords[None, :]) / d) @ g.values
    return out


def t_transform(g: GridFunction, q0: float, q1: float) -> GridFunction:
    """First-order diagonalizing map
    (Tg)(xi) = v(xi)^{-1} e^{i q0 xi / q1} g(sinh(pi xi)/pi^2),
    with off-grid values of g obtained by band-limited interpolation."""
    if q1 == 0.0:
        raise DegeneratePolynomialError("t_transform requires q1 != 0")
    xi = g.coords
    gv = _sinc_interp(g, reparametrization(xi))
    vals = np.exp(0.5 * (log_cosh(math.pi * xi) - math.log(math.pi))) \
        * np.exp(1j * (q0 / q1) * xi) * gv
    return GridFunction(coords=xi.copy(), values=vals)
