"""Spectra of the reflection-differential operators generated by kernels
supported at a single interior point: (Hf)(t) = sum_k (-1)^k h_k f^(k)(t0 - t)
on (0, t0), with vanishing derivatives of order < K at the left endpoint.

Collocation uses Chebyshev-Gauss-Lobatto nodes, which are symmetric about
t0/2, so the argument reflection is a reversal of the node order: R D^k is
D^k with its rows flipped. Both the reflection route and the squared-operator
route impose their boundary conditions through one helper that projects onto
the null space of the row-normalized constraint rows (basis recombination,
from one SVD), keeping the reduced eigenproblem square. The SVD and the
dense non-symmetric eigensolves run on numpy.linalg, so delta-eigs starts
without loading SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eig as dense_eig

from .discretization import SpectrumReport, _require_finite
from .errors import (ConvergenceError, DiscretizationError, DomainError,
                     NotApplicableError)

RELATIVE_IMAG_TOL = 1e-6


@dataclass(frozen=True)
class DeltaKernel:
    """Kernel sum_k h_k delta^(k)(. - t0): real weights, h_K != 0, finite t0 > 0."""

    h_coeffs: np.ndarray
    t0: float

    def __post_init__(self):
        h = np.atleast_1d(np.asarray(self.h_coeffs, dtype=float))
        if h.ndim != 1 or not np.all(np.isfinite(h)):
            raise DomainError("h_coeffs must be a 1-d vector of finite reals")
        nz = np.nonzero(h)[0]
        if nz.size == 0:
            raise DomainError("kernel must have a nonzero top coefficient")
        object.__setattr__(self, "h_coeffs", h[: nz[-1] + 1].copy())
        if not (self.t0 > 0.0 and math.isfinite(self.t0)):
            raise DomainError("singularity location t0 must be finite and positive")

    @property
    def order(self) -> int:
        return self.h_coeffs.size - 1


def chebyshev_lobatto(n: int, t0: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending Chebyshev-Gauss-Lobatto nodes on [0, t0] and the spectral
    differentiation matrix acting on node values."""
    if n < 2:
        raise DomainError("need at least 2 collocation nodes")
    j = np.arange(n)
    xc = np.cos(math.pi * j / (n - 1))        # descending on [-1, 1]
    c = np.ones(n)
    c[0] = 2.0
    c[-1] = 2.0
    c = c * (-1.0) ** j
    xm = np.tile(xc, (n, 1)).T
    dx = xm - xm.T
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n))
    d = d - np.diag(d.sum(axis=1))
    nodes = t0 * (1.0 - xc) / 2.0             # ascending on [0, t0]
    return nodes, d * (-2.0 / t0)


def _collocation_powers(kernel: DeltaKernel, n: int, order: int) -> list:
    """[I, D, D^2, ..., D^order] on N Chebyshev-Lobatto nodes of [0, t0],
    after the resolution check N >= 4K+8.

    The negative-sum trick is reapplied to every power (each derivative
    annihilates constants exactly), which suppresses the rounding growth of
    repeated matrix products. D scales like N^2 / t0, so a tiny t0 overflows
    a power; that raises DomainError.
    """
    k_ord = kernel.order
    if n < 4 * k_ord + 8:
        raise DomainError(f"N={n} too small: need N >= 4K+8 = {4 * k_ord + 8}")
    powers = [np.eye(n)]
    if order == 0:
        return powers
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        _, d = chebyshev_lobatto(n, kernel.t0)
        for k in range(order):
            nxt = d @ powers[-1] if k else d.copy()
            np.fill_diagonal(nxt, 0.0)
            np.fill_diagonal(nxt, -nxt.sum(axis=1))
            if not np.all(np.isfinite(nxt)):
                raise DomainError(f"t0 = {kernel.t0:.6g} is too small: derivative "
                                  f"power {k + 1} overflows double precision at N={n}")
            powers.append(nxt)
    return powers


def _null_space_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of the boundary-condition rows.

    Each row is scaled to unit norm first: row scaling preserves the row space
    but makes rank detection and null-space extraction well posed when
    derivative orders mix. The rank tolerance s_max max(shape) eps is the
    one numpy's matrix_rank and SciPy's null_space share. The basis is
    returned in C order: the layout of basis sets the rounding of
    basis.T @ m @ basis.
    """
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    scaled = rows / np.where(norms > 0.0, norms, 1.0)
    k = rows.shape[0]
    _, s, vh = np.linalg.svd(scaled)
    if np.count_nonzero(s > s.max() * max(scaled.shape) * np.finfo(float).eps) < k:
        raise DiscretizationError("boundary-condition rows are rank deficient")
    return np.ascontiguousarray(vh[k:].T)


def build_reflection_operator(kernel: DeltaKernel, n: int
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Collocation matrix of sum_k (-1)^k h_k R D^k with the K left-endpoint
    conditions f^(k)(0) = 0, k < K, imposed by null-space projection.

    Returns (basis, reduced): the (N, N-K) orthonormal null-space basis (the
    identity for K = 0, where nothing is projected) and the reduced matrix
    basis^T M basis. R D^k evaluates the k-th derivative at the reflected
    nodes; the node set is symmetric about t0/2, so R D^k is D^k with its
    rows reversed.
    """
    k_ord = kernel.order
    powers = _collocation_powers(kernel, n, k_ord)
    m = np.zeros((n, n))
    for k, hk in enumerate(kernel.h_coeffs):
        if hk != 0.0:
            m += (-1.0) ** k * hk * powers[k][::-1]
    if k_ord == 0:
        return powers[0], m
    basis = _null_space_basis(np.array([powers[k][0, :] for k in range(k_ord)]))
    return basis, basis.T @ m @ basis


def exact_delta_prime_eigs(t0: float, n: int) -> tuple[float, float]:
    """Closed-form n-th eigenvalue pair for the unit first-derivative kernel:
    lambda_n^+ = 2 pi (n - 1/4)/t0, lambda_n^- = -2 pi (n - 3/4)/t0."""
    if n < 1:
        raise DomainError("mode index n must be >= 1")
    if not t0 > 0.0:
        raise DomainError("t0 must be positive")
    return 2.0 * math.pi / t0 * (n - 0.25), -2.0 * math.pi / t0 * (n - 0.75)


def weyl_prediction(kernel: DeltaKernel, n: int) -> tuple[float, float]:
    """Leading eigenvalue growth +-|h_K| (2 pi n / t0)^K for K >= 1."""
    if kernel.order == 0:
        raise NotApplicableError(
            "order-0 kernels have the two-point spectrum {+h0, -h0}")
    if n < 1:
        raise DomainError("mode index n must be >= 1")
    lam = abs(kernel.h_coeffs[-1]) * (2.0 * math.pi * n / kernel.t0) ** kernel.order
    return lam, -lam


def delta_spectrum(kernel: DeltaKernel, n: int, n_max: int) -> SpectrumReport:
    """Collocation spectrum of the reflection operator, restricted to the
    trusted modes (the first n_max of each sign, n_max <= N/4), ascending with
    aligned residuals; see branches for the two signed branches.

    The reduced matrix is non-normal even though the operator is self-adjoint;
    trusted eigenvalues must be real to relative 1e-6, and finite with finite
    residuals, or the solve is reported as a convergence failure.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if n_max > n // 4:
        raise DomainError(f"n_max={n_max} outside the trust region N/4 = {n // 4}")
    _, reduced = build_reflection_operator(kernel, n)
    w, vecs = dense_eig(reduced)

    order_pos = np.argsort(np.where(w.real > 0.0, w.real, np.inf))[:n_max]
    order_neg = np.argsort(np.where(w.real < 0.0, -w.real, np.inf))[:n_max]
    trusted = np.concatenate([order_neg[::-1], order_pos])
    lam = w[trusted]
    bad = np.abs(lam.imag) > RELATIVE_IMAG_TOL * np.maximum(np.abs(lam), 1e-300)
    if np.any(bad):
        worst = lam[np.argmax(np.abs(lam.imag))]
        raise ConvergenceError(
            f"trusted mode has complex part beyond tolerance: {worst}")

    cols = vecs[:, trusted]
    cols = cols / np.linalg.norm(cols, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):   # reported by _require_finite
        residuals = np.linalg.norm(reduced @ cols - cols * lam[None, :], axis=0).real
    _require_finite(lam, residuals)

    sort = np.argsort(lam.real)
    return SpectrumReport(eigenvalues=lam.real[sort], residuals=residuals[sort])


def branches(eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_plus, lambda_minus) of an ascending spectrum: the positive
    eigenvalues ascending and the negative ones descending toward -infinity."""
    return eigenvalues[eigenvalues > 0.0], eigenvalues[eigenvalues < 0.0][::-1]


def h_squared_spectrum(kernel: DeltaKernel, n: int) -> np.ndarray:
    """Eigenvalues of the squared operator: the order-2K differential operator
    sum_{k,l} (-1)^k h_k h_l D^{k+l} with the K left conditions plus the
    adjoint-side right conditions sum_l (-1)^l h_l f^(k+l)(t0) = 0.

    The square root of this spectrum cross-validates the reflection route
    (eigenvalue magnitudes must agree; signs come from the reflection solve).
    """
    k_ord = kernel.order
    if k_ord < 1:
        raise NotApplicableError("squared-operator route needs K >= 1")
    powers = _collocation_powers(kernel, n, 2 * k_ord)
    m = np.zeros((n, n))
    for k, hk in enumerate(kernel.h_coeffs):
        for l, hl in enumerate(kernel.h_coeffs):
            if hk != 0.0 and hl != 0.0:
                m += (-1.0) ** k * hk * hl * powers[k + l]
    rows = [powers[k][0, :] for k in range(k_ord)]
    for k in range(k_ord):
        row = np.zeros(n)
        for l, hl in enumerate(kernel.h_coeffs):
            if hl != 0.0:
                row += (-1.0) ** l * hl * powers[k + l][-1, :]
        rows.append(row)
    basis = _null_space_basis(np.array(rows))
    w = np.linalg.eigvals(basis.T @ m @ basis)
    keep = np.abs(w.imag) <= RELATIVE_IMAG_TOL * np.maximum(np.abs(w), 1e-300)
    return np.sort(w.real[keep & (w.real > 0.0)])
