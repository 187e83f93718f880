"""Numerical range support sweeps and the spectrum containment check.

The support function of the numerical range of A in direction theta is the
top eigenvalue of the rotated Hermitian part (exp(-i theta) A + exp(i theta)
A*) / 2.  Sweeping theta over a uniform grid gives a polygonal outer
description of the range; the convex hull of the point spectrum must sit
inside it, which for a triangular matrix (eigenvalues on the diagonal) is a
finite family of inequalities Re(exp(-i theta) lambda) <= h(theta).

Eigenvalues come from cyclic complex Jacobi rotations.  All angles of a
sweep are diagonalized together: the rotation order is fixed, so the whole
grid advances through the same pivot sequence with per-matrix angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ZengerError

DEFAULT_GRID = 256
OFF_DIAGONAL_TOL = 1e-12
MARGIN_TOL = 1e-8
_MAX_SWEEPS = 60


class NotTriangular(ZengerError):
    """Spectrum input must be upper triangular so the diagonal is exact."""


@dataclass(frozen=True)
class SupportCurve:
    """Support function h(theta) of the numerical range on a uniform grid."""

    thetas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        thetas = np.array(self.thetas, dtype=float)
        values = np.array(self.values, dtype=float)
        if thetas.shape != values.shape or thetas.ndim != 1:
            raise ValueError("thetas and values must be matching 1-d arrays")
        thetas.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "values", values)


class HullCheck(NamedTuple):
    ok: bool
    worst_margin: float


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a non-empty square complex matrix with finite entries."""
    A = np.asarray(entries, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise ValueError("matrix entries must be finite")
    return A


def _jacobi_batch(Hs: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a batch of Hermitian matrices.

    The batch must be Hermitian in floating point, as the stack of
    :func:`support_curve` is: cos(theta) Hr + sin(theta) Hi of two exactly
    Hermitian parts.

    One cyclic sweep applies the pivots (p, q) in a fixed order to every
    matrix in the batch at once, each with its own rotation angle; matrices
    whose pivot entry is already negligible get the identity rotation.
    """
    H = Hs.astype(complex, copy=True)
    n = H.shape[1]
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.abs(H[:, off_mask]) ** 2, axis=1))
        if np.all(off <= OFF_DIAGONAL_TOL):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = H[:, p, q]
                r = np.abs(apq)
                active = r > 1e-300
                if not np.any(active):
                    continue
                safe_r = np.where(active, r, 1.0)
                f = np.where(active, apq / safe_r, 1.0 + 0.0j)
                tau = (H[:, q, q].real - H[:, p, p].real) / (2.0 * safe_r)
                sign = np.where(tau >= 0.0, 1.0, -1.0)
                t = sign / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = np.where(active, t * c, 0.0)
                c = np.where(active, c, 1.0)
                sf = s * f
                row_p = H[:, p, :].copy()
                row_q = H[:, q, :].copy()
                H[:, p, :] = c[:, None] * row_p - sf[:, None] * row_q
                H[:, q, :] = np.conj(sf)[:, None] * row_p + c[:, None] * row_q
                col_p = H[:, :, p].copy()
                col_q = H[:, :, q].copy()
                H[:, :, p] = c[:, None] * col_p - np.conj(sf)[:, None] * col_q
                H[:, :, q] = sf[:, None] * col_p + c[:, None] * col_q
        H = 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))
    diag = np.diagonal(H, axis1=1, axis2=2).real
    return np.sort(diag, axis=1)


def support_curve(A, grid_size: int = DEFAULT_GRID) -> SupportCurve:
    """Support function sampled on a uniform angle grid over [0, 2*pi)."""
    A = as_complex_matrix(A)
    if grid_size < 8:
        raise ValueError("grid_size must be at least 8")
    thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
    Hr = 0.5 * (A + np.conj(A.T))
    Hi = 0.5j * (np.conj(A.T) - A)
    stack = (
        np.cos(thetas)[:, None, None] * Hr[None, :, :]
        + np.sin(thetas)[:, None, None] * Hi[None, :, :]
    )
    values = _jacobi_batch(stack)[:, -1]
    return SupportCurve(thetas=thetas, values=values)


def spectrum_hull_check(A, curve: SupportCurve) -> HullCheck:
    """Verify the convex hull of the diagonal spectrum sits in the range.

    ``curve`` is A's support curve, as ``support_curve(A, grid_size)``
    returns it; its angles are the grid.  For every eigenvalue lambda on
    the diagonal and every grid angle theta, checks Re(exp(-i theta)
    lambda) <= h(theta) up to 1e-8 times max(1, max |A_ij|), since the
    rounding in h grows with the entries; worst_margin is the smallest
    slack encountered (zero when an eigenvalue touches the boundary, as for
    normal matrices).
    """
    A = as_complex_matrix(A)
    lower = A[np.tril_indices_from(A, k=-1)]
    if lower.size and np.any(lower != 0.0):
        raise NotTriangular("spectrum input must be upper triangular")
    eigs = np.diagonal(A)
    rotated = np.real(np.exp(-1j * curve.thetas)[:, None] * eigs[None, :])
    margins = curve.values[:, None] - rotated
    worst = float(np.min(margins))
    scale = max(1.0, float(np.max(np.abs(A))))
    return HullCheck(ok=worst >= -MARGIN_TOL * scale, worst_margin=worst)
