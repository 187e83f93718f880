"""Shared foundations: weight vectors, eventually constant sequences, and
truncation projections.

Vectors are plain 1-d numpy arrays of floats.  A :class:`TailVector` models a
real sequence whose entries are eventually equal to a constant, which lets
limit quantities (sup, limsup) be computed exactly instead of approximated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ZengerError(Exception):
    """Base class for errors raised by this package."""


class NonPositiveWeight(ZengerError):
    """A weight entry is zero or negative.  ``index`` is 1-based."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"weight at position {index} is not strictly positive")


class SumMismatch(ZengerError):
    """Weights do not sum to one.  ``actual`` is the offending sum."""

    def __init__(self, actual: float):
        self.actual = actual
        super().__init__(f"weights sum to {actual!r}, expected 1")


class DimensionMismatch(ZengerError):
    """Vector shape does not match what an operation expects."""


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds used throughout the solve and certification path.

    weight       : slack allowed in the sum-to-one check on weights
    gap          : duality gap at which the solver stops
    certificate  : bound every certificate residual must meet
    """

    weight: float = 1e-10
    gap: float = 1e-9
    certificate: float = 1e-6


def as_vector(x) -> np.ndarray:
    """Coerce ``x`` to a 1-d float array, rejecting bad shapes and non-finite
    entries."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def validate_weights(alpha, weight_tol: float = 1e-10) -> np.ndarray:
    """Check that ``alpha`` is strictly positive and sums to one.

    Returns the validated weights as an array.  Raises
    :class:`NonPositiveWeight` (with the 1-based index of the first offender)
    or :class:`SumMismatch` (with the actual sum) otherwise.
    """
    a = as_vector(alpha)
    if a.size == 0:
        raise DimensionMismatch("weight vector is empty")
    bad = np.nonzero(a <= 0.0)[0]
    if bad.size:
        raise NonPositiveWeight(int(bad[0]) + 1)
    total = float(np.sum(a))
    if abs(total - 1.0) > weight_tol:
        raise SumMismatch(total)
    return a


@dataclass(frozen=True)
class TailVector:
    """A real sequence with finitely many free entries and a constant tail.

    ``head`` holds the leading entries; every entry past it equals ``tail``.
    The representation makes sup and limsup exact arithmetic.
    """

    head: np.ndarray
    tail: float

    def __post_init__(self):
        h = np.array(self.head, dtype=float, ndmin=1).reshape(-1)
        if not np.all(np.isfinite(h)) or not np.isfinite(self.tail):
            raise ValueError("TailVector entries must be finite")
        h.setflags(write=False)
        object.__setattr__(self, "head", h)
        object.__setattr__(self, "tail", float(self.tail))

    def entry(self, k: int) -> float:
        """Entry at 1-based position ``k``."""
        if k < 1:
            raise IndexError("positions are 1-based")
        if k <= self.head.size:
            return float(self.head[k - 1])
        return self.tail

    @property
    def sup(self) -> float:
        """Supremum of the absolute entries over the whole sequence."""
        m = float(np.max(np.abs(self.head))) if self.head.size else 0.0
        return max(m, abs(self.tail))

    @property
    def limsup(self) -> float:
        """Limit superior of the absolute entries; the constant tail makes
        this exactly ``|tail|``."""
        return abs(self.tail)

    def prefix(self, n: int) -> np.ndarray:
        """First ``n`` entries as a dense vector."""
        out = np.full(n, self.tail)
        m = min(n, self.head.size)
        out[:m] = self.head[:m]
        return out

    def scale(self, factor: float) -> "TailVector":
        return TailVector(self.head * factor, self.tail * factor)


def project_PN(x, N: int):
    """Truncation projection: keep the first ``N`` coordinates, zero the rest.

    Acts on dense vectors (same length out) and on :class:`TailVector`
    (the result has tail constant 0).  Idempotent bit for bit.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    if isinstance(x, TailVector):
        return TailVector(x.prefix(N), 0.0)
    v = as_vector(x)
    out = v.copy()
    out[N:] = 0.0
    return out
