"""Dictionary simplex with Bland's rule.

Problems are stated as: maximize <c, x> subject to A x <= b with x free.
Free variables are split as x = u - v, slacks make rows equalities, and rows
with negative right-hand side get a big-M artificial.  No presolve.  The
simplex keeps the tableau in dictionary form (Chvatal, "Linear
Programming", 1983, ch. 2-3): basic columns are unit columns, so only the
nonbasic columns and the right-hand side are stored.  Deterministic by
construction, so repeated runs give bit-identical answers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ZengerError, as_vector

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_EPS = 1e-12  # pivot magnitudes below this abort the run
COST_EPS = 1e-9    # reduced costs within this of zero count as optimal
ACTIVE_EPS = 1e-9  # constraint slack below this counts as active


class LPError(ZengerError):
    """Base class for simplex failures."""


class MaxPivotsExceeded(LPError):
    """The pivot cap was hit before reaching optimality."""


class NumericalBreakdown(LPError):
    """The selected pivot element is too small to divide by safely."""


@dataclass(frozen=True)
class LinearProgram:
    """maximize <objective, x> subject to lhs @ x <= rhs, x free."""

    objective: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        c = as_vector(self.objective)
        b = as_vector(self.rhs)
        A = np.asarray(self.lhs, dtype=float)
        if A.ndim != 2 or A.shape != (b.size, c.size):
            raise ValueError(
                f"constraint matrix shape {A.shape} does not match "
                f"{b.size} rows and {c.size} variables"
            )
        if not np.all(np.isfinite(A)):
            raise ValueError("constraint entries must be finite")
        A = A.copy()
        for arr in (c, A, b):
            arr.setflags(write=False)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "lhs", A)
        object.__setattr__(self, "rhs", b)


@dataclass(frozen=True)
class LPResult:
    status: str
    value: float
    point: np.ndarray | None
    active_set: np.ndarray | None


def default_pivot_cap(m: int, n: int) -> int:
    """Generous diagnostic cap; Bland's rule terminates long before it."""
    return 1000 + 50 * (m + 2 * n)


def solve_lp(lp: LinearProgram, max_pivots: int | None = None) -> LPResult:
    """Solve ``lp`` by the primal simplex method.

    Variables are labelled u (0..n-1), v (n..2n-1), slacks (2n..2n+m-1)
    and artificials (from 2n+m).  Entering variable: lowest label with
    improving reduced cost (Bland).  Leaving variable: minimum ratio, ties
    broken by lowest basic label.  Raises :class:`MaxPivotsExceeded`, or
    :class:`NumericalBreakdown` on a tiny pivot or on an optimum that
    violates a row by more than ACTIVE_EPS * (1 + |b_i|); infeasible and
    unbounded problems are reported through ``status``.

    The dictionary ``D`` holds one column per nonbasic variable (labels in
    ``nonbasic``) plus the rhs: m x (2n + k + 1) floats for k rows with
    negative rhs, O(m * n) memory for the dual-norm LPs (k = 0).  A pivot
    costs O(m * (2n + k)).

    The returned point is the optimal basic point the pivots reach; it is
    a vertex of the feasible region whenever the optimum is unique.
    """
    c = np.asarray(lp.objective, dtype=float)
    A = np.asarray(lp.lhs, dtype=float)
    b = np.asarray(lp.rhs, dtype=float)
    m, n = A.shape
    if max_pivots is None:
        max_pivots = default_pivot_cap(m, n)

    # Rows with negative rhs are flipped so the rhs is nonnegative; their
    # slack coefficient becomes -1, so the slack starts nonbasic and an
    # artificial takes its place in the basis.
    neg = b < 0
    flip = np.where(neg, -1.0, 1.0)
    art_rows = np.nonzero(neg)[0]
    k = art_rows.size

    D = np.zeros((m, 2 * n + k + 1))
    D[:, :n] = A * flip[:, None]
    D[:, n:2 * n] = -D[:, :n]
    D[art_rows, 2 * n + np.arange(k)] = -1.0
    D[:, -1] = b * flip
    nonbasic = np.concatenate([np.arange(2 * n), 2 * n + art_rows])
    basis = 2 * n + np.arange(m)
    basis[art_rows] = 2 * n + m + np.arange(k)

    # z holds the reduced costs cost_B B^-1 N - cost_N and, last, the rhs
    # term; optimal when every entry >= -COST_EPS.  The artificials start
    # basic at cost -M, so each of their rows enters z with weight -M.
    big_m = 1e7 * max(1.0, float(np.max(np.abs(c))) if c.size else 1.0)
    z = np.zeros(2 * n + k + 1)
    z[:n] = -c
    z[n:2 * n] = c
    for i in art_rows:
        z -= big_m * D[i]

    for _ in range(max_pivots):
        improving = np.nonzero(z[:-1] < -COST_EPS)[0]
        if improving.size == 0:
            break
        p = int(improving[np.argmin(nonbasic[improving])])
        col = D[:, p].copy()
        eligible = np.nonzero(col > PIVOT_EPS)[0]
        if eligible.size == 0:
            if np.any(col > 0):
                raise NumericalBreakdown(f"pivot column {nonbasic[p]} has "
                                         f"only entries below {PIVOT_EPS}")
            if k and np.any(D[basis >= 2 * n + m, -1] > 1e-7):
                return LPResult(INFEASIBLE, float("nan"), None, None)
            return LPResult(UNBOUNDED, float("inf"), None, None)
        ratios = D[eligible, -1] / col[eligible]
        best = np.min(ratios)
        tied = eligible[ratios <= best + 1e-12 * (1.0 + abs(best))]
        r = int(tied[np.argmin(basis[tied])])
        piv = col[r]
        if abs(piv) < PIVOT_EPS:
            raise NumericalBreakdown(f"pivot magnitude {abs(piv):.3e}")
        # slot p takes the leaving variable, whose column is e_r before the
        # pivot; every entry then gets the update the full tableau would do
        col[r] = 0.0
        D[:, p] = 0.0
        D[r, p] = 1.0
        D[r] /= piv
        D -= np.outer(col, D[r])
        z_p = z[p]
        z[p] = 0.0
        z -= z_p * D[r]
        basis[r], nonbasic[p] = nonbasic[p], basis[r]
    else:
        raise MaxPivotsExceeded(f"no optimum within {max_pivots} pivots")

    if k:
        art_level = D[basis >= 2 * n + m, -1]
        if art_level.size and np.max(art_level) > 1e-7:
            return LPResult(INFEASIBLE, float("nan"), None, None)

    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] += D[i, -1]
        elif j < 2 * n:
            x[j - n] -= D[i, -1]

    value = float(c @ x)
    slack = b - A @ x
    scale = 1.0 + np.abs(b)
    worst = -float(np.min(slack / scale, initial=0.0))
    if worst > ACTIVE_EPS:
        raise NumericalBreakdown(f"optimal point violates a row by {worst:.3e}")
    active = np.nonzero(slack <= ACTIVE_EPS * scale)[0]
    return LPResult(OPTIMAL, value, x, active)

