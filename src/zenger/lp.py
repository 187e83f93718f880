"""Dictionary simplex with Bland's rule, for one objective or a stack.

This is the engine of ``zenger.norms.dual_norm_lmo``, which poses every
LP the package solves; none of the names here is exported from ``zenger``.

Problems are stated as: maximize <c, x> subject to A x <= b with x free.
Free variables are split as x = u - v and slacks make rows equalities.  The
rhs must be nonnegative, so the origin is feasible and the slack basis
starts the simplex: no phase one, no presolve.  The tableau is kept in
dictionary form (Chvatal, "Linear Programming", 1983, ch. 2-3): only the
nonbasic columns and the rhs are stored.  Deterministic by construction,
so repeated runs give bit-identical answers.

The objective may be one vector c of shape (n,) or a stack of k objectives
of shape (k, n) over the same A and b.  One vector pivots a single
(2n + 2) x (m + 1) dictionary with plain indexing and scalar ratio and tie
arithmetic.  A stack, even of one row, pivots in lockstep, one dictionary
per objective in a single array, each objective making its own entering and
leaving choices.  The two loops share the rules and tolerances and do the
same elementwise arithmetic, so every row of a stacked result has the bits
a one-objective solve of that row gives.  Stacks run in chunks whose
dictionaries hold at most ``STACK_BYTES``.

A single objective gives a float ``value`` and a ``point`` of shape (n,),
or None when unbounded.  A stack gives ``value`` of shape (k,) and
``point`` of shape (k, n); ``status`` is ``optimal`` only when every row
is, otherwise ``unbounded``, and the unbounded rows hold ``inf`` values and
NaN points.  The one-objective loop decides and words every error: a chunk
of a stack that fails is solved again one objective at a time, which
raises the error a one-at-a-time loop over the rows would raise first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ZengerError

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

PIVOT_EPS = 1e-12  # pivot magnitudes below this abort the run
COST_EPS = 1e-9    # reduced costs within this of zero count as optimal
ACTIVE_EPS = 1e-9  # an optimum may violate a row by this * (1 + |b_i|)
STACK_BYTES = 1 << 19  # dictionary bytes of one chunk of a stacked solve


class LPError(ZengerError):
    """Base class for simplex failures."""


class MaxPivotsExceeded(LPError):
    """The pivot cap was hit before reaching optimality."""


class NumericalBreakdown(LPError):
    """The selected pivot element is too small to divide by safely."""


@dataclass(frozen=True)
class LinearProgram:
    """maximize <objective, x> subject to lhs @ x <= rhs, x free.

    ``objective`` is one float vector (n,) or a stack (k, n) of objectives,
    ``lhs`` a finite float (m, n) array and ``rhs`` a float (m,) vector with
    every entry >= 0.  The record holds the arrays it is given: it neither
    checks nor copies them; ``zenger.norms.dual_norm_lmo``, the one caller
    in the package, checks its inputs once."""

    objective: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class LPResult:
    status: str
    value: float | np.ndarray
    point: np.ndarray | None


def default_pivot_cap(m: int, n: int) -> int:
    """Generous diagnostic cap; Bland's rule terminates long before it."""
    return 1000 + 50 * (m + 2 * n)


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve ``lp`` by the primal simplex method from the slack basis.

    The slack basis is feasible only when every ``lp.rhs`` entry is >= 0;
    that is a precondition, not checked here.  The one caller,
    ``dual_norm_lmo``, passes an rhs of ones.

    Variables are labelled u (0..n-1), v (n..2n-1) and slacks (2n..).
    Entering variable: lowest label with improving reduced cost (Bland).
    Leaving variable: minimum ratio, ties broken by lowest basic label.
    Raises :class:`MaxPivotsExceeded` after ``default_pivot_cap(m, n)``
    pivots, or :class:`NumericalBreakdown` on a tiny pivot or on an optimum
    that violates a row by more than ACTIVE_EPS * (1 + |b_i|); unbounded
    problems are reported through ``status``.

    A 1-d objective goes through the one-objective loop
    :func:`_pivot_one`; a (k, n) stack, k = 1 included, through the
    lockstep loop :func:`_pivot_stack`.  Both give the same status, value
    and point bits for the same objective.  A chunk whose lockstep solve
    fails is solved again by :func:`_pivot_one`, one objective at a time,
    so a stack raises the error of its lowest-index failing objective.

    Both loops stay because each is faster where it runs (2 vCPUs, BLAS at
    one thread).  The one-objective loop solved the 120 ``certify`` LPs of
    the bench's ``solve-composite`` seed 1 in 23.4 ms, against 51.5 ms as
    stacks of one.  The lockstep loop solved the ``pn-cascade`` stacks in
    79 ms per pass, against 109 ms for a loop of :func:`_pivot_one` over
    their rows (0.79 vs 1.25 ms at N = 4, 2.0 vs 3.0 ms at N = 6).

    The dictionary holds one column per nonbasic variable plus the rhs:
    about (2n + 2) x (m + 1) floats per objective, and a pivot costs
    O(m * n) for each.

    The returned point is the optimal basic point the pivots reach; it is
    a vertex of the feasible region whenever the optimum is unique.
    """
    # numpy runs a ufunc call with broadcast operands that fit its buffer
    # (8192 elements by default) through copies into that buffer, which
    # makes the rank-one update of a pivot about three times slower; with a
    # 16-element buffer the update runs on the arrays themselves
    bufsize = np.setbufsize(16)
    try:
        if lp.objective.ndim == 1:
            return _pivot_one(lp, lp.objective)
        C = lp.objective
        m, n = lp.lhs.shape
        k = C.shape[0]
        value = np.full(k, np.inf)
        point = np.full((k, n), np.nan)
        chunk = max(1, STACK_BYTES // (8 * (2 * n + 2) * (m + 1)))
        for lo in range(0, k, chunk):
            hi = min(k, lo + chunk)
            if not _pivot_stack(lp, C[lo:hi], value[lo:hi], point[lo:hi]):
                for i in range(lo, hi):
                    one = _pivot_one(lp, C[i])
                    if one.point is not None:
                        value[i], point[i] = one.value, one.point
    finally:
        np.setbufsize(bufsize)
    return LPResult(UNBOUNDED if np.isinf(value).any() else OPTIMAL,
                    value, point)


def _dictionary(lp, C) -> np.ndarray:
    """Slack-basis dictionaries of the objectives ``C``, one (n,) vector or
    a (k, n) stack.

    Each dictionary is stored transposed, so a column is contiguous: entry
    0 is a zero column, entries 1..2n hold the columns of u and v and the
    last entry the rhs.  Each column carries the m constraint rows and,
    last, its reduced cost, so one rank-one update pivots the constraints
    and the costs.  The costs hold cost_B B^-1 N - cost_N and, last, the
    rhs term; optimal when every entry >= -COST_EPS.  Slacks cost nothing,
    and the zero column never improves: when nothing else does, it enters,
    finds no eligible row and ends the objective's pivots.
    """
    A, b = lp.lhs, lp.rhs
    m, n = A.shape
    D = np.zeros(C.shape[:-1] + (2 * n + 2, m + 1))
    D[..., 1:n + 1, :m] = A.T
    D[..., n + 1:-1, :m] = -A.T
    D[..., -1, :m] = b
    D[..., 1:n + 1, m] = -C
    D[..., n + 1:-1, m] = C
    return D


def _pivot_one(lp, c) -> LPResult:
    """Pivot the single objective ``c`` over the constraints of ``lp``.

    This loop decides and words every LP error, with :func:`_optimum`'s
    row check; :func:`_pivot_stack` only reports that a chunk failed.  It
    makes the lockstep loop's choices with the same elementwise arithmetic
    on one (2n + 2, m + 1) dictionary of :func:`_dictionary`: the ratios of
    the eligible rows and the tie bound come from the same divisions and
    the same three float operations, so the bits match a stack of one.
    """
    m, n = lp.lhs.shape
    cap = default_pivot_cap(m, n)
    nolabel = 2 * n + m  # above every label

    D = _dictionary(lp, c)
    costs, rhs = D[:-1, m], D[-1, :m]
    update = np.empty_like(D)
    nonbasic = np.arange(-1, 2 * n)
    basis = np.arange(2 * n, nolabel)

    for _ in range(cap):
        p = int(np.where(costs < -COST_EPS, nonbasic, nolabel).argmin())
        if p == 0:
            value, x = _optimum(lp, c, rhs, basis, 1.0 + np.abs(lp.rhs))
            return LPResult(OPTIMAL, value, x)
        entries = D[p, :m]
        eligible = (entries > PIVOT_EPS).nonzero()[0]
        if eligible.size == 0:
            if np.any(entries > 0):
                raise NumericalBreakdown(
                    f"pivot column {nonbasic[p]} has only entries below "
                    f"{PIVOT_EPS}")
            return LPResult(UNBOUNDED, float("inf"), None)
        ratios = rhs[eligible] / entries[eligible]
        best = float(ratios.min())
        tied = eligible[ratios <= best + 1e-12 * (1.0 + abs(best))]
        r = int(tied[basis[tied].argmin()])
        piv = entries[r]
        # column p takes the leaving variable, whose column is e_r before
        # the pivot; every entry then gets the update the full tableau
        # would do
        col = D[p].copy()
        col[r] = 0.0
        D[p] = 0.0
        D[p, r] = 1.0
        row = D[:, r] / piv
        D[:, r] = row
        np.multiply(row[:, None], col[None, :], out=update)
        D -= update
        basis[r], nonbasic[p] = nonbasic[p], basis[r]
    raise MaxPivotsExceeded(f"no optimum within {cap} pivots")


def _pivot_stack(lp, C, value, point) -> bool:
    """Pivot the objectives ``C`` over the constraints of ``lp`` in lockstep.

    Fills the optimal rows of ``value`` and ``point`` and returns True, or
    returns False at the first failure: the pivot cap, a pivot column whose
    entries are all below ``PIVOT_EPS``, or an error of :func:`_optimum`.
    Unbounded rows are left as they are.  Slot j of the stack holds
    objective ``slot[j]``; the first ``live`` slots are still pivoting, and
    a finished slot is refilled with the last live one, so the live
    objectives are always a leading view of the arrays.

    Each objective has a dictionary of :func:`_dictionary`, whose nonbasic
    columns carry the labels in ``nonbasic``.  A zero may come out with the
    other sign than in a full-tableau pivot; no choice and no returned bit
    depends on the sign of a zero.
    """
    b = lp.rhs
    k, n = C.shape
    m = b.size
    cap = default_pivot_cap(m, n)
    nolabel = 2 * n + m  # above every label

    D = _dictionary(lp, C)
    update = np.empty_like(D)
    nonbasic = np.empty((k, 2 * n + 1), dtype=int)
    nonbasic[:] = np.arange(-1, 2 * n)
    basis = np.empty((k, m), dtype=int)
    basis[:] = np.arange(2 * n, nolabel)
    slot = list(range(k))
    scale = 1.0 + np.abs(b)
    live = k
    pivots = 0
    Dl, N, B, at = D, nonbasic, basis, np.arange(k)

    while live:
        if pivots == cap:
            return False
        p = np.where(Dl[:, :-1, m] < -COST_EPS, N, nolabel).argmin(axis=1)
        col = Dl[at, p]
        eligible = col[:, :m] > PIVOT_EPS
        has_row = eligible.any(axis=1)
        if not has_row.all():
            # finish in descending slot order, so the last live slot that
            # refills a finished one is itself still live
            for j in np.flatnonzero(~has_row)[::-1].tolist():
                if p[j] == 0:
                    i = slot[j]
                    try:
                        value[i], point[i] = _optimum(
                            lp, C[i], D[j, -1, :m], basis[j], scale)
                    except LPError:
                        return False
                elif np.any(col[j, :m] > 0):
                    return False
                live -= 1
                if j < live:
                    for arr in (D, nonbasic, basis, slot):
                        arr[j] = arr[live]
            Dl, N, B, at = D[:live], nonbasic[:live], basis[:live], at[:live]
            continue
        # rows that are not eligible get NaN ratios: fmin skips them and
        # they tie with nothing
        ratios = Dl[:, -1, :m] / np.where(eligible, col[:, :m], np.nan)
        best = np.fmin.reduce(ratios, axis=1)
        tied = ratios <= (best + 1e-12 * (1.0 + np.abs(best)))[:, None]
        r = np.where(tied, B, nolabel).argmin(axis=1)
        piv = col[at, r]
        # column p takes the leaving variable, whose column is e_r before
        # the pivot; every entry then gets the update the full tableau
        # would do
        col[at, r] = 0.0
        Dl[at, p] = 0.0
        Dl[at, p, r] = 1.0
        row = Dl[at, :, r] / piv[:, None]
        Dl[at, :, r] = row
        np.multiply(row[:, :, None], col[:, None, :], out=update[:live])
        Dl -= update[:live]
        leaving = B[at, r]
        B[at, r] = N[at, p]
        N[at, p] = leaving
        pivots += 1
    return True


def _optimum(lp, c, rhs, basis, scale) -> tuple[float, np.ndarray]:
    """Value and point of an optimal dictionary, after the row check."""
    n = c.size
    # x = u - v, summed from 0.0 as a loop over the basic rows would, so a
    # -0.0 in the rhs comes out as 0.0
    basic = np.zeros(2 * n + rhs.size)
    basic[basis] = rhs
    x = (basic[:n] + 0.0) - basic[n:2 * n]

    value = float(c @ x)
    slack = lp.rhs - lp.lhs @ x
    worst = -float(np.min(slack / scale, initial=0.0))
    if worst > ACTIVE_EPS:
        raise NumericalBreakdown(f"optimal point violates a row by {worst:.3e}")
    return value, x
