"""Test-only oracles: vertex enumeration for ``solve_lp`` and a nested
golden-section search for ``solve_zenger`` in dimension <= 3.

Vertex enumeration solves the square system of every n-subset of
constraints and keeps the best feasible point; it knows nothing about
pivots or bases.

On the open simplex F(d) = alpha . log d - log norm(d) is strictly
quasi-concave: its superlevel sets are where the weighted geometric mean,
concave, beats a convex norm.  So golden section (Kiefer 1953) is exact on
a segment and on the partial maximum over each slice d_1 = a.  The search
is a nested golden section on d = (a, (1 - a) b, (1 - a)(1 - b)); it knows
nothing about LPs, barriers or duality gaps.
"""

import math
from itertools import combinations

import numpy as np

from zenger import ZengerPair, dual_norm_lmo, eval_norm, log_utility
from zenger.lp import ACTIVE_EPS, LPError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Exhaustive enumeration stays tractable only at desk scale.
BRUTE_MAX_DIM = 6
BRUTE_MAX_CONSTRAINTS = 24


class TooLarge(Exception):
    """Problem size exceeds the limits of an exhaustive oracle."""


def brute_force_vertices(lp) -> tuple[float, np.ndarray]:
    """Enumerate every n-subset of constraints, solve the square system,
    keep feasible points, return the best value and point.

    Only valid on bounded feasible regions at desk scale.
    """
    c = np.asarray(lp.objective, dtype=float)
    A = np.asarray(lp.lhs, dtype=float)
    b = np.asarray(lp.rhs, dtype=float)
    m, n = A.shape
    if n > BRUTE_MAX_DIM or m > BRUTE_MAX_CONSTRAINTS:
        raise TooLarge(
            f"vertex enumeration limited to {BRUTE_MAX_DIM} variables "
            f"and {BRUTE_MAX_CONSTRAINTS} constraints"
        )
    if m < n:
        raise LPError("fewer constraints than variables, region is unbounded")

    subsets = np.array(list(combinations(range(m), n)))
    mats = A[subsets]
    rhss = b[subsets]
    dets = np.linalg.det(mats)
    keep = np.abs(dets) > 1e-12
    if not np.any(keep):
        raise LPError("no nondegenerate constraint subset found")
    points = np.linalg.solve(mats[keep], rhss[keep][..., None])[..., 0]
    feas_tol = ACTIVE_EPS * (1.0 + np.max(np.abs(b)))
    feasible = np.all(points @ A.T <= b[None, :] + feas_tol, axis=1)
    if not np.any(feasible):
        raise LPError("no feasible vertex found")
    points = points[feasible]
    values = points @ c
    best = int(np.argmax(values))
    return float(values[best]), points[best]


def _golden_max(fn) -> float:
    """Maximizer of a unimodal fn on (0, 1), to a bracket of 1e-12."""
    lo, hi, c, d = 0.0, 1.0, 1.0 - _GOLDEN, _GOLDEN
    fc, fd = fn(c), fn(d)
    while hi - lo > 1e-12:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fn(d)
    return 0.5 * (lo + hi)


def brute_force_zenger(problem) -> ZengerPair:
    """Best positive direction by nested golden section, on the unit sphere."""
    spec = problem.spec
    alpha = problem.alpha
    n = alpha.size
    if n > 3:
        raise TooLarge("oracle limited to dimension 3")

    def score(d: np.ndarray) -> float:
        return log_utility(alpha, d) - math.log(eval_norm(spec, d))

    def slice_best(a: float) -> np.ndarray:
        if n == 2:
            return np.array([a, 1.0 - a])

        def point(b: float) -> np.ndarray:
            return np.array([a, (1.0 - a) * b, (1.0 - a) * (1.0 - b)])

        return point(_golden_max(lambda b: score(point(b))))

    if n == 1:
        d = np.ones(1)
    else:
        d = slice_best(_golden_max(lambda a: score(slice_best(a))))
    w = d / eval_norm(spec, d)
    phi = alpha / w
    gap = dual_norm_lmo(spec, phi).value - 1.0
    return ZengerPair(w=w, phi=phi, gap=gap,
                      objective=log_utility(alpha, w), iterations=0)
