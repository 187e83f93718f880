"""Weighted log-utility maximization over unit norm balls.

Maximizes F(x) = sum_k alpha_k log|x_k| over the unit ball of a polyhedral
norm.  Each iteration measures the duality gap <grad, s - x>, where s is
the dual-norm LP's maximizer; at an iterate x the gradient pairs with x to
exactly sum(alpha) = 1, so the gap equals dual_norm(grad) - 1 and is itself
the certificate quantity (the Frank-Wolfe gap, as in Jaggi, "Revisiting
Frank-Wolfe", ICML 2013).  The gap is the sole convergence criterion.

While the gap is open, the iterate is polished by following the log-barrier
central path of the ball slice cut out by its orthant with primal-dual
Newton steps, and the polished point replaces it only when it strictly
raises F.  Iteration stops when the gap closes, or when the polish fails
or cannot raise F; a gap still above ten times the tolerance then raises
NonConvergence.

The returned pair is rescaled to the unit sphere and the prices are the
exact elementwise quotient phi_k = alpha_k / w_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatch,
    Tolerances,
    ZengerError,
    as_vector,
    validate_weights,
)
from .norms import (
    NormSpec,
    NotPolyhedral,
    dual_norm_lmo,
    eval_norm,
    generators,
    norm_dimension,
)


class NonConvergence(ZengerError):
    """Iteration budget exhausted with the duality gap still too large."""

    def __init__(self, gap: float):
        self.gap = gap
        super().__init__(f"no convergence, duality gap {gap:.3e}")


@dataclass(frozen=True)
class ZengerProblem:
    """A weight vector alpha and a polyhedral norm whose unit ball to search."""

    spec: NormSpec
    alpha: np.ndarray
    tol: Tolerances = Tolerances()
    max_iterations: int = 5000

    def __post_init__(self):
        a = validate_weights(self.alpha, self.tol.weight)
        n = norm_dimension(self.spec)
        if n is None:
            raise NotPolyhedral("solving requires a finite-dimensional ball")
        if a.size != n:
            raise DimensionMismatch(
                f"{a.size} weights against a dimension-{n} norm"
            )
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class ZengerPair:
    """Solution record: bundle w on the unit sphere, prices phi = alpha / w,
    final duality gap, objective value, and the (objective, gap) trace."""

    w: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray
    gap: float
    objective: float
    iterations: int
    trace: tuple


@dataclass(frozen=True)
class Certificate:
    """The four residuals that witness a dual pair, and the verdict."""

    norm_residual: float
    dual_residual: float
    pairing_residual: float
    factor_residual: float
    tolerance: float
    ok: bool


def log_utility(alpha: np.ndarray, x: np.ndarray) -> float:
    """F(x) = sum_k alpha_k log |x_k|."""
    return float(alpha @ np.log(np.abs(x)))


def solve_zenger(problem: ZengerProblem) -> ZengerPair:
    """Polish along the log-barrier central path until the duality gap closes.

    Each iteration measures the LP duality gap, stops when it is at most
    tol.gap, and otherwise replaces the iterate by its barrier polish.  The
    loop also stops when the polish fails or does not strictly raise F.

    Parameters
    ----------
    problem : ZengerProblem
        Norm spec, weights, tolerances, and the iteration budget.

    Returns
    -------
    ZengerPair
        w on the unit sphere with phi = alpha / w; ``gap`` is the final
        duality gap and ``trace`` records (objective, gap) per iteration.

    Raises
    ------
    NonConvergence
        If iteration stops with gap > 10 * tol.gap.
    """
    spec = problem.spec
    alpha = problem.alpha
    tol = problem.tol
    n = alpha.size
    U = generators(spec)

    ones = np.ones(n)
    x = ones / (2.0 * eval_norm(spec, ones))
    f = log_utility(alpha, x)
    trace = []
    converged = False
    gap = math.inf
    iterations = 0

    for iterations in range(1, problem.max_iterations + 1):
        grad = alpha / x
        value, _ = dual_norm_lmo(spec, grad, gens=U)
        gap = value - float(grad @ x)
        trace.append((f, gap))
        if gap <= tol.gap:
            converged = True
            break
        refined = _barrier_refine(spec, U, alpha, x)
        if refined is None:
            break
        fr = log_utility(alpha, refined)
        if not fr > f:
            # the polish is deterministic, so a polish that cannot raise F
            # from x never will; strict ascent also rules out revisiting a
            # point
            break
        x, f = refined, fr
    else:
        # reached only when the budget ran out right after a polish moved
        # x; every break leaves x at the point whose gap was just measured
        grad = alpha / x
        value, _ = dual_norm_lmo(spec, grad, gens=U)
        gap = value - float(grad @ x)

    if not converged and gap > 10.0 * tol.gap:
        raise NonConvergence(gap)

    w = x / eval_norm(spec, x)
    phi = alpha / w
    return ZengerPair(
        w=w,
        phi=phi,
        alpha=alpha,
        gap=gap,
        objective=log_utility(alpha, w),
        iterations=iterations,
        trace=tuple(trace),
    )


def _barrier_refine(spec, U, alpha, x):
    """Log-barrier polish toward the optimum on the ball's positive orthant.

    solve_zenger starts from a positive multiple of the ones vector, and
    the polish never leaves the positive orthant.  There the problem is the
    smooth concave program max F(z) subject to the support-functional
    inequalities U z <= 1, so the polish follows its central path: the
    maximizers of F(z) + mu * sum_i log(s_i), s = 1 - U z, with mu cut by 8
    from each centred point down to 1e-13.  The Newton steps are
    primal-dual (Wright, "Primal-Dual Interior-Point Methods", 1997): the
    system weighs row i by y_i / s_i, where y estimates the multipliers,
    instead of the primal mu / s_i**2.  Right after a cut of mu, while the
    slacks still sit at the old level, the primal weight is 8 times below
    y / s, so its step overshoots the boundary and the fraction-to-boundary
    rule cuts it short, step after step.  y follows the linearized
    complementarity y * s = mu under its own fraction-to-boundary rule,
    which keeps it positive.  Both rules keep the iterates strictly
    interior, so no active-set bookkeeping is needed and degenerate
    vertices cost nothing; the final complementarity gap is of order mu
    times the count of active rows, comfortably below the solver's stopping
    tolerance.  Driving mu further would push the tight slacks under the
    rounding noise of recomputing 1 - U z, which is why it stops there.
    Returns the polished point rescaled to the sphere (the caller re-checks
    both the objective and the duality gap), or None on numerical failure.
    """
    mu = 1e-2
    mu_min = 1e-13

    r = eval_norm(spec, x)
    if not np.isfinite(r) or r <= 0.0:
        return None
    # start matched to the first barrier level: a point pulled inward so
    # its tightest slacks sit near mu, not squashed against the boundary
    z = x * min(1.0, (1.0 - mu) / r)
    s = 1.0 - U @ z
    if np.min(s) <= 0.0:
        return None

    y = mu / s
    for _ in range(400):
        grad = alpha / z - U.T @ (mu / s)
        H = np.diag(alpha / (z * z)) + (U.T * (y / s)[None, :]) @ U
        try:
            dz = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(dz)):
            break
        decrement = float(grad @ dz)
        if decrement <= max(0.01 * mu, 1e-16):
            # centered at this barrier level; advancing mu only from a
            # centered point keeps the slacks near mu / nu_i, which is what
            # keeps the Newton systems solvable down to the last level
            if mu <= mu_min:
                break
            mu = max(mu / 8.0, mu_min)
            continue
        t = 1.0 / (1.0 + math.sqrt(decrement))
        falling = dz < 0.0
        if np.any(falling):
            t = min(t, 0.99 * float(np.min(-z[falling] / dz[falling])))
        rates = U @ dz
        rising = rates > 0.0
        if np.any(rising):
            t = min(t, 0.99 * float(np.min(s[rising] / rates[rising])))
        if t <= 0.0:
            break
        z_next = z + t * dz
        s_next = 1.0 - U @ z_next
        if np.min(z_next) <= 0.0 or np.min(s_next) <= 0.0:
            # the slack recompute drowned in rounding noise; keep the last
            # strictly feasible point
            break
        if np.array_equal(z_next, z):
            break
        dy = (mu - y * s) / s + (y / s) * rates
        t_dual = 1.0
        shrinking = dy < 0.0
        if np.any(shrinking):
            t_dual = min(1.0, 0.99 * float(np.min(-y[shrinking]
                                                   / dy[shrinking])))
        y = y + t_dual * dy
        z, s = z_next, s_next

    scale = eval_norm(spec, z)
    if not np.isfinite(scale) or scale <= 0.0:
        return None
    return z / scale


def certify(pair: ZengerPair, problem: ZengerProblem) -> Certificate:
    """Recompute the four dual-pair residuals from scratch.

    norm_residual   : |norm(w) - 1|
    dual_residual   : |dual_norm(phi) - 1| via a fresh LP
    pairing_residual: |sum w_k phi_k - 1|
    factor_residual : max_k |w_k phi_k - alpha_k|

    The verdict compares every residual against problem.tol.certificate.
    """
    spec = problem.spec
    tol = problem.tol
    w = as_vector(pair.w)
    phi = as_vector(pair.phi)
    alpha = problem.alpha
    norm_residual = abs(eval_norm(spec, w) - 1.0)
    dual_residual = abs(dual_norm_lmo(spec, phi).value - 1.0)
    pairing_residual = abs(float(w @ phi) - 1.0)
    factor_residual = float(np.max(np.abs(w * phi - alpha)))
    ok = all(
        res <= tol.certificate
        for res in (norm_residual, dual_residual, pairing_residual, factor_residual)
    )
    return Certificate(
        norm_residual=norm_residual,
        dual_residual=dual_residual,
        pairing_residual=pairing_residual,
        factor_residual=factor_residual,
        tolerance=tol.certificate,
        ok=ok,
    )
