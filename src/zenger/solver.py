"""Weighted log-utility maximization over unit balls of polyhedral norms.

Maximizes F(x) = sum_k alpha_k log x_k over the positive part of the unit
ball of ``norm(x) = sum_j c_j max_r |(A_j x)_r|``.  The ball is the
projection of the lifted polytope

    A_j x - t_j 1 <= 0,   -A_j x - t_j 1 <= 0,   sum_j c_j t_j <= 1

over v = (x, t) (Boyd & Vandenberghe, "Convex Optimization", 2004, §4.3):
2 sum_j R_j + 1 rows and n + J columns for J blocks of R_j rows, where the
support-functional expansion of the norm needs up to prod_j 2 R_j rows.
One primal-dual log-barrier solve of that program gives the optimum.

The gap comes from the barrier's multipliers (§5.5, §11.3).  With y_j^+,
y_j^- >= 0 on the two row families of block j and lambda on the budget
row, stationarity reads alpha / x = sum_j A_j^T (y_j^+ - y_j^-) and
1^T (y_j^+ + y_j^-) = lambda c_j, and at the optimum lambda = sum(alpha)
= 1.  Put rho = norm(x), w = x / rho and eta_j = rho (y_j^+ - y_j^-).  Then
phi = alpha / w = S^T eta, S the stacked rows A_j, and for every z

    <phi, z> = sum_j <eta_j, A_j z> <= max_j (||eta_j||_1 / c_j) norm(z).

The multipliers satisfy stationarity only to the barrier's accuracy, so the
residual r = phi - S^T eta is folded into eta by one least-squares solve on
S^T (full row rank, because CompositeNorm refuses stacked rows without full
column rank), and what rounding leaves is paid for by <r, z> <=
||r||_1 ||z||_inf <= ||r||_1 B on the unit ball, where

    B = sqrt(R) / (min_j c_j * sigma_min(S)),   R = sum_j R_j.

B bounds ||z||_inf there: ||z||_inf <= ||z||_2 <= ||S z||_2 / sigma_min(S)
<= sqrt(R) max_j ||A_j z||_inf / sigma_min(S), and c_j ||A_j z||_inf <=
norm(z) <= 1 for every j.  So dual_norm(phi) <= max_j ||eta_j||_1 / c_j +
||r||_1 B, with no LP; ``gap`` is that bound minus 1.  It is never
negative, because dual_norm(phi) >= <phi, w> = sum(alpha) = 1 on the
sphere (up to the rounding ``WEIGHT_TOL`` allows in the sum).

The returned pair is rescaled to the unit sphere and the prices are the
exact elementwise quotient phi_k = alpha_k / w_k.  ``certify`` checks it
against a fresh simplex LP over the generators, so the solve never depends
on the method that checks it.

The thresholds are module constants, read on every call: the solve refuses
a gap above ``10 * GAP_TOL`` and the certificate passes when every residual
is at most ``CERTIFICATE_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, ZengerError, as_vector, validate_weights
from .norms import (
    NormSpec,
    NotPolyhedral,
    _blocks_of,
    dual_norm_lmo,
    eval_norm,
    generators,
    norm_dimension,
)

NEWTON_BUDGET = 5000  # Newton steps one barrier solve may take
GAP_TOL = 1e-9  # solve_zenger raises NonConvergence above 10 * GAP_TOL
CERTIFICATE_TOL = 1e-6  # bound every certificate residual must meet


class NonConvergence(ZengerError):
    """The barrier solve ended with the multiplier gap still too large."""

    def __init__(self, gap: float):
        self.gap = gap
        super().__init__(f"no convergence, duality gap {gap:.3e}")


@dataclass(frozen=True)
class ZengerProblem:
    """A weight vector alpha and a polyhedral norm whose unit ball to search.

    ``alpha`` is kept as a read-only copy of the validated weights."""

    spec: NormSpec
    alpha: np.ndarray

    def __post_init__(self):
        a = validate_weights(self.alpha).copy()
        n = norm_dimension(self.spec)
        if n is None:
            raise NotPolyhedral("solving requires a finite-dimensional ball")
        if a.size != n:
            raise DimensionMismatch(
                f"{a.size} weights against a dimension-{n} norm"
            )
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class ZengerPair:
    """Solution record: bundle w on the unit sphere, prices phi = alpha / w
    for the problem's alpha, the gap (the multiplier bound on
    dual_norm(phi), minus 1), the objective value, and the number of Newton
    steps taken (at most ``NEWTON_BUDGET``)."""

    w: np.ndarray
    phi: np.ndarray
    gap: float
    objective: float
    iterations: int


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
    """One barrier solve on the lifted program; its multipliers give the gap.

    Parameters
    ----------
    problem : ZengerProblem
        Norm spec and weights.

    Returns
    -------
    ZengerPair
        w on the unit sphere with phi = alpha / w; ``gap`` bounds
        dual_norm(phi) - 1 from above and ``iterations`` counts Newton
        steps.

    Raises
    ------
    NonConvergence
        If the barrier solve ends with gap > 10 * GAP_TOL.
    """
    spec = problem.spec
    alpha = problem.alpha
    n = alpha.size
    blocks = _blocks_of(spec)
    J = len(blocks)
    S = np.vstack([blk.matrix for blk in blocks])
    coefs = np.array([blk.coef for blk in blocks])
    rows = [blk.matrix.shape[0] for blk in blocks]
    member = np.repeat(np.eye(J), rows, axis=0)
    G = np.block([[S, -member], [-S, -member],
                  [np.zeros((1, n)), coefs[None, :]]])
    h = np.zeros(G.shape[0])
    h[-1] = 1.0

    # norm(x0) = 1/2; each t_j sits 0.25 / (J c_j) above its block, so the
    # budget row keeps a slack of 1/4 as well
    ones = np.ones(n)
    x0 = ones / (2.0 * eval_norm(spec, ones))
    t0 = np.array([np.max(np.abs(blk.matrix @ x0)) for blk in blocks])
    t0 += 0.25 / (J * coefs)

    x, y, steps = _barrier_refine(G, h, alpha, np.concatenate([x0, t0]))

    rho = eval_norm(spec, x)
    w = x / rho
    phi = alpha / w
    R = S.shape[0]
    eta = rho * (y[:R] - y[R:2 * R])
    eta += np.linalg.lstsq(S.T, phi - S.T @ eta, rcond=None)[0]
    residual = float(np.sum(np.abs(phi - S.T @ eta)))
    bound = math.sqrt(R) / (float(np.min(coefs))
                            * np.linalg.svd(S, compute_uv=False)[-1])
    per_block = np.add.reduceat(np.abs(eta), np.cumsum([0] + rows[:-1]))
    per_block /= coefs
    gap = float(np.max(per_block)) + residual * bound - 1.0
    if not gap <= 10.0 * GAP_TOL:
        raise NonConvergence(gap)

    return ZengerPair(
        w=w,
        phi=phi,
        gap=gap,
        objective=log_utility(alpha, w),
        iterations=steps,
    )


def _barrier_refine(G, h, alpha, v):
    """Primal-dual log-barrier solve of max F(x) subject to G v <= h.

    v = (x, t) must start strictly inside with x > 0, and the iterates
    stay there.  The solve follows the central path: the maximizers of
    F(x) + mu * sum_i log(s_i), s = h - G v, with mu cut by 100 from each
    centred point, from 1e-2 down to 1e-13 (six cuts).  F acts on the x
    part only; its log keeps x positive, and the rows keep t above the
    blocks.  The Newton steps are primal-dual (Wright, "Primal-Dual
    Interior-Point Methods", 1997): the system weighs row i by y_i / s_i,
    where y estimates the multipliers, instead of the primal mu / s_i**2.
    Right after a cut of mu, while the slacks still sit at the old level,
    the primal weight is 100 times below y / s, so a primal step would
    overshoot the boundary and the fraction-to-boundary rule would cut it
    short, step after step.  y follows the linearized complementarity
    y * s = mu under its own fraction-to-boundary rule, which keeps it
    positive.  Both rules keep the iterates strictly interior, so no
    active-set bookkeeping is needed and degenerate vertices cost nothing.
    Driving mu below 1e-13 would push the tight slacks under the rounding
    noise of recomputing h - G v, which is why it stops there.

    Takes at most ``NEWTON_BUDGET`` Newton steps; the schedule needs 22-33
    of them on the benchmark's solve requests and under 50 on
    ``Example2Norm(n)`` up to n = 200, so the cap only ends a solve that
    has stalled.  Returns (x, y, steps): the last strictly feasible x, its
    multiplier estimates y (one per row of G) and the number of Newton
    steps.  A numerical failure ends the solve early; the caller's gap
    then shows how far it got.
    """
    mu = 1e-2
    mu_min = 1e-13
    n = alpha.size
    m = h.size
    diag_x = np.arange(n)

    s = h - G @ v
    y = mu / s
    steps = 0
    while steps < NEWTON_BUDGET:
        x = v[:n]
        grad = -(G.T @ (mu / s))
        grad[:n] += alpha / x
        weight = y / s
        H = (G.T * weight[None, :]) @ G
        H[diag_x, diag_x] += alpha / (x * x)
        steps += 1
        try:
            dv = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(dv).all():
            break
        decrement = float(grad @ dv)
        if decrement <= max(0.01 * mu, 1e-16):
            # centered at this barrier level; advancing mu only from a
            # centered point keeps the slacks near mu / y_i, which is what
            # keeps the Newton systems solvable down to the last level
            if mu <= mu_min:
                break
            mu = max(mu / 100.0, mu_min)
            continue
        # fraction-to-boundary ratios over the masked entries only; the
        # others read -inf or inf, so an empty mask leaves the step alone
        step = 1.0 / (1.0 + math.sqrt(decrement))
        dx = dv[:n]
        x_ratio = np.divide(x, dx, where=dx < 0.0, out=np.full(n, -np.inf))
        step = min(step, -0.99 * float(x_ratio.max()))
        rates = G @ dv
        s_ratio = np.divide(s, rates, where=rates > 0.0,
                            out=np.full(m, np.inf))
        step = min(step, 0.99 * float(s_ratio.min()))
        if step <= 0.0:
            break
        v_next = v + step * dv
        s_next = h - G @ v_next
        if v_next[:n].min() <= 0.0 or s_next.min() <= 0.0:
            # the slack recompute drowned in rounding noise; keep the last
            # strictly feasible point
            break
        if (v_next == v).all():
            break
        dy = (mu - y * s) / s + weight * rates
        y_ratio = np.divide(y, dy, where=dy < 0.0, out=np.full(m, -np.inf))
        t_dual = min(1.0, -0.99 * float(y_ratio.max()))
        y = y + t_dual * dy
        v, s = v_next, s_next

    return v[:n], y, steps


def certify(pair: ZengerPair, problem: ZengerProblem) -> Certificate:
    """Recompute the four dual-pair residuals from scratch.

    norm_residual   : |norm(w) - 1|
    dual_residual   : |dual_norm(phi) - 1| via a fresh simplex LP over the
                      generators, independent of the solve's multipliers
    pairing_residual: |sum w_k phi_k - 1|
    factor_residual : max_k |w_k phi_k - alpha_k|

    The verdict compares every residual against ``CERTIFICATE_TOL``.
    """
    spec = problem.spec
    tol = CERTIFICATE_TOL
    w = as_vector(pair.w)
    phi = as_vector(pair.phi)
    alpha = problem.alpha
    norm_residual = abs(eval_norm(spec, w) - 1.0)
    dual = dual_norm_lmo(spec, phi, gens=generators(spec)).value
    dual_residual = abs(dual - 1.0)
    pairing_residual = abs(float(w @ phi) - 1.0)
    factor_residual = float(np.max(np.abs(w * phi - alpha)))
    ok = all(
        res <= tol
        for res in (norm_residual, dual_residual, pairing_residual, factor_residual)
    )
    return Certificate(
        norm_residual=norm_residual,
        dual_residual=dual_residual,
        pairing_residual=pairing_residual,
        factor_residual=factor_residual,
        tolerance=tol,
        ok=ok,
    )
