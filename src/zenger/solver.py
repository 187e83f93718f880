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
    TooLarge,
    ZengerError,
    as_vector,
    validate_weights,
)
from .norms import (
    NormSpec,
    NotPolyhedral,
    _blocks_of,
    dual_norm_lmo,
    eval_norm,
    eval_norm_many,
    generators,
    norm_dimension,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def _golden_max(fn, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal fn on [a, b]."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return mid, fn(mid)


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


def _direction_score(spec, alpha, point: np.ndarray) -> float:
    # scale-free objective over positive directions; both terms are
    # homogeneous of degree sum(alpha) = 1, so only the ray matters
    return float(alpha @ np.log(point)) - math.log(eval_norm(spec, point))


def _line_pass(score, n, d, span, stop, rounds, coarse=0.0):
    """Direction-set maximization of ``score`` over positive vectors.

    Probes coordinates, pairwise diagonals, and (after Powell) the net
    displacement of recent rounds, which straightens the zigzag that plain
    coordinate steps fall into inside anisotropic valleys.  Along a straight
    segment of positive vectors the score is unimodal whenever the norm-like
    term under its log is convex: the superlevel sets
    {prod d^alpha >= c norm(d)} are where a concave function beats a convex
    one, so golden section is exact per line.  ``coarse`` relaxes the golden
    tolerance to a fraction of each bracket for sweeps that only need to
    warm-start the next one.
    """
    base = [e for e in np.eye(n)]
    for i in range(n):
        for j in range(i + 1, n):
            base.append(base[i] + base[j])
            base.append(base[i] - base[j])
    base = [v / float(np.linalg.norm(v)) for v in base]

    extra: list[np.ndarray] = []
    current = score(d)
    for _ in range(rounds):
        if span <= stop:
            break
        moved = 0.0
        start = d
        for v in base + extra:
            u_lo, u_hi = -span, span
            for k in range(n):
                if v[k] > 0.0:
                    u_lo = max(u_lo, (1e-12 - d[k]) / v[k])
                elif v[k] < 0.0:
                    u_hi = min(u_hi, (1e-12 - d[k]) / v[k])
            if u_hi - u_lo <= 1e-14:
                continue

            def along(u: float, v: np.ndarray = v) -> float:
                return score(d + u * v)

            u_best, val = _golden_max(
                along, u_lo, u_hi, max(1e-13, coarse * (u_hi - u_lo))
            )
            if val > current:
                moved = max(moved, abs(u_best))
                d = d + u_best * v
                current = val
        step = d - start
        length = float(np.linalg.norm(step))
        if length > 1e-15:
            extra = (extra + [step / length])[-2:]
        if moved <= 0.25 * span:
            # contract only after a round that stayed well inside the
            # window; halving any faster can strand the iterate more than
            # a window away from the optimum
            span *= 0.5
        # pin the iterate to the sum-one slice so the window scale stays
        # meaningful as the search narrows
        d = d / d.sum()
        current = score(d)
    return d, current


def _refine_direction(spec, alpha, d, refine_tol):
    """Smoothing continuation toward the best positive direction.

    Line probes against the exact norm can stall: near a kink of a block
    maximum the improving set, while convex, narrows to a wedge whose angle
    no fixed probe family is guaranteed to enter.  Replacing each block
    maximum by a log-sum-exp at temperature tau removes the kinks (the
    surrogate overshoots the norm by at most tau log(2 rows), so its
    maximizer is off by O(tau) in value) while keeping the surrogate convex,
    hence the score still unimodal per line.  Annealing tau keeps every
    sweep warm-started within reach of the next, and a last sweep against
    the exact norm removes the residual smoothing bias.
    """
    n = alpha.size
    stacks = [
        (blk.coef, np.vstack([blk.matrix, -blk.matrix]))
        for blk in _blocks_of(spec)
    ]

    tau = 1e-2
    while tau > 1e-11:

        def smoothed(p: np.ndarray, tau: float = tau) -> float:
            total = 0.0
            for coef, rows in stacks:
                z = (rows @ p) / tau
                top = float(np.max(z))
                total += coef * tau * (
                    top + math.log(float(np.sum(np.exp(z - top))))
                )
            return total

        def score(p: np.ndarray, smoothed=smoothed) -> float:
            return float(alpha @ np.log(p)) - math.log(smoothed(p))

        d, _ = _line_pass(score, n, d, span=max(20.0 * tau, 1e-5),
                          stop=0.05 * tau, rounds=12, coarse=1e-5)
        tau *= 0.1

    def exact(p: np.ndarray) -> float:
        return _direction_score(spec, alpha, p)

    return _line_pass(exact, n, d, span=1e-6, stop=0.05 * refine_tol,
                      rounds=25)


def brute_force_zenger(
    problem: ZengerProblem,
    resolution: float = 1e-3,
    refine_tol: float = 1e-8,
) -> ZengerPair:
    """Oracle solver for dimension <= 3: score a simplex grid of positive
    directions, polish the best one by smoothing continuation with
    direction-set line maximization, then rescale to the unit sphere.

    Like the main solver (whose iterates the barrier's fraction-to-boundary
    rule keeps in the starting orthant), the search lives in the positive
    orthant; the returned pair certifies stationarity there.
    """
    spec = problem.spec
    alpha = problem.alpha
    n = alpha.size
    if n > 3:
        raise TooLarge("grid oracle limited to dimension 3")
    K = max(2, round(1.0 / resolution))

    if n == 1:
        D = np.ones((1, 1))
    elif n == 2:
        i = np.arange(1, K, dtype=float)
        D = np.stack([i, K - i], axis=1) / K
    else:
        i, j = np.meshgrid(np.arange(1, K), np.arange(1, K), indexing="ij")
        mask = (i + j) <= K - 1
        i, j = i[mask].astype(float), j[mask].astype(float)
        D = np.stack([i, j, K - i - j], axis=1) / K

    scores = np.log(D) @ alpha - np.log(eval_norm_many(spec, D))
    d0 = D[int(np.argmax(scores))]
    if n == 1:
        d = d0
    else:
        d, _ = _refine_direction(spec, alpha, d0, refine_tol)

    w = d / eval_norm(spec, d)
    phi = alpha / w
    gap = dual_norm_lmo(spec, phi).value - 1.0
    return ZengerPair(
        w=w,
        phi=phi,
        alpha=alpha,
        gap=gap,
        objective=log_utility(alpha, w),
        iterations=0,
        trace=(),
    )
