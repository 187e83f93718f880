import tracemalloc

import numpy as np
import pytest

from zenger import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    CompositeNorm,
    Example2Norm,
    LinearProgram,
    LPError,
    LPResult,
    MaxPivotsExceeded,
    NumericalBreakdown,
    generators,
    solve_lp,
)
from zenger.lp import ACTIVE_EPS, COST_EPS, PIVOT_EPS, default_pivot_cap

from oracle import TooLarge, brute_force_vertices


def box_lp():
    # max x1 + x2 over the unit box
    lhs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return LinearProgram(np.array([1.0, 1.0]), lhs, np.ones(4))


def random_symmetric_lp(rng):
    # constraints come in +- pairs with rhs 1, so the region is a bounded
    # polytope containing 0
    n = int(rng.integers(1, 5))
    half = int(rng.integers(n, 7))
    A = rng.normal(size=(half, n))
    A += np.sign(A) * 0.1
    lhs = np.vstack([A, -A])
    c = rng.normal(size=n)
    return LinearProgram(c, lhs, np.ones(2 * half))


def test_box_maximum():
    result = solve_lp(box_lp())
    assert result.status == OPTIMAL
    assert result.value == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(result.point, [1.0, 1.0], atol=1e-12)


def test_infeasible_bounds():
    lp = LinearProgram(np.array([1.0]), np.array([[1.0], [-1.0]]),
                       np.array([-1.0, -2.0]))
    assert solve_lp(lp).status == INFEASIBLE


def test_unbounded_ray():
    lp = LinearProgram(np.array([1.0]), np.array([[-1.0]]), np.array([0.0]))
    result = solve_lp(lp)
    assert result.status == UNBOUNDED
    assert result.value == np.inf


def test_result_point_is_feasible_and_consistent():
    rng = np.random.default_rng(21)
    for _ in range(100):
        lp = random_symmetric_lp(rng)
        result = solve_lp(lp)
        assert result.status == OPTIMAL
        slack = lp.rhs - lp.lhs @ result.point
        assert np.min(slack) >= -1e-9
        assert result.value == pytest.approx(float(lp.objective @ result.point),
                                             abs=1e-12)


def test_result_point_is_a_vertex():
    # generic objectives make the optimum unique, and a unique optimum is
    # a vertex
    rng = np.random.default_rng(22)
    for _ in range(100):
        lp = random_symmetric_lp(rng)
        result = solve_lp(lp)
        n = lp.objective.size
        active = np.nonzero(lp.rhs - lp.lhs @ result.point
                            <= 1e-9 * (1.0 + np.abs(lp.rhs)))[0]
        assert active.size >= n
        assert np.array_equal(result.active_set, active)


def test_objective_scaling_is_exact():
    # doubling the objective leaves the pivot path untouched, and powers of
    # two scale floats without rounding
    rng = np.random.default_rng(23)
    for _ in range(50):
        lp = random_symmetric_lp(rng)
        base = solve_lp(lp)
        doubled = solve_lp(LinearProgram(2.0 * lp.objective, lp.lhs, lp.rhs))
        assert doubled.value == 2.0 * base.value
        assert np.array_equal(doubled.point, base.point)


def test_pivot_cap_raises():
    with pytest.raises(MaxPivotsExceeded):
        solve_lp(box_lp(), max_pivots=1)


def test_brute_force_box():
    value, point = brute_force_vertices(box_lp())
    assert value == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(point, [1.0, 1.0], atol=1e-12)


def test_brute_force_sup_dual():
    # dual-norm LP of the 2-d sup norm at g = (0.5, 0.3): the l1 value
    lhs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    lp = LinearProgram(np.array([0.5, 0.3]), lhs, np.ones(4))
    value, point = brute_force_vertices(lp)
    assert value == pytest.approx(0.8, abs=1e-12)
    assert np.allclose(point, [1.0, 1.0], atol=1e-12)
    assert solve_lp(lp).value == pytest.approx(0.8, abs=1e-12)


def test_brute_force_limits():
    lhs = np.vstack([np.eye(7), -np.eye(7)])
    lp = LinearProgram(np.ones(7), lhs, np.ones(14))
    with pytest.raises(TooLarge):
        brute_force_vertices(lp)
    with pytest.raises(LPError):
        # fewer constraints than variables
        brute_force_vertices(
            LinearProgram(np.ones(2), np.array([[1.0, 1.0]]), np.ones(1))
        )


def test_simplex_matches_vertex_enumeration():
    rng = np.random.default_rng(24)
    for _ in range(500):
        lp = random_symmetric_lp(rng)
        result = solve_lp(lp)
        oracle_value, _ = brute_force_vertices(lp)
        assert abs(result.value - oracle_value) <= 1e-9


def test_program_validation():
    with pytest.raises(ValueError):
        LinearProgram(np.ones(2), np.ones((3, 3)), np.ones(3))
    with pytest.raises(ValueError):
        LinearProgram(np.ones(1), np.array([[np.inf]]), np.ones(1))


def test_memory_scales_with_the_nonbasic_columns():
    # a dual-norm LP of n = 5 with blocks of 5, 5 and 6 rows: 1200 rows.
    # The dictionary holds 1200 x 11 floats (0.1 MB); a full tableau with
    # its 1200 x 1200 slack block would take 11.6 MB
    rng = np.random.default_rng(5)
    spec = CompositeNorm(tuple((1.0, rng.normal(size=(rows, 5)))
                               for rows in (5, 5, 6)))
    U = generators(spec)
    lp = LinearProgram(rng.normal(size=5), U, np.ones(U.shape[0]))
    assert U.shape[0] == 1200
    tracemalloc.start()
    try:
        result = solve_lp(lp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == OPTIMAL
    assert peak <= 2e6


def _full_update_simplex(lp, max_pivots=None):
    # reference pivot loop that rewrites the whole tableau on every pivot;
    # solve_lp must follow the same pivot path to the same bits
    c = np.asarray(lp.objective, dtype=float)
    A = np.asarray(lp.lhs, dtype=float)
    b = np.asarray(lp.rhs, dtype=float)
    m, n = A.shape
    if max_pivots is None:
        max_pivots = default_pivot_cap(m, n)

    neg = b < 0
    flip = np.where(neg, -1.0, 1.0)
    A2 = A * flip[:, None]
    b2 = b * flip
    art_rows = np.nonzero(neg)[0]
    k = art_rows.size

    ncols = 2 * n + m + k
    T = np.zeros((m, ncols + 1))
    T[:, :n] = A2
    T[:, n:2 * n] = -A2
    T[np.arange(m), 2 * n + np.arange(m)] = flip
    for j, i in enumerate(art_rows):
        T[i, 2 * n + m + j] = 1.0
    T[:, -1] = b2

    cost = np.zeros(ncols)
    cost[:n] = c
    cost[n:2 * n] = -c
    big_m = 1e7 * max(1.0, float(np.max(np.abs(c))) if c.size else 1.0)
    cost[2 * n + m:] = -big_m

    basis = 2 * n + np.arange(m)
    if k:
        basis[art_rows] = 2 * n + m + np.arange(k)

    z = -cost.copy()
    z = np.append(z, 0.0)
    for i in art_rows:
        z -= big_m * T[i]

    for _ in range(max_pivots):
        improving = np.nonzero(z[:-1] < -COST_EPS)[0]
        if improving.size == 0:
            break
        e = int(improving[0])
        col = T[:, e]
        eligible = np.nonzero(col > PIVOT_EPS)[0]
        if eligible.size == 0:
            if np.any(col > 0):
                raise NumericalBreakdown(
                    f"pivot column {e} has only entries below {PIVOT_EPS}"
                )
            if k and np.any(T[np.isin(basis, range(2 * n + m, ncols)), -1] > 1e-7):
                return LPResult(INFEASIBLE, float("nan"), None, None)
            return LPResult(UNBOUNDED, float("inf"), None, None)
        ratios = T[eligible, -1] / col[eligible]
        best = np.min(ratios)
        tied = eligible[ratios <= best + 1e-12 * (1.0 + abs(best))]
        r = int(tied[np.argmin(basis[tied])])
        piv = T[r, e]
        if abs(piv) < PIVOT_EPS:
            raise NumericalBreakdown(f"pivot magnitude {abs(piv):.3e}")
        T[r] /= piv
        colvals = T[:, e].copy()
        colvals[r] = 0.0
        T -= np.outer(colvals, T[r])
        z -= z[e] * T[r]
        basis[r] = e
    else:
        raise MaxPivotsExceeded(f"no optimum within {max_pivots} pivots")

    if k:
        art_level = T[np.isin(basis, range(2 * n + m, ncols)), -1]
        if art_level.size and np.max(art_level) > 1e-7:
            return LPResult(INFEASIBLE, float("nan"), None, None)

    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] += T[i, -1]
        elif j < 2 * n:
            x[j - n] -= T[i, -1]

    value = float(c @ x)
    active = np.nonzero(b - A @ x <= ACTIVE_EPS * (1.0 + np.abs(b)))[0]
    return LPResult(OPTIMAL, value, x, active)


def _outcome(solve, lp):
    # everything a caller can observe, as bytes where it is a float
    try:
        result = solve(lp)
    except LPError as exc:
        return type(exc), str(exc)
    point = None if result.point is None else result.point.tobytes()
    active = None if result.active_set is None else result.active_set.tobytes()
    return result.status, np.float64(result.value).tobytes(), point, active


def random_mixed_lp(rng):
    # small LPs of every outcome: rounded entries make ties and degenerate
    # vertices, negative right-hand sides take the big-M artificial path,
    # unit objectives make optimal faces, and nothing keeps the region
    # bounded or nonempty
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 31))
    A = rng.normal(size=(m, n))
    if rng.random() < 0.5:
        A = np.round(A)
    b = rng.uniform(-0.5, 2.0, size=m)
    if rng.random() < 0.5:
        b = np.round(b)
    if rng.random() < 0.3:
        c = np.zeros(n)
        c[int(rng.integers(n))] = 1.0
    else:
        c = rng.normal(size=n)
    return LinearProgram(c, A, b)


def test_pivot_path_matches_full_tableau_update():
    rng = np.random.default_rng(25)
    lps = [random_mixed_lp(rng) for _ in range(500)]
    # the dual-norm LPs of the ||P_N|| table: projected generator rows of
    # Example2Norm(4) as objectives over its generator set
    U = generators(Example2Norm(4))
    for N in range(1, 4):
        V = U.copy()
        V[:, N:] = 0.0
        lps += [LinearProgram(g, U, np.ones(U.shape[0]))
                for g in np.unique(V, axis=0)]
    seen = set()
    for lp in lps:
        got = _outcome(solve_lp, lp)
        assert got == _outcome(_full_update_simplex, lp)
        seen.add(got[0])
    assert {OPTIMAL, INFEASIBLE, UNBOUNDED} <= seen


def test_big_m_phase_matches_highs():
    # an independent solver on the same 500 LPs; the two unbounded LPs
    # with a negative right-hand side that big-M still reads as infeasible
    # (M too small for them) are left out by taking only HiGHS's optimal
    # and infeasible verdicts
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(25)
    statuses = {0: OPTIMAL, 2: INFEASIBLE}
    artificial = 0
    for lp in [random_mixed_lp(rng) for _ in range(500)]:
        ref = optimize.linprog(-lp.objective, A_ub=lp.lhs, b_ub=lp.rhs,
                               bounds=(None, None), method="highs")
        if ref.status not in statuses:
            continue
        result = solve_lp(lp)
        assert result.status == statuses[ref.status]
        if result.status == OPTIMAL:
            assert abs(result.value + ref.fun) <= 1e-7
        artificial += bool(np.any(lp.rhs < 0))
    assert artificial == 181


def test_big_m_phase_matches_vertex_enumeration():
    # the LPs with a negative right-hand side, boxed into |x_i| <= 10 so the
    # region is bounded: every vertex enumeration that finds a feasible
    # vertex must match the simplex optimum, and every one that finds none
    # must match an infeasible verdict
    rng = np.random.default_rng(25)
    seen = set()
    for lp in [random_mixed_lp(rng) for _ in range(500)]:
        n, m = lp.objective.size, lp.rhs.size
        if not np.any(lp.rhs < 0) or m + 2 * n > 24:
            continue
        boxed = LinearProgram(
            lp.objective,
            np.vstack([lp.lhs, np.eye(n), -np.eye(n)]),
            np.concatenate([lp.rhs, np.full(2 * n, 10.0)]),
        )
        result = solve_lp(boxed)
        try:
            value, _ = brute_force_vertices(boxed)
        except LPError as exc:
            assert str(exc) == "no feasible vertex found"
            assert result.status == INFEASIBLE
        else:
            assert result.status == OPTIMAL
            assert abs(result.value - value) <= 1e-9 * (1.0 + abs(value))
        seen.add(result.status)
    assert seen == {OPTIMAL, INFEASIBLE}
