import tracemalloc

import numpy as np
import pytest

import zenger.lp
from zenger import (
    CompositeNorm,
    Example2Norm,
    SupNorm,
    dual_norm_lmo,
    example2_family,
    generators,
)
from zenger.lp import (
    COST_EPS,
    OPTIMAL,
    PIVOT_EPS,
    STACK_BYTES,
    UNBOUNDED,
    LinearProgram,
    LPError,
    LPResult,
    MaxPivotsExceeded,
    NumericalBreakdown,
    default_pivot_cap,
    solve_lp,
)
from zenger.norms import _canonical_rows

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


def test_pivot_cap_raises(monkeypatch):
    monkeypatch.setattr(zenger.lp, "default_pivot_cap", lambda m, n: 1)
    with pytest.raises(MaxPivotsExceeded):
        solve_lp(box_lp())


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
    # dual_norm_lmo checks the constraint array of its LP once, whether a
    # caller passes it as gens= or it is the norm's expansion: one column
    # per variable and finite entries
    with pytest.raises(ValueError, match=r"shape \(3, 3\) does not match "
                                         r"3 rows and 2 variables"):
        dual_norm_lmo(SupNorm(2), np.ones(2), gens=np.ones((3, 3)))
    for gens in (np.ones(2), np.float64(1.0)):
        with pytest.raises(ValueError, match="does not match"):
            dual_norm_lmo(SupNorm(2), np.ones(2), gens=gens)
    with pytest.raises(ValueError, match="constraint entries must be finite"):
        dual_norm_lmo(SupNorm(1), np.ones(1), gens=np.array([[np.inf]]))
    # a coefficient times a block entry overflows, so the expansion holds
    # inf rows
    spec = CompositeNorm(((1e300, np.diag([1e10, 1.0])),))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="constraint entries must be finite"):
            dual_norm_lmo(spec, np.ones(2))


def test_program_leaves_the_callers_arrays_writeable():
    # the program holds the arrays it is given, unchecked and uncopied, and
    # dual_norm_lmo freezes none of its caller's arrays
    c, A, b = np.array([1.0, 1.0]), np.eye(2), np.ones(2)
    lp = LinearProgram(c, A, b)
    assert lp.objective is c and lp.lhs is A and lp.rhs is b
    assert solve_lp(lp).value == 2.0
    g = np.array([0.5, -2.0])
    U = np.vstack([np.eye(2), -np.eye(2)])
    assert dual_norm_lmo(SupNorm(2), g).value == 2.5
    assert dual_norm_lmo(SupNorm(2), g, gens=U).value == 2.5
    assert all(given.flags.writeable for given in (c, A, b, g, U))


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

    ncols = 2 * n + m
    T = np.zeros((m, ncols + 1))
    T[:, :n] = A
    T[:, n:2 * n] = -A
    T[np.arange(m), 2 * n + np.arange(m)] = 1.0
    T[:, -1] = b

    cost = np.zeros(ncols)
    cost[:n] = c
    cost[n:2 * n] = -c

    basis = 2 * n + np.arange(m)
    z = np.append(-cost, 0.0)

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
            return LPResult(UNBOUNDED, float("inf"), None)
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

    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] += T[i, -1]
        elif j < 2 * n:
            x[j - n] -= T[i, -1]

    value = float(c @ x)
    return LPResult(OPTIMAL, value, x)


def _outcome(solve, lp):
    # everything a caller can observe, as bytes where it is a float
    try:
        result = solve(lp)
    except LPError as exc:
        return type(exc), str(exc)
    point = None if result.point is None else result.point.tobytes()
    return result.status, np.float64(result.value).tobytes(), point


def random_mixed_lp(rng):
    # (objective, lhs, rhs) of small LPs of every outcome: rounded entries
    # make ties and degenerate vertices, unit objectives make optimal faces,
    # and nothing keeps the region bounded; a negative rhs cuts the origin
    # off, and solve_lp requires the origin to be feasible, so the tests
    # that solve these draws leave such programs out
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
    return c, A, b


def mixed_draws():
    rng = np.random.default_rng(25)
    return [random_mixed_lp(rng) for _ in range(500)]


def test_pivot_path_matches_full_tableau_update():
    lps = [LinearProgram(c, A, b) for c, A, b in mixed_draws()
           if np.all(b >= 0)]
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
    assert seen == {OPTIMAL, UNBOUNDED}


def test_simplex_matches_highs():
    # an independent solver on the 302 origin-feasible draws, with every
    # HiGHS verdict kept: status 0 is optimal and 3 unbounded
    optimize = pytest.importorskip("scipy.optimize")
    statuses = {0: OPTIMAL, 3: UNBOUNDED}
    seen = []
    for c, A, b in mixed_draws():
        if np.any(b < 0):
            continue
        lp = LinearProgram(c, A, b)
        ref = optimize.linprog(-c, A_ub=A, b_ub=b, bounds=(None, None),
                               method="highs")
        result = solve_lp(lp)
        assert result.status == statuses.get(ref.status)
        if result.status == OPTIMAL:
            assert abs(result.value + ref.fun) <= 1e-7
        seen.append(result.status)
    assert (seen.count(OPTIMAL), seen.count(UNBOUNDED)) == (237, 65)


def _stack_outcomes(stack, lhs, rhs):
    # one solve of the whole stack, as per-row outcomes, or the error it
    # raised
    try:
        result = solve_lp(LinearProgram(stack, lhs, rhs))
    except LPError as exc:
        return type(exc), str(exc)
    assert result.value.shape == (len(stack),)
    assert result.point.shape == (len(stack), lhs.shape[1])
    rows = []
    for value, point in zip(result.value, result.point):
        if value == np.inf:
            assert np.all(np.isnan(point))
            rows.append((UNBOUNDED, None, None))
        else:
            rows.append((OPTIMAL, value.tobytes(), point.tobytes()))
    expected = OPTIMAL if all(r[0] == OPTIMAL for r in rows) else UNBOUNDED
    assert result.status == expected
    return rows


def _loop_outcomes(stack, lhs, rhs):
    # the same objectives solved one at a time; the first error ends it
    rows = []
    for c in stack:
        got = _outcome(solve_lp, LinearProgram(c, lhs, rhs))
        if got[0] not in (OPTIMAL, UNBOUNDED):
            return got
        rows.append(got if got[0] == OPTIMAL else (UNBOUNDED, None, None))
    return rows


def test_stacked_solve_matches_one_at_a_time():
    # every origin-feasible draw's constraints carry a stack of its own
    # objective, the objectives of other draws of the same dimension and
    # unit objectives of both signs, so stacks mix optimal and unbounded rows
    draws = [d for d in mixed_draws() if np.all(d[2] >= 0)]
    rng = np.random.default_rng(26)
    mixed = 0
    for c, A, b in draws:
        n = c.size
        others = [d[0] for d in draws if d[0].size == n]
        picks = rng.choice(len(others), size=min(6, len(others)), replace=False)
        stack = np.array([c] + [others[i] for i in picks]
                         + list(np.eye(n)) + list(-np.eye(n)))
        got = _stack_outcomes(stack, A, b)
        assert got == _loop_outcomes(stack, A, b)
        mixed += {r[0] for r in got} == {OPTIMAL, UNBOUNDED}
    assert (mixed, len(draws)) == (48, 302)


def test_stacked_solve_raises_the_lowest_index_failure(monkeypatch):
    # with the cap at 2 pivots, objectives that need more fail with
    # MaxPivotsExceeded; wherever the failing rows sit in the stack, the
    # error is the one the first failing row raises alone, and a stack
    # whose rows all finish within the cap is solved
    lhs = np.vstack([np.eye(3), -np.eye(3)])
    rhs = np.ones(6)
    easy = [np.array([1.0, 0.0, 0.0]), np.array([0.0, -2.0, 0.0])]
    hard = np.array([1.0, 1.0, 1.0])
    monkeypatch.setattr(zenger.lp, "default_pivot_cap", lambda m, n: 2)
    for stack in ([easy[0], hard, easy[1]], [hard, easy[0]], [easy[1], hard]):
        got = _stack_outcomes(np.array(stack), lhs, rhs)
        assert got == _loop_outcomes(np.array(stack), lhs, rhs)
        assert got == (MaxPivotsExceeded, "no optimum within 2 pivots")
    assert all(r[0] == OPTIMAL for r in _stack_outcomes(np.array(easy), lhs, rhs))


def test_tiny_pivot_column_raises():
    # the entering column's only entry is positive but below PIVOT_EPS:
    # maximizing x raises, maximizing -x is unbounded, and a stack of both
    # raises the error of its row 1 after the unbounded row 0
    lhs, rhs = np.array([[1e-13]]), np.ones(1)
    error = (NumericalBreakdown, "pivot column 0 has only entries below 1e-12")
    assert _outcome(solve_lp, LinearProgram(np.array([1.0]), lhs, rhs)) == error
    assert _outcome(solve_lp, LinearProgram(np.array([-1.0]), lhs, rhs)) == (
        UNBOUNDED, np.float64(np.inf).tobytes(), None)
    stack = np.array([[-1.0], [1.0]])
    assert _stack_outcomes(stack, lhs, rhs) == error
    assert _loop_outcomes(stack, lhs, rhs) == error


def _moved_functionals(N):
    # generators of example2_family(N) and the canonical functionals that
    # P_N moves, the stack projection_norm solves
    U = generators(example2_family(N))
    V = U[U[:, -1] != 0.0].copy()
    V[:, -1] = 0.0
    return U, _canonical_rows(V)


def _counted_one_objective_solves(monkeypatch):
    # the objectives solve_lp hands to the one-objective loop, in order
    calls = []
    pivot_one = zenger.lp._pivot_one

    def counted(lp, c):
        calls.append(c)
        return pivot_one(lp, c)

    monkeypatch.setattr(zenger.lp, "_pivot_one", counted)
    return calls


def test_lockstep_is_the_success_path(monkeypatch):
    # a stack is solved again one objective at a time only when its
    # lockstep solve fails, and that pass stops at the first failing row
    U, V = _moved_functionals(9)
    box = np.vstack([np.eye(3), -np.eye(3)])
    half = np.eye(3)
    mixed = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 2.0, 1.0]])
    calls = _counted_one_objective_solves(monkeypatch)
    assert solve_lp(LinearProgram(V, U, np.ones(U.shape[0]))).status == OPTIMAL
    assert solve_lp(LinearProgram(mixed, half, np.ones(3))).status == UNBOUNDED
    assert calls == []

    monkeypatch.setattr(zenger.lp, "default_pivot_cap", lambda m, n: 2)
    easy = [np.array([1.0, 0.0, 0.0]), np.array([0.0, -2.0, 0.0])]
    hard = np.array([1.0, 1.0, 1.0])
    for stack in ([easy[0], hard, easy[1]], [hard, easy[0]], [easy[1], hard]):
        calls.clear()
        with pytest.raises(MaxPivotsExceeded):
            solve_lp(LinearProgram(np.array(stack), box, np.ones(6)))
        first = next(i for i, c in enumerate(stack) if c is hard)
        assert np.array_equal(calls, stack[:first + 1])
    calls.clear()
    solve_lp(LinearProgram(np.array(easy), box, np.ones(6)))
    assert calls == []


def test_memory_of_a_stack_is_capped_by_its_chunks():
    # the 27 moved functionals of ||P_9|| on example2_family(9): 380 rows,
    # and dictionaries of 67 KB each, 1.8 MB together, solved in chunks of
    # at most STACK_BYTES with the bits of 27 separate solves
    U, V = _moved_functionals(9)
    assert U.shape[0] == 380 and V.shape[0] == 27
    lp = LinearProgram(V, U, np.ones(U.shape[0]))
    tracemalloc.start()
    try:
        result = solve_lp(lp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == OPTIMAL
    assert peak <= STACK_BYTES + 2e6
    for g, value, point in zip(V, result.value, result.point):
        alone = solve_lp(LinearProgram(g, U, np.ones(U.shape[0])))
        assert (value.tobytes(), point.tobytes()) == (
            np.float64(alone.value).tobytes(), alone.point.tobytes())
