import numpy as np
import pytest

from zenger import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LPError,
    MaxPivotsExceeded,
    TooLarge,
    brute_force_vertices,
    solve_lp,
)


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
