import json
import math
from dataclasses import replace

import numpy as np
import pytest

from zenger import (
    CompositeNorm,
    DimensionMismatch,
    Example1TailNorm,
    Example2Norm,
    LPFailure,
    NonConvergence,
    NotPolyhedral,
    SupNorm,
    Tolerances,
    TooLarge,
    ZengerProblem,
    certify,
    dual_norm_lmo,
    eval_norm,
    geometric_alpha,
    log_utility,
    solve_zenger,
)
import zenger.solver
from zenger.cli import main

from oracle import brute_force_zenger


def random_composite(rng, n, max_blocks=3):
    blocks = []
    for _ in range(int(rng.integers(1, max_blocks + 1))):
        rows = int(rng.integers(n, n + 4))
        M = rng.normal(size=(rows, n))
        M += np.sign(M) * 0.3
        blocks.append((float(rng.uniform(0.3, 2.0)), M))
    return CompositeNorm(tuple(blocks))


def random_alpha(rng, n):
    a = rng.uniform(0.1, 1.0, size=n)
    return a / a.sum()


def test_problem_validation():
    with pytest.raises(DimensionMismatch):
        ZengerProblem(spec=SupNorm(3), alpha=(0.5, 0.5))
    with pytest.raises(NotPolyhedral):
        ZengerProblem(spec=Example1TailNorm(), alpha=(1.0,))
    with pytest.raises(ValueError):
        ZengerProblem(spec=SupNorm(1), alpha=(1.0,), max_iterations=0)


def test_sup_norm_closed_form():
    problem = ZengerProblem(spec=SupNorm(3), alpha=(0.5, 0.3, 0.2))
    pair = solve_zenger(problem)
    assert np.max(np.abs(pair.w - 1.0)) <= 1e-10
    assert np.max(np.abs(pair.phi - np.array([0.5, 0.3, 0.2]))) <= 1e-10
    assert pair.gap <= 1e-9
    cert = certify(pair, problem)
    assert cert.ok
    assert max(cert.norm_residual, cert.dual_residual,
               cert.pairing_residual, cert.factor_residual) <= 1e-10


def test_weighted_sup_closed_form():
    spec = CompositeNorm(((1.0, np.diag([1.0, 2.0, 3.0, 4.0])),))
    pair = solve_zenger(ZengerProblem(spec=spec, alpha=(0.25,) * 4))
    assert np.max(np.abs(pair.w - np.array([1, 1 / 2, 1 / 3, 1 / 4]))) <= 1e-10
    assert np.max(np.abs(pair.phi - np.array([0.25, 0.5, 0.75, 1.0]))) <= 1e-10


def test_cascade_truncation_certifies_and_matches_oracle():
    problem = ZengerProblem(spec=Example2Norm(12), alpha=geometric_alpha(0.25, 12))
    pair = solve_zenger(problem)
    cert = certify(pair, problem)
    assert cert.ok
    small = ZengerProblem(spec=Example2Norm(3), alpha=(16 / 21, 4 / 21, 1 / 21))
    fast = solve_zenger(small)
    slow = brute_force_zenger(small)
    assert abs(fast.objective - slow.objective) <= 1e-6


def test_pair_invariants():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        problem = ZengerProblem(spec=random_composite(rng, n),
                                alpha=random_alpha(rng, n))
        pair = solve_zenger(problem)
        assert np.all(pair.w != 0.0)
        assert eval_norm(problem.spec, pair.w) <= 1.0 + problem.tol.certificate
        # prices are the exact elementwise quotient
        assert np.array_equal(pair.phi, problem.alpha / pair.w)


def test_monotone_ascent_along_trace():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        problem = ZengerProblem(spec=random_composite(rng, n),
                                alpha=random_alpha(rng, n))
        pair = solve_zenger(problem)
        objectives = [f for f, _ in pair.trace]
        assert all(b >= a for a, b in zip(objectives, objectives[1:]))


def test_coordinate_floor():
    # monotone ascent keeps every coordinate of the returned point above
    # exp(F(x0)/alpha_k)/2: one small coordinate would sink F below its
    # starting value
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        spec = random_composite(rng, n)
        alpha = random_alpha(rng, n)
        pair = solve_zenger(ZengerProblem(spec=spec, alpha=alpha))
        ones = np.ones(n)
        f0 = log_utility(alpha, ones / (2.0 * eval_norm(spec, ones)))
        floors = np.exp(f0 / alpha) / 2.0
        assert np.all(np.abs(pair.w) >= floors)


def test_stationarity_brackets_dual_norm():
    rng = np.random.default_rng(45)
    problems = [
        ZengerProblem(spec=Example2Norm(12), alpha=geometric_alpha(0.25, 12)),
        ZengerProblem(spec=random_composite(rng, 4), alpha=random_alpha(rng, 4)),
    ]
    for problem in problems:
        pair = solve_zenger(problem)
        value, _ = dual_norm_lmo(problem.spec, pair.phi)
        lo = 1.0 - 10.0 * problem.tol.gap / float(np.min(problem.alpha))
        assert lo <= value <= 1.0 + problem.tol.certificate
        assert abs(float(pair.phi @ pair.w) - 1.0) <= problem.tol.certificate


def test_factorization_exactness():
    # named cases divide exactly; random cases are correctly rounded
    # quotients, so the product lands within an ulp of alpha
    pair = solve_zenger(ZengerProblem(spec=SupNorm(3), alpha=(0.5, 0.3, 0.2)))
    assert np.array_equal(pair.w * pair.phi, np.array([0.5, 0.3, 0.2]))
    rng = np.random.default_rng(46)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        alpha = random_alpha(rng, n)
        pair = solve_zenger(ZengerProblem(spec=random_composite(rng, n),
                                          alpha=alpha))
        assert np.max(np.abs(pair.w * pair.phi - alpha)) <= 4e-16


def test_certify_flags_scaled_bundle():
    problem = ZengerProblem(spec=SupNorm(3), alpha=(0.5, 0.3, 0.2))
    pair = solve_zenger(problem)
    broken = replace(pair, w=pair.w * 1.01)
    cert = certify(broken, problem)
    assert not cert.ok
    assert cert.norm_residual == pytest.approx(0.01, abs=1e-9)
    assert cert.pairing_residual == pytest.approx(0.01, abs=1e-9)
    assert cert.factor_residual == pytest.approx(0.005, abs=1e-9)


def test_scale_invariance():
    M = np.array([[1.0, 0.4], [0.2, 1.3], [-0.7, 0.9]])
    base = solve_zenger(
        ZengerProblem(spec=CompositeNorm(((1.0, M),)), alpha=(0.6, 0.4))
    )
    scaled = solve_zenger(
        ZengerProblem(spec=CompositeNorm(((2.5, M),)), alpha=(0.6, 0.4))
    )
    assert np.max(np.abs(scaled.w - base.w / 2.5)) <= 1e-9
    assert np.max(np.abs(scaled.phi - base.phi * 2.5)) <= 1e-9
    assert len(scaled.trace) == len(base.trace)
    for (_, g1), (_, g2) in zip(base.trace, scaled.trace):
        assert abs(g1 - g2) <= 1e-9


def one_iteration_problem():
    # an unreachable gap tolerance turns finite termination into the error;
    # one iteration is not enough here because the optimum sits in a
    # different orthant than the starting point, so the gap stays positive
    rng = np.random.default_rng(0)
    return ZengerProblem(
        spec=random_composite(rng, 4),
        alpha=random_alpha(rng, 4),
        tol=Tolerances(gap=1e-300),
        max_iterations=1,
    )


def stalled_instance():
    # columns scaled over six decades and one weight shrunk by 1e-6: the
    # barrier polish stalls far from the optimum with the gap still open.
    # The simplex is unreliable at this scaling too: the second dual-norm
    # LP ends at a basic point that violates a row by 388 relative to
    # 1 + |b|, and the feasibility check on every optimum refuses it
    # instead of letting a wrong gap through
    rng = np.random.default_rng(9)
    n = 4
    blocks = [(float(rng.uniform(0.3, 2.0)),
               rng.normal(size=(n + 1, n))
               @ np.diag(10.0 ** rng.uniform(-3, 3, size=n)))
              for _ in range(2)]
    alpha = rng.uniform(0.1, 1.0, size=n)
    alpha[0] *= 1e-6
    alpha /= alpha.sum()
    return blocks, alpha


def test_nonconvergence_is_raised():
    problem = one_iteration_problem()
    with pytest.raises(NonConvergence) as exc:
        solve_zenger(problem)
    assert exc.value.gap > 0.0


def test_stalled_ill_conditioned_solve_raises(tmp_path, capsys):
    blocks, alpha = stalled_instance()
    n = alpha.size
    with pytest.raises(LPFailure):
        solve_zenger(ZengerProblem(spec=CompositeNorm(tuple(blocks)),
                                   alpha=alpha))
    doc = {
        "norm": {
            "type": "composite",
            "dimension": n,
            "blocks": [{"coef": coef, "matrix": M.tolist()}
                       for coef, M in blocks],
        },
        "alpha": alpha.tolist(),
    }
    path = tmp_path / "stalled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["solve", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_gap_is_measured_once_per_point(monkeypatch):
    # the tail re-measure runs only when the iteration budget ran out right
    # after a polish moved x; a stalled polish leaves x at the point whose
    # gap the loop just measured
    calls = []

    def counting_lmo(*args, **kwargs):
        calls.append(args[1].copy())
        return dual_norm_lmo(*args, **kwargs)

    monkeypatch.setattr("zenger.solver.dual_norm_lmo", counting_lmo)

    blocks, alpha = stalled_instance()
    with pytest.raises(LPFailure):
        solve_zenger(ZengerProblem(spec=CompositeNorm(tuple(blocks)),
                                   alpha=alpha))
    assert len(calls) == 2

    calls.clear()
    with pytest.raises(NonConvergence):
        solve_zenger(one_iteration_problem())
    # the polish moved x, so the second call sees a new gradient
    assert len(calls) == 2
    assert not np.array_equal(calls[0], calls[1])


def test_stalled_polish_is_not_measured_again(monkeypatch):
    # a well-conditioned solve whose polish stalls with the gap at LP noise,
    # above 10 * tol.gap: the loop stops at the point whose gap it just
    # measured, so the solve raises with one LP per iteration and no tail
    # re-measure
    lmo_calls = []
    polishes = []
    real_refine = zenger.solver._barrier_refine

    def counting_lmo(*args, **kwargs):
        lmo_calls.append(args[1].copy())
        return dual_norm_lmo(*args, **kwargs)

    def counting_refine(*args, **kwargs):
        polishes.append(None)
        return real_refine(*args, **kwargs)

    monkeypatch.setattr("zenger.solver.dual_norm_lmo", counting_lmo)
    monkeypatch.setattr(zenger.solver, "_barrier_refine", counting_refine)

    rng = np.random.default_rng(2)
    n = int(rng.integers(2, 5))
    problem = ZengerProblem(spec=random_composite(rng, n),
                            alpha=random_alpha(rng, n),
                            tol=Tolerances(gap=1e-15), max_iterations=50)
    with pytest.raises(NonConvergence):
        solve_zenger(problem)
    # every iteration measured its gap once and then polished; the budget
    # was not the reason to stop
    assert len(lmo_calls) == len(polishes) < problem.max_iterations
    assert len({g.tobytes() for g in lmo_calls}) == len(lmo_calls)


def test_barrier_polish_step_budget(monkeypatch):
    # the 50 criterion-1 instances: primal-dual Newton steps (weight y / s
    # with multiplier estimates y) need 33-46 solves per polish, where the
    # primal weight mu / s**2 needed 88-113, mostly short steps right after
    # each cut of mu
    solves = []
    steps = []
    real_solve = np.linalg.solve
    real_refine = zenger.solver._barrier_refine

    def counting_solve(*args, **kwargs):
        solves.append(None)
        return real_solve(*args, **kwargs)

    def counting_refine(*args, **kwargs):
        before = len(solves)
        result = real_refine(*args, **kwargs)
        steps.append(len(solves) - before)
        return result

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(zenger.solver, "_barrier_refine", counting_refine)

    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        problem = ZengerProblem(spec=random_composite(rng, n),
                                alpha=random_alpha(rng, n))
        pair = solve_zenger(problem)
        assert certify(pair, problem).ok
    assert steps
    assert max(steps) <= 60


def test_brute_force_closed_forms():
    pair = brute_force_zenger(ZengerProblem(spec=SupNorm(2), alpha=(0.5, 0.5)))
    assert np.max(np.abs(pair.w - 1.0)) <= 1e-6

    spec = CompositeNorm(((1.0, np.diag([1.0, 2.0])),))
    pair = brute_force_zenger(ZengerProblem(spec=spec, alpha=(0.5, 0.5)))
    assert np.max(np.abs(pair.w - np.array([1.0, 0.5]))) <= 1e-6

    pair = brute_force_zenger(ZengerProblem(spec=SupNorm(3),
                                            alpha=(0.2, 0.3, 0.5)))
    assert np.max(np.abs(pair.w - 1.0)) <= 1e-6

    spec = CompositeNorm(((1.0, np.diag([1.0, 2.0, 4.0])),))
    pair = brute_force_zenger(ZengerProblem(spec=spec, alpha=(0.5, 0.3, 0.2)))
    assert np.max(np.abs(pair.w - np.array([1.0, 0.5, 0.25]))) <= 1e-6

    pair = brute_force_zenger(ZengerProblem(spec=SupNorm(1), alpha=(1.0,)))
    assert np.max(np.abs(pair.w - 1.0)) <= 1e-6


def test_brute_force_rejects_large_problems():
    with pytest.raises(TooLarge):
        brute_force_zenger(ZengerProblem(spec=SupNorm(4), alpha=(0.25,) * 4))


def test_oracle_is_not_exported():
    # the oracle lives in tests/oracle.py; the library ships one solver
    assert "brute_force_zenger" not in zenger.__all__
    assert not hasattr(zenger, "brute_force_zenger")
    assert not hasattr(zenger.solver, "brute_force_zenger")


def test_solver_agrees_with_grid_oracle():
    rng = np.random.default_rng(47)
    for _ in range(8):
        n = int(rng.integers(1, 4))
        problem = ZengerProblem(spec=random_composite(rng, n, max_blocks=2),
                                alpha=random_alpha(rng, n))
        fast = solve_zenger(problem)
        slow = brute_force_zenger(problem)
        assert abs(fast.objective - slow.objective) <= 1e-6


def test_log_utility_values():
    assert log_utility(np.array([1.0]), np.array([math.e])) == pytest.approx(1.0)
    assert log_utility(np.array([0.5, 0.5]), np.array([2.0, -2.0])) == (
        pytest.approx(math.log(2.0))
    )
