import dataclasses
import json
import math
import time
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
    ZengerPair,
    ZengerProblem,
    certify,
    dual_norm_lmo,
    eval_norm,
    generators,
    geometric_alpha,
    log_utility,
    solve_zenger,
)
import zenger.solver
from zenger.cli import main

from oracle import TooLarge, brute_force_zenger


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


def highs_dual_norm(spec, g):
    # an independent lower bound on dual_norm(g): the value of HiGHS's
    # maximizer of the generator LP, rescaled onto the unit sphere so that
    # HiGHS's feasibility tolerance cannot lift it; scipy is a test oracle
    # only
    optimize = pytest.importorskip("scipy.optimize")
    U = generators(spec)
    res = optimize.linprog(-np.asarray(g), A_ub=U, b_ub=np.ones(U.shape[0]),
                           bounds=(None, None), method="highs")
    assert res.status == 0, res.message
    return float(g @ res.x) / eval_norm(spec, res.x)


def test_problem_validation():
    with pytest.raises(DimensionMismatch):
        ZengerProblem(spec=SupNorm(3), alpha=(0.5, 0.5))
    with pytest.raises(NotPolyhedral):
        ZengerProblem(spec=Example1TailNorm(), alpha=(1.0,))
    # the Newton budget is the module constant NEWTON_BUDGET, not a field
    with pytest.raises(TypeError):
        ZengerProblem(spec=SupNorm(1), alpha=(1.0,), max_iterations=0)
    # so are the thresholds GAP_TOL and CERTIFICATE_TOL
    with pytest.raises(TypeError):
        ZengerProblem(spec=SupNorm(1), alpha=(1.0,), tol=None)


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
        assert (eval_norm(problem.spec, pair.w)
                <= 1.0 + zenger.solver.CERTIFICATE_TOL)
        # prices are the exact elementwise quotient
        assert np.array_equal(pair.phi, problem.alpha / pair.w)


def test_pair_carries_no_alpha():
    # phi = alpha / w holds with the problem's alpha; the pair does not
    # repeat it
    assert "alpha" not in {f.name for f in dataclasses.fields(ZengerPair)}


def test_solve_and_certify_leave_the_callers_arrays_writeable():
    alpha = np.array([0.25, 0.75])
    problem = ZengerProblem(spec=SupNorm(2), alpha=alpha)
    assert not problem.alpha.flags.writeable
    pair = solve_zenger(problem)
    assert certify(pair, problem).ok
    for arr in (alpha, pair.w, pair.phi):
        assert arr.flags.writeable


def test_coordinate_floor():
    # the optimum beats the barrier's start x0, which keeps every
    # coordinate of the returned point above exp(F(x0)/alpha_k)/2: one
    # small coordinate would sink F below its starting value
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
        lo = 1.0 - 10.0 * zenger.solver.GAP_TOL / float(np.min(problem.alpha))
        assert lo <= value <= 1.0 + zenger.solver.CERTIFICATE_TOL
        assert (abs(float(pair.phi @ pair.w) - 1.0)
                <= zenger.solver.CERTIFICATE_TOL)


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
    assert scaled.iterations == base.iterations
    assert abs(scaled.gap - base.gap) <= 1e-9


def unreachable_gap_problem(monkeypatch):
    # an unreachable gap tolerance turns finite termination into the error:
    # the finished solve's gap, about 9e-13, is far above 10 * 1e-300
    monkeypatch.setattr(zenger.solver, "GAP_TOL", 1e-300)
    rng = np.random.default_rng(0)
    return ZengerProblem(
        spec=random_composite(rng, 4),
        alpha=random_alpha(rng, 4),
    )


def stalled_instance():
    # columns scaled over six decades and one weight shrunk by 1e-6.  The
    # barrier solve on the lifted program closes its multiplier gap here,
    # but the simplex is unreliable at this scaling: certify's dual-norm LP
    # ends at a basic point that violates a row by 388 relative to 1 + |b|,
    # and the feasibility check on every optimum refuses it instead of
    # letting a wrong residual through
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


def test_nonconvergence_is_raised(monkeypatch):
    problem = unreachable_gap_problem(monkeypatch)
    with pytest.raises(NonConvergence) as exc:
        solve_zenger(problem)
    assert exc.value.gap > 0.0


@pytest.mark.parametrize("failure", ["singular", "nan"])
def test_barrier_numerical_failure_ends_the_solve(monkeypatch, failure):
    # a Newton system that cannot be solved, or a step that is not finite,
    # ends the barrier at its start point; the gap left open there is
    # raised, as for any other unfinished solve
    calls = []

    def failing_solve(H, g):
        calls.append(1)
        if failure == "singular":
            raise np.linalg.LinAlgError("singular matrix")
        return np.full_like(g, np.nan)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    with pytest.raises(NonConvergence,
                       match=r"^no convergence, duality gap 5\.353e-01$"):
        solve_zenger(ZengerProblem(Example2Norm(4), np.full(4, 0.25)))
    assert len(calls) == 1


def test_max_iterations_caps_newton_steps(monkeypatch):
    # NEWTON_BUDGET is read on every solve; a budget of exactly the steps
    # taken changes nothing, and half of it leaves the gap open
    problem = ZengerProblem(spec=Example2Norm(12),
                            alpha=geometric_alpha(0.25, 12))
    pair = solve_zenger(problem)
    assert pair.iterations < zenger.solver.NEWTON_BUDGET
    monkeypatch.setattr(zenger.solver, "NEWTON_BUDGET", pair.iterations)
    capped = solve_zenger(problem)
    assert capped.iterations == pair.iterations
    assert np.array_equal(capped.w, pair.w)
    monkeypatch.setattr(zenger.solver, "NEWTON_BUDGET", pair.iterations // 2)
    with pytest.raises(NonConvergence):
        solve_zenger(problem)


def test_stalled_ill_conditioned_solve_raises(tmp_path, capsys):
    # the pair is right and only certify's simplex fails: the bracket
    # closes to about 1e-12 and HiGHS reads dual_norm(phi) = 1 - 3.8e-13,
    # yet `zenger solve` exits 3 on the simplex's LPFailure
    blocks, alpha = stalled_instance()
    n = alpha.size
    problem = ZengerProblem(spec=CompositeNorm(tuple(blocks)), alpha=alpha)
    pair = solve_zenger(problem)
    assert 0.0 <= pair.gap <= zenger.solver.GAP_TOL
    with pytest.raises(LPFailure):
        certify(pair, problem)
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
    value = highs_dual_norm(problem.spec, pair.phi)
    assert 1.0 - 1e-12 <= value <= 1.0 + pair.gap + 1e-12


def case_10_problem():
    # the benchmark's solve-composite seed 91, request 69: n = 5, blocks of
    # 5, 5 and 6 rows, 1200 generators.  The barrier closes its gap to
    # 9.8e-13 and HiGHS reads dual_norm(phi) = 1 - 9.5e-14, but certify's
    # simplex ends at a point that violates a row by 2.027e-03 and raises
    # LPFailure, so `zenger solve` exits 3 on a good pair
    blocks = (
        (1.8337482647465042, np.array([
            [0.7240260273314877, 0.6020015135418668, -0.5126738144769634,
             0.7292183360324387, -0.42764046913536746],
            [-0.5030068949861775, -0.4634886792923246, -2.02898850350259,
             -0.9352426564357388, 1.8536740658257425],
            [1.3424444729767329, 0.9051781015765232, 1.3117282071085405,
             -1.3295147412633492, 2.141660033575141],
            [-1.1777366119631671, 1.9368616754393846, 0.877895243344003,
             0.567090156395968, -0.8680611349944836],
            [1.7205528548435236, 0.47461657483449915, 1.052987574551962,
             -0.45603775468944674, -0.6164515286947516],
        ])),
        (1.4768885866078112, np.array([
            [0.7553164375715348, -1.318043438156914, 0.7784038373452513,
             -0.550229150510839, -0.4096876246215021],
            [2.2225595786003844, 1.1304757223359325, -0.9437733136566813,
             1.5725662165998888, 2.043873775715003],
            [-1.488346863795839, -0.9039389261096065, 0.4331830385851243,
             1.6745531543579801, 1.0336307088895744],
            [-0.560130046265685, 1.532374688217888, -1.0742286284563072,
             0.43747480895457713, 0.7597860782122859],
            [1.2565809167534618, 0.923173297660153, -0.4472251311320461,
             -1.305052833342536, 0.9479362718254221],
        ])),
        (1.4252586118457042, np.array([
            [-2.1684384533885788, -1.0099328713126012, 0.6093818319192509,
             0.6211792295689161, -1.185590876668676],
            [1.108866601410152, -0.9664275582807094, -1.5132628719124859,
             -2.2439420523297198, 0.37080403963286623],
            [-0.9970802255248876, 0.42002397982536455, -0.409493494493703,
             -0.7424686852665054, 2.4643892203723894],
            [0.43289594099203976, 1.1045367842584626, 1.0252961820055961,
             -0.6374769746039757, 0.9874945665652024],
            [2.3245584796798564, 0.7754816101593766, -0.41224040270946416,
             -3.225568462362929, -1.2049525056573847],
            [-1.6295011844403973, -1.7628239186683217, -1.2376507883901695,
             -0.4581228940221026, 1.3404313301641886],
        ])),
    )
    alpha = [0.29320203943132983, 0.10635055384934973,
             0.3102615773491938, 0.23477141231170978,
             0.05541441705841687]
    return ZengerProblem(spec=CompositeNorm(blocks), alpha=alpha)


@pytest.mark.xfail(
    strict=True, raises=LPFailure,
    reason="ROADMAP item 2, case 10: certify's simplex refuses a good pair")
def test_case_10_certify_passes():
    # the strict mark turns this pin into a failure once certify passes the
    # pair; any other error fails it at once
    problem = case_10_problem()
    pair = solve_zenger(problem)
    assert 0.0 <= pair.gap <= zenger.solver.GAP_TOL
    assert certify(pair, problem).ok


def test_barrier_polish_step_budget(monkeypatch):
    # the 50 criterion-1 instances: primal-dual Newton steps (weight y / s
    # with multiplier estimates y) need 22-31 solves on the lifted program
    # (35-46 with mu cut by 8); on the generator rows the primal weight
    # mu / s**2 needed 88-113, mostly short steps right after each cut of mu
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


def criterion_1_problems():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        yield ZengerProblem(spec=random_composite(rng, n),
                            alpha=random_alpha(rng, n))


def _reference_barrier_refine(G, h, alpha, v, cut):
    # the barrier loop before its masked-divide step rules, with the cut of
    # mu as a parameter; _barrier_refine must take the same steps to the
    # same bits
    mu = 1e-2
    mu_min = 1e-13
    n = alpha.size
    diag_x = np.arange(n)

    s = h - G @ v
    y = mu / s
    steps = 0
    while steps < zenger.solver.NEWTON_BUDGET:
        x = v[:n]
        grad = -(G.T @ (mu / s))
        grad[:n] += alpha / x
        H = (G.T * (y / s)[None, :]) @ G
        H[diag_x, diag_x] += alpha / (x * x)
        steps += 1
        try:
            dv = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(dv)):
            break
        decrement = float(grad @ dv)
        if decrement <= max(0.01 * mu, 1e-16):
            if mu <= mu_min:
                break
            mu = max(mu / cut, mu_min)
            continue
        step = 1.0 / (1.0 + math.sqrt(decrement))
        falling = dv[:n] < 0.0
        if np.any(falling):
            step = min(step, 0.99 * float(np.min(-x[falling]
                                                 / dv[:n][falling])))
        rates = G @ dv
        rising = rates > 0.0
        if np.any(rising):
            step = min(step, 0.99 * float(np.min(s[rising] / rates[rising])))
        if step <= 0.0:
            break
        v_next = v + step * dv
        s_next = h - G @ v_next
        if np.min(v_next[:n]) <= 0.0 or np.min(s_next) <= 0.0:
            break
        if np.array_equal(v_next, v):
            break
        dy = (mu - y * s) / s + (y / s) * rates
        t_dual = 1.0
        shrinking = dy < 0.0
        if np.any(shrinking):
            t_dual = min(1.0, 0.99 * float(np.min(-y[shrinking]
                                                   / dy[shrinking])))
        y = y + t_dual * dy
        v, s = v_next, s_next

    return v[:n], y, steps


def test_barrier_step_matches_the_reference_loop(monkeypatch):
    # the 50 criterion-1 instances and the stalled instance: x, y and the
    # step count are byte-equal to the reference loop at the cut of 100
    calls = []
    real_refine = zenger.solver._barrier_refine

    def recording_refine(G, h, alpha, v):
        result = real_refine(G, h, alpha, v)
        calls.append(((G, h, alpha, v.copy()), result))
        return result

    monkeypatch.setattr(zenger.solver, "_barrier_refine", recording_refine)
    blocks, alpha = stalled_instance()
    problems = list(criterion_1_problems())
    problems.append(ZengerProblem(spec=CompositeNorm(tuple(blocks)),
                                  alpha=alpha))
    for problem in problems:
        solve_zenger(problem)
    assert len(calls) == 51
    for args, (x, y, steps) in calls:
        ref_x, ref_y, ref_steps = _reference_barrier_refine(*args, cut=100.0)
        assert steps == ref_steps
        assert x.tobytes() == ref_x.tobytes()
        assert y.tobytes() == ref_y.tobytes()


def test_cut_of_100_shortens_the_solve():
    # cutting mu by 100 from each centred point: 23.88 Newton steps per
    # solve on average here, 37.58 with the cut of 8
    steps = [solve_zenger(problem).iterations
             for problem in criterion_1_problems()]
    assert np.mean(steps) <= 26


def test_gap_brackets_an_independent_dual_norm():
    # the multiplier gap bounds dual_norm(phi) - 1 from above, so no point
    # of the ball may beat 1 + gap.  dual_norm(phi) >= <phi, w> = 1 on the
    # sphere, and HiGHS's maximizer comes within its optimality tolerance
    # of that: its worst shortfall here is 1.3e-11 (the 19th), so the
    # lower side allows 1e-10.  Case 10's pair, which certify's simplex
    # refuses, reads 1 - 9.5e-14 here
    for problem in [*criterion_1_problems(), case_10_problem()]:
        pair = solve_zenger(problem)
        value = highs_dual_norm(problem.spec, pair.phi)
        assert 1.0 - 1e-10 <= value <= 1.0 + pair.gap + 1e-12


def test_example2_gap_is_never_negative():
    # the LP-measured gap read -1.16e-10 and -1.87e-10 here, below the
    # floor dual_norm(phi) - 1 >= 0: the simplex stopped short of the
    # optimum.  The multiplier gap is an upper bound and cannot
    for n in (30, 40):
        problem = ZengerProblem(spec=Example2Norm(n),
                                alpha=geometric_alpha(0.5, n))
        pair = solve_zenger(problem)
        assert 0.0 <= pair.gap <= zenger.solver.GAP_TOL


def test_solve_scales_with_the_norm_description():
    # 400 block rows, where the generator expansion would need 4 * 200**2
    # rows of dimension 200 and is refused; the lifted program has 801.
    # The same solve runs once untimed first: the process's first Newton
    # systems of this size pay a one-off BLAS cost (about 1 s when the test
    # runs alone, against 0.15 s warm), which a small warm-up solve does
    # not reach
    problem = ZengerProblem(
        spec=Example2Norm(200),
        alpha=np.random.default_rng(7).dirichlet(np.ones(200)),
    )
    solve_zenger(problem)
    start = time.perf_counter()
    pair = solve_zenger(problem)
    assert time.perf_counter() - start < 1.0
    assert pair.iterations <= 60
    assert 0.0 <= pair.gap <= zenger.solver.GAP_TOL
    assert abs(eval_norm(problem.spec, pair.w) - 1.0) <= 1e-12


def test_solve_runs_no_lp(monkeypatch):
    # the gap comes from the barrier's multipliers: no generator expansion
    # and no simplex on the solve path; certify keeps its fresh LP
    calls = []
    for module, name in ((zenger.solver, "generators"),
                         (zenger.solver, "dual_norm_lmo"),
                         (zenger.lp, "solve_lp")):
        def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    problem = next(criterion_1_problems())
    pair = solve_zenger(problem)
    assert pair.gap <= zenger.solver.GAP_TOL
    assert calls == []
    certify(pair, problem)
    assert calls == ["generators", "dual_norm_lmo", "solve_lp"]


def _one_and_stacked(lp):
    # the outcome of a 1-d objective and of the same objective as a (1, n)
    # stack: status, value and point bytes, or the error and its text
    outcomes = []
    for objective in (lp.objective, lp.objective[None, :]):
        try:
            result = zenger.lp.solve_lp(
                zenger.lp.LinearProgram(objective, lp.lhs, lp.rhs))
        except zenger.lp.LPError as exc:
            outcomes.append((type(exc), str(exc)))
            continue
        value = np.float64(np.reshape(result.value, -1)[0])
        point = None
        if value != np.inf:
            point = np.reshape(result.point, -1).tobytes()
        outcomes.append((result.status, value.tobytes(), point))
    return outcomes


def test_one_objective_loop_matches_a_stack_of_one(monkeypatch):
    # every LP certify poses on the 50 criterion-1 instances and on the
    # stalled instance, and the dual-norm LPs of Example2Norm(n) for seeded
    # functionals: the one-objective loop and the lockstep loop on a stack
    # of one give the same status, value and point bytes, or the same error
    posed = []
    real_solve = zenger.lp.solve_lp

    def recording_solve(lp):
        posed.append(lp)
        return real_solve(lp)

    monkeypatch.setattr(zenger.lp, "solve_lp", recording_solve)
    for problem in criterion_1_problems():
        certify(solve_zenger(problem), problem)
    blocks, alpha = stalled_instance()
    stalled = ZengerProblem(spec=CompositeNorm(tuple(blocks)), alpha=alpha)
    with pytest.raises(LPFailure):
        certify(solve_zenger(stalled), stalled)
    monkeypatch.setattr(zenger.lp, "solve_lp", real_solve)
    assert len(posed) == 51
    assert all(lp.objective.ndim == 1 for lp in posed)
    for lp in posed:
        one, stacked = _one_and_stacked(lp)
        assert one == stacked
    assert one == (zenger.lp.NumericalBreakdown,
                   "optimal point violates a row by 3.885e+02")

    rng = np.random.default_rng(12)
    for n in range(1, 13):
        spec = Example2Norm(n)
        for g in rng.normal(size=(5, n)):
            alone = dual_norm_lmo(spec, g)
            value, achiever = dual_norm_lmo(spec, g[None, :])
            assert np.float64(alone.value).tobytes() == value[0].tobytes()
            assert alone.achiever.tobytes() == achiever[0].tobytes()

    # with the cap at 2 pivots, an objective that needs one pivot is
    # solved, and one that needs two or three meets the cap first
    monkeypatch.setattr(zenger.lp, "default_pivot_cap", lambda m, n: 2)
    box = (np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))
    ends = []
    for c in ([1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]):
        one, stacked = _one_and_stacked(
            zenger.lp.LinearProgram(np.array(c), *box))
        assert one == stacked
        ends.append(one[0])
    assert ends == [zenger.lp.OPTIMAL, zenger.lp.MaxPivotsExceeded,
                    zenger.lp.MaxPivotsExceeded]


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
    # the test oracles live in tests/oracle.py and the library ships one
    # solver; the other names ran in no command and no claim of the paper
    removed = [
        ("brute_force_zenger", zenger.solver),
        ("brute_force_vertices", zenger.lp),
        ("TooLarge", zenger.core),
        ("eval_norm_many", zenger.norms),
        ("renormalize_weights", zenger.core),
        ("support_function", zenger.numrange),
        ("jacobi_eigen", zenger.numrange),
        ("NotHermitian", zenger.numrange),
    ]
    for name, module in removed:
        assert name not in zenger.__all__, name
        assert not hasattr(zenger, name), name
        assert not hasattr(module, name), name


def test_lp_names_are_not_exported():
    # the simplex is dual_norm_lmo's engine: its names live in zenger.lp
    # only, and LPFailure is the public error of a failed dual-norm LP
    internal = ["LinearProgram", "LPResult", "solve_lp", "OPTIMAL",
                "UNBOUNDED", "LPError", "MaxPivotsExceeded",
                "NumericalBreakdown"]
    for name in internal:
        assert name not in zenger.__all__, name
        assert not hasattr(zenger, name), name
        assert hasattr(zenger.lp, name), name
    assert "LPFailure" in zenger.__all__
    # the tail norm's P_N table is pn_table's, with projection_norm's
    # closed form
    assert "tail_projection_table" not in zenger.__all__
    assert not hasattr(zenger, "tail_projection_table")
    assert len(zenger.__all__) == 47


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
