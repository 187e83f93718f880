"""End-to-end acceptance: one test per advertised guarantee.

Each test states its tolerance and, where promised, its runtime budget.
Run with -v to get one pass/fail line per criterion.
"""

import contextlib
import io
import json
import time

import numpy as np

from zenger import (
    CompositeNorm,
    Example1TailNorm,
    Example2Norm,
    SupNorm,
    TailVector,
    ZengerProblem,
    certify,
    dual_norm_lmo,
    equivalence_constants,
    eval_norm,
    example1_refute,
    example2_family,
    geometric_rule,
    liminf_check,
    pn_table,
    solve_zenger,
    spectrum_hull_check,
    support_curve,
)
from zenger.cli import main
from zenger.lp import LinearProgram, solve_lp

from oracle import brute_force_vertices, brute_force_zenger


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


def test_criterion_1_certificates_on_random_polyhedral_norms():
    # 50 random norms, n in 2..6, at most 3 blocks: all four certificate
    # residuals within 1e-6, under 60 s total
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(2, 7))
        problem = ZengerProblem(
            spec=random_composite(rng, n), alpha=random_alpha(rng, n)
        )
        pair = solve_zenger(problem)
        cert = certify(pair, problem)
        assert cert.ok
        assert cert.norm_residual <= 1e-6
        assert cert.dual_residual <= 1e-6
        assert cert.pairing_residual <= 1e-6
        assert cert.factor_residual <= 1e-6
    assert time.perf_counter() - start < 60.0


def test_criterion_2_sup_norm_closed_form():
    # w = ones and phi = alpha with unit dual norm, all to 1e-10, under 5 s
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    for _ in range(20):
        n = int(rng.integers(1, 9))
        alpha = random_alpha(rng, n)
        spec = SupNorm(n)
        pair = solve_zenger(ZengerProblem(spec=spec, alpha=alpha))
        assert np.max(np.abs(pair.w - 1.0)) <= 1e-10
        assert np.max(np.abs(pair.phi - alpha)) <= 1e-10
        assert abs(float(np.sum(np.abs(pair.phi))) - 1.0) <= 1e-10
        assert abs(dual_norm_lmo(spec, pair.phi).value - 1.0) <= 1e-10
    assert time.perf_counter() - start < 5.0


def test_criterion_3_cascade_norm_exact_values():
    # the closed-form cascade norm, transcribed independently here, matches
    # eval_norm to 1e-12 on 1000 random draws; the halving-profile vector
    # has norm exactly 1; the sup-norm sandwich is [1, 3]
    def formula(x):
        sup = max(abs(v) for v in x)
        cascade = max(
            abs(x[k] - x[0] * 2.0 ** (-k)) for k in range(len(x))
        )
        return sup + cascade

    rng = np.random.default_rng(103)
    for _ in range(1000):
        N = int(rng.integers(2, 7))
        x = rng.normal(size=N)
        assert abs(eval_norm(Example2Norm(N), x) - formula(list(x))) <= 1e-12

    for N in (1, 2, 5, 12):
        spec = Example2Norm(N)
        assert eval_norm(spec, spec.weights) == 1.0

    ec = equivalence_constants(Example2Norm(8))
    assert abs(ec.c_lower - 1.0) <= 1e-9
    assert ec.C_upper <= 3.0 + 1e-12


def test_criterion_4_cascade_projection_bound():
    # ||P_N|| lies in [1, 1 + 2^-N] and decreases toward 1, under 120 s
    start = time.perf_counter()
    table = pn_table(example2_family, range(1, 13))
    values = [row.pn_norm for row in table.rows]
    for row in table.rows:
        assert 1.0 <= row.pn_norm <= 1.0 + 2.0 ** (-row.N) + 1e-9
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12
    assert time.perf_counter() - start < 120.0


def test_criterion_5_cascade_dual_estimate():
    # the geometric price vector phi_k = 3 / 2^(k+1) has dual norm at most 1:
    # 10000 random points of the unit ball pair with it to at most 1 + 1e-9
    spec = Example2Norm(12)
    phi = 3.0 / 2.0 ** (np.arange(1, 13) + 1)
    rng = np.random.default_rng(105)
    X = rng.normal(size=(10000, 12))
    X /= np.array([eval_norm(spec, x) for x in X])[:, None]
    assert float(np.max(X @ phi)) <= 1.0 + 1e-9


def test_criterion_6_tail_norm_counterexample():
    # truncations of the constant sequence lose half its norm, and every
    # unit-sphere candidate w is refuted by a finite witness of norm 1
    e = TailVector(np.array([]), 1.0)
    report = liminf_check(Example1TailNorm(), e, range(1, 21))
    assert report.norm_value == 2.0
    assert report.limit_estimate == 1.0
    assert report.consistent is False

    spec = Example1TailNorm()
    rng = np.random.default_rng(106)
    for _ in range(100):
        c = float(rng.uniform(0.05, 0.45))
        m = int(rng.integers(1, 7))
        head = rng.uniform(0.1, 1.0, size=m) * rng.choice([-1.0, 1.0], size=m)
        head *= (1.0 - c) / np.max(np.abs(head))
        w = TailVector(head, c)
        assert abs(eval_norm(spec, w) - 1.0) <= 1e-12
        witness = example1_refute(w, geometric_rule(0.5))
        assert eval_norm(spec, witness.x) == 1.0
        assert witness.value > 1.0


def test_criterion_7_oracle_equivalence():
    # simplex agrees with vertex enumeration on 500 random LPs to 1e-9, and
    # the solver agrees with the nested golden-section oracle to 1e-6 in F
    rng = np.random.default_rng(107)
    for _ in range(500):
        n = int(rng.integers(1, 5))
        half = int(rng.integers(n, 7))
        directions = rng.normal(size=(half, n))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        lhs = np.vstack([directions, -directions])
        rhs = np.ones(2 * half)
        objective = rng.normal(size=n)
        lp = LinearProgram(objective=objective, lhs=lhs, rhs=rhs)
        got = solve_lp(lp)
        want_value, _ = brute_force_vertices(lp)
        assert got.status == "optimal"
        assert abs(got.value - want_value) <= 1e-9

    for seed in range(6):
        trial = np.random.default_rng(1070 + seed)
        n = int(trial.integers(2, 4))
        problem = ZengerProblem(
            spec=random_composite(trial, n), alpha=random_alpha(trial, n)
        )
        fast = solve_zenger(problem)
        slow = brute_force_zenger(problem)
        assert abs(fast.objective - slow.objective) <= 1e-6


def test_criterion_8_spectrum_inside_numerical_range():
    # 50 upper-triangular spectra sit inside the 256-angle outer polygon;
    # diagonal (normal) matrices touch it to within 1e-8, under 30 s
    rng = np.random.default_rng(108)
    start = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(2, 7))
        A = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        check = spectrum_hull_check(A, support_curve(A, 256))
        assert check.ok
        assert check.worst_margin >= -1e-8
    for _ in range(10):
        n = int(rng.integers(2, 7))
        A = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
        check = spectrum_hull_check(A, support_curve(A, 256))
        assert check.ok
        assert abs(check.worst_margin) <= 1e-8
    assert time.perf_counter() - start < 30.0


def test_criterion_9_byte_identical_reports(tmp_path):
    # identical inputs give byte-identical stdout and CSV across runs
    solve_doc = {
        "norm": {"type": "example2", "dimension": 6},
        "alpha": {"rule": "geometric", "ratio": 0.25},
    }
    solve_path = tmp_path / "problem.json"
    solve_path.write_text(json.dumps(solve_doc), encoding="utf-8")
    asym_path = tmp_path / "asym.json"
    asym_path.write_text(
        json.dumps({"norm": {"type": "example2", "dimension": 2}}),
        encoding="utf-8",
    )
    matrix_path = tmp_path / "matrix.txt"
    matrix_path.write_text("3\n1 0.5 0\n0 2j 1\n0 0 -1\n", encoding="utf-8")

    def run(tag):
        outputs = []
        for command in (
            ["solve", str(solve_path), "--csv-out",
             str(tmp_path / f"s{tag}.csv")],
            ["asymptotics", str(asym_path), "--n-range", "1..8",
             "--csv-out", str(tmp_path / f"a{tag}.csv")],
            ["numrange", str(matrix_path), "--csv-out",
             str(tmp_path / f"n{tag}.csv")],
        ):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert main(command) == 0
            outputs.append(buffer.getvalue())
        outputs.append((tmp_path / f"s{tag}.csv").read_bytes())
        outputs.append((tmp_path / f"a{tag}.csv").read_bytes())
        outputs.append((tmp_path / f"n{tag}.csv").read_bytes())
        return outputs

    assert run("one") == run("two")
