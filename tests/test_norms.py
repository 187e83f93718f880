import numpy as np
import pytest

import zenger
from zenger import (
    Block,
    CompositeNorm,
    DimensionMismatch,
    Example1TailNorm,
    Example2Norm,
    GeneratorBlowup,
    LPFailure,
    RankDeficientNorm,
    SupNorm,
    TailVector,
    dual_norm_lmo,
    equivalence_constants,
    eval_norm,
    example2_family,
    generators,
    norm_dimension,
    project_PN,
    projection_norm,
)
from zenger.lp import LinearProgram
from zenger.norms import _canonical_rows

from oracle import BRUTE_MAX_CONSTRAINTS, brute_force_vertices


def cascade_oracle(x):
    # direct transcription of the truncated formula: sup plus the sup of
    # the differences against the halving profile
    x = np.asarray(x, dtype=float)
    profile = 2.0 ** (-np.arange(x.size))
    return float(np.max(np.abs(x)) + np.max(np.abs(x - x[0] * profile)))


def random_composite(rng, n, max_blocks=3):
    blocks = []
    for _ in range(int(rng.integers(1, max_blocks + 1))):
        rows = int(rng.integers(n, n + 4))
        M = rng.normal(size=(rows, n))
        M += np.sign(M) * 0.3
        blocks.append((float(rng.uniform(0.3, 2.0)), M))
    return CompositeNorm(tuple(blocks))


def test_norm_dimension():
    assert norm_dimension(SupNorm(4)) == 4
    assert norm_dimension(Example2Norm(7)) == 7
    assert norm_dimension(CompositeNorm(((1.0, np.eye(2)),))) == 2
    assert norm_dimension(Example1TailNorm()) is None


def test_tail_norm_on_constant_sequence():
    e = TailVector(np.array([]), 1.0)
    assert eval_norm(Example1TailNorm(), e) == 2.0
    for N in range(1, 6):
        assert eval_norm(Example1TailNorm(), project_PN(e, N)) == 1.0


def test_cascade_norm_small_values():
    spec = Example2Norm(2)
    assert eval_norm(spec, np.array([1.0, 1.0])) == 1.5
    # the defining weight vector sits on the unit sphere with zero
    # difference term
    for n in (1, 2, 5, 12):
        w = Example2Norm(n).weights
        assert eval_norm(Example2Norm(n), w) == 1.0


def test_cascade_norm_matches_oracle():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        x = rng.normal(size=n) * 10.0 ** rng.integers(-2, 3)
        got = eval_norm(Example2Norm(n), x)
        want = cascade_oracle(x)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_cascade_tail_evaluation_matches_dense_prefix():
    # for an eventually constant sequence the difference profile past the
    # head decays monotonically, so a long dense prefix exhausts the sup
    rng = np.random.default_rng(32)
    spec = Example2Norm(3)
    for _ in range(200):
        head = rng.normal(size=int(rng.integers(1, 5)))
        x = TailVector(head, float(rng.normal()))
        got = eval_norm(spec, x)
        K = 80
        dense = x.prefix(K)
        profile = 2.0 ** (-np.arange(K))
        want = float(
            max(np.max(np.abs(dense)), abs(x.tail))
            + max(np.max(np.abs(dense - dense[0] * profile)), abs(x.tail))
        )
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_eval_norm_dimension_errors():
    with pytest.raises(DimensionMismatch):
        eval_norm(SupNorm(3), np.ones(2))
    with pytest.raises(DimensionMismatch):
        eval_norm(Example1TailNorm(), np.ones(3))
    with pytest.raises(DimensionMismatch):
        eval_norm(CompositeNorm(((1.0, np.eye(2)),)), TailVector(np.ones(1), 0.0))


def test_homogeneity_and_triangle():
    rng = np.random.default_rng(33)
    specs = [SupNorm(4), Example2Norm(4), random_composite(rng, 4)]
    for spec in specs:
        for _ in range(200):
            x = rng.normal(size=4)
            y = rng.normal(size=4)
            t = rng.normal() * 4.0
            nx, ny = eval_norm(spec, x), eval_norm(spec, y)
            assert abs(eval_norm(spec, t * x) - abs(t) * nx) <= 1e-12 * (1.0 + nx)
            assert eval_norm(spec, x + y) <= nx + ny + 1e-12


def test_generator_counts_and_values():
    gens = generators(SupNorm(2))
    assert len(gens) == 4
    rows = {tuple(r) for r in gens}
    assert rows == {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}

    gens = generators(CompositeNorm(((2.0, np.array([[1.0]])),)))
    assert {tuple(r) for r in gens} == {(2.0,), (-2.0,)}

    # the null first row of the second block repeats 4 of the 16 sums
    assert len(generators(Example2Norm(2))) == 12

    rng = np.random.default_rng(33)
    for spec in (SupNorm(3), Example2Norm(4), random_composite(rng, 3)):
        U = generators(spec)
        assert np.array_equal(U, np.unique(U, axis=0))  # distinct and sorted


def test_generator_faithfulness():
    rng = np.random.default_rng(34)
    specs = [SupNorm(3), Example2Norm(4), random_composite(rng, 3)]
    for spec in specs:
        gens = generators(spec)
        for _ in range(1000):
            x = rng.normal(size=gens.shape[1])
            want = eval_norm(spec, x)
            got = float(np.max(gens @ x))
            assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_generator_blowup_guard():
    blocks = tuple((1.0, np.random.default_rng(0).normal(size=(51, 2)))
                   for _ in range(3))
    with pytest.raises(GeneratorBlowup):
        generators(CompositeNorm(blocks))  # (2*51)^3 * 2 entries > 2 * 10^6
    with pytest.raises(GeneratorBlowup):
        # only (2*80)^2 rows, but 80 entries each: 2048000 entries
        generators(Example2Norm(80))


def test_rank_deficient_block_stack_rejected():
    with pytest.raises(RankDeficientNorm):
        CompositeNorm(((1.0, np.array([[1.0, 1.0], [2.0, 2.0]])),))
    # nearly parallel rows: the smaller singular value is about 5e-13
    with pytest.raises(RankDeficientNorm):
        CompositeNorm(((1.0, np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])),))
    # a small singular value well above RANK_TOL is full rank
    CompositeNorm(((1.0, [[1.0, 0.0], [0.0, 1e-9]]),))


def test_generators_is_a_read_only_array():
    U = generators(SupNorm(3))
    assert isinstance(U, np.ndarray)
    assert not U.flags.writeable
    assert "GeneratorSet" not in zenger.__all__


def test_block_validation():
    with pytest.raises(ValueError):
        Block(-1.0, np.eye(2))
    with pytest.raises(ValueError):
        Block(1.0, np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        CompositeNorm(((1.0, np.eye(2)), (1.0, np.eye(3))))


def test_dual_norm_sup_is_l1():
    value, achiever = dual_norm_lmo(SupNorm(3), np.array([0.5, 0.3, 0.2]))
    assert value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(achiever, [1.0, 1.0, 1.0], atol=1e-12)


def test_dual_norm_refuses_an_infeasible_optimum():
    # the simplex ends this LP at a basic point far outside the ball; it
    # used to come back as the dual norm -2.6086e7, which no norm can be
    g = np.random.default_rng(25).normal(size=25)
    with pytest.raises(LPFailure, match=r"violates a row by 5\.767e\+07"):
        dual_norm_lmo(Example2Norm(25), g)


def test_dual_norm_zero_gradient():
    value, _ = dual_norm_lmo(SupNorm(2), np.zeros(2))
    assert value == 0.0


def test_dual_norm_achiever_feasible():
    rng = np.random.default_rng(36)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        spec = random_composite(rng, n)
        g = rng.normal(size=n)
        value, achiever = dual_norm_lmo(spec, g)
        assert eval_norm(spec, achiever) <= 1.0 + 1e-9
        assert value == pytest.approx(float(g @ achiever), abs=1e-10)

    # objectives whose maximizer is a whole face: a coordinate and zero on
    # the sup ball, and the projected generator rows projection_norm feeds in
    faces = [(SupNorm(3), np.array([1.0, 0.0, 0.0])), (SupNorm(3), np.zeros(3))]
    for spec in (Example2Norm(2), Example2Norm(4)):
        V = generators(spec).copy()
        V[:, -1] = 0.0
        faces += [(spec, g) for g in np.unique(V, axis=0)]
    for spec, g in faces:
        value, achiever = dual_norm_lmo(spec, g)
        assert eval_norm(spec, achiever) <= 1.0 + 1e-9
        assert value == pytest.approx(float(g @ achiever), abs=1e-12)
        U = generators(spec)
        if U.shape[0] <= BRUTE_MAX_CONSTRAINTS:
            oracle, _ = brute_force_vertices(
                LinearProgram(g, U, np.ones(U.shape[0]))
            )
            assert abs(value - oracle) <= 1e-9


def test_dual_norm_against_vertex_enumeration():
    # instances small enough for the exhaustive oracle
    rng = np.random.default_rng(37)
    specs = [SupNorm(2), Example2Norm(2),
             CompositeNorm(((1.5, rng.normal(size=(2, 2)) + np.eye(2)),))]
    for spec in specs:
        gens = generators(spec)
        U = gens
        for _ in range(40):
            g = rng.normal(size=U.shape[1])
            value, _ = dual_norm_lmo(spec, g, gens=gens)
            oracle, _ = brute_force_vertices(
                LinearProgram(g, U, np.ones(U.shape[0]))
            )
            assert abs(value - oracle) <= 1e-9


def test_dual_norm_of_cascade_prices():
    phi = 3.0 / 2.0 ** (np.arange(1, 13) + 1)
    value, _ = dual_norm_lmo(Example2Norm(12), phi)
    assert value <= 1.0 + 2.0 ** -12


def test_projection_norm_sup():
    for N in range(1, 5):
        assert projection_norm(SupNorm(4), N) == pytest.approx(1.0, abs=1e-12)


def test_projection_norm_cascade_band():
    value = projection_norm(Example2Norm(12), 6)
    assert 1.0 - 1e-12 <= value <= 1.0 + 2.0 ** -6 + 1e-9


def full_loop_projection_norm(spec, N):
    # the formula before functionals fixed by P_N were skipped: an LP for
    # every canonical projected row, and a maximum that starts at 0
    gens = generators(spec)
    V = gens.copy()
    V[:, N:] = 0.0
    V = _canonical_rows(V)
    best = 0.0
    for row in V:
        best = max(best, dual_norm_lmo(spec, row, gens=gens).value)
    return best


def test_projection_norm_matches_the_full_loop():
    # bit equality wherever P_N is not the identity
    for N in range(1, 10):
        spec = example2_family(N)
        assert projection_norm(spec, N) == full_loop_projection_norm(spec, N)
    rng = np.random.default_rng(8)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        spec = random_composite(rng, n, max_blocks=2)
        for N in range(1, n):
            assert projection_norm(spec, N) == full_loop_projection_norm(spec, N)


def test_projection_norm_solves_only_moved_rows(monkeypatch):
    calls = []
    real_lmo = zenger.norms.dual_norm_lmo

    def counting_lmo(*args, **kwargs):
        calls.append(None)
        return real_lmo(*args, **kwargs)

    monkeypatch.setattr(zenger.norms, "dual_norm_lmo", counting_lmo)
    # 3N rows of Example2Norm(N + 1) have a nonzero last entry, against
    # 2N(N + 1) canonical projected rows in all
    assert projection_norm(example2_family(9), 9) == 1.0 + 2.0 ** -9
    assert len(calls) == 27

    # P_N = I from N = dimension on: exactly 1, and no LP at all
    calls.clear()
    rng = np.random.default_rng(21)
    specs = [SupNorm(3), Example2Norm(5), random_composite(rng, 3),
             random_composite(rng, 4)]
    for spec in specs:
        n = norm_dimension(spec)
        assert projection_norm(spec, n) == 1.0
        assert projection_norm(spec, n + 1) == 1.0
    assert calls == []


def test_projection_norm_rejects_bad_N():
    with pytest.raises(ValueError):
        projection_norm(SupNorm(2), 0)


def test_equivalence_constants():
    ec = equivalence_constants(SupNorm(5))
    assert ec.c_lower == pytest.approx(1.0, abs=1e-12)
    assert ec.C_upper == pytest.approx(1.0, abs=1e-12)

    ec = equivalence_constants(CompositeNorm(((2.0, np.eye(3)),)))
    assert ec.c_lower == pytest.approx(2.0, abs=1e-12)
    assert ec.C_upper == pytest.approx(2.0, abs=1e-12)

    ec = equivalence_constants(Example2Norm(8))
    assert ec.c_lower == pytest.approx(1.0, abs=1e-9)
    assert ec.C_upper <= 3.0


def test_sandwich_on_random_vectors():
    rng = np.random.default_rng(38)
    specs = [Example2Norm(5), random_composite(rng, 4)]
    for spec in specs:
        ec = equivalence_constants(spec)
        n = 5 if isinstance(spec, Example2Norm) else 4
        for _ in range(1000):
            x = rng.normal(size=n)
            sup = float(np.max(np.abs(x)))
            value = eval_norm(spec, x)
            assert ec.c_lower * sup <= value + 1e-9 * (1.0 + value)
            assert value <= ec.C_upper * sup + 1e-9 * (1.0 + value)
