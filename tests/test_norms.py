import itertools

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
    NotPolyhedral,
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
from zenger.norms import _blocks_of, _canonical_rows

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
    with pytest.raises(TypeError, match="not a norm spec"):
        norm_dimension(object())


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


def _expansion(spec):
    # every sign and row choice of every block, summed block by block from
    # zero as generators() sums them, one row per choice
    steps = []
    for blk in _blocks_of(spec):
        scaled = blk.coef * blk.matrix
        steps.append(np.concatenate([scaled, -scaled]))
    rows = []
    for choice in itertools.product(*steps):
        total = np.zeros(steps[0].shape[1])
        for step in choice:
            total = total + step
        rows.append(total)
    return np.array(rows)


def test_generators_match_np_unique():
    # np.unique(axis=0) is the oracle of the row sort: the same rows in the
    # same order, to the byte, with and without ties in the first column
    rng = np.random.default_rng(35)
    specs = [random_composite(rng, int(rng.integers(2, 5))) for _ in range(12)]
    specs += [Example2Norm(n) for n in range(1, 13)]
    specs += [SupNorm(n) for n in range(1, 7)]
    # a zero row and a repeated row in one block
    specs.append(CompositeNorm((
        (1.0, np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [1.0, 2.0, 0.0]])),
        (0.5, np.eye(3)),
    )))
    for spec in specs:
        expansion = _expansion(spec)
        oracle = np.unique(expansion, axis=0)
        assert generators(spec).tobytes() == oracle.tobytes()


def test_canonical_rows_match_np_unique():
    # projected generator rows, whose sign flips leave -0.0 entries; equal
    # rows may keep either sign of a zero, so equality is by value
    rng = np.random.default_rng(36)
    specs = [Example2Norm(n) for n in range(2, 9)]
    specs += [random_composite(rng, 4, max_blocks=2) for _ in range(6)]
    negative_zeros = 0
    for spec in specs:
        gens = generators(spec)
        for N in range(1, gens.shape[1]):
            V = gens.copy()
            V[:, N:] = 0.0
            V = V[np.any(V != 0.0, axis=1)]
            lead = V[np.arange(V.shape[0]), np.argmax(V != 0.0, axis=1)]
            flipped = V * np.where(lead < 0, -1.0, 1.0)[:, None]
            negative_zeros += np.signbit(flipped[flipped == 0.0]).sum()
            assert np.array_equal(_canonical_rows(V),
                                  np.unique(flipped, axis=0))
    assert negative_zeros > 0


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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="block entries must be finite"):
            Block(1.0, np.array([[1.0, bad], [0.0, 1.0]]))
    for cls in (SupNorm, Example2Norm):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            cls(0)
    with pytest.raises(ValueError, match="at least one block is required"):
        CompositeNorm(())
    with pytest.raises(DimensionMismatch):
        CompositeNorm(((1.0, np.eye(2)), (1.0, np.eye(3))))
    # every number is finite, but the sum over blocks of coefficient times
    # largest row 1-norm is not: within one block (the coefficient times
    # an entry, or a row's sum) or only across blocks
    overflow = "the sum over blocks of coefficient times largest row 1-norm"
    for blocks in (((1e300, np.diag([1e10, 1.0])),),
                   ((1e300, [[1e8, 1e8], [0.0, 1.0]]),),
                   ((1e300, np.diag([1e8, 1.0])), (1e300, np.diag([1e8, 1.0]))),
                   ((1.0, [[1e308, 1e308], [0.0, 1.0]]),)):
        with pytest.raises(ValueError, match=overflow):
            CompositeNorm(blocks)
    # a block with coef * entry = 1e308 stays accepted, as does Block alone
    # with any finite coefficient and entries
    CompositeNorm(((1e300, np.diag([1e8, 1.0])),))
    Block(1e300, np.diag([1e10, 1.0]))


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


def test_a_stack_raises_the_error_of_its_first_failing_row():
    # the same objective at index 2 of a stack: the rows before it solve,
    # and the stack raises what a loop over the rows would raise first
    rng = np.random.default_rng(25)
    g = rng.normal(size=25)
    G = np.vstack([np.eye(25)[:2], g, -g, np.ones(25)])
    with pytest.raises(LPFailure, match=r"violates a row by 5\.767e\+07"):
        dual_norm_lmo(Example2Norm(25), G)
    value, achiever = dual_norm_lmo(Example2Norm(25), G[:2])
    assert value.shape == (2,) and achiever.shape == (2, 25)


def test_dual_norm_rejects_bad_functionals():
    with pytest.raises(NotPolyhedral):
        dual_norm_lmo(Example1TailNorm(), np.ones(3))
    with pytest.raises(NotPolyhedral):
        dual_norm_lmo(Example1TailNorm(), np.ones((2, 3)))
    with pytest.raises(NotPolyhedral, match="Example1TailNorm has no "
                                            "generator description"):
        generators(Example1TailNorm())
    # functionals that bound only the first coordinate leave the LP
    # unbounded along the second
    with pytest.raises(LPFailure, match="dual-norm LP ended with status "
                                        "unbounded"):
        dual_norm_lmo(SupNorm(2), np.ones(2),
                      gens=np.array([[1.0, 0.0], [-1.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        dual_norm_lmo(SupNorm(2), [[1.0, 2.0], [3.0]])
    with pytest.raises(DimensionMismatch, match="norm expects 2"):
        dual_norm_lmo(SupNorm(2), np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        dual_norm_lmo(SupNorm(2), np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="finite"):
        dual_norm_lmo(SupNorm(2), [[1.0, 2.0], [np.inf, 0.0]])


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

    def counting_lmo(spec, g, **kwargs):
        calls.append(np.shape(g))
        return real_lmo(spec, g, **kwargs)

    monkeypatch.setattr(zenger.norms, "dual_norm_lmo", counting_lmo)
    # 3N rows of Example2Norm(N + 1) have a nonzero last entry, against
    # 2N(N + 1) canonical projected rows in all; they go to one stacked call
    assert projection_norm(example2_family(9), 9) == 1.0 + 2.0 ** -9
    assert calls == [(27, 10)]

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


_CASE_9 = pytest.mark.xfail(
    strict=True, raises=LPFailure,
    reason="ROADMAP item 2, case 9: the simplex refuses its own optimum")


@pytest.mark.parametrize("N", [14, pytest.param(15, marks=_CASE_9),
                               pytest.param(20, marks=_CASE_9),
                               pytest.param(29, marks=_CASE_9), 30])
def test_projection_norm_cascade_is_exact(N):
    # ||P_N|| = 1 + 2^-N on the paper's cascade; N = 15..29 raise LPFailure
    # today (a row violated by 0.25), and the strict mark turns the pin into
    # a failure once the LP returns the right value there
    assert projection_norm(example2_family(N), N) == 1.0 + 2.0 ** -N


# ROADMAP item 2, case 8: norms whose block columns are scaled by
# 10^U(-3, 3).  Of the recipe's 1500 dual-norm LPs the simplex returns 44
# values more than 1e-7 relative below HiGHS, 37 of them more than 1e-3
# below; these are three of the 37, the worst first.  Each entry holds the
# blocks as (coef, rows), the functional g and HiGHS's optimum of
# max <g, x> over the unit ball, so the pins need no scipy.
_CASE_8 = [
    (  # trial 128: the simplex reads 0.001286
        [
            (1.2486215896194053, [
                [-0.1986934734778405, 0.0006674697858680931,
                 6.624521403197113, 4.989546715507316, -1.2932994896221501],
                [-0.02659514454313288, 0.0011054374199996973,
                 3.983811726308989, -3.9208649398763438, 0.3311423314848948],
                [0.07457713093762396, 0.0017565268307138098,
                 5.079739093768408, 1.693316983169085, 0.6817811598589918],
                [-0.1372525612538494, -0.0010504576628587964,
                 0.8261067463779659, -9.923932840553661, -1.0045648637220537],
                [-0.03752832957255024, 0.001265890636808925,
                 -1.8039746874145328, 13.28794055237532, 0.6459138392260674],
                [-0.19529064539989838, -0.0006853525048416048,
                 -0.3724244762536958, -11.652220426228784,
                 0.16806039462975797],
                [-0.060833840452302584, -0.0014943420627032222,
                 1.8196513773745522, -6.604228571335155, 0.35423870485664544],
                [0.12973419233188804, -0.0006499919713630675,
                 -5.409663655691061, 2.8176358347439563, 1.6511925689758287],
            ]),
            (1.8198413138154625, [
                [0.23241643125940317, 9.302168920744977, 3.347228501198726,
                 -1726.3539727670236, 333.03449912985997],
                [0.14679977000461228, -8.199507395187625, 2.9625423442021686,
                 907.0933714049632, -191.6647137827183],
                [0.1945319424899062, -61.17665884743809, 5.034535508543693,
                 -169.72082913978315, -398.6958915363338],
                [-0.4132409962003257, -20.63301547960767, -10.169802237331288,
                 1211.2521601021672, 108.38044608241442],
                [-0.45827032343890256, -35.20490125277938, 2.904373399232987,
                 1732.7600264344778, 262.52480543521966],
                [-0.04833630140052931, 40.94267107319149,
                 -0.45666670410181703, -373.761758070517, -290.9685554386703],
                [0.08273463719670654, -18.91187812600758, 4.9977467914621165,
                 703.5457399277983, 229.2945834604477],
                [0.3599438596145172, -16.344352009469755, -5.114105926016619,
                 -1167.8933953806222, -449.7898597393605],
            ]),
            (0.22838958914739002, [
                [-0.9625516559633402, -0.0008832527449290851,
                 -1.5006786771427068, 26.10539616462383, -1.2271023601533182],
                [-3.94439657155291, -0.0019898081254292924,
                 0.2679774009165667, -20.881840446260114, -1.9246900733744448],
                [5.561337354684043, 0.0008664580628157157, 0.6571817294607851,
                 63.13020291196921, -0.8611435777971637],
                [-0.9055996507398647, -0.00749639334147182,
                 -0.3609688104937641, 223.55226429011475, -3.3124871260835484],
                [0.588996551784972, 0.004061874632441253, -1.4221400881868478,
                 125.95508755318266, -0.292297752147973],
                [-1.6648530077273846, -0.003218102227648331,
                 -0.22142545318908152, -138.2668616837204,
                 -0.4071774762914612],
                [-1.04375393528178, 0.002746807163893958, -0.5470897086557606,
                 -67.28099210600477, -2.3994487997144787],
                [2.7129086250102925, 0.006343731944326767, 2.6645653294946507,
                 52.56446755299669, 0.27571489319148884],
            ]),
        ],
        [-0.22932698856842784, 0.13059376937702555, 0.07058841252590731,
         -1.7077497863371933, -0.24709706594913766],
        0.11995361986642086,
    ),
    (  # trial 147: the simplex reads 0.1637
        [
            (0.38324054913375527, [
                [-0.11671289999966009, -0.019419929012696718,
                 0.004232077394610096, 117.49440357919772],
                [0.03300530684955934, -0.24543983870830396,
                 -0.006270608826539711, 33.72422930030227],
                [-0.05215718660029848, -0.04784958725290758,
                 0.000882737328900446, 81.42046266558151],
                [-0.039000963967460354, 0.08043581348193404,
                 -0.004921134158761883, 15.07152200333012],
                [0.022120517723599274, -0.012622129352167643,
                 0.0012970931487362026, -70.14068357093097],
            ]),
            (0.82740411786366, [
                [-0.04958844562011593, -681.9350730267857, 0.7455758302711866,
                 94.79632384511571],
                [0.08282225329586061, 495.9010695188833, -0.30518520768175333,
                 -79.89643768731842],
                [-0.019574240099063743, 523.1703218005023,
                 -0.4274888927194189, -349.04361568489827],
                [0.10372229138708454, -56.692993375873726, 0.2438760639655672,
                 152.57238352400975],
            ]),
            (0.8704042701485775, [
                [7.695990299358314, -969.1790861121855, 0.015092996363933507,
                 -69.38674867415237],
                [16.473912587509336, -929.6506013304859,
                 0.0005924862631099124, -150.06634042519792],
                [255.53368320727313, -745.9902422052676, 0.006947321518040086,
                 42.29220843994252],
                [-20.542162779050763, -68.06575373544513,
                 0.005557780968689433, 69.13032831423781],
                [193.30025887485078, 468.60541895830795,
                 -0.014695144206624525, -2.239038848146001],
                [110.82816566808411, -506.79213432304, -0.011207475872898939,
                 50.936679695889325],
            ]),
        ],
        [0.708507537991607, -1.3819346383628381, -0.132931505650562,
         -1.889586503078186],
        0.23291706473896714,
    ),
    (  # trial 53: the simplex reads 4.692
        [
            (0.676936807996237, [
                [818.6122959821494, -626.6767112642568, -0.06621689314298479,
                 0.04374700600531942],
                [-52.39984473980133, 904.0388144346912, -0.06528948594966769,
                 0.04254557465109577],
                [242.082112662519, -603.5319781553894, 0.022776194295981027,
                 0.08958724502384165],
                [645.2181272823976, 164.77832158518515, -0.013723881375768021,
                 -0.04843280079998217],
                [-847.70308321337, -161.51237225236372, 0.050712866252377205,
                 -0.003086221312060871],
            ]),
            (1.10831612425642, [
                [0.10560623086425928, 0.6529476114310033,
                 -0.04272738105108167, 0.14665655266948757],
                [0.3564955271785996, 0.9377683380797402, -0.07400915245400748,
                 -0.2732408074452166],
                [-0.035132389390260935, 1.442502832825087,
                 -0.03866659977500348, -0.06471672368457733],
                [-0.052932407394820254, 6.361710534199762,
                 -0.0747112170521963, -0.07068017386906528],
            ]),
        ],
        [1.5417456018401452, -0.9829848282723361, -0.28778510775942545,
         0.9838565011376766],
        4.794226336454687,
    ),
]


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2, case 8: the simplex returns a wrong value")
@pytest.mark.parametrize("blocks, g, highs", _CASE_8,
                         ids=["trial128", "trial147", "trial53"])
def test_case_8_dual_norm_matches_highs(blocks, g, highs):
    # the value comes back, well below the optimum; the strict mark turns
    # the pin into a failure once the LP returns the right value or refuses
    value = dual_norm_lmo(CompositeNorm(tuple(blocks)), np.array(g)).value
    assert abs(value - highs) <= 1e-7 * highs


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


def test_equivalence_constants_match_the_coordinate_loop():
    # the lower constant from one stacked LP has the bits of n single LPs
    specs = [SupNorm(5), CompositeNorm(((2.0, np.eye(3)),)), Example2Norm(8)]
    for spec in specs:
        U = generators(spec)
        n = U.shape[1]
        worst = 0.0
        for k in range(n):
            worst = max(worst, dual_norm_lmo(spec, np.eye(n)[k], gens=U).value)
        assert equivalence_constants(spec).c_lower == 1.0 / worst


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
