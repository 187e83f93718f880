import numpy as np
import pytest

from zenger import (
    DimensionMismatch,
    NonPositiveWeight,
    SumMismatch,
    TailVector,
    Tolerances,
    as_vector,
    geometric_alpha,
    project_PN,
    validate_weights,
)


def test_default_tolerances():
    tol = Tolerances()
    assert tol.weight == 1e-10
    assert tol.gap == 1e-9
    assert tol.certificate == 1e-6


def test_as_vector_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([np.inf])


def test_validate_weights_accepts_exact_sum():
    out = validate_weights((0.5, 0.3, 0.2))
    assert np.array_equal(out, [0.5, 0.3, 0.2])


def test_validate_weights_rejects_zero_entry():
    with pytest.raises(NonPositiveWeight) as exc:
        validate_weights((0.5, 0.5, 0.0))
    assert exc.value.index == 3


def test_validate_weights_rejects_truncated_geometric_sum():
    # 3/4 + 3/16 + 3/64 = 63/64, exactly representable
    with pytest.raises(SumMismatch) as exc:
        validate_weights((3 / 4, 3 / 16, 3 / 64))
    assert exc.value.actual == 63 / 64


def test_validate_weights_empty():
    with pytest.raises(DimensionMismatch):
        validate_weights(())


def test_renormalize_geometric_prefix():
    out = geometric_alpha(0.25, 3)
    # dividing exact dyadic values by the exact sum 63/64 is a single
    # correctly rounded division per entry
    assert np.array_equal(out, [16 / 21, 4 / 21, 1 / 21])


def test_renormalize_trivial_cases():
    for ratio in (0.25, 0.5, 0.9):
        assert np.array_equal(geometric_alpha(ratio, 1), [1.0])


def test_renormalize_round_trips_through_validate():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ratio = float(rng.uniform(0.01, 0.99))
        validate_weights(geometric_alpha(ratio, int(rng.integers(1, 9))))


def test_tail_vector_entries_and_limits():
    e = TailVector(np.array([]), 1.0)
    assert e.entry(1) == 1.0
    assert e.entry(100) == 1.0
    assert e.sup == 1.0
    assert e.limsup == 1.0

    x = TailVector(np.array([2.0, -3.0]), 0.5)
    assert x.entry(2) == -3.0
    assert x.entry(3) == 0.5
    assert x.sup == 3.0
    assert x.limsup == 0.5
    assert np.array_equal(x.prefix(4), [2.0, -3.0, 0.5, 0.5])
    with pytest.raises(IndexError):
        x.entry(0)


def test_tail_vector_scale_and_validation():
    x = TailVector(np.array([1.0]), -2.0)
    y = x.scale(0.5)
    assert np.array_equal(y.head, [0.5]) and y.tail == -1.0
    with pytest.raises(ValueError):
        TailVector(np.array([np.nan]), 0.0)
    with pytest.raises(ValueError):
        TailVector(np.array([]), np.inf)


def test_project_constant_sequence():
    out = project_PN(TailVector(np.array([]), 1.0), 3)
    assert np.array_equal(out.head, [1.0, 1.0, 1.0])
    assert out.tail == 0.0


def test_project_dense_vector():
    assert np.array_equal(project_PN(np.array([1.0, 2.0, 3.0]), 2), [1.0, 2.0, 0.0])


def test_project_fixes_finitely_supported():
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(project_PN(x, 3), x)
    assert np.array_equal(project_PN(x, 7), x)
    t = TailVector(np.array([1.0, -2.0]), 0.0)
    out = project_PN(t, 5)
    assert np.array_equal(out.prefix(6), t.prefix(6))


def test_project_idempotent_bit_exact():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        N = int(rng.integers(1, 12))
        v = rng.normal(size=n)
        once = project_PN(v, N)
        assert np.array_equal(project_PN(once, N), once)
        t = TailVector(rng.normal(size=int(rng.integers(0, 5))), rng.normal())
        tonce = project_PN(t, N)
        ttwice = project_PN(tonce, N)
        assert np.array_equal(ttwice.head, tonce.head)
        assert ttwice.tail == tonce.tail == 0.0


def test_project_never_grows_sup():
    rng = np.random.default_rng(12)
    for _ in range(50):
        t = TailVector(rng.normal(size=int(rng.integers(0, 6))), rng.normal())
        for N in range(1, 9):
            assert project_PN(t, N).sup <= t.sup


def test_project_rejects_negative_N():
    with pytest.raises(ValueError):
        project_PN(np.array([1.0]), -1)
