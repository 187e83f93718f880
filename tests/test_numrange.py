import inspect
import sys

import numpy as np
import pytest

from zenger import (
    NotTriangular,
    SupportCurve,
    as_complex_matrix,
    spectrum_hull_check,
    support_curve,
)
from zenger.numrange import _jacobi_batch


def random_hermitian(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (M + np.conj(M.T))


def random_upper_triangular(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.triu(M)


def test_jacobi_on_diagonal_and_flip():
    H = np.diag([3.0, 1.0, 2.0])
    assert np.max(np.abs(_jacobi_batch(H[None])[0] -
                         np.array([1.0, 2.0, 3.0]))) <= 1e-14
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = _jacobi_batch(H[None])[0]
    assert np.max(np.abs(got - np.array([-1.0, 1.0]))) <= 1e-12


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(5):
            H = random_hermitian(rng, n)
            got = _jacobi_batch(H[None])[0]
            want = np.linalg.eigvalsh(H)
            assert np.max(np.abs(got - want)) <= 1e-8


def test_jacobi_preserves_trace_and_frobenius():
    rng = np.random.default_rng(12)
    for _ in range(20):
        H = random_hermitian(rng, int(rng.integers(2, 7)))
        eigs = _jacobi_batch(H[None])[0]
        assert abs(eigs.sum() - np.trace(H).real) <= 1e-10
        assert abs((eigs ** 2).sum() - np.sum(np.abs(H) ** 2)) <= 1e-10


def test_support_function_diagonal_segment():
    # grid 8 puts angles 0, pi/2 and pi at indices 0, 2 and 4
    values = support_curve(np.diag([0.0, 1.0]), 8).values
    assert abs(values[0] - 1.0) <= 1e-12
    assert abs(values[4]) <= 1e-12
    assert abs(values[2]) <= 1e-12


def test_support_curve_skips_pivots_zero_across_the_batch():
    # only pivot (0, 1) of this triangular matrix is ever nonzero, so the
    # sweep skips (0, 2) and (1, 2) for every angle at once; the range is
    # the hull of the disk about 1 of radius 1/2 and the point 2, so
    # h(theta) = max(cos theta + 1/2, 2 cos theta)
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    lines, start = inspect.getsourcelines(_jacobi_batch)
    skip = start + [line.strip() for line in lines].index("continue")
    reached = []

    def tracer(frame, event, arg):
        if frame.f_code is _jacobi_batch.__code__:
            if event == "line" and frame.f_lineno == skip:
                reached.append(skip)
            return tracer
        return None

    sys.settrace(tracer)
    try:
        curve = support_curve(A, 64)
    finally:
        sys.settrace(None)
    assert reached
    want = np.maximum(np.cos(curve.thetas) + 0.5, 2.0 * np.cos(curve.thetas))
    assert np.max(np.abs(curve.values - want)) <= 1e-12
    assert spectrum_hull_check(A, curve).ok


def test_support_function_nilpotent_disk():
    # the range of the 2x2 shift is the closed disk of radius 1/2
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    for value in support_curve(A, 16).values:
        assert abs(value - 0.5) <= 1e-12


def test_support_curve_grid_and_consistency():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    curve = support_curve(A, grid_size=32)
    assert curve.thetas.shape == (32,)
    assert curve.thetas[0] == 0.0
    assert abs(curve.thetas[1] - 2.0 * np.pi / 32.0) <= 1e-15
    for k in (0, 5, 17, 31):
        rotated = np.exp(-1j * curve.thetas[k]) * A
        H = 0.5 * (rotated + np.conj(rotated.T))
        assert abs(curve.values[k] - np.linalg.eigvalsh(H)[-1]) <= 1e-10

    with pytest.raises(ValueError):
        support_curve(A, grid_size=7)


def test_support_curve_lipschitz_and_mean_bound():
    # the range sits in the Frobenius ball, so h is that-Lipschitz in theta,
    # and it dominates the rotated normalized trace (a point of the range)
    rng = np.random.default_rng(14)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        radius = float(np.sqrt(np.sum(np.abs(A) ** 2)))
        curve = support_curve(A, grid_size=64)
        step = 2.0 * np.pi / 64.0
        diffs = np.abs(np.diff(np.concatenate([curve.values, curve.values[:1]])))
        assert np.max(diffs) <= radius * step + 1e-8
        mean = np.trace(A) / n
        lower = np.real(np.exp(-1j * curve.thetas) * mean)
        assert np.all(curve.values >= lower - 1e-10)


def test_hull_check_normal_touches_boundary():
    D = np.diag([0.0, 1.0])
    report = spectrum_hull_check(D, support_curve(D, 64))
    assert report.ok
    assert abs(report.worst_margin) <= 1e-8

    # the rounding in h(theta) grows with the entries, so the accepted
    # slack scales with max|A_ij|
    A = np.diag([3e9, 2e9j, -1e9 - 1e9j])
    curve = support_curve(A, 64)
    report = spectrum_hull_check(A, curve)
    assert report.ok
    assert abs(report.worst_margin) <= 1e-8 * 3e9
    # a curve pulled inward by 1e-6 * max|A_ij| is still caught
    shifted = SupportCurve(curve.thetas, curve.values - 1e-6 * 3e9)
    assert not spectrum_hull_check(A, shifted).ok


def test_hull_check_nilpotent_margin():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    report = spectrum_hull_check(A, support_curve(A))
    assert report.ok
    assert abs(report.worst_margin - 0.5) <= 1e-12


def test_hull_check_random_triangulars():
    rng = np.random.default_rng(15)
    for _ in range(10):
        A = random_upper_triangular(rng, int(rng.integers(2, 7)))
        report = spectrum_hull_check(A, support_curve(A))
        assert report.ok
        assert report.worst_margin >= -1e-8


def test_hull_equals_range_for_diagonal():
    # for a normal matrix the range is the hull of the spectrum, so the
    # support values are attained by rotated eigenvalues on every angle
    rng = np.random.default_rng(16)
    eigs = rng.normal(size=4) + 1j * rng.normal(size=4)
    A = np.diag(eigs)
    curve = support_curve(A, grid_size=128)
    attained = np.max(
        np.real(np.exp(-1j * curve.thetas)[:, None] * eigs[None, :]), axis=1
    )
    assert np.max(np.abs(curve.values - attained)) <= 1e-8


def test_hull_check_rejects_non_triangular():
    with pytest.raises(NotTriangular):
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        spectrum_hull_check(A, support_curve(A))


def test_hull_check_takes_its_grid_from_the_curve():
    # the check has no grid of its own: it reads the angles off the curve
    # it is given
    params = inspect.signature(spectrum_hull_check).parameters
    assert list(params) == ["A", "curve"]
    assert all(p.default is inspect.Parameter.empty for p in params.values())
    A = np.diag([0.0, 1.0])
    coarse = SupportCurve(np.array([0.0, np.pi]), np.array([1.0, 0.0]))
    assert spectrum_hull_check(A, coarse) == (True, 0.0)
    pulled = SupportCurve(coarse.thetas, coarse.values - [0.0, 0.5])
    assert spectrum_hull_check(A, pulled) == (False, -0.5)


def test_support_curve_leaves_the_callers_arrays_writeable():
    thetas, values = np.array([0.0, np.pi]), np.array([1.0, 0.0])
    curve = SupportCurve(thetas, values)
    assert thetas.flags.writeable and values.flags.writeable
    assert not curve.thetas.flags.writeable
    assert not curve.values.flags.writeable


def test_support_curve_validates_shapes():
    with pytest.raises(ValueError):
        SupportCurve(thetas=np.zeros(4), values=np.zeros(5))


def test_as_complex_matrix_errors():
    for shape in ((2, 3), (0, 0)):
        with pytest.raises(ValueError):
            as_complex_matrix(np.zeros(shape))
    with pytest.raises(ValueError):
        as_complex_matrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    A = as_complex_matrix([[1.0, 2.0], [3.0, 4.0]])
    assert A.dtype == complex
