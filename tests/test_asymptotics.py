import numpy as np
import pytest

import zenger.asymptotics
from zenger import (
    CompositeNorm,
    Example1TailNorm,
    Example2Norm,
    SearchLimitExceeded,
    SupNorm,
    TailVector,
    eval_norm,
    example1_refute,
    example2_family,
    geometric_alpha,
    geometric_rule,
    liminf_check,
    pn_table,
    project_PN,
    projection_norm,
)


def test_geometric_rule_values():
    rule = geometric_rule(0.25)
    assert rule(1) == 0.75
    assert rule(2) == 0.1875
    assert rule(3) == 0.75 * 0.25 ** 2
    # the full series telescopes to 1
    assert abs(sum(rule(k) for k in range(1, 60)) - 1.0) <= 1e-15


def test_geometric_rule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        geometric_rule(0.0)
    with pytest.raises(ValueError):
        geometric_rule(1.0)
    with pytest.raises(ValueError):
        geometric_rule(-0.5)
    rule = geometric_rule(0.5)
    with pytest.raises(ValueError):
        rule(0)


def test_geometric_alpha_renormalization():
    a = geometric_alpha(0.25, 3)
    assert np.max(np.abs(a - np.array([16.0, 4.0, 1.0]) / 21.0)) <= 1e-16
    assert a.sum() == 1.0

    # geometric weights are always renormalized
    with pytest.raises(TypeError):
        geometric_alpha(0.25, 3, renormalize=False)

    with pytest.raises(ValueError):
        geometric_alpha(0.25, 0)


def test_pn_table_sup_family_is_flat():
    table = pn_table(lambda N: SupNorm(N + 1), range(1, 6))
    assert len(table.rows) == 5
    for row in table.rows:
        assert row.pn_norm == 1.0
        assert row.bound is None


def test_pn_table_cascade_family_decays_to_one():
    table = pn_table(example2_family, range(1, 13))
    values = [row.pn_norm for row in table.rows]
    for row in table.rows:
        assert row.bound == 1.0 + 2.0 ** (-row.N)
        assert 1.0 <= row.pn_norm <= row.bound + 1e-9
    # monotone decay toward the ceiling 1
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12
    assert values[-1] - 1.0 <= 2.0 ** (-12) + 1e-9


def test_pn_table_identity_block_family_is_flat():
    table = pn_table(
        lambda N: CompositeNorm(((2.0, np.eye(N + 1)),)), range(1, 5)
    )
    for row in table.rows:
        assert abs(row.pn_norm - 1.0) <= 1e-9


def test_pn_table_rejects_nonpositive_levels():
    with pytest.raises(ValueError):
        pn_table(lambda N: SupNorm(N + 1), [0, 1])


def test_example2_family_dimension():
    for N in (1, 4, 9):
        assert example2_family(N).dimension == N + 1


def test_tail_projection_table_pins_the_ceiling():
    table = pn_table(lambda N: Example1TailNorm(), range(1, 8))
    spec = Example1TailNorm()
    e1 = TailVector(np.array([1.0]), 0.0)
    probes = (e1, TailVector(np.array([]), 1.0),
              TailVector(np.array([0.5, -0.5]), 0.5))
    for row in table.rows:
        # the closed form: truncation never raises the norm, and e_1, fixed
        # by every truncation, realizes the bound
        assert row.pn_norm == 1.0
        assert row.bound == 1.0
        ratios = [eval_norm(spec, project_PN(u, row.N)) / eval_norm(spec, u)
                  for u in probes]
        assert max(ratios) == ratios[0] == row.pn_norm
        assert projection_norm(spec, row.N) == 1.0
    with pytest.raises(ValueError):
        pn_table(lambda N: Example1TailNorm(), [0])
    with pytest.raises(ValueError):
        projection_norm(spec, 0)


def test_liminf_fails_on_constant_sequence():
    e = TailVector(np.array([]), 1.0)
    report = liminf_check(Example1TailNorm(), e, range(1, 21))
    assert report.limit_estimate == 1.0
    assert report.norm_value == 2.0
    assert report.consistent is False


def test_liminf_holds_for_supported_vectors():
    x = TailVector(np.array([1.0]), 0.0)
    report = liminf_check(Example2Norm(30), x, range(1, 11))
    assert report.limit_estimate == 1.5
    assert report.norm_value == 1.5
    assert report.consistent is True

    y = TailVector(np.array([0.3, -0.7]), 0.0)
    report = liminf_check(SupNorm(30), y, range(1, 11))
    assert report.consistent is True
    assert report.norm_value == 0.7


def test_liminf_rejects_empty_or_bad_ranges():
    e = TailVector(np.array([]), 1.0)
    with pytest.raises(ValueError):
        liminf_check(Example1TailNorm(), e, [])
    with pytest.raises(ValueError):
        liminf_check(Example1TailNorm(), e, [0, 1, 2])


def test_refute_constant_half_candidate():
    w = TailVector(np.array([]), 0.5)
    witness = example1_refute(w, geometric_rule(0.5))
    assert witness.N == 2
    assert witness.value == 1.5
    assert np.array_equal(witness.x.head, np.array([1.0, 1.0]))
    assert witness.x.tail == 0.0


def test_refute_explicit_head_candidate():
    w = TailVector(np.array([0.5]), 0.5)
    witness = example1_refute(w, geometric_rule(0.5))
    assert witness.N == 2
    assert witness.value == 1.5


def test_refute_signed_candidate():
    w = TailVector(np.array([-0.25]), 0.5)
    witness = example1_refute(w, geometric_rule(0.5))
    assert witness.N == 1
    assert witness.value == 2.0
    assert np.array_equal(witness.x.head, np.array([-1.0]))


def test_refute_witness_invariants():
    # any admissible candidate yields a finite witness on the sphere with
    # pairing value strictly above 1
    spec = Example1TailNorm()
    rng = np.random.default_rng(7)
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
        assert witness.x.head.size == witness.N
        assert witness.x.tail == 0.0


def test_refute_rejects_bad_candidates():
    with pytest.raises(ValueError):
        example1_refute(TailVector(np.array([1.0]), 0.0), geometric_rule(0.5))
    with pytest.raises(ValueError):
        example1_refute(
            TailVector(np.array([0.0, 0.5]), 0.5), geometric_rule(0.5)
        )
    with pytest.raises(ValueError):
        # norm is 1.5, off the sphere
        example1_refute(TailVector(np.array([1.0]), 0.5), geometric_rule(0.5))
    with pytest.raises(ValueError):
        example1_refute(
            TailVector(np.array([]), 0.5), lambda k: 0.5 if k == 1 else 0.0
        )


def test_refute_search_limit(monkeypatch):
    # alpha summing to 1/4 keeps every partial sum below 1; the index
    # budget is the module constant REFUTE_LIMIT, read on every call
    def alpha(k):
        return 2.0 ** (-k - 2)

    monkeypatch.setattr(zenger.asymptotics, "REFUTE_LIMIT", 1000)
    with pytest.raises(SearchLimitExceeded):
        example1_refute(TailVector(np.array([]), 0.5), alpha)
    with pytest.raises(TypeError):
        example1_refute(TailVector(np.array([]), 0.5), alpha, limit=1000)
