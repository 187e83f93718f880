"""
The simplex core, cross-checked by vertex enumeration
=====================================================

Every dual-norm evaluation in the package bottoms out in a small linear
program over free variables: maximize <c, x> subject to A x <= b.  The
simplex in ``zenger.lp`` is the engine of ``dual_norm_lmo``.  It uses
Bland's rule, so it cannot cycle, and it takes float arrays as they are,
with b >= 0 so the origin is feasible.  This script solves a batch of
random LPs and confirms each optimum against brute-force enumeration of
basic feasible points, the test oracle in tests/oracle.py.
"""

import sys
from pathlib import Path

import numpy as np

from zenger.lp import LinearProgram, solve_lp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracle import brute_force_vertices  # noqa: E402

rng = np.random.default_rng(7)

worst = 0.0
for trial in range(200):
    n = int(rng.integers(2, 4))
    m = int(rng.integers(n + 1, 7))
    A = rng.normal(size=(m, n))
    # bound the feasible region in every direction
    A = np.vstack([A, np.eye(n), -np.eye(n)])
    b = np.ones(A.shape[0]) * rng.uniform(0.5, 2.0)
    c = rng.normal(size=n)
    lp = LinearProgram(objective=c, lhs=A, rhs=b)

    got = solve_lp(lp)
    value, point = brute_force_vertices(lp)
    assert got.status == "optimal"
    worst = max(worst, abs(got.value - value))

print("200 random LPs solved")
print("worst |simplex - enumeration| =", worst)

# an unbounded instance is reported, not raised
ray = LinearProgram(objective=np.array([1.0, 0.0]),
                    lhs=np.array([[0.0, 1.0], [0.0, -1.0]]),
                    rhs=np.array([1.0, 1.0]))
print("unbounded instance status =", solve_lp(ray).status)
