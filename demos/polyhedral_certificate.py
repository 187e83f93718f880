"""
Certified pairs on a custom polyhedral norm
===========================================

Any norm written as a sum of weighted maxima of |rows . x| works, not just
the sup norm.  Here we build a two-block norm on R^3, solve for the dual
pair, certify it, and cross-check the objective against the small-dimension
grid oracle, which knows nothing about barriers or duality gaps.
"""

import numpy as np

from zenger import (
    CompositeNorm,
    ZengerProblem,
    brute_force_zenger,
    certify,
    equivalence_constants,
    solve_zenger,
)

blocks = (
    (1.0, np.array([[1.0, 0.5, 0.0],
                    [0.0, 1.0, -0.5],
                    [0.3, 0.0, 1.0]])),
    (0.5, np.array([[1.0, -1.0, 0.0],
                    [0.0, 1.0, -1.0]])),
)
spec = CompositeNorm(blocks)

# how far the ball is from the sup ball
ec = equivalence_constants(spec)
print("c * sup|x| <= norm(x) <= C * sup|x| with c = %.6f, C = %.6f"
      % (ec.c_lower, ec.C_upper))

alpha = np.array([0.5, 0.3, 0.2])
problem = ZengerProblem(spec=spec, alpha=alpha)
pair = solve_zenger(problem)

print("w          =", pair.w)
print("phi        =", pair.phi)
print("objective  =", pair.objective)
print("iterations =", pair.iterations)

cert = certify(pair, problem)
print("certificate ok =", cert.ok)

# independent check: exhaustive grid plus local refinement
oracle = brute_force_zenger(problem)
print("|F_solver - F_oracle| =", abs(pair.objective - oracle.objective))
