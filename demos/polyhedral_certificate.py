"""
Certified pairs on a custom polyhedral norm
===========================================

Any norm written as a sum of weighted maxima of |rows . x| works, not just
the sup norm.  Here we build a two-block norm on R^3, solve for the dual
pair, and certify it by recomputing its four defining identities from
scratch.
"""

import numpy as np

from zenger import (
    CompositeNorm,
    ZengerProblem,
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
print("residuals (norm, dual, pairing, factor) = %.1e %.1e %.1e %.1e"
      % (cert.norm_residual, cert.dual_residual, cert.pairing_residual,
         cert.factor_residual))
