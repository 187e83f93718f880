"""
Numerical range support functions by angle sweep
================================================

The numerical range of a square matrix A is the set of Rayleigh quotients
x* A x over unit vectors.  Its support function at angle theta is the top
eigenvalue of the Hermitian part of exp(-i theta) A, computed by the
package with a batched cyclic Jacobi eigensolver.  For triangular A the
eigenvalues sit on the diagonal, and their convex hull must lie inside the
range; the sweep checks that inclusion angle by angle.
"""

import numpy as np

from zenger import spectrum_hull_check, support_curve

# the 2x2 nilpotent shift: numerical range is the disc of radius 1/2
shift = np.array([[0.0, 1.0],
                  [0.0, 0.0]])
curve = support_curve(shift, grid_size=16)
print("nilpotent shift: h(theta) =", np.round(curve.values, 12))

# an upper triangular matrix with complex spectrum on its diagonal
A = np.array([[1.0 + 1.0j, 0.8, -0.3],
              [0.0, -0.5, 1.1j],
              [0.0, 0.0, 0.25 - 0.75j]])
check = spectrum_hull_check(A, grid_size=256)
print("triangular A: hull of spectrum inside range =", check.ok)
print("worst margin over 256 angles =", check.worst_margin)

# for a normal (here diagonal) matrix the range IS the hull, so the worst
# margin collapses to zero: some eigenvalue touches every support line
D = np.diag([2.0, -1.0 + 0.5j, 0.3j])
tight = spectrum_hull_check(D, grid_size=256)
print("normal D: worst margin =", tight.worst_margin)

# a Hermitian matrix: its range is the segment between its extreme eigenvalues
H = np.array([[2.0, 1.0 - 1.0j],
              [1.0 + 1.0j, 3.0]])
print("eigenvalues of H =", np.linalg.eigvalsh(H))
