"""
Matrices from Orlicz systems and back
=====================================

The two constructions: a weight matrix determines a Musielak-Orlicz system
whose norm matches the l2 permutation average, and a smooth strictly
2-concave system determines a weight matrix through its decreasing profile.
Composing them is a fixed point up to uniform equivalence.
"""

import numpy as np

from musielak import (
    WeightMatrix,
    conjugate_inverse_knots,
    functions_from_matrix,
    matrix_from_functions,
    power_profile,
    power_profile_value,
    power_system,
    roundtrip_check,
)

# Forward: matrix -> system.  For the all-ones matrix the conjugate-inverse
# knot values collapse to sqrt(l/n) -- the Euclidean case.
ones = WeightMatrix(np.ones((4, 4)))
print("knot values of a == 1:")
print(conjugate_inverse_knots(ones)[0])

rng = np.random.default_rng(3)
a = WeightMatrix(np.sort(rng.uniform(0.05, 1, (4, 4)), axis=1)[:, ::-1])
system = functions_from_matrix(a)
print("matrix-built system sizes:", system.n, "members, piecewise affine")

# Inverse: system -> matrix.  Power functions have an analytic profile, so
# the Gauss-Legendre quadrature of FProfile can be checked in closed form.
prof = power_profile(1.5)
for t in [0.05, 0.25, 1.0]:
    num, exact = prof.value(t), float(power_profile_value(1.5, t))
    print(f"profile f({t}) = {num:.8f}  (closed form {exact:.8f})")

mixed = power_system([1.2, 1.5, 1.8, 1.5])
b = matrix_from_functions(mixed)
print("matrix from the mixed power system:")
print(np.round(b.entries, 4))

# Round trip: knot values of the reconstructed matrix against the original.
for label, m in [("a == 1", ones), ("power family", b)]:
    rep = roundtrip_check(m)
    print(f"roundtrip {label}: constants in [{rep.c_low:.4f}, {rep.c_high:.4f}]")
