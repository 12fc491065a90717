"""
Luxemburg norms and convex conjugation
======================================

Builds a few Orlicz functions, conjugates them exactly, and evaluates the
coordinate-wise (Musielak) Luxemburg norm.
"""

import numpy as np

from musielak import (
    MusielakSystem,
    PiecewiseAffineConvex,
    PowerFunction,
    is_two_concave,
    luxemburg_norm,
)

# A power function and its Legendre conjugate: (t^p / p)* = t^q / q.
m = PowerFunction(1.5, 1 / 1.5)
mstar = m.conjugate()
print("M(2) =", m(2.0), "   M*(2) =", mstar(2.0), "  (q =", mstar.p, ")")

# Young's inequality: s t <= M(s) + M*(t), slack >= 0 everywhere.
slacks = [m(s) + mstar(t) - s * t for s in np.linspace(0, 3, 7) for t in np.linspace(0, 3, 7)]
print("worst Young slack on a grid:", min(slacks))

# Piecewise-affine functions conjugate exactly (slopes become knots).
pwa = PiecewiseAffineConvex([0.0, 1.0, 2.0], [0.0, 1.0, 3.0], 3.0)
print("PWA conjugate knots:", pwa.conjugate().knots)

# With identical quadratic members the Luxemburg norm is Euclidean.
# luxemburg_norm solves a (V, n) batch of vectors at once.
system = MusielakSystem((PowerFunction(2),) * 3)
print("||(3, 4, 0)|| =", luxemburg_norm(system, [[3.0, 4.0, 0.0]])[0])

# Mixing members per coordinate changes the geometry.
mixed = MusielakSystem((PowerFunction(1.5), PowerFunction(2), PowerFunction(3)))
xs = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.2, 2.0, 0.5]])
for x, rho in zip(xs, luxemburg_norm(mixed, xs)):
    print(f"mixed system, x = {x}: ||x|| = {rho:.6f}")

# 2-concavity check (the hypothesis the constructions need).
for p in [1.5, 2.0, 3.0]:
    rep = is_two_concave(PowerFunction(p))
    print(f"t^{p}: 2-concave = {rep.passed}, strictly = {rep.strictly}")
