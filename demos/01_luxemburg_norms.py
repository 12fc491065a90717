"""
Luxemburg norms of Musielak-Orlicz systems
==========================================

Builds systems of both kinds -- powers, and piecewise-affine functions given
by the knots of their conjugates -- and evaluates the coordinate-wise
(Musielak) Luxemburg norm of a batch of vectors in one call.
"""

import math

import numpy as np

from musielak import MusielakSystem, WeightMatrix, ave_l2, functions_from_matrix, luxemburg_norm, power_system

# With identical quadratic members the Luxemburg norm is Euclidean.
euclid = MusielakSystem.powers([2.0] * 3, [1.0] * 3)
print("||(3, 4, 0)|| =", luxemburg_norm(euclid, [[3.0, 4.0, 0.0]])[0])

# Mixing members per coordinate changes the geometry.  luxemburg_norm
# solves a (V, n) batch of vectors at once.
mixed = MusielakSystem.powers([1.5, 2.0, 3.0], [1.0, 1.0, 1.0])
xs = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.2, 2.0, 0.5]])
for x, rho in zip(xs, luxemburg_norm(mixed, xs)):
    print(f"powers 1.5, 2, 3, x = {x}: ||x|| = {rho:.6f}")

# A piecewise-affine M_i is the conjugate of M_i*, given by its knots t_k,
# values v_k and last slope b: M_i(s) = max_k (s t_k - v_k) for s <= b.
# M*(t) = 0 on [0, 1] with an infinite last slope gives M(s) = s: the l1 norm.
l1 = MusielakSystem.from_conjugate_knots([[0.0, 1.0]] * 3, [[0.0, 0.0]] * 3, [math.inf] * 3)
# M*(t) = t gives M = 0 up to s = 1 and +inf beyond: the max norm.
linf = MusielakSystem.from_conjugate_knots([[0.0]] * 3, [[0.0]] * 3, [1.0] * 3)
print("l1 norms:  ", luxemburg_norm(l1, xs))
print("max norms: ", luxemburg_norm(linf, xs))

# The system built from a weight matrix: its norm is equivalent to the l2
# permutation average of the matrix, and each vector gets the same bits
# alone as in a batch.
rng = np.random.default_rng(1)
a = WeightMatrix(np.sort(rng.uniform(0.05, 1, (4, 4)), axis=1)[:, ::-1])
system = functions_from_matrix(a)
ys = rng.normal(size=(100, 4))
ratios = ave_l2(a, ys).value / luxemburg_norm(system, ys)
print(f"l2 average / norm over 100 vectors: [{ratios.min():.4f}, {ratios.max():.4f}]")
alone, batched = luxemburg_norm(system, ys[:1])[0], luxemburg_norm(system, ys)[0]
print("the first vector alone and in the batch:", alone, batched, "same bits:", alone == batched)

# power_system rescales each member so that its conjugate has M_i*(1) = 1.
powers = power_system([1.2, 1.5, 1.8])
print("power_system([1.2, 1.5, 1.8]) scales:", np.round(powers.scale, 6))
