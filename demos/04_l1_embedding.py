"""
Embedding into a finite L1 space
================================

A vector is mapped to the table of signed weighted sums over all (sign
pattern, permutation) pairs.  The normalized L1 norm of the table is
sandwiched by the l2 permutation average (Khintchine), so the embedding
distorts the Musielak-Orlicz norm by at most a bounded factor, estimated
here over sampled directions.
"""

import numpy as np

from musielak import (
    PermutationSampler,
    WeightMatrix,
    distortion_directions,
    distortion_estimate,
    functions_from_matrix,
    khintchine_sandwich_check,
    luxemburg_norm,
    psi_image_norm,
)

rng = np.random.default_rng(11)
n = 4
a = WeightMatrix(np.sort(rng.uniform(0.05, 1, (n, n)), axis=1)[:, ::-1])
x = rng.normal(size=n)

# The embedded norm of a batch of vectors, by exhaustive enumeration of 2^n n! coordinates.
res = psi_image_norm(a, [x, 2.0 * x])
print(f"||Psi(x)||_1 = {res.value[0]:.8f}, ||Psi(2x)||_1 = {res.value[1]:.8f}  ({res.samples} table entries)")

# Khintchine sandwich: (1/sqrt 2) Ave <= ||Psi(x)|| <= Ave, exactly.
(rep,) = khintchine_sandwich_check([(a, x)])
print(f"sandwich: {rep.lower:.6f} <= {rep.value:.6f} <= {rep.upper:.6f}  passed = {rep.passed}")

# Distortion witness: band of ||Psi(x)|| / ||x|| over basis vectors, the
# all-ones vector, and Gaussian directions.
system = functions_from_matrix(a)
samples = 200
directions = distortion_directions(n, PermutationSampler(0), samples)
dist = distortion_estimate(a, directions, luxemburg_norm(system, directions))
print(f"ratio band [{dist.c_low:.4f}, {dist.c_high:.4f}]")
print(f"distortion upper-bound witness: {dist.spread:.4f} over {n + 1 + samples} directions")
