"""
Permutation averages, exact and sampled
=======================================

Evaluates the l2 permutation average of a weight matrix for a batch of
vectors, exactly (full enumeration of the symmetric group) and by seeded
Monte Carlo, also far past the exact limit, and shows the exact 1/2..2
sandwich of the combinatorial matrix norm by a Musielak-Orlicz norm built
from prefix sums.
"""

import numpy as np

from musielak import (
    PermutationSampler,
    WeightMatrix,
    ave_l2,
    ave_max_two,
    dra_sum_bound,
    lemma_matrixnorm_check,
    matrix_norm_a,
)

rng = np.random.default_rng(7)
n = 5
a = WeightMatrix(np.sort(rng.uniform(0.05, 1, (n, n)), axis=1)[:, ::-1])
xs = rng.normal(size=(3, n))
x = xs[0]

# Without a sampler: the exact average over all n! permutations, one value per vector of the batch.
exact = ave_l2(a, xs)
print(f"exact Ave_pi (sum a_(i,pi(i))^2 x_i^2)^(1/2) over {exact.samples} perms:")
# With a counter-based seeded sampler: a reproducible Monte Carlo estimate,
# with its standard error, from one sample of permutations shared by the batch.
mc = ave_l2(a, xs, sampler=PermutationSampler(42), samples=50_000)
for v in range(len(xs)):
    print(f"  x{v}: exact {exact.value[v]:.8f}, monte-carlo {mc.value[v]:.8f} +- {mc.stderr[v]:.2e}")

# Far past the exact limit (n = 8) only the sampled average runs.
big = 32
b = WeightMatrix(np.sort(rng.uniform(0.05, 1, (big, big)), axis=1)[:, ::-1])
far = ave_l2(b, rng.normal(size=(4, big)), sampler=PermutationSampler(43), samples=20_000)
print(f"n = {big}, {far.samples} sampled perms:")
for v, (value, stderr) in enumerate(zip(far.value, far.stderr)):
    print(f"  x{v}: {value:.8f} +- {stderr:.2e}")

# The matrix norm (greedy over column budgets) is sandwiched between 1/2
# and 1 times the prefix-sum Musielak-Orlicz norm -- an exact inequality,
# checked per instance.
print("matrix norm ||x||_a =", matrix_norm_a(a, x))
(rep,) = lemma_matrixnorm_check([(a, x)])
print(f"sandwich: {rep.lower:.6f} <= {rep.value:.6f} <= {rep.upper:.6f}  passed = {rep.passed}")

# Averages of maxima over two independent permutations, against the bound
# by the n^2 largest entries of the decreasing rearrangement.
a3 = rng.normal(size=(4, 4, 4))
lhs = ave_max_two(a3).value
rhs = dra_sum_bound(a3)
print(f"two-permutation max average = {lhs:.6f}, rearrangement bound = {rhs:.6f}, ratio = {lhs / rhs:.3f}")
