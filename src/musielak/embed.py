"""The explicit embedding into the (sign, permutation)-indexed L1 space.

A vector x is mapped to the table (sum_i x_i eps_i a_{i,pi(i)}) indexed by
all sign patterns eps and permutations pi; its normalized L1 norm

    ||Psi(x)|| = (1 / (2^n n!)) sum_{eps, pi} | sum_i x_i eps_i a_{i,pi(i)} |

is sandwiched between (1/sqrt 2) and 1 times the l2 permutation average by
Khintchine's inequality, and the ratio against the Musielak-Orlicz norm
gives an empirical upper-bound witness for the Banach-Mazur distance to the
image subspace.

``psi_exact`` computes the exact norm of a batch of vectors with one
``perms.walk_prefix_tree`` over the signs +-1, and folds the last level in
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import MusielakSystem, luxemburg_norm
from .perms import (
    DEFAULT_SAMPLES,
    AverageResult,
    PermutationSampler,
    WeightMatrix,
    ave_l2,
    walk_prefix_tree,
)

__all__ = [
    "DistortionReport",
    "sign_patterns",
    "psi_exact",
    "psi_image_norm",
    "khintchine_sandwich_check",
    "distortion_estimate",
    "N_EXACT_PSI",
]

# 2^6 * 6! = 46080 terms
N_EXACT_PSI = 6
# absolute slack of each side of the Khintchine sandwich in ``khintchine_sandwich_check``
KHINTCHINE_TOL = 1e-12


def sign_patterns(n: int) -> np.ndarray:
    """(2^n, n) array of all +-1 patterns."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    return (2 * bits - 1).astype(float)


def psi_exact(a: WeightMatrix, xs) -> np.ndarray:
    """Exact normalized L1 norms ||Psi(x)|| of each row of the (V, n) batch ``xs``.

    The sum only changes sign under eps -> -eps, so the walk fixes
    eps_0 = +1 and stops one level short, at the partial sums u over
    i <= n - 2.  With v = x_{n-1} a_{n-1,pi(n-1)}, the exact identity
    |u + v| + |u - v| = 2 max(|u|, |v|) folds the last level, so the norm is
    the mean of max(|u|, |v|) over the n! 2^(n-2) nodes of level n - 2 (or
    the empty prefix, u = 0, for n = 1).  A vector alone and in a batch give
    the same bits.
    """

    def fold(sums, v):  # v holds |v| at each leaf
        np.abs(sums, out=sums)
        np.maximum(sums, v[:, None, :], out=sums)
        # the mean, as ndarray.mean computes it
        return np.add.reduce(sums.reshape(len(sums), -1), axis=1) / sums[0].size

    return walk_prefix_tree(a, xs, N_EXACT_PSI, (1.0, -1.0), 1, a.n - 1, fold)


def psi_image_norm(
    a: WeightMatrix,
    x,
    sampler: PermutationSampler | None = None,
    samples: int = DEFAULT_SAMPLES,
) -> AverageResult:
    """Normalized L1 norm of the embedded vector.

    Without a sampler, exact over all (sign pattern, permutation) pairs by
    ``psi_exact``; with one, the mean over ``samples`` independent uniform
    pairs drawn from it, with its standard error.
    """
    if not a.is_square:
        raise ValueError("needs a square matrix")
    n = a.n
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError("vector length must match matrix dimension")
    if sampler is None:  # psi_exact enumerates, and checks the limit
        value = psi_exact(a, x[None, :])[0]
        return AverageResult(float(value), "exact", 2**n * math.factorial(n))
    perms = sampler.permutations(n, samples)
    eps = sampler.signs(n, samples)
    vals = np.abs((x * a.entries[np.arange(n), perms] * eps).sum(axis=1))
    return AverageResult.mean_of(vals, exact=False)


@dataclass
class KhintchineReport:
    lower: float  # (1/sqrt 2) * l2 average
    value: float  # embedded L1 norm
    upper: float  # l2 average
    passed: bool


def khintchine_sandwich_check(a: WeightMatrix, x) -> KhintchineReport:
    """Exact check of (1/sqrt 2) Ave <= ||Psi(x)|| <= Ave, within ``KHINTCHINE_TOL``."""
    ave = ave_l2(a, x).value
    psi = psi_exact(a, np.asarray(x, dtype=float)[None, :])[0]
    passed = ave / np.sqrt(2.0) - KHINTCHINE_TOL <= psi <= ave + KHINTCHINE_TOL
    return KhintchineReport(ave / np.sqrt(2.0), float(psi), ave, passed)


@dataclass
class DistortionReport:
    """Empirical distortion of the embedding over sampled directions.

    ``distortion`` is an upper-bound witness for the Banach-Mazur distance
    between the Musielak-Orlicz space and the image subspace; no optimality
    over isomorphisms is claimed.
    """

    ratio_min: float
    ratio_max: float
    samples: int

    def __post_init__(self):
        if self.ratio_min <= 0 or self.ratio_max < self.ratio_min:
            raise ValueError("need 0 < ratio_min <= ratio_max")

    @property
    def distortion(self) -> float:
        return self.ratio_max / self.ratio_min


def distortion_estimate(
    system: MusielakSystem,
    a: WeightMatrix,
    sampler: PermutationSampler,
    samples: int,
) -> DistortionReport:
    """Ratio band of ||Psi(x)|| / ||x||_{sum M_i} over sampled directions.

    Directions mix random Gaussian vectors with the standard basis vectors
    and the all-ones vector (distortion extremes tend to sit at sparse or
    flat vectors, which pure random sampling undercovers).
    """
    n = a.n
    if system.n != n:
        raise ValueError("system and matrix dimensions must match")
    directions = np.vstack([np.eye(n), np.ones((1, n)), sampler.normals((samples, n))])
    denoms = np.array([luxemburg_norm(system, x) for x in directions])
    if (denoms == 0.0).any():
        raise ValueError("zero-norm direction")
    ratios = psi_exact(a, directions) / denoms
    return DistortionReport(float(ratios.min()), float(ratios.max()), ratios.size)
