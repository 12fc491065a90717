"""The explicit embedding into the (sign, permutation)-indexed L1 space.

A vector x is mapped to the table (sum_i x_i eps_i a_{i,pi(i)}) indexed by
all sign patterns eps and permutations pi; its normalized L1 norm

    ||Psi(x)|| = (1 / (2^n n!)) sum_{eps, pi} | sum_i x_i eps_i a_{i,pi(i)} |

is sandwiched between (1/sqrt 2) and 1 times the l2 permutation average by
Khintchine's inequality, and the ratio against the Musielak-Orlicz norm
gives an empirical upper-bound witness for the Banach-Mazur distance to the
image subspace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .convex import MusielakSystem, luxemburg_norm
from .perms import (
    DEFAULT_SAMPLES,
    AverageResult,
    PermutationSampler,
    WeightMatrix,
    ave_l2,
    _permutation_rows,
    _summarize,
)

__all__ = [
    "DistortionReport",
    "sign_patterns",
    "psi_image_norm",
    "khintchine_sandwich_check",
    "distortion_estimate",
    "N_EXACT_PSI",
]

# 2^6 * 6! = 46080 terms
N_EXACT_PSI = 6


def sign_patterns(n: int) -> np.ndarray:
    """(2^n, n) array of all +-1 patterns."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    return (2 * bits - 1).astype(float)


def psi_image_norm(
    a: WeightMatrix,
    x,
    mode: str = "exact",
    sampler: PermutationSampler | None = None,
    samples: int = DEFAULT_SAMPLES,
) -> AverageResult:
    """Normalized L1 norm of the embedded vector.

    Exact mode enumerates all (sign pattern, permutation) pairs; Monte Carlo
    samples independent uniform pairs and reports the standard error.
    """
    if not a.is_square:
        raise ValueError("needs a square matrix")
    n = a.n
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError("vector length must match matrix dimension")
    perms = _permutation_rows(n, mode, sampler, samples, N_EXACT_PSI)
    if mode == "exact":
        terms = x * a.entries[np.arange(n), perms]  # (n!, n)
        sums = sign_patterns(n) @ terms.T  # (2^n, n!)
        np.abs(sums, out=sums)
        return AverageResult(float(sums.mean()), "exact", sums.size)
    eps = sampler.signs(n, samples)
    vals = np.abs((x * a.entries[np.arange(n), perms] * eps).sum(axis=1))
    return _summarize(vals, "monte-carlo")


@dataclass
class KhintchineReport:
    lower: float  # (1/sqrt 2) * l2 average
    value: float  # embedded L1 norm
    upper: float  # l2 average
    passed: bool


def khintchine_sandwich_check(a: WeightMatrix, x, tol: float = 1e-12) -> KhintchineReport:
    """Exact check of (1/sqrt 2) Ave <= ||Psi(x)|| <= Ave."""
    ave = ave_l2(a, x, mode="exact").value
    psi = psi_image_norm(a, x, mode="exact").value
    passed = ave / np.sqrt(2.0) - tol <= psi <= ave + tol
    return KhintchineReport(ave / np.sqrt(2.0), psi, ave, passed)


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
    scheme: str

    def __post_init__(self):
        if self.ratio_min <= 0 or self.ratio_max < self.ratio_min:
            raise ValueError("need 0 < ratio_min <= ratio_max")

    @property
    def distortion(self) -> float:
        return self.ratio_max / self.ratio_min

    def to_json(self) -> str:
        return json.dumps(
            {
                "ratio_min": self.ratio_min,
                "ratio_max": self.ratio_max,
                "distortion": self.distortion,
                "samples": self.samples,
                "scheme": self.scheme,
            }
        )


def distortion_estimate(
    system: MusielakSystem,
    a: WeightMatrix,
    sampler: PermutationSampler,
    samples: int = 2000,
    mode: str = "exact",
    psi_samples: int = DEFAULT_SAMPLES,
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
    ratios = []
    for x in directions:
        denom = luxemburg_norm(system, x)
        if denom == 0.0:
            raise ValueError("zero-norm direction")
        num = psi_image_norm(a, x, mode=mode, sampler=sampler, samples=psi_samples).value
        ratios.append(num / denom)
    ratios = np.asarray(ratios)
    return DistortionReport(
        float(ratios.min()),
        float(ratios.max()),
        ratios.size,
        f"gaussian+basis+ones (seed {sampler.seed})",
    )
