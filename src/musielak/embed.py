"""The explicit embedding into the (sign, permutation)-indexed L1 space.

A vector x is mapped to the table (sum_i x_i eps_i a_{i,pi(i)}) indexed by
all sign patterns eps and permutations pi; its normalized L1 norm

    ||Psi(x)|| = (1 / (2^n n!)) sum_{eps, pi} | sum_i x_i eps_i a_{i,pi(i)} |

is sandwiched between (1/sqrt 2) and 1 times the l2 permutation average by
Khintchine's inequality, and the ratio against the Musielak-Orlicz norm
gives an empirical upper-bound witness for the Banach-Mazur distance to the
image subspace.

``psi_exact`` computes the exact norm for a batch of vectors in one walk
down the prefix tree of S_n (``perms._prefix_tree``), with the sign
patterns as a second tree over the same levels: a node is a pair
(eps_0 .. eps_k, pi(0) .. pi(k)) and holds the partial sum over i <= k,
computed once for every leaf below it.  The sum only changes sign under
eps -> -eps, so eps_0 = +1 is fixed and each level k = 1 .. n - 2 doubles
the sign axis.  The last level is folded by the exact identity
|u + v| + |u - v| = 2 max(|u|, |v|), so the n! 2^(n-2) maxima over the
nodes of level n - 2 average to the norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import MusielakSystem, luxemburg_norm
from .perms import (
    _BATCH_ELEMENTS,
    DEFAULT_SAMPLES,
    AverageResult,
    PermutationSampler,
    WeightMatrix,
    ave_l2,
    _node_entries,
    _summarize,
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

    One walk down the (eps, pi) prefix tree (see the module docstring)
    serves the whole batch, in passes of at most ``perms._BATCH_ELEMENTS``
    nodes per buffer.  Each node is summed in i order, elementwise (no
    BLAS), so row v of the result has the same bits as a batch of ``xs[v]``
    alone.
    """
    if not a.is_square:
        raise ValueError("needs a square matrix")
    n = a.n
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != n:
        raise ValueError("vector length must match matrix dimension")
    if n > N_EXACT_PSI:
        raise ValueError(f"exact mode limited to n <= {N_EXACT_PSI}")
    leaves = math.factorial(n)
    nodes = leaves << max(n - 2, 0)  # (eps, pi) nodes of level n - 2, one per maximum
    step = max(1, _BATCH_ELEMENTS // nodes)
    batch = min(step, len(xs))
    # one allocation for the two node buffers, reused by every level of every pass, and the
    # +-x_k a_{k,pi(k)} terms of one level
    block = np.empty(2 * batch * (nodes + leaves))
    width = batch * nodes
    work, terms = (block[:width], block[width : 2 * width]), block[2 * width :]
    gathered, end = [], 0  # a_{k,pi(k)} at each node of each level k, in one gather
    flat = a.entries.take(_node_entries(n))
    for k in range(n):
        size = leaves // math.factorial(n - k - 1)
        gathered.append(flat[end : end + size])
        end += size
    out = np.empty(len(xs))
    for start in range(0, len(xs), step):
        chunk = xs[start : start + step]
        rows = len(chunk)
        sums = work[1][: rows * n].reshape(rows, 1, n)  # (vectors, sign pattern, prefix) at level 0
        np.multiply(chunk[:, :1, None], gathered[0], out=sums)  # eps_0 = +1
        signed = np.multiply.outer(chunk, (1.0, -1.0))  # (vectors, k, eps_k)
        for k in range(1, n - 1):
            signs, prefixes = sums.shape[1:]
            g = gathered[k].reshape(n - k, prefixes)  # (child slot, parent prefix)
            term = terms[: 2 * rows * g.size].reshape(rows, 2, 1, n - k, prefixes)
            np.multiply(signed[:, k, :, None, None, None], g, out=term)  # -(x g) is (-x) g exactly
            nxt = work[(k + 1) % 2][: 2 * (n - k) * sums.size].reshape(rows, 2, signs, n - k, prefixes)
            np.add(sums[:, None, :, None, :], term, out=nxt)  # u - t is u + (-t) exactly
            sums = nxt.reshape(rows, 2 * signs, g.size)
        # fold the last level: mean over eps_{n-1} of |u + eps v| is max(|u|, |v|), with
        # u = sums and v = x_{n-1} a_{n-1,pi(n-1)}; for n = 1, u is v itself
        last = terms[: rows * leaves].reshape(rows, 1, leaves)
        np.multiply(np.abs(chunk[:, -1, None, None]), gathered[-1], out=last)
        np.abs(sums, out=sums)
        np.maximum(sums, last, out=sums)
        np.add.reduce(sums.reshape(rows, -1), axis=1, out=out[start : start + rows])
    out /= nodes  # the mean, as ndarray.mean computes it
    return out


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
    return _summarize(vals, exact=False)


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
    scheme: str

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
    return DistortionReport(
        float(ratios.min()),
        float(ratios.max()),
        ratios.size,
        f"gaussian+basis+ones (seed {sampler.seed})",
    )
