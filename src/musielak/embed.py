"""The explicit embedding into the (sign, permutation)-indexed L1 space.

A vector x is mapped to the table (sum_i x_i eps_i a_{i,pi(i)}) indexed by
all sign patterns eps and permutations pi; its normalized L1 norm

    ||Psi(x)|| = (1 / (2^n n!)) sum_{eps, pi} | sum_i x_i eps_i a_{i,pi(i)} |

is sandwiched between (1/sqrt 2) and 1 times the l2 permutation average by
Khintchine's inequality, and the ratio against the Musielak-Orlicz norm
gives an empirical upper-bound witness for the Banach-Mazur distance to the
image subspace.

``psi_image_norm`` computes the norm of a (V, n) batch of vectors.  Exact,
it is ``perms.split_average`` over the signs +-1, each permutation split
into a head and a tail whose signed sums meet in closed form, for one
matrix or one per vector; with a sampler, ``perms.monte_carlo_average``
over one draw of (sign pattern, permutation) pairs shared by the batch.
``khintchine_sandwich_check`` checks (matrix, vector) pairs, those of one
n in one l2 and one psi call.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .convex import EquivalenceReport
from .perms import (
    DEFAULT_SAMPLES,
    AverageResult,
    PermutationSampler,
    SandwichReport,
    WeightMatrix,
    _check_vector,
    ave_l2,
    monte_carlo_average,
    split_average,
)

__all__ = [
    "psi_image_norm",
    "khintchine_sandwich_check",
    "distortion_directions",
    "distortion_estimate",
    "N_EXACT_PSI",
]

# 2^6 * 6! = 46080 terms
N_EXACT_PSI = 6
# absolute slack of each side of the Khintchine sandwich in ``khintchine_sandwich_check``
KHINTCHINE_TOL = 1e-12


def psi_image_norm(
    a: WeightMatrix | Sequence[WeightMatrix],
    xs,
    sampler: PermutationSampler | None = None,
    samples: int = DEFAULT_SAMPLES,
) -> AverageResult:
    """Normalized L1 norms ||Psi(x)|| of each row of the (V, n) batch ``xs``.

    Without a sampler, exact over all (sign pattern, permutation) pairs.
    The sum only changes sign under eps -> -eps, so ``perms.split_average``
    fixes eps_0 = +1 in the head sum A over i < n // 2, and eps at the first
    tail coordinate h = n // 2 to +1 in the tail sum B.  The exact identity
    |A + B| + |A - B| = 2 max(|A|, |B|) folds eps_h, so the norm is the
    mean of max(|A|, |B|) over n! 2^(n-2) leaves (one, with A = 0, for
    n = 1).  ``a`` is one matrix for the batch, or exact only, a sequence of
    V matrices of one n, ``a[v]`` for ``xs[v]``.  With a sampler, the mean
    over ``samples`` uniform pairs by ``monte_carlo_average``, with its
    standard error.  A vector alone and in a batch give the same bits.
    """
    if sampler is not None:
        return monte_carlo_average(a, xs, (1.0, -1.0), 1, np.abs, sampler, samples)

    def leaf(head, tail, out):
        np.copyto(out, np.abs(tail, out=tail))  # the broadcast over the head is one long copy, then the max in place
        np.maximum(out, np.abs(head, out=head), out=out)

    return split_average(a, xs, N_EXACT_PSI, (1.0, -1.0), 1, leaf)


def _khintchine_instance(a: WeightMatrix, x) -> tuple[WeightMatrix, np.ndarray]:
    x = _check_vector(x, "x")
    if x.shape != (a.n,):
        raise ValueError("vector length must match matrix dimension")
    return a, x


def khintchine_sandwich_check(instances) -> list:
    """Exact checks of (1/sqrt 2) Ave <= ||Psi(x)|| <= Ave, within ``KHINTCHINE_TOL``.

    One ``SandwichReport`` per ``(a, x)`` of ``instances``, in order.  The
    instances of one shape make one ``ave_l2`` call and one
    ``psi_image_norm`` call, each vector with its own matrix (one instance
    passes its matrix as it is), so each report has the bits of its
    instance checked alone.
    """
    pairs = [_khintchine_instance(a, x) for a, x in instances]
    groups = {}  # shape -> the indices of its instances
    for k, (a, _) in enumerate(pairs):
        groups.setdefault(a.entries.shape, []).append(k)
    reports = [None] * len(pairs)
    for ks in groups.values():
        a = pairs[ks[0]][0] if len(ks) == 1 else [pairs[k][0] for k in ks]
        xs = np.array([pairs[k][1] for k in ks])
        for k, ave, psi in zip(ks, ave_l2(a, xs).value.tolist(), psi_image_norm(a, xs).value.tolist()):
            lower = ave / np.sqrt(2.0)
            reports[k] = SandwichReport(lower, psi, ave, lower - KHINTCHINE_TOL <= psi <= ave + KHINTCHINE_TOL)
    return reports


def distortion_directions(n: int, sampler: PermutationSampler, samples: int) -> np.ndarray:
    """Directions for ``distortion_estimate``: the n basis vectors, the all-ones vector, then ``samples`` Gaussian ones.

    The rows of one (n + 1 + samples, n) array.  Distortion extremes tend to sit at sparse or flat vectors, which pure
    random sampling undercovers.
    """
    return np.vstack([np.eye(n), np.ones((1, n)), sampler.normals((samples, n))])


def distortion_estimate(a: WeightMatrix, directions, norms) -> EquivalenceReport:
    """Ratio band of ||Psi(x)|| / ||x||_{sum M_i} over the rows x of ``directions``, given their norms ``norms``.

    ``norms`` are the Musielak-Orlicz norms of the directions (from
    ``luxemburg_norm``, say, of ``distortion_directions``).  The report's
    ``spread`` is an upper-bound witness for the Banach-Mazur distance
    between the Musielak-Orlicz space and the image subspace; no optimality
    over isomorphisms is claimed.
    """
    directions, norms = np.asarray(directions, dtype=float), np.asarray(norms, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != a.n or norms.shape != directions.shape[:1]:
        raise ValueError(
            f"need (V, {a.n}) directions and V norms for a matrix with {a.n} rows, "
            f"got shapes {directions.shape} and {norms.shape}"
        )
    bad = ~((norms > 0) & (norms < np.inf))  # nan, zero, negative or infinite
    if bad.any():
        i = int(np.argmax(bad))
        kind = "a zero-norm direction" if norms[i] == 0 else "not finite and positive"
        raise ValueError(f"norms: row {i} is {norms[i]}, {kind}")
    ratios = psi_image_norm(a, directions).value / norms
    return EquivalenceReport(float(ratios.min()), float(ratios.max()))
