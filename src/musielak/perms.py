"""Permutation averages, decreasing rearrangements and the matrix norm.

The central quantity is the l2 permutation average

    Ave_pi ( sum_i |x_i a_{i,pi(i)}|^2 )^(1/2)

over the symmetric group.  Each average enumerates every permutation when
called without a sampler (up to its exact limit), and is a seeded Monte
Carlo estimate over ``samples`` draws of the ``PermutationSampler`` it is
given.  ``ave_l2`` and ``embed.psi_image_norm`` take a (V, n) batch of
vectors.  Exact, each is ``split_average``: a meet-in-the-middle split of
S_n (``_split_layout``) sums the head and the tail of every permutation
once per sign pattern, subset and ordering, one contraction per half, and
each permutation's value is a closed form of its two half sums; the batch
shares one matrix, or gives each vector its own.  Sampled, each is
``monte_carlo_average`` over one draw of permutations (and signs) that the
whole batch and its one matrix share.  Both paths check the batch at the
same boundary, and give a row alone and in a batch the same bits.  The
exact max averages, over pairs of permutations (``ave_max_two``) and over
one (``ave_max_vector``), read the same split and sort its half maxima
(``_max_average``).  The module also provides the
decreasing-rearrangement bound that the pair average is equivalent to, the
matrix norm ||x||_a (greedy top-N selection), and the piecewise-affine
system whose Luxemburg norm sandwiches ||x||_a within exact factors 1/2
and 2.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .convex import MusielakSystem, _batch, luxemburg_norm, stacked_passes

__all__ = [
    "WeightMatrix",
    "PermutationSampler",
    "AverageResult",
    "dra",
    "ave_l2",
    "ave_max_two",
    "dra_sum_bound",
    "matrix_norm_a",
    "prefix_sum_system",
    "prefix_sum_systems",
    "lemma_matrixnorm_check",
    "build_b_vector",
    "ave_max_vector",
    "split_average",
    "monte_carlo_average",
    "N_EXACT",
    "N_EXACT_PAIRS",
    "DEFAULT_SAMPLES",
]

# exact enumeration limits: 8! = 40320 single permutations, (5!)^2 pairs
N_EXACT = 8
N_EXACT_PAIRS = 5
DEFAULT_SAMPLES = 100_000
# absolute slack of each side of the Lemma 2.2 sandwich in ``lemma_matrixnorm_check``
SANDWICH_TOL = 1e-8


@dataclass(frozen=True)
class WeightMatrix:
    """n x N matrix with positive, nonincreasing rows (n <= N)."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.size == 0:
            raise ValueError("entries must be a nonempty 2-d array")
        n, N = entries.shape
        if n > N:
            raise ValueError("need n <= N")
        if self.rows_pass(entries, entries[:, -1]):
            return
        nonfinite = ~np.isfinite(entries).all(axis=1)
        nonpositive = ~(entries[:, -1:] > 0).all(axis=1)
        increasing = (entries[:, 1:] > entries[:, :-1]).any(axis=1)
        i = int(np.argmax(nonfinite | nonpositive | increasing))  # the first bad row, by its first failing check
        if nonfinite[i]:
            raise ValueError(f"row {i} has a non-finite entry")
        if nonpositive[i]:
            raise ValueError(f"row {i} is not strictly positive")
        raise ValueError(f"row {i} is not nonincreasing")

    @staticmethod
    def rows_pass(entries: np.ndarray, last: np.ndarray) -> bool:
        """Whether every row is finite and nonincreasing, with its own last entry, ``last[i]``, positive.

        One check of all rows, which ``WeightMatrix`` diagnoses row by row
        only when it fails: rows nonincreasing down to a positive last entry
        are finite where their first entries are.  A row zero-padded past its
        own last entry passes where its own entries do.
        """
        return bool((entries[:, 1:] <= entries[:, :-1]).all() and (last > 0).all() and (entries[:, 0] < np.inf).all())

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def ncols(self) -> int:
        return self.entries.shape[1]

    @property
    def is_square(self) -> bool:
        return self.n == self.ncols

    @staticmethod
    def padded(matrices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries of ``matrices`` zero-padded into one (J, n, N) array, and their own n and N as (J,) arrays."""
        shapes = np.array([a.entries.shape for a in matrices])
        entries = np.zeros((len(matrices), *shapes.max(axis=0)))
        for j, a in enumerate(matrices):
            entries[j, : a.n, : a.ncols] = a.entries
        return entries, shapes[:, 0], shapes[:, 1]


@functools.cache
def _philox_key() -> type:
    """The seed sequence that hands ``Philox`` a key as it is: no hash, no OS entropy.

    Made on first use, because its base class lives in ``numpy.random``,
    which numpy loads only when it is first used.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words  # the key as two uint64 words, low word first

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            if n_words != 2 or np.dtype(dtype) != np.uint64:  # Philox asks for its key as two uint64 words
                raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} of {np.dtype(dtype)}")
            return self.words

    return PhiloxKey


class PermutationSampler:
    """Reproducible uniform permutation/sign sampler.

    Built on a counter-based Philox stream so that identical seeds yield
    identical draws on every platform.  A permutation is the stable argsort
    of n uniforms from the stream.  ``PermutationSampler(seed)`` draws from
    ``Philox(seed)``, whose 128-bit key K comes from ``SeedSequence(seed)``.
    ``spawn(key)`` gives the sampler of ``Philox(key=K ^ SPAWN_MASK ^ key)``:
    the root's key with ``key`` in its low word and its high word inverted,
    so no child replays the root or a sibling (different Philox keys give
    independent streams), and no spawn pays for a hash.  A spawned sampler
    does not spawn: its children's keys would be its siblings'.
    """

    # flips the high word of the root's key: spawn(0) is not the root
    SPAWN_MASK = (2**64 - 1) << 64

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = np.random.Generator(np.random.Philox(self.seed))
        key = self._rng.bit_generator.state["state"]["key"]
        self._key = int(key[0]) | int(key[1]) << 64

    def spawn(self, key: int) -> "PermutationSampler":
        """The sampler of child stream ``key``, an int in [0, 2**64): independent of the root and of other keys."""
        if self._key is None:
            raise ValueError("a spawned sampler does not spawn")
        if not isinstance(key, (int, np.integer)) or isinstance(key, bool) or not 0 <= key < 2**64:
            raise ValueError(f"key must be an int in [0, 2**64), got {key!r}")
        child = self._key ^ self.SPAWN_MASK ^ int(key)
        words = np.array([child & (2**64 - 1), child >> 64], dtype=np.uint64)
        sampler = object.__new__(PermutationSampler)
        sampler.seed, sampler._key = None, None
        sampler._rng = np.random.Generator(np.random.Philox(_philox_key()(words)))
        return sampler

    def permutations(self, n: int, count: int) -> np.ndarray:
        """(count, n) array of independent uniform permutations: the draws of a Monte Carlo average."""
        if count < 1:  # a mean of no draws is nan
            raise ValueError(f"samples must be at least 1, got {count}")
        return np.argsort(self._rng.random((count, n)), axis=1, kind="stable")

    def signs(self, n: int, count: int) -> np.ndarray:
        """(count, n) array of independent uniform +-1 patterns."""
        return self._rng.integers(0, 2, size=(count, n)) * 2 - 1

    def normals(self, shape) -> np.ndarray:
        return self._rng.standard_normal(shape)

    def uniform(self, lo, hi, shape) -> np.ndarray:
        return self._rng.uniform(lo, hi, shape)


@dataclass
class AverageResult:
    """A permutation-average value, exact or Monte Carlo.

    Exact results carry zero standard error; Monte Carlo results report the
    sample standard deviation divided by sqrt(samples).  The averages of a
    batch of vectors (``ave_l2``, ``embed.psi_image_norm``) hold one value
    and one standard error per vector, as (V,) arrays.
    """

    value: float | np.ndarray
    mode: str  # "exact" | "monte-carlo"
    samples: int
    stderr: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.mode not in ("exact", "monte-carlo"):
            raise ValueError("mode must be 'exact' or 'monte-carlo'")
        if self.mode == "exact" and np.count_nonzero(self.stderr):
            raise ValueError("exact results have zero standard error")

    @classmethod
    def mean_of(cls, values: np.ndarray) -> AverageResult:
        """The Monte Carlo mean of ``values``, one per draw, with its standard error."""
        stderr = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
        return cls(float(values.mean()), "monte-carlo", values.size, stderr)


def dra(values) -> np.ndarray:
    """Decreasing rearrangement: absolute values sorted nonincreasingly.

    Ties keep original index order (stable sort), so the output is fully
    deterministic.
    """
    v = np.abs(np.asarray(values, dtype=float).ravel())
    if v.size == 0:
        raise ValueError("need a nonempty list")
    order = np.argsort(-v, kind="stable")
    return v[order]


def _check_batch(a: WeightMatrix, xs) -> np.ndarray:
    """``xs`` as a (V, n) float batch of finite vectors for the square matrix ``a``, or a ValueError."""
    if not a.is_square:
        raise ValueError("needs a square matrix")
    return _batch(xs, a.n)


@functools.cache
def _split_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The meet-in-the-middle split of S_n at h = n // 2: read-only flat indices i * n + pi(i) of its two halves.

    A permutation pi is one triple (T, head, tail): T = pi({0..h-1}), the
    head is pi on 0..h-1 (an ordering of T) and the tail pi on h..n-1 (one
    of the complement).  With C = comb(n, h) subsets T in lexicographic
    order, ``head[i, j * C + c]`` is i * n + pi(i) in the j-th ordering of
    the c-th T, and ``tail[i - h, k * C + c]`` likewise for its complement.
    """
    heads = list(itertools.combinations(range(n), n // 2))
    halves = []
    for first, images in ((0, heads), (n // 2, [[j for j in range(n) if j not in t] for t in heads])):
        cube = np.array([list(itertools.permutations(t)) for t in images], dtype=np.intp)  # (T, ordering, i)
        m = cube.shape[2]
        flat = (cube.T + n * np.arange(first, first + m)[:, None, None]).reshape(m, math.prod(cube.shape[:2]))
        flat.flags.writeable = False
        halves.append(flat)
    return tuple(halves)


@functools.cache
def _signed_halves(n: int, signs: tuple[float, ...]) -> tuple:
    """The head and the tail of ``_split_layout(n)``, each as (its first i, its sign table, its flat indices).

    A half of m coordinates has the read-only (sign pattern, i) table of
    eps_0 = +1 and eps_1 .. eps_{m-1} in ``signs``, read as the digits of
    the pattern, eps_{m-1} the most significant; (1, 0) for the empty head
    of n = 1.
    """
    halves = []
    for first, flat in zip((0, n // 2), _split_layout(n)):
        m = len(flat)
        table = np.array([(1.0, *p[::-1]) for p in itertools.product(signs, repeat=max(m - 1, 0))])[:, :m]
        table.flags.writeable = False
        halves.append((first, table, flat))
    return tuple(halves)


def _exact_batch(a: WeightMatrix | Sequence[WeightMatrix], xs, power: int) -> tuple[np.ndarray, np.ndarray]:
    """``xs`` as a checked (V, n) batch, and the entries of ``a`` to the ``power``, each matrix flattened.

    ``a`` is one square ``WeightMatrix``, whose powers are one (n * n,)
    array, or a sequence of V of them of one n, one per vector, whose
    powers are a (V, n * n) array; anything else is a ValueError that
    names ``a``.
    """
    if isinstance(a, WeightMatrix):
        return _check_batch(a, xs), (a.entries**power).ravel()
    if not (isinstance(a, Sequence) and a and all(isinstance(m, WeightMatrix) for m in a)):
        raise ValueError("a must be a WeightMatrix or a nonempty sequence of them")
    if len({m.entries.shape for m in a}) != 1:
        raise ValueError("a: the matrices must all have one shape")
    xs = _check_batch(a[0], xs)
    if len(a) != len(xs):
        raise ValueError(f"a: {len(a)} matrices for {len(xs)} vectors, need one per vector")
    return xs, np.stack([m.entries.ravel() for m in a]) ** power


# leaves in one pass of ``split_average``
_BATCH_ELEMENTS = 1 << 16


def split_average(
    a: WeightMatrix | Sequence[WeightMatrix], xs, limit: int, signs: tuple[float, ...], power: int, leaf
) -> AverageResult:
    """Exact means of ``leaf`` over the split of S_n (``_split_layout``), for each row of the (V, n) batch ``xs``.

    The exact paths of ``ave_l2`` and ``embed.psi_image_norm``.  ``a`` is
    one ``WeightMatrix`` for the whole batch or a sequence of V, one per
    vector (``_exact_batch``).  The head sums
    A = sum_{i<h} eps_i x_i^power a_{i,pi(i)}^power and the tail sums B
    (over i >= h) are formed once per (sign pattern, subset, ordering),
    with eps_0 = eps_h = +1 and every other eps_i in ``signs``, which
    starts with +1: each half is one contraction of its ``_signed_halves``
    times x_i^power with the gathered a_{i,pi(i)}^power, accumulated in
    i order.  ``leaf(head, tail, out)`` writes the leaves of a pass, laid
    out (vectors, head, tail, subset), into ``out`` from the broadcasts of
    A and B, which it may overwrite; the result is their mean, over
    |signs|^n n! (sign pattern, permutation) pairs.  A pass holds at most
    ``_BATCH_ELEMENTS`` leaves and a block of passes shares its half sums.
    All is elementwise (no BLAS) and each row is reduced alone, so row v
    has the same bits as a call with ``xs[v]`` and its own matrix alone.
    """
    xs, ap = _exact_batch(a, xs, power)
    n = xs.shape[1]
    if n > limit:
        raise ValueError(f"exact mode limited to n <= {limit}")
    halves = _signed_halves(n, signs)
    subsets = math.comb(n, n // 2)
    count = math.factorial(n) * len(signs) ** max(n - 2, 0)  # leaves per vector
    step = max(1, _BATCH_ELEMENTS // count)  # vectors per pass
    larger = len(halves[1][1]) * halves[1][2].shape[1]  # sums per vector of the tail, the larger half
    block = step * max(1, _BATCH_ELEMENTS // (step * larger))  # vectors per block, a whole number of passes
    if ap.ndim == 1:  # one matrix: a_{i,pi(i)}^power by (i, ordering * subset), gathered once
        halves = [(first, table, ap.take(flat)) for first, table, flat in halves]
    buffer = np.empty((min(step, len(xs)), count))
    powers = xs**power
    out = np.empty(len(xs))
    for start in range(0, len(xs), block):
        x = powers[start : start + block]
        sums = []
        for first, table, terms in halves:  # the head, then the tail
            if ap.ndim == 2:  # one matrix per vector: each vector's own terms
                terms = ap[start : start + block][:, terms]
            signed = x[:, None, first : first + table.shape[1]]  # (vectors, sign pattern, i)
            if len(table) > 1:  # a table of one pattern is all +1
                signed = signed * table
            # (vectors, sign pattern, ordering * subset); optimize=False keeps einsum off BLAS and in i order
            acc = np.einsum("vpi,il->vpl" if terms.ndim == 2 else "vpi,vil->vpl", signed, terms, optimize=False)
            sums.append(acc.reshape(len(x), -1, subsets))
        head, tail = sums[0][:, :, None], sums[1][:, None]
        for lo in range(0, len(x), step):
            hi = min(lo + step, len(x))
            leaves = buffer[: hi - lo]
            leaf(head[lo:hi], tail[lo:hi], leaves.reshape(hi - lo, head.shape[1], tail.shape[2], subsets))
            np.add.reduce(leaves, axis=1, out=out[start + lo : start + hi])
    np.divide(out, count, out=out)
    return AverageResult(out, "exact", math.factorial(n) * len(signs) ** n, np.zeros(len(xs)))


def monte_carlo_average(
    a: WeightMatrix,
    xs,
    signs: tuple[float, ...],
    power: int,
    finish,
    sampler: PermutationSampler,
    samples: int,
) -> AverageResult:
    """Monte Carlo means of finish(sum_i eps_i x_i^power a_{i,pi(i)}^power) for the (V, n) batch ``xs``.

    The sampled counterpart of ``split_average``: ``samples`` permutations
    pi are drawn from ``sampler``, and as many sign patterns eps when
    ``signs`` has two entries (+-1), and the whole batch shares them.  The
    terms eps_i a_{i,pi(i)}^power are gathered once; each row sums its
    terms in i order, elementwise (no BLAS), applies ``finish`` (a ufunc)
    and is reduced to its mean and standard error before the next row, so
    memory is O(samples), and row v has the same bits as a batch of
    ``xs[v]`` alone.  ``a`` is one ``WeightMatrix``: a sequence of them is
    a ValueError.
    """
    if not isinstance(a, WeightMatrix):
        raise ValueError("a: a sampled average takes one WeightMatrix, shared by the batch")
    xs = _check_batch(a, xs)
    n = a.n
    terms = (a.entries**power)[np.arange(n)[:, None], sampler.permutations(n, samples).T]  # (n, samples)
    if len(signs) == 2:
        terms *= sampler.signs(n, samples).T
    value, stderr = np.empty(len(xs)), np.empty(len(xs))
    acc, term = np.empty(samples), np.empty(samples)
    for v, x in enumerate(xs**power):
        np.multiply(x[0], terms[0], out=acc)
        for i in range(1, n):
            acc += np.multiply(x[i], terms[i], out=term)
        row = AverageResult.mean_of(finish(acc, out=acc))
        value[v], stderr[v] = row.value, row.stderr
    return AverageResult(value, "monte-carlo", samples, stderr)


def ave_l2(
    a: WeightMatrix | Sequence[WeightMatrix],
    xs,
    sampler: PermutationSampler | None = None,
    samples: int = DEFAULT_SAMPLES,
) -> AverageResult:
    """Ave_pi ( sum_i (x_i a_{i,pi(i)})^2 )^(1/2) over uniform pi, for each row of the (V, n) batch ``xs``.

    Without a sampler, exact: ``split_average`` sums x_i^2 a_{i,pi(i)}^2
    over each half of every permutation once, and each leaf is
    sqrt(A + B), so row v has the same bits as a batch of ``xs[v]`` alone,
    and as the flat sum over the permutations in the split's leaf order,
    head and tail each in i order.  ``a`` is one matrix for the batch, or
    exact only, a sequence of V matrices of one n, ``a[v]`` for ``xs[v]``.
    With a sampler, ``monte_carlo_average`` over ``samples`` permutations.
    """
    if sampler is not None:
        return monte_carlo_average(a, xs, (1.0,), 2, np.sqrt, sampler, samples)

    def leaf(head, tail, out):
        np.copyto(out, tail)  # the broadcast over the head is one long copy, then A + B in place
        np.add(out, head, out=out)
        np.sqrt(out, out=out)

    return split_average(a, xs, N_EXACT, (1.0,), 2, leaf)


def _check_cube(a3) -> np.ndarray:
    """``a3`` as a finite n x n x n float array, n >= 1, or a ValueError."""
    a3 = np.asarray(a3, dtype=float)
    if a3.ndim != 3 or len(set(a3.shape)) != 1 or a3.size == 0 or not np.isfinite(a3).all():
        raise ValueError("needs a finite cubic n x n x n array, n >= 1")
    return a3


def _check_vector(v, name: str) -> np.ndarray:
    """``v`` as a nonempty finite float vector, or a ValueError that names it."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0 or not np.isfinite(v).all():
        raise ValueError(f"{name} must be a nonempty finite vector")
    return v


@functools.cache
def _max_layout(n: int, pairs: bool) -> tuple[np.ndarray, int, np.ndarray]:
    """The split's blocks for ``_max_average``: (read-only index, |A|, each leaf value's rank in its own half).

    A block is one subset T, or a pair (T_pi, T_sigma) if ``pairs``.  ``index[i, block]`` holds the heads' i * n + pi(i)
    (or (i * n + pi(i)) * n + sigma(i)), then the tails'; the head's missing rows point at a 0 put after the values.
    """
    subsets = math.comb(n, n // 2)
    head, tail = (f.reshape(len(f), f.shape[1] // subsets, subsets).transpose(0, 2, 1) for f in _split_layout(n))
    if pairs:  # (i, T_pi, T_sigma, pi's ordering, sigma's ordering), blocks and orderings each flattened
        head, tail = (
            (h[:, :, None, :, None] * n + h[:, None, :, None, :] % n).reshape(len(h), subsets**2, h.shape[2] ** 2)
            for h in (head, tail)
        )
    pad = np.full((len(tail) - len(head), *head.shape[1:]), n ** (2 + pairs))
    index = np.concatenate([np.concatenate([head, pad]), tail], axis=2)
    index.flags.writeable = False
    return index, head.shape[2], np.concatenate([np.arange(head.shape[2]), np.arange(tail.shape[2])]).astype(float)


def _max_average(values: np.ndarray, n: int, limit: int, pairs: bool) -> AverageResult:
    """The exact mean of max_i values[index_i] over the leaves of ``_max_layout``, or a ValueError past ``limit``.

    ``values`` are >= 0.  In a block, each head maximum a in A and tail maximum b in B meet in one leaf, and the sum of
    max(a, b) is P(A u B) - P(A) - P(B), with P(S) = sum_k k s_(k) over S sorted ascending.  Elementwise (no BLAS).
    """
    if n > limit:
        raise ValueError(f"exact mode limited to n <= {limit}")
    index, heads, own = _max_layout(n, pairs)
    both = np.append(values, 0.0).take(index).max(axis=0)  # A, then B, in each block
    both[:, :heads].sort(axis=1)
    both[:, heads:].sort(axis=1)
    halves = both * own  # the terms of P(A) and P(B)
    both.sort(axis=1)
    both *= np.arange(both.shape[1], dtype=float)  # the terms of P(A u B)
    count = len(both) * heads * (both.shape[1] - heads)  # leaves: blocks * |A| * |B|
    return AverageResult(float(np.add.reduce((both - halves).ravel()) / count), "exact", count)


def ave_max_two(
    a3,
    sampler: PermutationSampler | None = None,
    samples: int = DEFAULT_SAMPLES,
) -> AverageResult:
    """Ave over pairs (pi, sigma) of max_i |a(i, pi(i), sigma(i))|.

    Exact: ``_max_average`` over the split of each of pi and sigma, with
    (n!)^2 leaves.  Sampled: pi is drawn before sigma.
    """
    a3 = _check_cube(a3)
    n = a3.shape[0]
    if sampler is not None:
        pis, sigmas = sampler.permutations(n, samples), sampler.permutations(n, samples)
        vals = np.abs(a3[np.arange(n)[None, :], pis, sigmas]).max(axis=1)
        return AverageResult.mean_of(vals)
    return _max_average(np.abs(a3), n, N_EXACT_PAIRS, pairs=True)


def dra_sum_bound(a3) -> float:
    """(1/n^2) * (sum of the n^2 largest absolute entries of the cube)."""
    a3 = _check_cube(a3)
    n = a3.shape[0]
    s = dra(a3.ravel())
    return float(s[: n * n].sum() / (n * n))


def matrix_norm_a(a: WeightMatrix, x) -> float:
    """||x||_a = max over budgets sum l_i <= N of sum_i (sum_{j<=l_i} a_{i,j}) |x_i|.

    Because the rows are nonincreasing, the optimum is attained by greedily
    taking the N largest values among a_{i,j} |x_i| (which automatically form
    row prefixes).
    """
    x = np.abs(_check_vector(x, "x"))
    if x.shape != (a.n,):
        raise ValueError("vector length must match matrix row count")
    vals = (a.entries * x[:, None]).ravel()
    vals = np.sort(vals)[::-1]
    return float(vals[: a.ncols].sum())


def prefix_sum_system(a: WeightMatrix) -> MusielakSystem:
    """System whose conjugates interpolate M_i*(sum_{j<=m} a_{i,j}) = m/N.

    Each M_i* is the piecewise-affine function through those points (plus the
    origin), extended by its final slope 1 / (N a_{i,N}); the system holds
    these knots, and M_i is their exact conjugate.  This is the minimal
    interpolant satisfying the sandwich hypothesis.
    """
    return prefix_sum_systems([a])


def prefix_sum_systems(matrices, counts=None) -> MusielakSystem:
    """The stack of each matrix's ``prefix_sum_system``, ``matrices[j]`` for the next ``counts[j]`` vectors.

    Built in one pass over the entries of all matrices, zero-padded at
    their far ends: each real prefix sum keeps its bits, and a row repeats
    its last past its own N.  So the stack has the bits of
    ``MusielakSystem.stack`` of the systems built one by one.  Without
    ``counts``, the system of the one matrix given.
    """
    entries, n, N = WeightMatrix.padded(matrices)
    prefix = np.concatenate([np.zeros((*entries.shape[:2], 1)), np.cumsum(entries, axis=2)], axis=2)
    steps = np.arange(entries.shape[2]) < N[:, None, None]  # past its own N a row's prefix sums stay put
    flat = ((prefix[:, :, 1:] <= prefix[:, :, :-1]) & steps).any(axis=2)
    bad = flat & (np.arange(entries.shape[1]) < n[:, None])  # padded rows are 0, so flat
    if bad.any():
        raise ValueError(f"row {np.argmax(bad[bad.any(axis=1)][0])}: prefix sums are not strictly increasing")
    return MusielakSystem.from_grid_knots(prefix, n, N, entries[np.arange(len(N)), :, N - 1], counts)


@dataclass
class SandwichReport:
    lower: float
    value: float
    upper: float
    passed: bool

    @property
    def ratio(self) -> float:
        return self.value / self.upper if self.upper > 0 else 1.0


def lemma_matrixnorm_check(instances) -> list:
    """Check (1/2)||x||_a <= ||x||_{sum M_i} <= 2 ||x||_a for the prefix system, within ``SANDWICH_TOL``.

    One ``SandwichReport`` per ``(a, x)`` of ``instances``, in order.  The
    Luxemburg norms of all instances are solved in the stacked passes of
    ``convex.stacked_passes``, each with the bits of its own solve, and
    each pass's systems are built in one ``prefix_sum_systems`` call;
    ``instances`` is read as the passes are made.
    """
    problems = ((a, [x], matrix_norm_a(a, x)) for a, x in instances)
    reports = []
    for system, xs, items in stacked_passes(problems, prefix_sum_systems):
        norms = luxemburg_norm(system, xs)
        for na, rows in items:
            (nl,) = norms[rows].tolist()
            passed = 0.5 * na - SANDWICH_TOL <= nl <= 2.0 * na + SANDWICH_TOL
            reports.append(SandwichReport(0.5 * na, nl, 2.0 * na, passed))
    return reports


def build_b_vector(n: int) -> np.ndarray:
    """The vector (sqrt(n/1), ..., sqrt(n/n)) generating the l2 norm."""
    if n < 1:
        raise ValueError("n must be positive")
    return np.sqrt(n / np.arange(1, n + 1))


def ave_max_vector(
    b,
    y,
    sampler: PermutationSampler | None = None,
    samples: int = DEFAULT_SAMPLES,
) -> AverageResult:
    """Ave_sigma max_k |y_k b_{sigma(k)}| over uniform permutations.

    Exact, ``_max_average`` of |y_k b_j| over the split's n! leaves.
    """
    b, y = _check_vector(b, "b"), _check_vector(y, "y")
    if b.shape != y.shape:
        raise ValueError("need two vectors of equal length")
    if sampler is not None:
        vals = np.abs(y * b[sampler.permutations(b.size, samples)]).max(axis=1)
        return AverageResult.mean_of(vals)
    return _max_average(np.abs(np.multiply.outer(y, b)), b.size, N_EXACT, pairs=False)
