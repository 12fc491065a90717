"""Musielak-Orlicz systems and their Luxemburg norms.

A ``MusielakSystem`` holds the Orlicz functions M_1, ..., M_n, one per
coordinate, as arrays, all of one of two kinds:

* piecewise affine (``MusielakSystem.from_conjugate_knots``): the knots
  t_ik and values v_ik of each conjugate M_i*, so that
  M_i(s) = max_k (s t_ik - v_ik) up to the domain bound b_i (the last
  slope of M_i*) and +inf beyond.  The matrix-built systems
  (``construct.functions_from_matrix`` and ``perms.prefix_sum_system``)
  come as such knot data, and ``construct.functions_from_matrices`` and
  ``perms.prefix_sum_systems`` build the stack of many matrices' systems
  at once, each the one-matrix builder's code on zero-padded entries;
* powers (``MusielakSystem.powers``): M_i(s) = scale_i s^p_i with p_i > 1.
  ``construct.power_system`` builds the normalized ones of the power family.

``MusielakSystem.stack`` joins systems of one kind into one system per
vector of a batch, so that the vectors of many systems take one solve;
``stacked_passes`` groups (system, batch) pairs, or (matrix, batch) pairs
and one of those builders, into such stacks of a bounded size.

``luxemburg_norm`` evaluates the norm

    ||x|| = inf{ rho > 0 : sum_i M_i(|x_i| / rho) <= 1 }

of every row of a (V, n) batch by Newton's method from the right on the
convex, nondecreasing modular F(s) = sum_i M_i(|x_i| s) in s = 1/rho.
Every tangent of F lies below F, so the iterates decrease monotonically to
the root without overshooting; a row's s stays put once F(s) <= 1 or its
step stops decreasing s, and the loop ends when no row moves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MusielakSystem", "EquivalenceReport", "luxemburg_norm", "stacked_passes"]

# The padded coordinates x vectors x knots of one pass of ``stacked_passes``.  About here the
# solve's time per vector stops falling (Theorem 1 stacks of 8 vectors per matrix at n = 3 and 6:
# 1.4 and 3.1 us against 7.5 and 17 us for one matrix alone), and each scratch array holds 32 KiB.
PASS_ELEMENTS = 4096


class DegenerateTailError(ValueError):
    """Raised when an M_i that is 0 everywhere meets a nonzero coordinate."""


class MusielakSystem:
    """Orlicz functions M_1, ..., M_n, one per coordinate, held as arrays, all of one kind.

    In a piecewise-affine system (``from_conjugate_knots``), row i of
    ``knots`` and ``values`` holds the knots t_k, increasing from 0, and
    values v_k >= 0 of the conjugate of M_i, so that
    M_i(s) = max_k (s t_k - v_k) for s <= ``bounds[i]`` and +inf beyond
    (``bounds`` is +inf where M_i has no domain bound).  A row with fewer
    knots repeats its last knot.  In a power system (``powers``),
    M_i(s) = scale_i s^p_i, with ``p`` and ``scale`` in coordinate order.
    The arrays of the other kind are None.  ``unit_inverse`` holds
    M_i^{-1}(1) per coordinate: the smaller of b_i and min over t_k > 0 of
    (1 + v_k) / t_k, or (1 / scale_i)^(1/p_i); it is +inf for an M_i that is
    0 everywhere (``luxemburg_norm`` raises on it).  A system built by
    ``stack`` holds one M_i per coordinate and vector: its arrays have a
    per-vector axis after the coordinate axis, of length ``vectors``
    (None for a system shared by every vector).
    """

    knots = values = bounds = p = scale = vectors = None

    @classmethod
    def from_conjugate_knots(cls, knots, values, bounds, counts=None) -> "MusielakSystem":
        """The piecewise-affine system whose conjugates M_i* pass through (knots[i, k], values[i, k]).

        ``bounds[i]`` is the last slope of M_i*, past its last knot: the
        domain bound of M_i.  The knots of a row increase from 0, and
        ``values`` start at 0.  The data are taken as they are: the
        builders check them and name the bad row.  With ``counts``, the
        arrays hold J systems along a leading axis, padded as ``stack``
        pads them, and the result is their stack: system j for the next
        ``counts[j]`` vectors.
        """
        self = cls.__new__(cls)
        knots, values, bounds = (np.asarray(a, dtype=float) for a in (knots, values, bounds))
        # M(s) <= 1 up to the first crossing s t_k - v_k = 1, and up to the domain bound
        crossing = np.full(knots.shape, np.inf)
        np.divide(1.0 + values, knots, out=crossing, where=knots > 0)
        unit_inverse = np.minimum(bounds, crossing.min(axis=-1))
        if counts is not None:  # (J, n, ...) arrays to (n, V, ...): system j's data once per vector
            knots, values, bounds, unit_inverse = (
                np.repeat(np.swapaxes(a, 0, 1), counts, axis=1) for a in (knots, values, bounds, unit_inverse)
            )
            self.vectors = knots.shape[1]
        self.knots, self.values, self.bounds, self.unit_inverse = knots, values, bounds, unit_inverse
        self.n = len(knots)
        self._zero = bool(np.isinf(unit_inverse).any())  # some M_i is 0 everywhere: luxemburg_norm looks for it
        return self

    @classmethod
    def from_grid_knots(cls, knots, n, N, last, counts=None) -> "MusielakSystem":
        """The matrix-built systems: M_j,i* through (knots[j, i, l], l / N_j), then of slope (1 / N_j) / last[j, i].

        ``knots`` is a (J, n, K) array of J systems, zero-padded past each
        one's own ``n[j]`` rows and repeating each row's last knot past
        l = ``N[j]``; ``last`` is (J, n), 0 in the padded rows.  The values
        are the grid min(l / N_j, 1), so they repeat where the knots do,
        and a padded row is an M_i = 0: zero knots and values, bound +inf.
        Without ``counts``, J is 1 and the result is that one system; with
        them, the stack of all J (see ``from_conjugate_knots``).
        """
        rows = np.arange(knots.shape[1]) < n[:, None]
        grid = np.minimum(np.arange(knots.shape[2]) / N[:, None, None], 1.0)
        values = np.where(rows[:, :, None], grid, 0.0)
        with np.errstate(divide="ignore"):  # a padded row's last is 0: bound +inf
            bounds = (1.0 / N)[:, None] / last
        if counts is None:
            return cls.from_conjugate_knots(knots[0], values[0], bounds[0])
        return cls.from_conjugate_knots(knots, values, bounds, counts)

    @classmethod
    def powers(cls, p, scale) -> "MusielakSystem":
        """The power system M_i(s) = scale[i] s^p[i].

        ``p`` and ``scale`` are equally long and not empty; every p must be
        a finite number above 1 and every scale a finite positive number
        (``ValueError`` names the first index that is not).
        """
        self = cls.__new__(cls)
        self.p, self.scale = np.asarray(p, dtype=float), np.asarray(scale, dtype=float)
        if self.p.ndim != 1 or self.p.shape != self.scale.shape or not self.p.size:
            raise ValueError(
                f"p and scale must be equally long non-empty lists, got shapes {self.p.shape} and {self.scale.shape}"
            )
        for name, values, valid, wanted in (
            ("p", self.p, self.p > 1, "a finite number above 1"),
            ("scale", self.scale, self.scale > 0, "a finite positive number"),
        ):
            bad = ~(valid & np.isfinite(values))
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"{name}[{i}] must be {wanted}, got {values[i]}")
        self.n = self.p.size
        self.unit_inverse = (1.0 / self.scale) ** (1.0 / self.p)
        self._zero = False
        return self

    @classmethod
    def stack(cls, systems, counts) -> "MusielakSystem":
        """One system per vector: ``systems[j]`` for the next ``counts[j]`` vectors of a batch.

        The systems are of one kind and shared by their vectors (not
        stacked themselves).  The stack has the largest n among them and
        V = sum(counts) vectors: knots and values become (n, V, K) arrays, K
        the largest knot count, and ``bounds``, ``p``, ``scale`` and
        ``unit_inverse`` (n, V) arrays.  A row of knots is padded by
        repeating its last knot and value, a line that loses every argmax
        tie to the original.  A coordinate past a system's own n is an
        M_i = 0 with no domain bound, which the vector meets with x_i = 0
        only: its terms add +0.0 at the end of the i-order sums.  So
        ``luxemburg_norm`` gives each vector of the stack the bits it gets
        with its own system.
        """
        if len({s.p is None for s in systems}) != 1 or any(s.vectors is not None for s in systems):
            raise ValueError("stack needs systems of one kind, none of them stacked")
        n = max(s.n for s in systems)
        if systems[0].p is None:
            width = max(s.knots.shape[1] for s in systems)
            knots, values = np.zeros((2, len(systems), n, width))
            bounds = np.full((len(systems), n), np.inf)
            for j, s in enumerate(systems):
                k = s.knots.shape[1]
                for padded, own in ((knots, s.knots), (values, s.values)):
                    padded[j, : s.n, :k], padded[j, : s.n, k:] = own, own[:, -1:]
                bounds[j, : s.n] = s.bounds
            return cls.from_conjugate_knots(knots, values, bounds, counts)
        total = sum(counts)
        self = cls.__new__(cls)
        self.n, self.vectors = n, total
        self.unit_inverse = np.full((n, total), np.inf)
        self.p, self.scale = np.full((n, total), 2.0), np.zeros((n, total))
        start = 0
        for s, count in zip(systems, counts, strict=True):
            at = np.s_[: s.n, start : start + count]
            start += count
            self.unit_inverse[at] = s.unit_inverse[:, None]
            self.p[at], self.scale[at] = s.p[:, None], s.scale[:, None]
        self._zero = bool(np.isinf(self.unit_inverse).any())
        return self

    def _terms(self, y):
        """s -> (M_i(y_i s), M_i'(y_i s)) for the (n, V) batch y >= 0 and a (V,) array s, as two (n, V) arrays.

        A piecewise-affine M_i takes the maximising line of its conjugate's
        knots, the lowest k on a tie (the left derivative); the slopes
        y_i t_ik of the lines in s are formed once per batch.  There is no
        domain cap: Newton's iterates never pass a bound.  A shared
        system's arrays broadcast over the vectors (a per-vector axis of
        length 1), a stacked system's have one entry per vector.
        """
        n = self.n
        if self.p is not None:
            p, scale = self.p.reshape(n, -1), self.scale.reshape(n, -1)
            p1, pscale = p - 1.0, p * scale

            def power(s):
                u = y * s
                return scale * u**p, pscale * u**p1

            return power
        width = self.knots.shape[-1]
        knots, values = self.knots.reshape(n, -1, width), self.values.reshape(n, -1, width)
        yt = y[:, :, None] * knots
        lines_at = np.arange(0, yt.size, width).reshape(yt.shape[:2])  # the first line of each term
        knots_at = np.arange(0, knots.size, width).reshape(knots.shape[:2])  # the first knot of each M_i

        def pwa(s):
            lines = yt * s[:, None]
            lines -= values
            k = lines.argmax(axis=2)
            return lines.take(k + lines_at), knots.take(k + knots_at)

        return pwa


def luxemburg_norm(system: MusielakSystem, xs) -> np.ndarray:
    """Luxemburg norms inf{rho > 0 : sum_i M_i(|x_i|/rho) <= 1} of the rows of the (V, n) batch ``xs``.

    Newton's method from the right on the modular F(s) = sum_i M_i(|x_i| s)
    with s = 1/rho, for every row at once.  It starts at
    s0 = min_i M_i^{-1}(1)/|x_i|, where no term exceeds 1 or leaves its
    domain (the generalized inverse never passes a domain bound); if
    F(s0) <= 1, the term that attains the minimum passes 1 or its domain
    bound right after s0, so s0 is the root.  F is convex and
    nondecreasing, so the root of the tangent at s (left derivative) lies
    between the true root and s: the iterates fall monotonically, exactly
    onto the root once they reach its affine piece.  A row's s stays put
    once its step stops decreasing it, and the loop ends when no row
    moves, so each row takes the iterates it would take alone.  Each row
    solves for |x| / 2^e,
    2^e the power of two just above its max_i |x_i|, and scales back: the
    iterates only scale (exactly), while s0 and the slope stay finite at
    both ends of the float range.  F and its slope are summed in i order,
    elementwise, so row v has the same bits as a batch of ``xs[v]`` alone.
    A stacked system (``MusielakSystem.stack``) solves row v with the M_i
    of vector v, with the bits of its own system.  A zero row has norm 0;
    an M_i that is 0 everywhere raises ``DegenerateTailError`` when it
    meets a nonzero x_i.
    """
    absx = np.abs(_batch(xs, system.n, system.vectors))
    e = np.frexp(absx.max(axis=1, initial=0.0))[1]
    # (n, V), each column's largest entry in [1/2, 1); copied to C order, so that the arrays of
    # each Newton step are contiguous (piecewise-affine steps on 8 rows run 10-20% faster)
    y = np.ldexp(absx, -e[:, None]).T.copy()
    inverse = system.unit_inverse.reshape(system.n, -1)  # (n, 1), or (n, V) for a stacked system
    if system._zero:
        hit = (np.isinf(inverse) & (y > 0)).any(axis=1)
        if hit.any():
            i = int(np.argmax(hit))
            raise DegenerateTailError(f"M_{i} is 0 with no domain bound, and x_{i} is nonzero")
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero row keeps s = +inf, and its terms nan
        s = (inverse / y).min(axis=0)
        terms = system._terms(y)
        while True:
            value, slope = terms(s)
            total = np.add.accumulate(value)[-1]
            step = s - (total - 1.0) / np.add.accumulate(y * slope)[-1]
            moving = (total > 1.0) & (step < s)  # elsewhere s is the root
            if not np.count_nonzero(moving):
                return np.ldexp(1.0 / s, e)
            np.copyto(s, step, where=moving)


def _batch(xs, n: int, vectors=None) -> np.ndarray:
    """``xs`` as a float (V, n) batch of finite vectors (V = ``vectors`` if given), or ValueError saying why not."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != n or vectors not in (None, len(xs)):
        rows = "V" if vectors is None else vectors
        raise ValueError(f"xs must be a ({rows}, {n}) batch of vectors, got shape {xs.shape}")
    if not np.isfinite(xs).all():
        raise ValueError(f"xs: row {int(np.argmin(np.isfinite(xs).all(axis=1)))} has a non-finite entry")
    return xs


def stacked_passes(problems, build=None):
    """Group ``(source, xs, item)`` triples into passes of one stacked Luxemburg solve each.

    Yields ``(system, xs, items)`` per pass, where ``luxemburg_norm(system,
    xs)[rows]`` are the norms of the rows of the ``xs`` given with ``item``,
    for each ``(item, rows)`` of ``items``.  A source is a system, or with
    ``build`` an n x N matrix: ``build(matrices, counts)`` makes the stack
    of a pass's systems in one call (``construct.functions_from_matrices``,
    ``perms.prefix_sum_systems``), with N + 1 knots per row.  A pass takes
    the next triples while its stack, n x V x K padded elements (K = 1 for
    powers), stays within ``PASS_ELEMENTS``; a pass of one system keeps
    that system and its batch.  ``problems`` is read as the passes are
    made, so one pass is held at a time.  Each norm has the bits of the
    triple's own ``luxemburg_norm(system, xs)`` (see ``MusielakSystem.stack``).
    """
    batch, shape = [], (0, 0, 0)
    for source, xs, item in problems:
        xs = _batch(xs, source.n)
        if build is not None:
            width = source.ncols + 1
        else:
            width = 1 if source.knots is None else source.knots.shape[-1]
        grown = (max(shape[0], source.n), shape[1] + len(xs), max(shape[2], width))
        if batch and math.prod(grown) > PASS_ELEMENTS:
            yield _stacked(batch, build)
            batch, grown = [], (source.n, len(xs), width)
        batch.append((source, xs, item))
        shape = grown
    if batch:
        yield _stacked(batch, build)


def _stacked(batch, build):
    """One pass of ``stacked_passes``: the stack of the triples' systems, or ``build``'s, and their padded vectors."""
    sources, batches, items = zip(*batch)
    counts = [len(xs) for xs in batches]
    rows = [slice(end - count, end) for count, end in zip(counts, itertools.accumulate(counts))]
    if len(batch) == 1 and build is None:
        return sources[0], batches[0], [(items[0], rows[0])]
    system = (build or MusielakSystem.stack)(sources, counts)
    padded = np.zeros((system.vectors, system.n))
    for xs, at in zip(batches, rows):
        padded[at, : xs.shape[1]] = xs
    return system, padded, list(zip(items, rows))


@dataclass
class EquivalenceReport:
    """Empirical two-sided equivalence constants: the least and largest ratio observed."""

    c_low: float
    c_high: float

    def __post_init__(self):
        if not self.c_low > 0:  # nan fails both checks
            raise ValueError("c_low must be positive")
        if not self.c_high >= self.c_low:
            raise ValueError("c_high must be at least c_low")

    @property
    def spread(self) -> float:
        return self.c_high / self.c_low
