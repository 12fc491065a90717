"""Convex (Young/Orlicz) functions and Musielak-Orlicz norms.

Two single functions are the inputs a system is built from:

* ``PowerFunction`` -- closed-form ``M(t) = scale * t**p`` with ``p > 1``;
* ``PiecewiseAffineConvex`` -- a convex piecewise-affine function with
  ``M(0) = 0``, extended linearly past its last knot, optionally with a
  finite domain bound past which the function is +inf.

Both support evaluation, (generalized) inversion and exact Legendre
conjugation.  ``MusielakSystem`` holds M_1, ..., M_n as arrays: a
piecewise-affine M_i as the knots t_ik and values v_ik of its conjugate
M_i*, so that M_i(s) = max_k (s t_ik - v_ik) up to the domain bound b_i
(the last slope of M_i*), and a power M_i as its (p, scale).  The
matrix-built systems (``construct.functions_from_matrix`` and
``perms.prefix_sum_system``) come as such knot data directly; a system of
function objects converts them when it is built.  ``luxemburg_norm``
evaluates the norm

    ||x|| = inf{ rho > 0 : sum_i M_i(|x_i| / rho) <= 1 }

of every row of a (V, n) batch by Newton's method from the right on the
convex, nondecreasing modular F(s) = sum_i M_i(|x_i| s) in s = 1/rho.
Every tangent of F lies below F, so the iterates decrease monotonically to
the root without overshooting; a row's s stays put once F(s) <= 1 or its
step stops decreasing s, and the loop ends when no row moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PiecewiseAffineConvex",
    "PowerFunction",
    "MusielakSystem",
    "EquivalenceReport",
    "TwoConcavityReport",
    "is_two_concave",
    "luxemburg_norm",
]


class DegenerateTailError(ValueError):
    """Raised when an inversion hits a flat (non-invertible) tail."""


@dataclass(frozen=True)
class PiecewiseAffineConvex:
    """Convex piecewise-affine function with M(0) = 0.

    ``knots`` are strictly increasing abscissas starting at 0, ``values``
    the matching ordinates (``values[0] == 0``).  Past the last knot the
    function continues with slope ``ext_slope``.  If ``domain_bound`` is
    finite the function is +inf for ``t > domain_bound``; this is how
    degenerate conjugate tails are represented instead of storing an
    infinite value.
    """

    knots: np.ndarray
    values: np.ndarray
    ext_slope: float
    domain_bound: float | None = None

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if knots.ndim != 1 or knots.shape != values.shape:
            raise ValueError("knots and values must be 1-d arrays of equal length")
        # the checks run on plain floats: one pass of Python arithmetic beats numpy on a few knots
        ks, vs = knots.tolist(), values.tolist()
        if not ks:
            raise ValueError("knots must not be empty: the first knot is (0, 0)")
        if ks[0] != 0.0 or vs[0] != 0.0:
            raise ValueError("first knot must be (0, 0)")
        dk = [b - a for a, b in zip(ks, ks[1:])]
        dv = [b - a for a, b in zip(vs, vs[1:])]
        if any(d <= 0 for d in dk):
            raise ValueError("knots must be strictly increasing")
        if any(d < 0 for d in dv):
            raise ValueError("values must be nondecreasing")
        slopes = [v / k for v, k in zip(dv, dk)] + [float(self.ext_slope)]  # segments, then the extension
        if any(b - a < -1e-12 for a, b in zip(slopes, slopes[1:])):
            raise ValueError("segment slopes must be nondecreasing (convexity)")
        if self.domain_bound is not None and self.domain_bound < ks[-1]:
            raise ValueError("domain_bound must not cut into the knot range")
        object.__setattr__(self, "_slopes", np.array(slopes))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("argument must be nonnegative")
        out = np.interp(t, self.knots, self.values)
        tail = t > self.knots[-1]
        out = np.where(tail, self.values[-1] + self.ext_slope * (t - self.knots[-1]), out)
        if self.domain_bound is not None:
            out = np.where(t > self.domain_bound * (1 + 1e-15), np.inf, out)
        return float(out) if out.ndim == 0 else out

    def inverse(self, y: float) -> float:
        """Generalized inverse sup{t : M(t) <= y} (exact interpolation)."""
        if y < 0:
            raise ValueError("argument must be nonnegative")
        knots, values = self.knots, self.values
        top = values[-1]
        if y <= top:
            # step back over ties so the enclosing segment is found
            k = min(int(np.searchsorted(values, y, side="right")), len(values) - 1)
            t0, t1 = knots[k - 1], knots[k]
            v0, v1 = values[k - 1], values[k]
            if v1 == v0:  # flat segment: rightmost preimage
                return float(t1)
            return float(t0 + (y - v0) * (t1 - t0) / (v1 - v0))
        if self.ext_slope > 0:
            t = knots[-1] + (y - top) / self.ext_slope
            if self.domain_bound is not None:
                t = min(t, self.domain_bound)
            return float(t)
        if self.domain_bound is not None:
            return float(self.domain_bound)
        raise DegenerateTailError(f"value {y} beyond range of a flat tail")

    def conjugate(self) -> "PiecewiseAffineConvex":
        """Exact Legendre conjugate, by slope duality.

        With knots t_k, values v_k and slope s_k after t_k, the conjugate
        has knots 0, s_0, ..., s_{K-1} with values 0 and s_k t_{k+1} - v_{k+1},
        extension slope t_K and domain bound s_K.  A finite domain is one
        more knot, at the bound, with slope +inf: no bound on the conjugate.
        """
        t, v, s = self.knots, self.values, self._slopes
        if self.domain_bound is not None:
            b = self.domain_bound
            t, v, s = np.append(t, b), np.append(v, v[-1] + s[-1] * (b - t[-1])), np.append(s, np.inf)
        # exact math makes both nondecreasing from 0 (so values >= 0): clamp rounding, and merge
        # slopes equal up to rounding (equal matrix entries give slopes differing in the last bits)
        kt = np.maximum.accumulate(np.append(0.0, s[:-1]))
        kv = np.maximum.accumulate(np.append(0.0, s[:-1] * t[1:] - v[1:]))
        keep = np.append(True, np.diff(kt) > 1e-12 * kt[-1])
        # guard rounding: s_K can land a ulp below the last kept knot, which convexity forbids
        bound = max(float(s[-1]), float(kt[keep][-1]))
        return PiecewiseAffineConvex(kt[keep], kv[keep], float(t[-1]), None if math.isinf(bound) else bound)


@dataclass(frozen=True)
class PowerFunction:
    """Closed-form Orlicz function M(t) = scale * t**p with p > 1."""

    p: float
    scale: float = 1.0

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError("exponent must exceed 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("argument must be nonnegative")
        out = self.scale * t**self.p
        return float(out) if out.ndim == 0 else out

    def inverse(self, y: float) -> float:
        if y < 0:
            raise ValueError("argument must be nonnegative")
        return float((y / self.scale) ** (1.0 / self.p))

    def conjugate(self) -> "PowerFunction":
        """Closed-form conjugate: (c t^p)* = x^q / (q (c p)^(q-1))."""
        q = self.p / (self.p - 1.0)
        cstar = (self.scale * self.p) ** (1.0 - q) / q
        return PowerFunction(q, cstar)


OrliczFunction = PowerFunction | PiecewiseAffineConvex


class MusielakSystem:
    """Orlicz functions M_1, ..., M_n, one per coordinate, held as arrays.

    ``MusielakSystem(functions)`` converts a sequence of ``PowerFunction``
    and ``PiecewiseAffineConvex`` objects; ``from_conjugate_knots`` takes
    piecewise-affine knot data directly.  The columns ``pwa`` are
    piecewise affine: row r of ``knots`` and ``values`` holds the knots
    t_k, increasing from 0, and values v_k >= 0 of the conjugate of
    M_{pwa[r]}, so that M(s) = max_k (s t_k - v_k) for s <= ``bounds[r]``
    and +inf beyond (``bounds`` is +inf where M has no domain bound).  A row
    with fewer knots repeats its last knot.  The columns ``power`` are
    M(s) = scale s^p, with ``p`` and ``scale`` in column order.
    ``unit_inverse`` holds M_i^{-1}(1) per coordinate: the smaller of b and
    min over t_k > 0 of (1 + v_k) / t_k, or (1 / scale)^(1/p); it is +inf
    for an M_i that is 0 everywhere (``luxemburg_norm`` raises on it).
    """

    def __init__(self, functions):
        functions = tuple(functions)
        if not functions:
            raise ValueError("need at least one function")
        pwa = [i for i, m in enumerate(functions) if isinstance(m, PiecewiseAffineConvex)]
        power = [i for i, m in enumerate(functions) if isinstance(m, PowerFunction)]
        if len(pwa) + len(power) != len(functions):
            raise TypeError("a system is built from PowerFunction and PiecewiseAffineConvex objects")
        # M is the max of its segment lines, the extension included: the line of slope s_k through
        # (t_k, v_k) is s -> s s_k - (s_k t_k - v_k), so the conjugate's knots are the s_k
        width = max((functions[i].knots.size for i in pwa), default=1)
        knots, values = np.empty((len(pwa), width)), np.empty((len(pwa), width))
        for r, i in enumerate(pwa):
            m = functions[i]
            knots[r] = np.pad(m._slopes, (0, width - m.knots.size), "edge")
            values[r] = np.pad(np.maximum(m._slopes * m.knots - m.values, 0.0), (0, width - m.knots.size), "edge")
        bounds = [math.inf if functions[i].domain_bound is None else functions[i].domain_bound for i in pwa]
        p, scale = [functions[i].p for i in power], [functions[i].scale for i in power]
        self._build(len(functions), pwa, knots, values, bounds, power, p, scale)

    @classmethod
    def from_conjugate_knots(cls, knots, values, bounds) -> "MusielakSystem":
        """The piecewise-affine system whose conjugates M_i* pass through (knots[i, k], values[i, k]).

        ``bounds[i]`` is the last slope of M_i*, past its last knot: the
        domain bound of M_i.  The knots of a row increase from 0, and
        ``values`` start at 0.  The data are taken as they are: the
        builders check them and name the bad row.
        """
        self = cls.__new__(cls)
        self._build(len(knots), np.arange(len(knots)), knots, values, bounds, [], [], [])
        return self

    def _build(self, n, pwa, knots, values, bounds, power, p, scale):
        self.n = n
        self.pwa, self.power = np.asarray(pwa, dtype=int), np.asarray(power, dtype=int)
        self.knots, self.values = np.asarray(knots, dtype=float), np.asarray(values, dtype=float)
        self.bounds = np.asarray(bounds, dtype=float)
        self.p, self.scale = np.asarray(p, dtype=float), np.asarray(scale, dtype=float)
        self.unit_inverse = np.empty(n)
        self._zero = False  # whether some M_i is 0 everywhere, so that luxemburg_norm must look for it
        if self.pwa.size:
            # M(s) <= 1 up to the first crossing s t_k - v_k = 1, and up to the domain bound
            crossing = np.full(self.knots.shape, np.inf)
            np.divide(1.0 + self.values, self.knots, out=crossing, where=self.knots > 0)
            unit = np.minimum(self.bounds, crossing.min(axis=1))
            self.unit_inverse[self.pwa] = unit
            self._zero = bool(np.isinf(unit).any())
        if self.power.size:
            self.unit_inverse[self.power] = (1.0 / self.scale) ** (1.0 / self.p)

    def _terms(self, y):
        """s -> (M_i(y_i s), M_i'(y_i s)) for the (n, V) batch y >= 0 and a (V,) array s, as two (n, V) arrays.

        A piecewise-affine M_i takes the maximising line of its conjugate's
        knots, the lowest k on a tie (the left derivative); the slopes
        y_i t_ik of the lines in s are formed once per batch.  There is no
        domain cap: Newton's iterates never pass a bound.
        """
        parts = []
        if self.pwa.size:
            knots, values = self.knots, self.values[:, None, :]
            yt = y[self.pwa][:, :, None] * knots[:, None, :]
            lines_at = np.arange(0, yt.size, knots.shape[1]).reshape(yt.shape[:2])  # the first line of each term
            knots_at = np.arange(0, knots.size, knots.shape[1])[:, None]  # the first knot of each row

            def pwa(s):
                lines = yt * s[:, None]
                lines -= values
                k = lines.argmax(axis=2)
                return lines.take(k + lines_at), knots.take(k + knots_at)

            parts.append((self.pwa, pwa))
        if self.power.size:
            yp, p, scale = y[self.power], self.p[:, None], self.scale[:, None]
            p1, pscale = p - 1.0, p * scale

            def power(s):
                u = yp * s
                return scale * u**p, pscale * u**p1

            parts.append((self.power, power))
        if len(parts) == 1:
            return parts[0][1]

        def mixed(s):
            value, slope = np.empty(y.shape), np.empty(y.shape)
            for columns, terms in parts:
                value[columns], slope[columns] = terms(s)
            return value, slope

        return mixed


@dataclass
class TwoConcavityReport:
    passed: bool
    strictly: bool
    worst_margin: float  # positive = violation; see ``is_two_concave``


# is_two_concave's grid: points log-spaced over [lo, hi], and the tolerance of the second differences
TWO_CONCAVITY_POINTS = 2048
TWO_CONCAVITY_RANGE = (1e-6, 1e3)
TWO_CONCAVITY_TOL = 1e-12


def is_two_concave(m: OrliczFunction) -> TwoConcavityReport:
    """Decide whether t -> M(sqrt t) is concave, and strictly so.

    For a ``PowerFunction`` c t^p, M(sqrt t) = c t^(p/2): concave iff p <= 2,
    strictly iff p < 2, and ``worst_margin`` is p/2 - 1.  A piecewise-affine
    M is checked on a log-spaced grid, up to ``domain_bound**2`` if M has a
    finite domain: its second differences between consecutive points, over
    max(|M(sqrt mid)|, 1), must not exceed ``TWO_CONCAVITY_TOL`` (strictly:
    must stay below ``-TWO_CONCAVITY_TOL``); ``worst_margin`` is the largest.
    """
    if isinstance(m, PowerFunction):  # the grid's rounding hides the strictness of p just below 2
        return TwoConcavityReport(bool(m.p <= 2), bool(m.p < 2), m.p / 2 - 1)
    lo, hi = TWO_CONCAVITY_RANGE
    if m.domain_bound is not None:
        hi = min(hi, m.domain_bound**2)
    t = np.logspace(math.log10(lo), math.log10(hi), TWO_CONCAVITY_POINTS)
    g = lambda u: m(np.sqrt(u))
    mid = 0.5 * (t[:-1] + t[1:])
    # second difference: g(a) + g(b) - 2 g((a+b)/2); <= 0 means concave
    d2 = g(t[:-1]) + g(t[1:]) - 2.0 * g(mid)
    scale = np.maximum(np.abs(g(mid)), 1.0)
    rel = d2 / scale
    worst = float(rel.max())
    passed = worst <= TWO_CONCAVITY_TOL
    strictly = passed and bool(np.all(rel < -TWO_CONCAVITY_TOL))
    return TwoConcavityReport(passed, strictly, worst)


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
    A zero row has norm 0; an M_i that is 0 everywhere raises
    ``DegenerateTailError`` when it meets a nonzero x_i.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != system.n:
        raise ValueError(f"xs must be a (V, {system.n}) batch of vectors, got shape {xs.shape}")
    if not np.isfinite(xs).all():
        raise ValueError(f"xs: row {int(np.argmin(np.isfinite(xs).all(axis=1)))} has a non-finite entry")
    absx = np.abs(xs)
    e = np.frexp(absx.max(axis=1, initial=0.0))[1]
    y = np.ldexp(absx, -e[:, None]).T  # (n, V), each column's largest entry in [1/2, 1)
    if system._zero:
        zero = np.isinf(system.unit_inverse)
        hit = zero & (y > 0).any(axis=1)
        if hit.any():
            i = int(np.argmax(hit))
            raise DegenerateTailError(f"M_{i} is 0 with no domain bound, and x_{i} is nonzero")
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero row keeps s = +inf, and its terms nan
        s = (system.unit_inverse[:, None] / y).min(axis=0)
        terms = system._terms(y)
        while True:
            value, slope = terms(s)
            total = np.add.accumulate(value)[-1]
            step = s - (total - 1.0) / np.add.accumulate(y * slope)[-1]
            moving = (total > 1.0) & (step < s)  # elsewhere s is the root
            if not np.count_nonzero(moving):
                return np.ldexp(1.0 / s, e)
            np.copyto(s, step, where=moving)


@dataclass
class EquivalenceReport:
    """Empirical two-sided equivalence constants with the observed ratios."""

    c_low: float
    c_high: float
    ratios: np.ndarray

    def __post_init__(self):
        self.ratios = np.asarray(self.ratios, dtype=float)
        if self.c_low <= 0:
            raise ValueError("c_low must be positive")
        if self.ratios.size and (
            self.ratios.min() < self.c_low - 1e-12 or self.ratios.max() > self.c_high + 1e-12
        ):
            raise ValueError("recorded ratios fall outside [c_low, c_high]")

    @property
    def spread(self) -> float:
        return self.c_high / self.c_low
