"""Convex (Young/Orlicz) functions and Musielak-Orlicz norms.

Two concrete representations are supported:

* ``PowerFunction`` -- closed-form ``M(t) = scale * t**p`` with ``p > 1``;
* ``PiecewiseAffineConvex`` -- a convex piecewise-affine function with
  ``M(0) = 0``, extended linearly past its last knot, optionally with a
  finite domain bound past which the function is +inf.

Both support evaluation, (generalized) inversion and exact Legendre
conjugation.  ``MusielakSystem`` bundles one function per coordinate and
``luxemburg_norm`` evaluates the associated norm

    ||x|| = inf{ rho > 0 : sum_i M_i(|x_i| / rho) <= 1 }

by Newton's method from the right on the convex, nondecreasing modular
F(s) = sum_i M_i(|x_i| s) in s = 1/rho.  Every tangent of F lies below F,
so the iterates decrease monotonically to the root without overshooting,
and the loop ends once F(s) <= 1 or s stops decreasing in floating point.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PiecewiseAffineConvex",
    "PowerFunction",
    "conjugate_rows",
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
        # the checks run on plain-float copies, which the scalar paths (inverse, value_and_slope) keep
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
        object.__setattr__(self, "_knot_list", ks)
        object.__setattr__(self, "_value_list", vs)
        object.__setattr__(self, "_slope_list", slopes)
        cap = math.inf if self.domain_bound is None else self.domain_bound * (1 + 1e-15)
        object.__setattr__(self, "_finite_up_to", cap)

    @functools.cached_property
    def unit_inverse(self) -> float:
        """M^{-1}(1), computed on first use: a flat tail with no domain bound raises only then."""
        return self.inverse(1.0)

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

    def value_and_slope(self, t: float) -> tuple[float, float]:
        """M(t) and its left derivative at a scalar t >= 0, as plain floats.

        Both are +inf past ``domain_bound``.
        """
        if t > self._finite_up_to:
            return math.inf, math.inf
        seg = max(bisect.bisect_left(self._knot_list, t), 1) - 1
        slope = self._slope_list[seg]
        return self._value_list[seg] + slope * (t - self._knot_list[seg]), slope

    def inverse(self, y: float) -> float:
        """Generalized inverse sup{t : M(t) <= y} (exact interpolation)."""
        if y < 0:
            raise ValueError("argument must be nonnegative")
        knots, values = self._knot_list, self._value_list
        top = values[-1]
        if y <= top:
            # step back over ties so the enclosing segment is found
            k = min(bisect.bisect_right(values, y), len(values) - 1)
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
        """Exact Legendre conjugate; a finite domain is one more knot, at the bound, with slope +inf."""
        t, v, s = self.knots, self.values, self._slopes
        if self.domain_bound is not None:
            b = self.domain_bound
            t, v, s = np.append(t, b), np.append(v, v[-1] + s[-1] * (b - t[-1])), np.append(s, np.inf)
        return conjugate_rows(t[None], v[None], s[None])[0]


def conjugate_rows(knots, values, slopes) -> list[PiecewiseAffineConvex]:
    """Exact Legendre conjugates of the convex PWA rows of (rows, K+1) arrays, by slope duality.

    Row r passes through (t_k, v_k) = (knots[r, k], values[r, k]) with slope
    s_k = slopes[r, k] after t_k; the last slope, past the last knot, may be
    +inf.  The conjugate has knots 0, s_0, ..., s_{K-1} with values 0 and
    s_k t_{k+1} - v_{k+1}, extension slope t_K and domain bound s_K (none if +inf).
    """
    knots, values, slopes = (np.asarray(x, dtype=float) for x in (knots, values, slopes))
    zero = np.zeros((len(knots), 1))
    kt = np.concatenate([zero, slopes[:, :-1]], axis=1)
    kv = np.concatenate([zero, slopes[:, :-1] * knots[:, 1:] - values[:, 1:]], axis=1)
    # exact math makes both nondecreasing from 0 (so values >= 0): clamp rounding, and merge
    # slopes equal up to rounding (equal matrix entries give slopes differing in the last bits)
    kt = np.maximum.accumulate(kt, axis=1)
    kv = np.maximum.accumulate(kv, axis=1)
    keep = np.concatenate([np.ones_like(zero, bool), np.diff(kt, axis=1) > 1e-12 * kt[:, -1:]], axis=1)
    # guard rounding: s_K can land a ulp below the last kept knot, which convexity forbids
    bound = np.maximum(slopes[:, -1], np.max(kt, axis=1, where=keep, initial=0.0))
    return [
        PiecewiseAffineConvex(t[k], v[k], e, None if math.isinf(b) else b)
        for t, v, k, e, b in zip(kt, kv, keep, knots[:, -1].tolist(), bound.tolist())
    ]


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

    def value_and_slope(self, t: float) -> tuple[float, float]:
        """M(t) and its derivative at a scalar t >= 0, as plain floats."""
        return self.scale * t**self.p, self.p * self.scale * t ** (self.p - 1.0)

    def inverse(self, y: float) -> float:
        if y < 0:
            raise ValueError("argument must be nonnegative")
        return float((y / self.scale) ** (1.0 / self.p))

    @functools.cached_property
    def unit_inverse(self) -> float:
        """M^{-1}(1), computed on first use."""
        return self.inverse(1.0)

    def conjugate(self) -> "PowerFunction":
        """Closed-form conjugate: (c t^p)* = x^q / (q (c p)^(q-1))."""
        q = self.p / (self.p - 1.0)
        cstar = (self.scale * self.p) ** (1.0 - q) / q
        return PowerFunction(q, cstar)


OrliczFunction = PowerFunction | PiecewiseAffineConvex


@dataclass(frozen=True)
class MusielakSystem:
    """Ordered list of Orlicz functions M_1, ..., M_n, one per coordinate."""

    functions: tuple

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))
        if len(self.functions) < 1:
            raise ValueError("need at least one function")

    @property
    def n(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def __getitem__(self, i):
        return self.functions[i]


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


def luxemburg_norm(system: MusielakSystem, x) -> float:
    """Luxemburg norm inf{rho > 0 : sum_i M_i(|x_i|/rho) <= 1}.

    Newton's method from the right on the modular F(s) = sum_i M_i(|x_i| s)
    with s = 1/rho.  It starts at s0 = min_i M_i^{-1}(1)/|x_i|, where no
    term exceeds 1 or leaves its domain (the generalized inverse never
    passes a domain bound); if F(s0) <= 1, the term that attains the
    minimum passes 1 or its domain bound right after s0, so s0 is the root.
    F is convex and nondecreasing, so the root of the tangent at s (left
    derivative) lies between the true root and s: the iterates fall
    monotonically, exactly onto the root once they reach its affine piece.
    Returns 0 for the zero vector by definition.  It solves for |x| / 2^e,
    2^e the power of two just above max_i |x_i|, and scales back: the
    iterates only scale (exactly), while s0 and the slope stay finite at
    both ends of the float range.
    """
    absx = np.abs(np.asarray(x, dtype=float))
    if len(absx) != system.n:
        raise ValueError("vector length must match system dimension")
    if not np.isfinite(absx).all():
        raise ValueError(f"vector x must be finite, got {np.asarray(x).tolist()}")
    absx = absx.tolist()
    e = math.frexp(max(absx, default=0.0))[1]
    terms = [(m, xi) for m, xi in zip(system, [math.ldexp(v, -e) for v in absx]) if xi > 0.0]
    if not terms:
        return 0.0
    s = min(m.unit_inverse / xi for m, xi in terms)
    terms = [(m.value_and_slope, xi) for m, xi in terms]
    while True:
        total = slope = 0.0
        for value_and_slope, xi in terms:
            v, d = value_and_slope(xi * s)
            total += v
            slope += xi * d
        step = s - (total - 1.0) / slope if total > 1.0 else s
        if not step < s:  # s is the root
            return math.ldexp(1.0 / s, e)
        s = step


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
