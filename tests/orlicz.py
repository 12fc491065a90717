"""Reference Orlicz functions for the tests' oracles, one function at a time.

``PowerFunction`` is M(t) = scale t^p.  ``PiecewiseAffineConvex`` is a
convex piecewise-affine M with M(0) = 0, extended linearly past its last
knot, and +inf past its domain bound if it has one.  Each evaluates on
arrays, inverts (the generalized inverse) and conjugates exactly; neither
checks its input.  ``system_of`` converts a list of them, all of one kind,
into a ``MusielakSystem``.
"""

import math
from dataclasses import dataclass

import numpy as np

from musielak.convex import DegenerateTailError, MusielakSystem


class PiecewiseAffineConvex:
    """The convex M through (knots[k], values[k]), with slope ``ext_slope`` past the last knot."""

    def __init__(self, knots, values, ext_slope, domain_bound=None):
        self.knots, self.values = np.asarray(knots, dtype=float), np.asarray(values, dtype=float)
        self.ext_slope, self.domain_bound = ext_slope, domain_bound
        self.slopes = np.append(np.diff(self.values) / np.diff(self.knots), ext_slope)  # segments, then the extension

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.knots, self.values)
        out = np.where(t > self.knots[-1], self.values[-1] + self.ext_slope * (t - self.knots[-1]), out)
        if self.domain_bound is not None:
            out = np.where(t > self.domain_bound * (1 + 1e-15), np.inf, out)
        return float(out) if out.ndim == 0 else out

    def inverse(self, y: float) -> float:
        """Generalized inverse sup{t : M(t) <= y} (exact interpolation)."""
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
        t, v, s = self.knots, self.values, self.slopes
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
    """M(t) = scale * t**p."""

    p: float
    scale: float = 1.0

    def __call__(self, t):
        out = self.scale * np.asarray(t, dtype=float) ** self.p
        return float(out) if out.ndim == 0 else out

    def inverse(self, y: float) -> float:
        return float((y / self.scale) ** (1.0 / self.p))

    def conjugate(self) -> "PowerFunction":
        """Closed-form conjugate: (c t^p)* = x^q / (q (c p)^(q-1))."""
        q = self.p / (self.p - 1.0)
        return PowerFunction(q, (self.scale * self.p) ** (1.0 - q) / q)


def system_of(functions) -> MusielakSystem:
    """The ``MusielakSystem`` of reference functions, all powers or all piecewise affine.

    A piecewise-affine M is the max of its segment lines, the extension
    included: the line of slope s_k through (t_k, v_k) is
    s -> s s_k - (s_k t_k - v_k), so its conjugate's knots are the s_k.
    """
    if isinstance(functions[0], PowerFunction):
        return MusielakSystem.powers([m.p for m in functions], [m.scale for m in functions])
    width = max(m.knots.size for m in functions)
    pad = lambda row: np.pad(row, (0, width - row.size), "edge")
    return MusielakSystem.from_conjugate_knots(
        [pad(m.slopes) for m in functions],
        [pad(np.maximum(m.slopes * m.knots - m.values, 0.0)) for m in functions],
        [math.inf if m.domain_bound is None else m.domain_bound for m in functions],
    )
