"""Constructions between weight matrices and Musielak-Orlicz systems.

Forward direction: ``functions_from_matrix`` builds, for each row of a
square weight matrix, the piecewise-affine conjugate satisfying

    M_i^{*-1}(l/n) = ( ((1/n) sum_{j<=l} a_{i,j})^2
                       + (l/n) (1/n) sum_{j>l} a_{i,j}^2 )^(1/2)

so that the l2 permutation average of the matrix is equivalent to the
Musielak-Orlicz norm of the resulting system.

Inverse direction: for smooth strictly 2-concave functions, with
H = (M^{*-1})^2 the profile

    f(t) = sqrt(H(1)) - sqrt(H(1) - H'(1))
           - (1/2) int_t^1 H''(s) / sqrt(H(s) - s H'(s)) ds

is nonnegative and nonincreasing, and the matrix entries are its interval
averages a_{i,j} = n * int_{(j-1)/n}^{j/n} f_i.  For power functions these
integrals are taken in closed form; for fitted (PCHIP) profiles all
averages of all rows come from one fixed tanh-sinh rule on arrays and one
matrix product (see ``FProfile``).  (Note the minus sign on
the integral term: it is forced by the reconstruction identity
H(t) = (int_0^t f)^2 + t int_t^1 f^2, since H'' = 2 f' (F - t f) and
sqrt(H - t H') = F - t f with F(t) = int_0^t f.)
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .convex import (
    EquivalenceReport,
    MusielakSystem,
    PowerFunction,
    conjugate_rows,
)
from .perms import WeightMatrix

__all__ = [
    "FProfile",
    "ConstructionError",
    "conjugate_inverse_knots",
    "functions_from_matrix",
    "power_profile",
    "power_orlicz",
    "matrix_from_profiles",
    "matrix_from_functions",
    "h_reconstruct_check",
    "fit_concave_profile",
    "roundtrip_check",
]


class ConstructionError(ValueError):
    """A construction hypothesis failed on a concrete instance."""


# ---------------------------------------------------------------------------
# forward direction (weight matrix -> system)


def conjugate_inverse_knots(a: WeightMatrix) -> np.ndarray:
    """The (n, n+1) array of knot values v_{i,l} = M_i^{*-1}(l/n), v_{i,0} = 0."""
    if not a.is_square:
        raise ValueError("needs a square matrix")
    n = a.n
    rows = a.entries
    prefix = np.concatenate([np.zeros((n, 1)), np.cumsum(rows, axis=1)], axis=1) / n
    sq_tail = np.concatenate(
        [np.cumsum((rows**2)[:, ::-1], axis=1)[:, ::-1] / n, np.zeros((n, 1))], axis=1
    )
    ell = np.arange(n + 1) / n
    return np.sqrt(prefix**2 + ell * sq_tail)


def functions_from_matrix(a: WeightMatrix) -> MusielakSystem:
    """Build the system (M_1, ..., M_n) determined by the matrix knot values.

    Each M_i^{*-1} is the piecewise-affine interpolant of its knot values
    (affine on each [(l-1)/n, l/n], extended linearly), so M_i^* is PWA with
    knots at the values; M_i is its exact conjugate.  Raises
    ``ConstructionError`` if the knot values of some row are not increasing
    and concave (no convex conjugate would interpolate them).
    """
    v = conjugate_inverse_knots(a)
    n = a.n
    inc = np.diff(v, axis=1)
    flat = np.any(inc <= 0, axis=1)
    bad = flat | np.any(np.diff(inc, axis=1) > 1e-12 * v[:, -1:], axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        what = "not strictly increasing" if flat[i] else "not concave"
        raise ConstructionError(f"row {i}: knot values are {what}")
    grid = np.broadcast_to(np.arange(n + 1) / n, v.shape)
    slopes = np.hstack([np.diff(grid, axis=1) / inc, (1.0 / n) / inc[:, -1:]])
    return MusielakSystem(conjugate_rows(v, grid, slopes))


# ---------------------------------------------------------------------------
# the profile f attached to H = (M^{*-1})^2


# Takahasi-Mori tanh-sinh rule on [0, 1] (Publ. RIMS 9, 1974): the trapezoid
# rule with step 1/16 in tau in [-5, 5] after x = (1 + tanh u) / 2 with
# u = (pi / 2) sinh tau.  x is formed as 1 / (1 + exp(-2u)) and 1 - x as
# 1 / (1 + exp(2u)): through tanh, nodes within 1e-16 of an end would collapse
# onto it.  With step 1/8, rows fitted to random decreasing matrices were
# off by up to 6e-10 where H - s H' nearly vanishes at a piece end; with
# step 1/16, by at most 5e-14.
_TAU = np.arange(-80, 81) / 16.0
_U = 0.5 * np.pi * np.sinh(_TAU)
_TS_NODES = 1.0 / (1.0 + np.exp(-2.0 * _U))
_TS_WEIGHTS = np.pi / 16.0 * np.cosh(_TAU) * _TS_NODES / (1.0 + np.exp(2.0 * _U))


def _on(fn, s: np.ndarray) -> np.ndarray:
    """fn evaluated on the array s; a callable returning a constant is broadcast."""
    return np.broadcast_to(np.asarray(fn(s), dtype=float), s.shape)


def _rule(breaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the tanh-sinh rule on every piece between consecutive breaks."""
    width = np.diff(breaks)[:, None]
    return (breaks[:-1, None] + width * _TS_NODES).ravel(), (width * _TS_WEIGHTS).ravel()


def _breaks(profiles, points) -> np.ndarray:
    """Cuts from the smallest positive point or knot at or above min(points) up to 1.

    The cuts are the points, the knots and the powers of 2 in between, sorted
    and distinct, so that no piece is longer than its distance from 0, where
    g may blow up.
    """
    points = np.asarray(points, dtype=float)
    cuts = np.unique(np.concatenate([p.knots for p in profiles] + [[1.0], points.ravel()]))
    cuts = cuts[(cuts >= points.min()) & (cuts > 0)]
    return np.union1d(cuts, 2.0 ** -np.arange(math.floor(-math.log2(cuts[0])) + 1))


class FProfile:
    """The profile f of a concave increasing H on [0, 1] with H(0) = 0.

    ``h``, ``dh`` and ``d2h`` are H, H' and H'' as functions of an array (a
    function returning a constant is broadcast).  ``knots`` are the points of
    (0, 1) where the pieces must split, such as the knots of a piecewise
    cubic and the zeros of its H''; ``radicand`` computes H(s) - s H'(s) where ``h(s) - s * dh(s)`` would
    cancel.  With g = H''/sqrt(H - s H'), f(t) = f(1) - (1/2) int_t^1 g, and
    every integral of g is one fixed tanh-sinh rule mapped onto the pieces
    between the knots and the query points, except on the piece next to 0
    (see ``_first_piece``).
    """

    def __init__(self, h, dh, d2h, knots=(), radicand=None):
        self.h, self.dh, self.d2h = h, dh, d2h
        self.knots = np.asarray(knots, dtype=float)
        self.radicand = radicand if radicand is not None else lambda s: _on(h, s) - s * _on(dh, s)
        h1 = float(h(1.0))
        rad = h1 - float(dh(1.0))
        if rad < -1e-12:
            raise ConstructionError("H(1) - H'(1) is negative: H is not concave")
        self.boundary = math.sqrt(h1) - math.sqrt(max(rad, 0.0))

    def _curvature(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """H''(s) and sqrt(H(s) - s H'(s)) on an array.

        Curvature at rounding level (e.g. an interpolant of collinear data)
        counts as zero rather than tripping the concavity guard.
        """
        d2 = _on(self.d2h, s)
        d2 = np.where(np.abs(d2) > 1e-8, d2, 0.0)
        rad = _on(self.radicand, s)
        bad = (d2 != 0.0) & (rad <= 0.0)
        if bad.any():
            raise ConstructionError(
                f"H(s) - s H'(s) <= 0 at s = {s[bad][0]}: concavity hypothesis fails"
            )
        return d2, np.sqrt(np.maximum(rad, 0.0))

    def _g(self, s: np.ndarray) -> np.ndarray:
        d2, root = self._curvature(s)
        return np.divide(d2, root, out=np.zeros_like(d2), where=d2 != 0.0)

    def _first_piece(self, c: float) -> float:
        """-(1/2) int_0^c s g(s) ds, which is sqrt(H(c) - c H'(c)).

        g may blow up like a power of s at 0, where no rule in floating point
        reaches, so this piece is never integrated.  The rule's nodes on
        [0, c] still meet the concavity guard, and a piece whose curvature is
        at rounding level at all of them counts as flat.
        """
        d2, root = self._curvature(np.append(c * _TS_NODES, c))
        return float(root[-1]) if d2.any() else 0.0

    def value(self, t):
        """f(t) for t in (0, 1], a number or an array; nonnegative and nonincreasing."""
        t = np.asarray(t, dtype=float)
        if not np.all((t > 0) & (t <= 1)):
            raise ValueError("t must lie in (0, 1]")
        breaks = _breaks([self], t)
        f = _curvature_sums([self], breaks)[2][0]
        return f[np.searchsorted(breaks, t)][()]

    def integral(self, lo: float, hi: float) -> float:
        """int_lo^hi f(t) dt."""
        if not 0 <= lo <= hi <= 1:
            raise ValueError("need 0 <= lo <= hi <= 1")
        if hi == lo:
            return 0.0
        return (hi - lo) * float(_interval_averages([self], [lo, hi])[0, 0])


def _curvature_sums(profiles, breaks: np.ndarray):
    """Tanh-sinh nodes s between the breaks, w * g_i(s) per profile, and f_i at the breaks.

    ``breaks`` increase from a positive point to 1.  Raises
    ``ConstructionError`` where some f_i falls below -1e-7 (an invalid H).
    """
    s, w = _rule(breaks)
    gw = np.stack([w * p._g(s) for p in profiles])
    pieces = gw.reshape(len(profiles), len(breaks) - 1, _TS_NODES.size).sum(axis=2)
    tails = np.cumsum(pieces[:, ::-1], axis=1)[:, ::-1]  # int_{break_k}^1 g
    boundary = np.array([p.boundary for p in profiles])[:, None]
    f = boundary - 0.5 * np.concatenate([tails, np.zeros_like(boundary)], axis=1)
    low = f < -1e-7
    if low.any():
        raise ConstructionError(f"profile negative at t = {breaks[np.nonzero(low)[1][0]]}: invalid H")
    return s, gw, np.maximum(f, 0.0)


def _interval_averages(profiles, edges) -> np.ndarray:
    """The average of every profile f_i over each [e_j, e_{j+1}], for increasing edges in [0, 1].

    Swapping the order of integration in f(t) = f(1) - (1/2) int_t^1 g gives
        int_a^b f = (b - a) f(1) - (1/2) int_a^1 g(s) (min(s, b) - a) ds,
    so all averages are f(1) minus one product of the weighted curvatures with
    a kernel.  The constant part of every average is exactly f(1), so where a
    profile is flat the averages tie exactly, whatever the rounding of the
    interval widths.
    """
    edges = np.asarray(edges, dtype=float)
    breaks = _breaks(profiles, edges)
    s, gw, _ = _curvature_sums(profiles, breaks)
    a, width = edges[:-1], np.diff(edges)
    kernel = np.clip((s[:, None] - a) / width, 0.0, 1.0)
    out = np.array([p.boundary for p in profiles])[:, None] - 0.5 * (gw @ kernel)
    if edges[0] == 0.0:
        out[:, 0] += [p._first_piece(breaks[0]) / width[0] for p in profiles]
    return out


# ---------------------------------------------------------------------------
# the power family


def power_orlicz(p: float, strict: bool = True) -> PowerFunction:
    """Power Orlicz function rescaled so its conjugate satisfies M*(1) = 1.

    With q = p/(p-1) the rescaled function is M(t) = q^(1-p)/p * t^p, whose
    conjugate is exactly x^q.  For the strictly-2-concave pipeline p must
    lie in (1, 2); outside that range pass ``strict=False`` to get the
    function with a warning.
    """
    if not 1 < p < 2:
        if strict:
            raise ValueError("p must lie in (1, 2) for the strictly 2-concave pipeline")
        warnings.warn(f"p = {p} is outside (1, 2); the result is not strictly 2-concave")
    q = p / (p - 1.0)
    scale = q ** (1.0 - p) / p
    return PowerFunction(p, scale)


def power_profile(p: float) -> FProfile:
    """FProfile of the normalized power function: H(t) = t^alpha, alpha = 2/q."""
    q = p / (p - 1.0)
    alpha = 2.0 / q
    h = lambda t: t**alpha
    dh = lambda t: alpha * t ** (alpha - 1.0)
    d2h = lambda t: alpha * (alpha - 1.0) * t ** (alpha - 2.0)
    return FProfile(h, dh, d2h)


def _power_profile_coefficients(p: float) -> tuple[float, float, float]:
    """(A, B, beta) with f(t) = A + B (t^(beta-1) - 1) the profile of H(t) = t^(2 beta).

    Raises ``ConstructionError`` when H is not concave (p > 2).
    """
    beta = (p - 1.0) / p  # alpha / 2 with alpha = 2 / q
    rad = 1.0 - 2.0 * beta  # H(1) - H'(1)
    if rad < -1e-12:
        raise ConstructionError("H(1) - H'(1) is negative: H is not concave")
    r = math.sqrt(max(rad, 0.0))
    return 1.0 - r, beta * r / (1.0 - beta), beta


def power_profile_value(p: float, t) -> np.ndarray:
    """Closed-form profile of H(t) = t^alpha (analytic quadrature oracle)."""
    A, B, beta = _power_profile_coefficients(p)
    t = np.asarray(t, dtype=float)
    return A + B * (t ** (beta - 1.0) - 1.0)


def _power_row(p: float, n: int) -> np.ndarray:
    """n * int_{(j-1)/n}^{j/n} of ``power_profile_value(p, .)``, j = 1..n, in closed form.

    The constant part of every entry is exactly A - B, so where the profile
    is flat (p = 2) the entries tie exactly instead of up to rounding.
    """
    A, B, beta = _power_profile_coefficients(p)
    return (A - B) + (n * B / beta) * np.diff((np.arange(n + 1) / n) ** beta)


# ---------------------------------------------------------------------------
# inverse direction (system -> weight matrix)


def matrix_from_profiles(profiles, n: int) -> WeightMatrix:
    """Weight matrix with rows a_{i,j} = n * int_{(j-1)/n}^{j/n} f_i(s) ds."""
    return WeightMatrix(_interval_averages(profiles, np.arange(n + 1) / n))


def matrix_from_functions(system: MusielakSystem, n: int | None = None) -> WeightMatrix:
    """The matrix generating the Musielak-Orlicz norm of a power system.

    Each function is normalized (argument rescaling) so that M_i*(1) = 1,
    H_i = (M_i^{*-1})^2 is formed, and the rows are the interval averages of
    the profiles f_i.  For a power function H_i(t) = t^(2/q) whatever the
    scale, and its profile integrates in closed form.  Rows come out positive
    and nonincreasing because the profiles are nonnegative and nonincreasing.
    """
    n = n if n is not None else system.n
    if system.n != n:
        raise ValueError("system dimension must match the requested matrix size")
    if not all(isinstance(m, PowerFunction) for m in system):
        raise TypeError(
            "matrix_from_functions needs power functions; "
            "fit piecewise-affine systems with fit_concave_profile first"
        )
    return WeightMatrix(np.array([_power_row(m.p, n) for m in system]))


def h_reconstruct_check(profile: FProfile, grid=None) -> float:
    """Max grid error of H(t) = (int_0^t f)^2 + t int_t^1 f^2 over points t in (0, 1].

    One ``_interval_averages`` call gives the heads, one rule over the grid's pieces the tails.
    """
    t = np.unique(np.linspace(1.0 / 64, 1.0, 64) if grid is None else np.asarray(grid, dtype=float))
    if not np.all((t > 0) & (t <= 1)):
        raise ValueError("grid points must lie in (0, 1]")
    edges = np.append(0.0, t)
    heads = np.cumsum(np.diff(edges) * _interval_averages([profile], edges)[0])
    breaks = _breaks([profile], t)
    s, w = _rule(breaks)
    pieces = (w * profile.value(s) ** 2).reshape(-1, _TS_NODES.size).sum(axis=1)
    tails = np.append(np.cumsum(pieces[::-1])[::-1], 0.0)[np.searchsorted(breaks, t)]
    return float(np.max(np.abs(_on(profile.h, t) - (heads**2 + t * tails))))


# ---------------------------------------------------------------------------
# round trip


def fit_concave_profile(knot_values: np.ndarray) -> tuple[FProfile, float]:
    """Smooth monotone fit of H through (l/n, v_l^2), normalized to H(1) = 1.

    Returns the profile of the normalized fit and the scale sqrt(H(1)) that
    converts its outputs back to the original size.  Uses a monotone
    piecewise-cubic (PCHIP) interpolant, which reproduces the linear case
    exactly and preserves monotonicity for concave data.
    """
    v = np.asarray(knot_values, dtype=float)
    n = len(v) - 1
    from scipy.interpolate import PchipInterpolator, PPoly

    grid = np.arange(n + 1) / n
    hvals = v**2
    scale = math.sqrt(hvals[-1])
    fit = PchipInterpolator(grid, hvals / hvals[-1])
    # H - s H' as a cubic in u = s - x on each piece [x, x'] from the fit's
    # coefficients (c0 the cubic one): h(s) - s dh(s) cancels to <= 0 near 0,
    # where the first piece gives exactly -c1 u^2 - 2 c0 u^3
    c, x = fit.c, fit.x[:-1]
    radicand = PPoly(np.stack([-2 * c[0], -c[1] - 3 * x * c[0], -2 * x * c[1], c[3] - x * c[2]]), fit.x)
    # H'' is linear on each piece.  Where it turns from positive to negative,
    # H - s H' (whose derivative is -s H'') has a minimum, possibly close to 0,
    # and g a narrow bump there that a fixed rule resolves only at the end of
    # a piece: the zeros of H'' become knots too.
    with np.errstate(divide="ignore", invalid="ignore"):
        u = -c[1] / (3.0 * c[0])
    inflections = (x + u)[(u > 0) & (u < np.diff(fit.x))]
    knots = np.union1d(grid[1:-1], inflections)
    prof = FProfile(fit, fit.derivative(), fit.derivative(2), knots=knots, radicand=radicand)
    return prof, scale


def roundtrip_check(a: WeightMatrix) -> EquivalenceReport:
    """Compose the two constructions and compare at the knot-value level.

    The matrix is turned into knot values, a smooth concave H is fitted per
    row, the inverse construction produces a new matrix, and the report
    collects the ratios of reconstructed to original knot values (only norm
    equivalence is claimed, so raw matrix entries are not compared).
    """
    if not a.is_square:
        raise ValueError("needs a square matrix")
    n = a.n
    v = conjugate_inverse_knots(a)
    profiles, scales = zip(*(fit_concave_profile(v[i]) for i in range(n)))
    unit = matrix_from_profiles(profiles, n)
    rebuilt = WeightMatrix(unit.entries * np.array(scales)[:, None])
    v2 = conjugate_inverse_knots(rebuilt)
    ratios = (v2[:, 1:] / v[:, 1:]).ravel()
    return EquivalenceReport(
        float(ratios.min()), float(ratios.max()), ratios, ratios.size, f"roundtrip n={n}"
    )
