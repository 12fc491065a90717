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
integrals are taken in closed form.  Otherwise one ``FProfile`` holds the
profiles of every row, through H and H - s H' alone: by the reconstruction
identity H(t) = (int_0^t f)^2 + t int_t^1 f^2, sqrt(H - t H') = F - t f
with F(t) = int_0^t f, so (F/t)' = -sqrt(H - t H')/t^2 and

    F(t) = t (sqrt(H(1)) + int_t^1 sqrt(H(s) - s H'(s)) / s^2 ds).

All averages of all rows then come from one pass of a fixed Gauss-Legendre
rule over a (rows, pieces, nodes) grid of each row's own pieces, one sum per
piece; round trips fit each row's H by PCHIP on its own grid, every row of
every matrix of a campaign in one pass (``roundtrip_checks``), which checks
all the rebuilt matrices at once.  The grid arithmetic runs in place, in the
order the formulas are written, so each value has the bits of the formula.
(Note the minus sign on the integral term of f: it is forced by
H'' = 2 f' (F - t f).)
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .convex import EquivalenceReport, MusielakSystem
from .perms import WeightMatrix

__all__ = [
    "FProfile",
    "ConstructionError",
    "conjugate_inverse_knots",
    "rows_from_knots",
    "functions_from_matrix",
    "functions_from_matrices",
    "power_profile",
    "power_profile_value",
    "power_system",
    "power_matrix",
    "matrix_from_profiles",
    "matrix_from_functions",
    "h_reconstruct_check",
    "fit_concave_profile",
    "roundtrip_check",
    "roundtrip_checks",
]


class ConstructionError(ValueError):
    """A construction hypothesis failed on a concrete instance."""


# ---------------------------------------------------------------------------
# forward direction (weight matrix -> system)


def conjugate_inverse_knots(a: WeightMatrix) -> np.ndarray:
    """The (n, n+1) array of knot values v_{i,l} = M_i^{*-1}(l/n), v_{i,0} = 0."""
    if not a.is_square:
        raise ValueError("needs a square matrix")
    return _knot_values(a.entries)


def _knot_values(rows: np.ndarray, n=None) -> np.ndarray:
    """``conjugate_inverse_knots`` of an (n, n) array, which need not be a valid ``WeightMatrix``.

    Or of a (J, m, m) stack of such arrays, zero-padded at their far ends,
    with their own sizes ``n`` ((J,)), or of (R, m) rows zero-padded past
    their own sizes ``n`` ((R,)): the tail sums add their padding first, as
    +0.0, so each real knot value keeps its bits; a row repeats its last
    past its own n, and a padded row is 0.
    """
    m = rows.shape[-1]
    n = m if n is None else np.reshape(n, (-1, *[1] * (rows.ndim - 1)))
    v = np.zeros((*rows.shape[:-1], m + 1))
    tail = np.zeros_like(v)
    rows.cumsum(axis=-1, out=v[..., 1:])
    v /= n
    v *= v  # the squared prefix sums
    (rows * rows)[..., ::-1].cumsum(axis=-1, out=tail[..., -2::-1])
    tail /= n
    tail *= np.arange(m + 1) / n  # past its own n a row's tail sum is 0
    v += tail
    return np.sqrt(v, out=v)


def rows_from_knots(knot_values: np.ndarray) -> np.ndarray:
    """The rows whose knot values are ``knot_values``: the exact inverse of ``conjugate_inverse_knots``.

    A row is a step profile f, and its H is affine between the knots t_k = k/n,
    so the piecewise-linear H through (t_k, v_k^2) is the row's own H.  On
    piece k, H - s H' is the intercept b_k = (k+1) H_k - k H_{k+1}, and its
    root is F - s f there.  So f(1) = v_n - sqrt(b_{n-1}), and f drops by
    (sqrt(b_k) - sqrt(b_{k-1})) / t_k at each interior knot t_k.  An
    intercept within 1e-14 of (k+1) H_k counts as 0: where leading entries
    tie, b_k is 0 up to rounding, which the square root would magnify to
    about 1e-8 (the inverse is only Hölder-1/2 there).
    """
    v = np.atleast_2d(np.asarray(knot_values, dtype=float))
    n = v.shape[1] - 1
    h, k = v**2, np.arange(n)
    b = (k + 1) * h[:, :-1] - k * h[:, 1:]
    root = np.sqrt(np.where(b > 1e-14 * (k + 1) * h[:, :-1], b, 0.0))
    drops = np.diff(root, axis=1) * (n / k[1:])
    tails = np.hstack([np.cumsum(drops[:, ::-1], axis=1)[:, ::-1], np.zeros((len(v), 1))])
    return (v[:, -1] - root[:, -1])[:, None] + tails


def functions_from_matrix(a: WeightMatrix) -> MusielakSystem:
    """Build the system (M_1, ..., M_n) determined by the matrix knot values.

    Each M_i^{*-1} is the piecewise-affine interpolant of its knot values
    (affine on each [(l-1)/n, l/n], extended linearly), so M_i^* is PWA with
    knots at the values and last slope (1/n) / (v_{i,n} - v_{i,n-1}); the
    system holds these knots, and M_i is their exact conjugate.  Raises
    ``ConstructionError`` if the knot values of some row are not increasing
    and concave (no convex conjugate would interpolate them).
    """
    return functions_from_matrices([a])


def functions_from_matrices(matrices, counts=None) -> MusielakSystem:
    """The stack of each matrix's ``functions_from_matrix``, ``matrices[j]`` for the next ``counts[j]`` vectors.

    Built in one pass over the entries of all matrices, zero-padded at
    their far ends (see ``_knot_values``), with the bits of
    ``MusielakSystem.stack`` of the systems built one by one; the first
    matrix whose rows build no system raises as it would alone.  Without
    ``counts``, the system of the one matrix given.
    """
    entries, n, ncols = WeightMatrix.padded(matrices)
    if (n != ncols).any():
        raise ValueError("needs a square matrix")
    v = _knot_values(entries, n)
    inc = v[:, :, 1:] - v[:, :, :-1]
    # past its own n a row's increments are 0: the flat test skips them, and they bend down, never up
    flat = ((inc <= 0) & (np.arange(inc.shape[2]) < n[:, None, None])).any(axis=2)
    bends = (inc[:, :, 1:] - inc[:, :, :-1] > 1e-12 * v[:, :, -1:]).any(axis=2)
    bad = (flat | bends) & (np.arange(entries.shape[1]) < n[:, None])  # padded rows are 0, so flat
    if bad.any():
        j = int(np.argmax(bad.any(axis=1)))
        i = int(np.argmax(bad[j]))
        what = "not strictly increasing" if flat[j, i] else "not concave"
        raise ConstructionError(f"row {i}: knot values are {what}")
    return MusielakSystem.from_grid_knots(v, n, n, inc[np.arange(len(n)), :, n - 1], counts)


# ---------------------------------------------------------------------------
# the profile f attached to H = (M^{*-1})^2


# Gauss-Legendre rule on [0, 1]: R/s^2 is integrated on every piece but the
# one from 0.  Against 40-digit quadrature of the same fits, on 270 fitted
# rows of random matrices (entries uniform, in [0.9, 1] and log-uniform,
# n = 2..10), 48 nodes were off by at most 1.1e-13, 32 by 3.6e-13, 64 by 3.8e-14.
# Newton's method on the Legendre recurrence gives weights within 1.4e-13 of
# 40-digit ones (numpy's ``leggauss``, which loads LAPACK, within 1.3e-12).
RULE_NODES = 48


@functools.cache
def _rule() -> tuple[np.ndarray, np.ndarray]:
    """The nodes on [0, 1], then 1 (a piece's right end), and their weights (0 at the 1)."""
    x = np.cos(np.pi * (np.arange(RULE_NODES, 0, -1) - 0.25) / (RULE_NODES + 0.5))
    for _ in range(6):
        p0, p1 = np.ones_like(x), x  # P_{j-1} and P_j at x
        for j in range(2, RULE_NODES + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        slope = RULE_NODES * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / slope
    return np.append((x + 1.0) / 2.0, 1.0), np.append(1.0 / ((1.0 - x * x) * slope * slope), 0.0)


def _at(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a[i, k_i] for every row i of a, for k with a leading row axis."""
    return a[np.arange(len(a)).reshape(-1, *[1] * (k.ndim - 1)), k]


def _breaks(profile, points) -> np.ndarray:
    """Per row of the profile, the sorted distinct cuts from the row's least point up to 1: the points, its knots and 1.

    ``points`` are shared or a row per row; a row past its own cuts repeats
    1.  A piece [a, b] with 0 < a and b > 2a is split at the powers of 2
    inside it: no piece but one from 0 is longer than its distance from 0.
    """
    points, knots = np.atleast_2d(points), profile.knots
    cuts = np.ones((profile.rows, points.shape[1] + knots.shape[1] + 1))
    cuts[:, : points.shape[1]] = points
    cuts[:, points.shape[1] : -1] = knots
    cuts = np.where(cuts >= points.min(axis=1, keepdims=True), cuts, 1.0)
    cuts.sort(axis=1)
    a, b = cuts[:, :-1, None], cuts[:, 1:, None]
    wide = (b > 2.0 * a) & (a > 0)
    if wide.any():
        powers = 2.0 ** -np.arange(math.floor(-math.log2(a[wide].min())) + 1)
        inside = (wide & (a < powers) & (powers < b)).any(axis=1)
        cuts = np.concatenate([cuts, np.where(inside, powers, 1.0)], axis=1)
        cuts.sort(axis=1)
    repeat = np.zeros(cuts.shape, dtype=bool)
    np.equal(cuts[:, 1:], cuts[:, :-1], out=repeat[:, 1:])
    cuts[repeat] = 2.0  # sorted past the distinct cuts, then read as 1
    cuts.sort(axis=1)
    return np.minimum(cuts[:, : cuts.shape[1] - repeat.sum(axis=1).min()], 1.0)


def _concavity_root(rad):
    """sqrt(rad) per row for rad = H(1) - H'(1), the root that f(1) = sqrt(H(1)) - sqrt(H(1) - H'(1)) subtracts.

    A rad below -1e-12 (H not concave) raises ``ConstructionError`` naming its row; one in [-1e-12, 0) counts as 0.
    """
    convex = rad < -1e-12
    if np.any(convex):
        raise ConstructionError(f"row {np.argmax(convex)}: H(1) - H'(1) is negative: H is not concave")
    return np.sqrt(np.maximum(rad, 0.0))


class FProfile:
    """The profiles f of the rows of concave increasing H on [0, 1] with H(0) = 0 and H(1) = 1.

    ``h`` is H of an array s, one row per H along a leading axis (so H(1)
    has one entry per row).  ``radicand`` returns H(s) - s H'(s), formed
    without cancellation, and H(s) on a (rows, pieces, nodes) grid s, each
    of that shape or broadcast to it.  ``knots`` are the points of (0, 1)
    where the pieces must split (such as the knots of a piecewise cubic and
    the zeros of its H''), shared or a row per row padded with 1.  With
    R = sqrt(H - s H') and I(t) = int_t^1 R(s)/s^2 ds, the integral of f
    from 0 is F(t) = t (1 + I(t)), and f(t) = 1 + I(t) - R(t)/t.  There
    are as many rows as rows of knots or, for shared knots, entries of H(1).
    """

    def __init__(self, h, radicand, knots=()):
        self.h, self.radicand, self.knots = h, radicand, np.array(knots, dtype=float, ndmin=2)
        self.rows = len(self.knots) if len(self.knots) > 1 else np.size(h(1.0))

    def value(self, t):
        """f(t) for t in (0, 1], a number or a nonempty array; nonnegative and nonincreasing.

        A profile of several rows gives one value per row, along a leading axis.
        """
        t = np.asarray(t, dtype=float)
        if t.size == 0 or not np.all((t > 0) & (t <= 1)):
            raise ValueError("t must be nonempty and lie in (0, 1]")
        breaks = _breaks(self, t.ravel())
        f = _at(_tails(self, breaks)[1], np.array([np.searchsorted(b, t) for b in breaks]))
        return (f[0] if self.rows == 1 else f)[()]


def _roots(profile: FProfile, s: np.ndarray) -> np.ndarray:
    """R = sqrt(H - s H') of every row on a (rows, pieces, nodes) grid s.

    As in ``rows_from_knots``, H - s H' <= 1e-14 H counts as 0 (a linear H
    gives 0 up to rounding).  Where H - s H' < -1e-10 H, H is not concave:
    ``ConstructionError`` names the first such row.
    """
    rad, h = (x if np.shape(x) == s.shape else np.broadcast_to(x, s.shape) for x in profile.radicand(s))
    bound = h * -1e-10
    convex = rad < bound
    if convex.any():
        i, k, j = np.argwhere(convex)[0]
        raise ConstructionError(f"row {i}: H(s) - s H'(s) <= 0 at s = {s[i, k, j]}: concavity hypothesis fails")
    np.multiply(h, 1e-14, out=bound)
    root = np.where(rad > bound, rad, 0.0)
    return np.sqrt(root, out=root)


def _tails(profile: FProfile, breaks: np.ndarray):
    """I(b) = int_b^1 R(s)/s^2 ds and f(b) = 1 + I(b) - R(b)/b at each of a row's breaks, per row.

    ``breaks`` (see ``_breaks``) start at 0 in every row or in none.  Each
    break is the right end of a piece, the last node of ``_rule``: of the
    piece before it or, for a first break above 0, of the empty piece there.
    R is checked (``_roots``) at every node, and R/s^2 summed over each
    row's nodes of every piece but the first, so a row has the same bits
    whatever rows share the pass.  The piece from 0, where R/s^2 need not be
    integrable, is never summed, as F(0) = 0: at a break at 0, I and f read
    0.  Raises ``ConstructionError``, naming the first such row, where some
    f_i falls below -1e-7 (an invalid H).
    """
    nodes, weights = _rule()
    start = int(breaks[0, 0] == 0.0)
    hi = breaks[:, start:]
    lo = breaks[:, :-1] if start else np.concatenate([breaks[:, :1], breaks[:, :-1]], axis=1)
    width = hi - lo
    s = width[..., None] * nodes
    s += lo[..., None]
    root = _roots(profile, s)
    grid = s[:, 1:]  # R/s^2 times the weights, in place of s
    grid *= grid
    np.divide(root[:, 1:], grid, out=grid)
    grid *= weights
    tails, f = np.zeros((2, len(breaks), breaks.shape[1]))
    pieces = tails[:, start:]
    np.multiply(grid.sum(axis=2), width[:, 1:], out=pieces[:, :-1])
    pieces[:, ::-1].cumsum(axis=1, out=pieces[:, ::-1])
    last = np.divide(root[:, :, -1], hi)
    np.subtract(1.0 + pieces, last, out=last)  # f at the breaks
    low = last < -1e-7
    if low.any():
        i, k = np.argwhere(low)[0]
        raise ConstructionError(f"row {i}: profile negative at t = {hi[i, k]}: invalid H")
    np.maximum(last, 0.0, out=f[:, start:])
    return tails, f


def _interval_averages(profile: FProfile, edges) -> np.ndarray:
    """The average of every row f_i over each [a, b] between increasing edges in [0, 1].

    The edges are shared, or a row per row that may repeat its last edge
    (averages 0 there).  With F(t) = t (1 + I(t)) (see ``FProfile``), the
    average (F(b) - F(a)) / (b - a) is 1 + I(b) - a (I(a) - I(b)) / (b - a),
    from I at the two edges; an interval from 0 reads I at b alone.  Where R
    counts as 0 everywhere (a linear H), every average is exactly 1.
    """
    edges = np.atleast_2d(np.asarray(edges, dtype=float))
    breaks = _breaks(profile, edges)
    tails = _at(_tails(profile, breaks)[0], (breaks[:, None, :] < edges[..., None]).sum(axis=2))  # I at each edge
    a, width = edges[:, :-1], edges[:, 1:] - edges[:, :-1]
    inner = a * (tails[:, :-1] - tails[:, 1:]) / np.where(width > 0, width, 1.0)
    return np.where(width > 0, 1.0 + tails[:, 1:] - inner, 0.0)


# ---------------------------------------------------------------------------
# the power family


def power_system(exponents) -> MusielakSystem:
    """The power system of the exponents p_i, each rescaled so that its conjugate satisfies M_i*(1) = 1.

    With q = p/(p-1) the rescaled function is M(t) = q^(1-p)/p * t^p, whose
    conjugate is exactly x^q.  Every p must lie in (1, 2), where M is
    strictly 2-concave; ``ValueError`` names the first that does not.
    """
    ps = _power_exponents(exponents)
    # in Python floats: numpy's vectorized pow can differ from the scalar one in the last bit
    return MusielakSystem.powers(ps, [(p / (p - 1.0)) ** (1.0 - p) / p for p in ps])


def power_matrix(exponents) -> WeightMatrix:
    """``matrix_from_functions(power_system(exponents))``, from the exponents alone: no scale enters the matrix.

    The exponents are checked as in ``power_system``, and must not be empty.
    """
    ps = _power_exponents(exponents)
    if not ps:
        raise ValueError("exponents must not be empty")
    return _power_matrix(np.array(ps))


def _power_exponents(exponents) -> list[float]:
    """The exponents as floats; ``ValueError`` names the first outside (1, 2)."""
    ps = [float(p) for p in exponents]
    for i, p in enumerate(ps):
        if not 1 < p < 2:
            raise ValueError(f"exponents[{i}] = {p} must lie in (1, 2) for the strictly 2-concave pipeline")
    return ps


def _check_exponent(p: float) -> None:
    """A ValueError naming ``p`` unless it is a finite number above 1."""
    if not (math.isfinite(p) and p > 1):
        raise ValueError(f"p must be a finite number above 1, got {p}")


def power_profile(p: float) -> FProfile:
    """FProfile of the normalized power function: H(t) = t^alpha, alpha = 2/q, with H - s H' = (1 - alpha) s^alpha.

    ``ValueError`` names a p that is not a finite number above 1; a p above
    2, where H is convex, raises ``ConstructionError``.
    """
    _check_exponent(p)
    alpha = 2.0 / (p / (p - 1.0))
    _concavity_root(1.0 - alpha)
    return FProfile(lambda t: t**alpha, lambda s: ((1.0 - alpha) * s**alpha, s**alpha))


def _power_profile_coefficients(p):
    """(A, B, beta) with f(t) = A + B (t^(beta-1) - 1) the profile of H(t) = t^(2 beta), per exponent p.

    Raises ``ConstructionError``, naming the first such row, when H is not concave (p > 2).
    """
    beta = (np.asarray(p, dtype=float) - 1.0) / p  # alpha / 2 with alpha = 2 / q
    r = _concavity_root(1.0 - 2.0 * beta)  # of H(1) - H'(1)
    return 1.0 - r, beta * r / (1.0 - beta), beta


def power_profile_value(p: float, t) -> np.ndarray:
    """Closed-form profile of H(t) = t^alpha (analytic quadrature oracle); p is checked as in ``power_profile``."""
    _check_exponent(p)
    A, B, beta = _power_profile_coefficients(p)
    t = np.asarray(t, dtype=float)
    return A + B * (t ** (beta - 1.0) - 1.0)


# ---------------------------------------------------------------------------
# inverse direction (system -> weight matrix)


def matrix_from_profiles(profile: FProfile, n: int) -> WeightMatrix:
    """Weight matrix with rows a_{i,j} = n * int_{(j-1)/n}^{j/n} f_i(s) ds, one per row of ``profile``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be at least 1 and an integer, got {n!r}")
    return WeightMatrix(_interval_averages(profile, np.arange(n + 1) / n))


def matrix_from_functions(system: MusielakSystem) -> WeightMatrix:
    """The n x n matrix, n = ``system.n``, generating the Musielak-Orlicz norm of a power system.

    Each function is normalized (argument rescaling) so that M_i*(1) = 1,
    H_i = (M_i^{*-1})^2 is formed, and the rows are the interval averages of
    the profiles f_i.  For a power function H_i(t) = t^(2/q) whatever the
    scale, and its profile integrates in closed form.  Rows come out positive
    and nonincreasing because the profiles are nonnegative and nonincreasing.
    All rows come in one broadcast; the constant part of every entry is
    exactly A - B, so where a profile is flat (p = 2) the entries tie exactly.
    A piecewise-affine system raises ``TypeError``.
    """
    if system.p is None:
        raise TypeError(
            "matrix_from_functions needs power functions; "
            "fit piecewise-affine systems with fit_concave_profile first"
        )
    return _power_matrix(system.p)


def _power_matrix(p: np.ndarray) -> WeightMatrix:
    """``matrix_from_functions`` of the power system of the exponents p ((n,)), which it does not build."""
    n = len(p)
    A, B, beta = (x[:, None] for x in _power_profile_coefficients(p))
    grid = (np.arange(n + 1) / n) ** beta
    return WeightMatrix((A - B) + (n * B / beta) * (grid[:, 1:] - grid[:, :-1]))


def h_reconstruct_check(profile: FProfile) -> float:
    """Max error of H(t) = (int_0^t f)^2 + t int_t^1 f^2 over the points t = 1/64, 2/64, ..., 1.

    One ``_interval_averages`` call gives the heads, the rule on the grid's
    pieces the tails.  ``profile`` must have one row (``ValueError`` otherwise).
    """
    if profile.rows != 1:
        raise ValueError(f"profile has {profile.rows} rows: h_reconstruct_check takes a profile of one row")
    t = np.linspace(1.0 / 64, 1.0, 64)
    edges = np.append(0.0, t)
    heads = np.cumsum(np.diff(edges) * _interval_averages(profile, edges)[0])
    breaks = _breaks(profile, t)[0]
    nodes, weights = _rule()
    width = np.diff(breaks)
    pieces = width * (profile.value(breaks[:-1, None] + width[:, None] * nodes) ** 2 @ weights)
    tails = np.append(np.cumsum(pieces[::-1])[::-1], 0.0)[np.searchsorted(breaks, t)]
    return float(np.max(np.abs(profile.h(t) - (heads**2 + t * tails))))


# ---------------------------------------------------------------------------
# round trip


def _end_slope(h0, h1, m0, m1):
    """Moler's one-sided three-point slope, set to 0 or 3 m0 where it would break the shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    keep = np.sign(d) == np.sign(m0)
    d = np.where((np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0)), 3.0 * m0, d)
    return np.where(keep, d, 0.0)


class _Pchip:
    """Monotone cubic Hermite interpolants (PCHIP) of the rows of y, each at its own increasing x.

    The slopes are the Fritsch-Carlson rule (SIAM J. Numer. Anal. 17, 1980) as the
    reference PCHIP implementations have it: at interior points the Fritsch-Butland
    weighted harmonic mean of the secant slopes, 0 where they change sign or vanish; at
    the ends Moler's shape-preserving three-point formula; for two points the line.
    ``x`` is shared or a row per row of y; a row of ``n`` segments (all by default)
    repeats its last x and y past them.  On segment k the interpolant is
    c_0 u^3 + c_1 u^2 + c_2 u + c_3 with u = s - x_k, summed from the constant term up.
    ``table`` holds its (terms, rows, segments) coefficients, and ``radicand`` those of
    H - s H', formed so that it does not cancel: on the first segment it is
    -c_1 u^2 - 2 c_0 u^3.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, n=None):
        r, m = np.arange(len(y)), y.shape[1] - 1
        self.x = x = x if np.shape(x) == y.shape else np.broadcast_to(x, y.shape)
        self.n = n = np.full(len(y), m) if n is None else n
        hk = x[:, 1:] - x[:, :-1]
        hk = np.where(hk > 0, hk, 1.0)  # past a row's own segments, where its secants are 0
        mk = y[:, 1:] - y[:, :-1]
        mk /= hk
        sign = np.sign(mk)
        flat = sign[:, 1:] * sign[:, :-1] <= 0  # the secants change sign or one vanishes
        w1, w2 = 2.0 * hk[:, 1:] + hk[:, :-1], hk[:, 1:] + 2.0 * hk[:, :-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / mk[:, :-1] + w2 / mk[:, 1:]) / (w1 + w2)))
        near = np.zeros((len(y), 2), dtype=int)
        near[:, 1] = n - 1
        far, rows = np.minimum(near + (1, -1), m - 1), r[:, None]
        ends = _end_slope(hk[rows, near], hk[rows, far], mk[rows, near], mk[rows, far])
        ends = np.where(n[:, None] > 1, ends, mk[:, :1])  # two points: the line
        self.slopes = d = np.concatenate([ends[:, :1], inner, ends[:, 1:]], axis=1)
        d[r, n] = ends[:, 1]
        t = (d[:, :-1] + d[:, 1:] - 2.0 * mk) / hk
        c0, c1, c2, c3 = t / hk, (mk - d[:, :-1]) / hk - t, d[:, :-1], y[:, :-1]
        x0 = x[:, :-1]
        # per row and segment, the coefficients of u^3, u^2, u and 1 in H - s H', then in H
        self._terms = np.array([-2.0 * c0, -c1 - 3.0 * x0 * c0, -2.0 * x0 * c1, c3 - x0 * c2, c0, c1, c2, c3])
        self.radicand, self.table = self._terms[:4], self._terms[4:]

    def _segments(self, s: np.ndarray) -> np.ndarray:
        """The segment of its row that holds each s, for s with a leading row axis (or one of length 1)."""
        inner = self.x[:, 1:-1].reshape(len(self.x), *[1] * (s.ndim - 1), -1)
        return np.minimum((inner <= s[..., None]).sum(axis=-1), (self.n - 1).reshape(-1, *[1] * (s.ndim - 1)))

    def __call__(self, s) -> np.ndarray:
        """H of every row at s, with a leading row axis."""
        s = np.asarray(s, dtype=float)[None]
        k = self._segments(s)
        u = s - _at(self.x, k)
        c0, c1, c2, c3 = (_at(c, k) for c in self.table)
        return c3 + c2 * u + c1 * (u * u) + c0 * (u * u * u)

    def on_grid(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """H(s) - s H'(s) and H(s) of every row on a (rows, pieces, nodes) grid s, or a (pieces, nodes) one for all.

        Each piece must lie in one segment of its row, which is found once, from the piece's middle node.
        """
        s = s if s.ndim == 3 else s[None]
        k = self._segments(s[..., s.shape[-1] // 2])
        u = s - _at(self.x, k)[..., None]
        r0, r1, r2, r3, c0, c1, c2, c3 = self._terms[:, np.arange(len(k))[:, None], k][..., None]
        uu = u * u
        uuu = uu * u
        # each sum from the constant term up, in place: r3 + r2 u + r1 u^2 + r0 u^3, then H over u, uu and uuu
        rad = r2 * u
        rad += r3
        term = r1 * uu
        rad += term
        rad += np.multiply(r0, uuu, out=term)
        h = np.multiply(c2, u, out=u)
        h += c3
        h += np.multiply(c1, uu, out=uu)
        h += np.multiply(c0, uuu, out=uuu)
        return rad, h


def fit_concave_profile(knot_values: np.ndarray) -> tuple[FProfile, np.ndarray]:
    """Smooth monotone fit of each row's H through (l/n, v_l^2), normalized to H(1) = 1.

    ``knot_values`` is one finite row v_0..v_n, n >= 1, with v_0 = 0, no
    negative value and v_n > 0, or a (rows, n+1) array of them (``ValueError``
    names the first that is not).  Returns one profile with a row per row of
    knot values, and the (rows,) scales sqrt(H(1)) that convert its outputs
    back to the original size.  The fits are monotone piecewise cubics
    (PCHIP), which reproduce the linear case exactly and preserve
    monotonicity for concave data.
    """
    v = np.atleast_2d(np.asarray(knot_values, dtype=float))
    if v.ndim != 2 or v.shape[1] < 2:
        raise ValueError(f"knot_values row 0 has shape {v.shape[1:]}: a row needs at least 2 values")
    bad = ~(np.isfinite(v).all(axis=1) & (v[:, 0] == 0) & (v >= 0).all(axis=1) & (v[:, -1] > 0))
    if bad.any():
        raise ValueError(
            f"knot_values row {np.argmax(bad)} must be finite and nonnegative, "
            "with a first value of 0 and a positive last value"
        )
    return _fit(v, np.full(len(v), v.shape[1] - 1))


def _fit(v: np.ndarray, n: np.ndarray) -> tuple[FProfile, np.ndarray]:
    """``fit_concave_profile`` of rows of sizes ``n``, each on its own grid l/n, and repeating its last past n."""
    grid = np.minimum(np.arange(v.shape[1]) / n[:, None], 1.0)
    hvals = v * v
    fit = _Pchip(grid, hvals / hvals[:, -1:], n)
    _concavity_root(1.0 - fit.slopes[np.arange(len(v)), n])  # H(1) - H'(1), as H(1) = 1
    # H'' is linear on each segment.  Where it turns from + to -, H - s H' (whose derivative is -s H'') has a minimum,
    # possibly close to 0, and R = sqrt(H - s H') a narrow dip there that a fixed rule resolves only at the end of a
    # piece: so each zero of H'' is a knot.
    c0, c1 = fit.table[:2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = -c1 / (3.0 * c0)
    inflections = np.where((u > 0) & (u < grid[:, 1:] - grid[:, :-1]), grid[:, :-1] + u, 1.0)
    knots = np.concatenate([grid[:, 1:-1], inflections], axis=1)
    return FProfile(fit, fit.on_grid, knots), np.sqrt(hvals[:, -1])


def roundtrip_check(a: WeightMatrix) -> EquivalenceReport:
    """``roundtrip_checks`` of one matrix."""
    return roundtrip_checks([a])[0]


def roundtrip_checks(matrices) -> list[EquivalenceReport]:
    """Compose the two constructions on each matrix and compare at the knot-value level.

    A smooth concave H is fitted to each row's knot values, the inverse
    construction makes a new matrix, and the report holds the least and
    largest ratio of its knot values to the original ones (only norm
    equivalence is claimed, so raw entries are not compared).  All rows of
    all matrices go in one pass, padded as in ``functions_from_matrices``,
    each on its own grid l/n and pieces, so each matrix gets the bits of its
    own call; if the pass fails, the first matrix that fails alone raises.
    The rebuilt matrices are checked together (``WeightMatrix.rows_pass``),
    and one by one, for the message of the first bad one, only on failure.
    """
    matrices = list(matrices)
    if not matrices:
        return []
    try:
        entries, n, ncols = WeightMatrix.padded(matrices)
        if (n != ncols).any():
            raise ValueError("needs a square matrix")
        sizes = np.repeat(n, n)  # each real row's own n
        v = _knot_values(entries[np.arange(entries.shape[1]) < n[:, None]], sizes)
        profile, scales = _fit(v, sizes)
        rebuilt = _interval_averages(profile, profile.h.x)  # over each row's own grid, 0 past it
        rebuilt *= scales[:, None]
        if not WeightMatrix.rows_pass(rebuilt, rebuilt[np.arange(len(rebuilt)), sizes - 1]):
            for rows, k in zip(np.split(rebuilt, np.cumsum(n)[:-1]), n):
                WeightMatrix(rows[:, :k])  # the first rebuilt matrix that is not a weight matrix raises
    except ValueError:
        for a in matrices if len(matrices) > 1 else ():  # the first that fails alone raises its own error
            roundtrip_check(a)
        raise
    ratios = _knot_values(rebuilt, sizes)[:, 1:] / v[:, 1:]  # past its own n a row repeats its last ratio
    first = np.cumsum(n) - n
    low, high = np.minimum.reduceat(ratios, first).min(axis=1), np.maximum.reduceat(ratios, first).max(axis=1)
    return [EquivalenceReport(lo, hi) for lo, hi in zip(low.tolist(), high.tolist())]
