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
integrals are taken in closed form; fitted (PCHIP) profiles go through
adaptive quadrature.  (Note the minus sign on
the integral term: it is forced by the reconstruction identity
H(t) = (int_0^t f)^2 + t int_t^1 f^2, since H'' = 2 f' (F - t f) and
sqrt(H - t H') = F - t f with F(t) = int_0^t f.)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .convex import (
    EquivalenceReport,
    MusielakSystem,
    PiecewiseAffineConvex,
    PowerFunction,
)
from .perms import WeightMatrix

__all__ = [
    "ConstructionConfig",
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


@dataclass(frozen=True)
class ConstructionConfig:
    """Quadrature / differentiation parameters for the inverse construction."""

    n: int = 4
    quad_tol: float = 1e-9
    quad_limit: int = 200
    fd_step: float = 1e-5
    t_min: float | None = None  # singularity cutoff; defaults to 1e-6 / n

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be positive")
        if self.quad_tol <= 0:
            raise ValueError("quadrature tolerance must be positive")
        tmin = self.cutoff
        if not 0 < tmin < 1.0 / self.n:
            raise ValueError("cutoff must lie in (0, 1/n)")

    @property
    def cutoff(self) -> float:
        return self.t_min if self.t_min is not None else 1e-6 / self.n


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
    grid = np.arange(n + 1) / n
    funcs = []
    for i in range(n):
        inc = np.diff(v[i])
        if np.any(inc <= 0):
            raise ConstructionError(f"row {i}: knot values are not strictly increasing")
        if np.any(np.diff(inc) > 1e-12 * v[i, -1]):
            raise ConstructionError(f"row {i}: knot values are not concave")
        mstar = PiecewiseAffineConvex(v[i], grid, (1.0 / n) / inc[-1])
        funcs.append(mstar.conjugate())
    return MusielakSystem(tuple(funcs))


# ---------------------------------------------------------------------------
# the profile f attached to H = (M^{*-1})^2


def quad(fun, lo, hi, **kwargs):
    """``scipy.integrate.quad``, imported on first use: only fitted profiles integrate."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(fun, lo, hi, **kwargs)


def _richardson_d1(h, t, step):
    d = lambda s: (h(t + s) - h(t - s)) / (2 * s)
    return (4 * d(step / 2) - d(step)) / 3


def _richardson_d2(h, t, step):
    d = lambda s: (h(t + s) - 2 * h(t) + h(t - s)) / s**2
    return (4 * d(step / 2) - d(step)) / 3


class FProfile:
    """The profile f of a concave increasing H on [0, 1] with H(0) = 0.

    ``h`` is the function itself; ``dh``/``d2h`` are optional analytic
    derivatives (central finite differences with one Richardson refinement
    are used when absent).  Values of f are computed by adaptive quadrature
    of H''(s)/sqrt(H(s) - s H'(s)); partial integrals are anchored at a
    dyadic cache so repeated evaluations near 0 stay cheap.
    """

    def __init__(self, h, dh=None, d2h=None, config: ConstructionConfig | None = None):
        self.h = h
        self.config = config or ConstructionConfig()
        step = self.config.fd_step
        self.dh = dh if dh is not None else (lambda t: _richardson_d1(h, t, min(step, t / 2)))
        self.d2h = d2h if d2h is not None else (lambda t: _richardson_d2(h, t, min(step, t / 2)))
        h1 = float(h(1.0))
        dh1 = float(self.dh(1.0))
        rad = h1 - dh1
        if rad < -1e-12:
            raise ConstructionError("H(1) - H'(1) is negative: H is not concave")
        self.boundary = math.sqrt(h1) - math.sqrt(max(rad, 0.0))
        self._anchors = {0: 0.0}  # k -> int_{2^-k}^1 of the integrand

    def _integrand(self, s: float) -> float:
        d2 = float(self.d2h(s))
        # curvature at rounding level (e.g. an interpolant of collinear data)
        # counts as zero rather than tripping the concavity guard
        if abs(d2) <= 1e-8:
            return 0.0
        rad = float(self.h(s)) - s * float(self.dh(s))
        if rad <= 0.0:
            raise ConstructionError(f"H(s) - s H'(s) <= 0 at s = {s}: concavity hypothesis fails")
        return d2 / math.sqrt(rad)

    def _quad(self, fun, lo, hi):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val, _ = quad(fun, lo, hi, epsabs=self.config.quad_tol, limit=self.config.quad_limit)
        return val

    def _tail_integral(self, t: float) -> float:
        """int_t^1 H''/sqrt(H - s H') ds via the dyadic anchor cache."""
        if t >= 1.0:
            return 0.0
        k = max(0, math.ceil(-math.log2(t)) if t > 0 else 0)
        if t <= 0:
            raise ValueError("t must be positive")
        while max(self._anchors) < k:
            kk = max(self._anchors)
            self._anchors[kk + 1] = self._anchors[kk] + self._quad(
                self._integrand, 2.0 ** -(kk + 1), 2.0**-kk
            )
        anchor = 2.0**-k
        if anchor < t:  # t in (2^-k, 2^-(k-1)]: integrate down from the anchor above
            k -= 1
            anchor = 2.0**-k
        return self._anchors[k] + self._quad(self._integrand, t, anchor)

    def value(self, t: float) -> float:
        """f(t) for t in (0, 1]; nonnegative and nonincreasing."""
        if not 0 < t <= 1:
            raise ValueError("t must lie in (0, 1]")
        val = self.boundary - 0.5 * self._tail_integral(t)
        if val < -1e-7:
            raise ConstructionError(f"profile negative at t = {t}: invalid H")
        return max(val, 0.0)

    def integral(self, lo: float, hi: float) -> float:
        """int_lo^hi f(t) dt with a power-law cutoff below t_min.

        On [0, t_min] the profile is extrapolated by the power law fitted on
        [t_min, 2 t_min]; the fitted exponent must exceed -1 (finiteness of
        the integral).
        """
        if not 0 <= lo <= hi <= 1:
            raise ValueError("need 0 <= lo <= hi <= 1")
        tmin = self.config.cutoff
        total = 0.0
        if lo < tmin:
            f1, f2 = self.value(tmin), self.value(2 * tmin)
            if f1 <= 0 or f2 <= 0:
                gamma, c = 0.0, f1
            else:
                gamma = math.log(f1 / f2) / math.log(2.0) * -1.0
                c = f1 / tmin**gamma
            if gamma <= -1:
                raise ConstructionError("profile tail is not integrable at 0")
            top = min(hi, tmin)
            total += c * (top ** (gamma + 1) - lo ** (gamma + 1)) / (gamma + 1)
            lo = top
        if hi <= lo:
            return total
        # integration by parts keeps the quadrature single-level: with g the
        # curvature integrand, f' = g/2, so
        #     int_lo^hi f = hi f(hi) - lo f(lo) - (1/2) int_lo^hi t g(t) dt.
        # The g-integral is split dyadically toward 0, where g can blow up
        # like a power and a single adaptive pass loses accuracy silently.
        total += hi * self.value(hi) - lo * self.value(lo)
        part = 0.0
        while hi > lo:
            cut = max(lo, 2.0 ** math.floor(math.log2(hi) - 1e-12))
            if cut >= hi:
                cut = max(lo, hi / 2.0)
            part += self._quad(lambda t: t * self._integrand(t), cut, hi)
            hi = cut
        return total - 0.5 * part

    def integral_sq(self, lo: float, hi: float) -> float:
        """int_lo^hi f(t)^2 dt (no singularity handling needed for lo > 0)."""
        if hi <= lo:
            return 0.0
        return self._quad(lambda t: self.value(t) ** 2, lo, hi)


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


def power_profile(p: float, config: ConstructionConfig | None = None) -> FProfile:
    """FProfile of the normalized power function: H(t) = t^alpha, alpha = 2/q."""
    q = p / (p - 1.0)
    alpha = 2.0 / q
    h = lambda t: t**alpha
    dh = lambda t: alpha * t ** (alpha - 1.0)
    d2h = lambda t: alpha * (alpha - 1.0) * t ** (alpha - 2.0)
    return FProfile(h, dh, d2h, config)


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


def matrix_from_profiles(profiles, n: int, config: ConstructionConfig | None = None) -> WeightMatrix:
    """Weight matrix with rows a_{i,j} = n * int_{(j-1)/n}^{j/n} f_i(s) ds."""
    config = config or ConstructionConfig(n=n)
    edges = np.arange(n + 1) / n
    rows = np.empty((len(profiles), n))
    for i, prof in enumerate(profiles):
        for j in range(n):
            rows[i, j] = n * prof.integral(edges[j], edges[j + 1])
    return WeightMatrix(rows)


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
    """Max grid error of H(t) = (int_0^t f)^2 + t int_t^1 f^2."""
    if grid is None:
        grid = np.linspace(1.0 / 64, 1.0, 64)
    worst = 0.0
    for t in np.asarray(grid, dtype=float):
        lhs = float(profile.h(t))
        head = profile.integral(0.0, t)
        tail = profile.integral_sq(t, 1.0)
        worst = max(worst, abs(lhs - (head**2 + t * tail)))
    return worst


# ---------------------------------------------------------------------------
# round trip


def fit_concave_profile(knot_values: np.ndarray, config: ConstructionConfig) -> tuple[FProfile, float]:
    """Smooth monotone fit of H through (l/n, v_l^2), normalized to H(1) = 1.

    Returns the profile of the normalized fit and the scale sqrt(H(1)) that
    converts its outputs back to the original size.  Uses a monotone
    piecewise-cubic (PCHIP) interpolant, which reproduces the linear case
    exactly and preserves monotonicity for concave data.
    """
    v = np.asarray(knot_values, dtype=float)
    n = len(v) - 1
    from scipy.interpolate import PchipInterpolator

    grid = np.arange(n + 1) / n
    hvals = v**2
    scale = math.sqrt(hvals[-1])
    interp = PchipInterpolator(grid, hvals / hvals[-1])
    d1 = interp.derivative()
    d2 = interp.derivative(2)
    prof = FProfile(lambda t: float(interp(t)), lambda t: float(d1(t)), lambda t: float(d2(t)), config)
    return prof, scale


def roundtrip_check(a: WeightMatrix, config: ConstructionConfig | None = None) -> EquivalenceReport:
    """Compose the two constructions and compare at the knot-value level.

    The matrix is turned into knot values, a smooth concave H is fitted per
    row, the inverse construction produces a new matrix, and the report
    collects the ratios of reconstructed to original knot values (only norm
    equivalence is claimed, so raw matrix entries are not compared).
    """
    if not a.is_square:
        raise ValueError("needs a square matrix")
    n = a.n
    config = config or ConstructionConfig(n=n)
    v = conjugate_inverse_knots(a)
    profiles, scales = zip(*(fit_concave_profile(v[i], config) for i in range(n)))
    unit = matrix_from_profiles(profiles, n, config)
    rebuilt = WeightMatrix(unit.entries * np.array(scales)[:, None])
    v2 = conjugate_inverse_knots(rebuilt)
    ratios = (v2[:, 1:] / v[:, 1:]).ravel()
    return EquivalenceReport(
        float(ratios.min()), float(ratios.max()), ratios, ratios.size, f"roundtrip n={n}"
    )
