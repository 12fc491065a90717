import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from orlicz import PiecewiseAffineConvex, PowerFunction
from scipy.interpolate import PchipInterpolator, PPoly

from musielak.construct import (
    ConstructionError,
    FProfile,
    _interval_averages,
    _Pchip,
    conjugate_inverse_knots,
    fit_concave_profile,
    functions_from_matrix,
    h_reconstruct_check,
    matrix_from_functions,
    matrix_from_profiles,
    power_profile,
    power_profile_value,
    power_system,
    roundtrip_check,
    roundtrip_checks,
    rows_from_knots,
)
from musielak.convex import MusielakSystem
from musielak.perms import WeightMatrix, prefix_sum_system

rng = np.random.default_rng(424242)


def analytic_profile_integral(p, lo, hi):
    """Closed-form antiderivative of the power-family profile."""
    q = p / (p - 1.0)
    alpha = 2.0 / q
    beta = alpha / 2.0
    A = 1.0 - math.sqrt(1.0 - alpha)
    B = beta * math.sqrt(1.0 - alpha) / (1.0 - beta)
    F = lambda t: (A - B) * t + B * t**beta / beta
    return F(hi) - F(lo)


def integral(prof, lo, hi):
    """int_lo^hi f, per row for a profile of several rows: the width times the average over [lo, hi]."""
    out = (hi - lo) * _interval_averages(prof, [lo, hi])[:, 0]
    return (out[0] if prof.rows == 1 else out)[()]


def random_matrix(n):
    return WeightMatrix(np.sort(rng.uniform(0.05, 1, (n, n)), axis=1)[:, ::-1])


def power_matrix(exponents):
    n = len(exponents)
    return matrix_from_functions(power_system(exponents))


def quad_fitted_row(knot_values):
    """Oracle: the averages over [(j-1)/n, j/n] of the profile of the PCHIP fit of H = v^2.

    Scalar adaptive quadrature of
        int_a^b f = (b - a) f(1) - (1/2) int_a^1 g(s) (min(s, b) - a) ds,
    g = H''/sqrt(H - s H'), with a break at every knot; H is normalized to
    H(1) = 1 as in ``fit_concave_profile``, and f(1) = sqrt(H(1)) - sqrt(H(1) - H'(1)),
    the root taken as 0 where H(1) - H'(1) <= 1e-14 H(1) (a linear H, up to rounding).
    Its own cutoff |H''| <= 1e-8 makes it about 1e-4 off where leading entries
    nearly tie (ratios 1 - 1e-9 to 1 - 1e-3), where g is a narrow bump.
    """
    n = len(knot_values) - 1
    grid = np.arange(n + 1) / n
    h = np.asarray(knot_values, dtype=float) ** 2
    fit = PchipInterpolator(grid, h / h[-1])
    d1, d2 = fit.derivative(), fit.derivative(2)
    # on the first piece H'' = a + b s and H(0) = 0, so H - s H' is
    # -(a s^2 / 2 + b s^3 / 3); fit(s) - s d1(s) would cancel to 0 near 0
    a0, b0 = float(d2(0.0)), float(fit.derivative(3)(0.0))

    def g(s):
        curvature = float(d2(s))
        if abs(curvature) <= 1e-8:
            return 0.0
        if s < grid[1]:
            return curvature / math.sqrt(-(a0 * s**2 / 2 + b0 * s**3 / 3))
        return curvature / math.sqrt(float(fit(s)) - s * float(d1(s)))

    h1 = float(fit(1.0))
    rad1 = h1 - float(d1(1.0))
    f1 = math.sqrt(h1) - (math.sqrt(rad1) if rad1 > 1e-14 * h1 else 0.0)
    row = []
    for a, b in zip(grid[:-1], grid[1:]):
        knots = [x for x in grid if a < x < 1] or None
        with warnings.catch_warnings():
            # QUADPACK reports roundoff near 1e-12 on rows where g has a steep
            # bump; the comparison at 1e-10 is the check
            warnings.simplefilter("ignore", IntegrationWarning)
            part, _ = quad(
                lambda s: g(s) * (min(s, b) - a), a, 1.0, points=knots, epsabs=0.0, epsrel=1e-12, limit=200
            )
        row.append(f1 - 0.5 * part / (b - a))
    return np.array(row)


def scipy_fit_concave_profile(knot_values):
    """Oracle: one row's scipy PCHIP fit of H = v^2 normalized to H(1) = 1, as a profile, and its scale."""
    v = np.asarray(knot_values, dtype=float)
    n = len(v) - 1
    grid = np.arange(n + 1) / n
    hvals = v**2
    fit = PchipInterpolator(grid, hvals / hvals[-1])
    c, x = fit.c, fit.x[:-1]
    radicand = PPoly(np.stack([-2 * c[0], -c[1] - 3 * x * c[0], -2 * x * c[1], c[3] - x * c[2]]), fit.x)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = -c[1] / (3.0 * c[0])
    knots = np.union1d(grid[1:-1], (x + u)[(u > 0) & (u < np.diff(fit.x))])
    prof = FProfile(fit, lambda s: (radicand(s), fit(s)), knots)
    return prof, math.sqrt(hvals[-1])


class TestKnotValues:
    def test_constant_matrix_identity(self):
        # all-ones matrix: (l/n)^2 + (l/n)(n-l)/n collapses to l/n
        for n in [1, 2, 5, 16]:
            v = conjugate_inverse_knots(WeightMatrix(np.ones((n, n))))
            expected = np.sqrt(np.arange(n + 1) / n)
            np.testing.assert_allclose(v, np.tile(expected, (n, 1)), atol=1e-13)

    def test_scaled_constant(self):
        v = conjugate_inverse_knots(WeightMatrix(np.full((4, 4), 2.5)))
        np.testing.assert_allclose(v, 2.5 * np.sqrt(np.tile(np.arange(5) / 4, (4, 1))), atol=1e-13)

    def test_last_knot_is_row_mean(self):
        a = random_matrix(5)
        v = conjugate_inverse_knots(a)
        np.testing.assert_allclose(v[:, -1], a.entries.mean(axis=1), rtol=1e-13)

    def test_hand_example(self):
        a = WeightMatrix(np.array([[2.0, 1.0], [2.0, 1.0]]))
        v = conjugate_inverse_knots(a)
        np.testing.assert_allclose(v[0], [0.0, math.sqrt(1.25), 1.5], rtol=1e-14)


class TestRowsFromKnots:
    """The exact discrete inverse is an oracle for ``conjugate_inverse_knots``."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_random_rows_recovered(self, n):
        for _ in range(20):
            a = random_matrix(n)
            np.testing.assert_allclose(rows_from_knots(conjugate_inverse_knots(a)), a.entries, rtol=1e-9)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_power_rows_recovered(self, n):
        a = power_matrix(np.linspace(1.05, 1.95, n))
        np.testing.assert_allclose(rows_from_knots(conjugate_inverse_knots(a)), a.entries, rtol=1e-12)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_tied_entries_recovered_exactly(self, n):
        # where leading entries tie, the intercepts are 0 up to rounding
        assert np.all(rows_from_knots(conjugate_inverse_knots(WeightMatrix(np.ones((n, n))))) == 1.0)
        a = WeightMatrix(np.tile([3.0] * (n - n // 2) + [0.5] * (n // 2), (n, 1)))
        np.testing.assert_allclose(rows_from_knots(conjugate_inverse_knots(a)), a.entries, rtol=1e-13)

    def test_hand_example(self):
        v = conjugate_inverse_knots(WeightMatrix(np.array([[2.0, 1.0], [2.0, 1.0]])))
        np.testing.assert_allclose(rows_from_knots(v[0]), [[2.0, 1.0]], rtol=1e-15)


class TestPchip:
    """The numpy PCHIP against scipy's ``PchipInterpolator``."""

    @staticmethod
    def d2(fit, s):
        """H'' of every row at each s, from the coefficients of its segment."""
        s = np.asarray(s, dtype=float)[None]
        k = fit._segments(s)
        c0, c1 = (np.take_along_axis(c, k, axis=1) for c in fit.table[:2])
        return 6.0 * c0 * (s - np.take_along_axis(fit.x, k, axis=1)) + 2.0 * c1

    @classmethod
    def check(cls, y):
        """The slopes, H and H'' against scipy, H and H' at x[-1] included."""
        x = np.arange(y.shape[1]) / (y.shape[1] - 1)
        fit = _Pchip(x, y)
        ref = PchipInterpolator(x, y, axis=1)
        s = np.concatenate([x, rng.uniform(0.0, 1.0, 40)])
        np.testing.assert_allclose(fit.slopes, ref.derivative()(x), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(fit(s), ref(s), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(cls.d2(fit, s), ref.derivative(2)(s), rtol=1e-13, atol=1e-13)
        return fit

    @pytest.mark.parametrize("points", range(2, 18))
    def test_random_rows(self, points):
        steps = rng.uniform(0.01, 1.0, (4, points))
        steps[0, points // 2] = 0.0  # a flat step: slopes 0 beside it
        self.check(np.cumsum(steps, axis=1))  # increasing
        self.check(rng.normal(size=(3, points)))  # sign changes: the shape-preserving end slopes

    @pytest.mark.parametrize("points", range(2, 18))
    def test_collinear_rows_are_lines(self, points):
        x = np.arange(points) / (points - 1)
        fit = self.check(np.stack([2.0 + 3.0 * x, x, 0.5 - x]))
        assert np.max(np.abs(self.d2(fit, rng.uniform(0.0, 1.0, 40)))) < 1e-12

    def test_curvature_on_a_grid_matches_pointwise(self):
        # the grid path finds each piece's segment once; scipy and the pointwise sums search for every node
        fitted = conjugate_inverse_knots(power_matrix(np.linspace(1.1, 1.9, 7))) ** 2
        for y in [fitted, np.random.default_rng(6).normal(size=(5, 7))]:
            x = np.arange(y.shape[1]) / (y.shape[1] - 1)
            fit = _Pchip(x, y)
            breaks = np.union1d(x, [0.03, 0.3, 0.61])
            s = breaks[:-1, None] + np.diff(breaks)[:, None] * np.linspace(0.0, 1.0, 41)
            rad, h = fit.on_grid(s)
            assert rad.shape == h.shape == (len(y), *s.shape)
            inner = s[:, 1:-1]  # the ends of a piece may be evaluated from the next segment
            k = np.searchsorted(x[1:-1], inner, side="right")
            ref = PchipInterpolator(x, y, axis=1)
            np.testing.assert_allclose(h[:, :, 1:-1], ref(inner), rtol=1e-13, atol=1e-13)
            r0, r1, r2, r3 = fit.radicand[:, :, k]
            u = inner - x[k]
            np.testing.assert_allclose(rad[:, :, 1:-1], r3 + r2 * u + r1 * u**2 + r0 * u**3, rtol=1e-13)

    def test_two_points_linear(self):
        fit = self.check(np.array([[0.0, 1.0], [1.0, 3.0]]))
        np.testing.assert_array_equal(fit.slopes, [[1.0, 1.0], [2.0, 2.0]])
        assert np.all(self.d2(fit, np.linspace(0, 1, 9)) == 0.0)


class TestFunctionsFromMatrix:
    def test_conjugate_interpolates_knots(self):
        a = random_matrix(4)
        v = conjugate_inverse_knots(a)
        system = functions_from_matrix(a)
        # M_i*(v_{i,l}) = sup_s (s v_{i,l} - M_i(s)) = l/n, the sup attained at a kink of M_i: 0 or a slope of M_i*
        kinks = np.hstack([np.zeros((4, 1)), 0.25 / np.diff(v, axis=1)])
        value, _ = system._terms(kinks)(np.ones(5))
        for i in range(4):
            m = PiecewiseAffineConvex(system.knots[i], system.values[i], system.bounds[i]).conjugate()
            np.testing.assert_allclose(value[i], m(kinks[i]), rtol=1e-13)
            for ell in range(1, 5):
                assert np.max(kinks[i] * v[i, ell] - value[i]) == pytest.approx(ell / 4, rel=1e-10)
                assert m.conjugate().inverse(ell / 4) == pytest.approx(v[i, ell], rel=1e-10)

    def test_shape(self):
        assert functions_from_matrix(random_matrix(3)).n == 3

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            conjugate_inverse_knots(WeightMatrix(np.ones((2, 3))))


class TestFProfile:
    def test_degenerate_linear(self):
        prof = FProfile(lambda t: t, lambda s: (0.0, s))
        for t in [0.01, 0.3, 1.0]:
            assert prof.value(t) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_value(self):
        # at t = 1 the integral term vanishes
        prof = power_profile(1.5)
        alpha = 2.0 / 3.0
        assert prof.value(1.0) == pytest.approx(1 - math.sqrt(1 - alpha), abs=1e-12)

    def test_matches_analytic_power_family(self):
        for p in [1.2, 1.5, 1.8]:
            prof = power_profile(p)
            for t in [0.003, 0.05, 0.4, 0.9]:
                assert prof.value(t) == pytest.approx(float(power_profile_value(p, t)), rel=1e-9)

    def test_nonneg_nonincreasing(self):
        prof = power_profile(1.4)
        grid = np.linspace(1e-3, 1.0, 256)
        vals = np.array([prof.value(t) for t in grid])
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_value_on_arrays(self):
        prof = power_profile(1.3)
        t = np.array([[1e-9, 0.01], [0.5, 1.0]])
        vals = prof.value(t)
        assert vals.shape == t.shape
        np.testing.assert_allclose(vals, [[prof.value(x) for x in r] for r in t], rtol=1e-13)
        np.testing.assert_allclose(vals, power_profile_value(1.3, t), rtol=1e-13)

    def test_integral_next_to_zero(self):
        # no cutoff: the closed form takes the piece next to 0, however short
        for p in [1.01, 1.5, 1.99]:
            prof = power_profile(p)
            for hi in [1e-12, 1e-6, 1e-3, 0.3]:
                assert integral(prof, 0.0, hi) == pytest.approx(analytic_profile_integral(p, 0.0, hi), rel=1e-12)

    @pytest.mark.parametrize("p", [1.01, 1.5, 1.99])
    def test_integral_inside_one_piece(self, p):
        # the pieces below lo and past hi drop out of the sums; [0.25, 0.5] is one piece
        prof = power_profile(p)
        for lo, hi in [(0.3, 0.4), (0.26, 0.49), (0.6, 0.7), (0.01, 0.011), (0.0, 0.2), (0.0, 0.7)]:
            assert integral(prof, lo, hi) == pytest.approx(analytic_profile_integral(p, lo, hi), rel=1e-12)

    def test_fitted_integral_below_the_first_knot(self):
        prof, _ = fit_concave_profile(conjugate_inverse_knots(power_matrix([1.2, 1.5, 1.8, 1.4])))
        for hi in [1e-9, 0.01, 0.1, 0.2]:  # the first knot is 1/4
            split = integral(prof, 0.0, hi) + integral(prof, hi, 0.25)
            np.testing.assert_allclose(split, integral(prof, 0.0, 0.25), rtol=1e-13)

    def test_guard_inside_the_piece_next_to_zero(self):
        # H - s H' <= 0 only on (0, 0.1) of row 1, inside the first piece [0, 1/4] of the averages
        def radicand(s):  # on a (rows, pieces, nodes) grid
            rad = 0.5 * np.sqrt(s)
            return np.stack([rad[0], np.where(s[1] < 0.1, -rad[1], rad[1])]), np.sqrt(s)

        prof = FProfile(lambda s: np.stack([np.sqrt(s)] * 2), radicand)
        assert np.all(prof.value(0.2) > 0)  # the pieces from 0.2 on pass
        with pytest.raises(ConstructionError, match=r"^row 1: H\(s\) - s H'\(s\) <= 0 at s = "):
            matrix_from_profiles(prof, 4)
        with pytest.raises(ConstructionError, match=r"^row 1: "):
            integral(prof, 0.0, 0.05)

    def test_convex_h_rejected_at_construction(self):
        # H = t^2: the fit through its knots has H'(1) = 2, and the power profile of p = 2.5 is t^1.2
        with pytest.raises(ConstructionError, match=r"^row 0: H\(1\) - H'\(1\) is negative"):
            fit_concave_profile([0.0, 0.5, 1.0])
        with pytest.raises(ConstructionError, match=r"^row 0: H\(1\) - H'\(1\) is negative"):
            power_profile(2.5)

    def test_interior_convexity_violation_detected(self):
        # H = s^2: H - s H' = -s^2 < 0 inside
        prof = FProfile(lambda s: s * s, lambda s: (-s * s, s * s))
        with pytest.raises(ConstructionError):
            prof.value(0.5)

    @pytest.mark.parametrize("p", [1.0, 0.5, -2.0, math.nan, math.inf])
    def test_power_profile_needs_a_finite_p_above_one(self, p):
        with pytest.raises(ValueError, match=r"^p must be a finite number above 1"):
            power_profile(p)

    @pytest.mark.parametrize("p", [1.0, 0.5, -2.0, math.nan, math.inf])
    def test_power_profile_value_needs_a_finite_p_above_one(self, p):
        # the closed form returned a negative "profile" at p = 0.5, zeros at 1 and nan at nan
        with pytest.raises(ValueError, match=rf"^p must be a finite number above 1, got {p}$"):
            power_profile_value(p, [0.25, 0.5, 1.0])
        with pytest.raises(ConstructionError, match=r"^row 0: H\(1\) - H'\(1\) is negative"):
            power_profile_value(2.5, [0.25, 0.5, 1.0])

    def test_value_needs_some_t(self):
        with pytest.raises(ValueError, match=r"^t must be nonempty"):
            power_profile(1.5).value([])


class TestMatrixFromFunctions:
    def test_degenerate_gives_ones(self):
        # H(t) = t, i.e. M*(x) = x^2, M(t) = t^2/4
        system = MusielakSystem.powers([2.0] * 3, [0.25] * 3)
        a = matrix_from_functions(system)
        np.testing.assert_allclose(a.entries, np.ones((3, 3)), atol=1e-9)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_flat_profile_rows_tie_exactly(self, n):
        # interval widths of arange(n + 1) / n differ by rounding; the rows
        # of a flat profile must still be nonincreasing
        a = matrix_from_functions(MusielakSystem.powers([2.0] * n, [0.25] * n))
        assert np.all(a.entries == a.entries[0, 0]) and a.entries[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [1.01, 1.15, 1.2, 1.5, 1.8, 1.85, 1.99])
    def test_closed_form_matches_quadrature(self, p):
        prof = power_profile(p)
        for n in range(2, 17):
            a = matrix_from_functions(power_system([p] * n))
            quadrature = [n * integral(prof, j / n, (j + 1) / n) for j in range(n)]
            np.testing.assert_allclose(a.entries[0], quadrature, rtol=1e-12)
            rows = matrix_from_profiles(prof, n).entries[0]
            np.testing.assert_allclose(a.entries[0], rows, rtol=1e-12)

    def test_rows_match_the_per_row_closed_form(self):
        # one broadcast over all rows does each row's scalar arithmetic, so the bits are the same
        draw = np.random.default_rng(17)
        for n in range(1, 17):
            ps = draw.uniform(1.01, 1.99, n)
            a = matrix_from_functions(power_system(ps))
            for p, row in zip(ps, a.entries):
                beta = (p - 1.0) / p
                r = math.sqrt(1.0 - 2.0 * beta)
                A, B = 1.0 - r, beta * r / (1.0 - beta)
                expected = (A - B) + (n * B / beta) * np.diff((np.arange(n + 1) / n) ** beta)
                np.testing.assert_array_equal(row, expected)

    def test_p_above_two_rejected(self):
        with pytest.raises(ConstructionError, match="not concave"):
            matrix_from_functions(MusielakSystem.powers([2.5] * 3, [1.0] * 3))

    def test_power_family_against_analytic(self):
        n, p = 4, 1.5
        system = power_system([p] * n)
        a = matrix_from_functions(system)
        expected = np.array([n * analytic_profile_integral(p, j / n, (j + 1) / n) for j in range(n)])
        np.testing.assert_allclose(a.entries, np.tile(expected, (n, 1)), rtol=1e-12)

    def test_rows_positive_nonincreasing(self):
        system = power_system([1.2, 1.5, 1.8, 1.3, 1.7])
        a = matrix_from_functions(system)
        assert np.all(a.entries > 0)
        assert np.all(np.diff(a.entries, axis=1) <= 0)

    def test_rejects_pwa_members(self):
        a = random_matrix(3)
        for system in (functions_from_matrix(a), prefix_sum_system(a)):
            with pytest.raises(TypeError, match="needs power functions"):
                matrix_from_functions(system)


class TestReconstructionIdentity:
    def test_degenerate_exact(self):
        prof = FProfile(lambda t: t, lambda s: (0.0, s))
        assert h_reconstruct_check(prof) <= 1e-12

    def test_power_family(self):
        for p in [1.2, 1.5, 1.8]:
            assert h_reconstruct_check(power_profile(p)) <= 1e-6

    def test_fitted_row(self):
        # the fit's H is the pointwise evaluation of the PCHIP here
        v = conjugate_inverse_knots(power_matrix([1.17, 1.4, 1.77, 1.17]))
        assert h_reconstruct_check(fit_concave_profile(v[1])[0]) <= 1e-12

    def test_several_rows_rejected(self):
        # the tail sums would run over the flattened rows
        prof, _ = fit_concave_profile(conjugate_inverse_knots(power_matrix([1.2, 1.5, 1.8])))
        assert prof.rows == 3
        with pytest.raises(ValueError, match=r"^profile has 3 rows"):
            h_reconstruct_check(prof)

    def test_identity_at_one(self):
        # H(1) = (int_0^1 f)^2
        prof = power_profile(1.6)
        assert integral(prof, 0.0, 1.0) ** 2 == pytest.approx(1.0, abs=1e-6)

    def test_oracle_cross_check(self):
        # both sides from the analytic profile, independent quadrature
        p, t = 1.5, 0.37
        alpha = 2.0 * (p - 1.0) / p
        head = analytic_profile_integral(p, 0.0, t)
        tail, _ = quad(lambda s: float(power_profile_value(p, s)) ** 2, t, 1.0)
        assert head**2 + t * tail == pytest.approx(t**alpha, abs=1e-9)


def power_members(system):
    """The M_i of a power system, as reference functions."""
    return [PowerFunction(p, c) for p, c in zip(system.p.tolist(), system.scale.tolist())]


class TestPowerOrlicz:
    def test_conjugate_exponent(self):
        (m,) = power_members(power_system([1.5]))
        assert m.conjugate().p == pytest.approx(3.0)

    def test_normalization(self):
        for m in power_members(power_system([1.2, 1.5, 1.8])):
            assert m.conjugate()(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_strict_two_concavity(self):
        # t -> M(sqrt t) = scale t^(p/2) has strictly negative second differences
        t = np.linspace(0.01, 100, 1000)
        for m in power_members(power_system([1.2, 1.5, 1.99])):
            assert np.all(np.diff(m(np.sqrt(t)), 2) < 0)

    def test_out_of_range(self):
        for exponents, index in [([2.5], 0), ([1.5, 1.0], 1), ([1.5, 1.2, 2.0], 2)]:
            with pytest.raises(ValueError, match=rf"^exponents\[{index}\] = "):
                power_system(exponents)

    def test_scales_have_the_bits_of_the_scalar_formula(self):
        ps = np.random.default_rng(5).uniform(1.01, 1.99, 2000).tolist()
        system = power_system(ps)
        assert system.p.tolist() == ps
        for p, scale in zip(ps, system.scale.tolist()):
            q = p / (p - 1.0)
            assert scale == q ** (1.0 - p) / p

    def test_h_strictly_concave(self):
        # (M*^{-1})^2 = t^(2/q) has strictly negative second differences
        for p in [1.2, 1.8]:
            q = p / (p - 1.0)
            grid = np.linspace(0.01, 1, 100)
            h = grid ** (2.0 / q)
            assert np.all(np.diff(h, 2) < 0)


class TestRoundtrip:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_constant_fixed_point(self, n):
        # linear H: H - s H' is 0 up to rounding and counts as 0, so every average is exactly 1
        rep = roundtrip_check(WeightMatrix(np.ones((n, n))))
        assert rep.c_low == rep.c_high == 1.0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_constant_rows_tie_exactly(self, n):
        # the refitted rows of a constant matrix must still be nonincreasing
        # although the interval widths of arange(n + 1) / n differ by rounding
        rep = roundtrip_check(WeightMatrix(np.ones((n, n))))
        assert rep.c_low == pytest.approx(1.0, abs=1e-7)
        assert rep.c_high == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize(
        "n,constants",
        [
            (4, (0.9986862922197925, 1.0)),
            (6, (0.9986805625715295, 1.0)),
            (8, (0.9986774024123389, 1.0)),
        ],
    )
    def test_power_constants_are_pinned(self, n, constants):
        # the exponents cycle over the rows, as in the roundtrip command
        rep = roundtrip_check(power_matrix(([1.17, 1.4, 1.77] * 3)[:n]))
        assert (rep.c_low, rep.c_high) == constants

    def test_power_family_band(self):
        a = matrix_from_functions(power_system([1.2, 1.5, 1.8]))
        rep = roundtrip_check(a)
        assert 0.25 <= rep.c_low <= rep.c_high <= 4.0
        assert rep.spread == rep.c_high / rep.c_low


class TestStackedRoundtrip:
    """``roundtrip_checks`` fits and integrates every row of every matrix in one padded pass."""

    def test_stack_has_the_bits_of_one_matrix_calls(self):
        # unsorted sizes with n = 1, n = 12 and a repeated n: every row keeps its own grid and pieces
        draw = np.random.default_rng(32)
        matrices = [power_matrix(draw.uniform(1.05, 1.95, n)) for n in (5, 1, 12, 3, 5, 8)]
        matrices += [WeightMatrix(np.ones((1, 1))), WeightMatrix(np.ones((4, 4)))]
        stacked = [(rep.c_low, rep.c_high) for rep in roundtrip_checks(matrices)]
        assert stacked == [(rep.c_low, rep.c_high) for rep in map(roundtrip_check, matrices)]
        assert roundtrip_checks(iter(matrices[:1]))[0] == roundtrip_check(matrices[0])
        assert roundtrip_checks([]) == []

    def test_first_failing_matrix_raises_its_own_error(self):
        good = [power_matrix([1.2, 1.5, 1.8]), WeightMatrix(np.ones((2, 2)))]
        # the fit of [1, 1, 0.5] fails the concavity guard: in row 1 of one matrix, row 0 of the other
        row1 = WeightMatrix(np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.5], [1.0, 1.0, 0.5]]))
        row0 = WeightMatrix(np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]))
        wide = WeightMatrix(np.ones((2, 3)))
        stacks = [([good[0], row1, good[1], row0], row1), ([good[1], row0, row1], row0), ([row0, wide], row0)]
        for stack, culprit in stacks + [([good[0], wide, row1], wide)]:
            with pytest.raises(ValueError) as alone:
                roundtrip_check(culprit)
            with pytest.raises(type(alone.value), match=f"^{re.escape(str(alone.value))}$"):
                roundtrip_checks(stack)
        with pytest.raises(ConstructionError, match=r"^row 1: H\(s\) - s H'\(s\) <= 0 at s = "):
            roundtrip_check(row1)

    @pytest.mark.parametrize("kind", ["near-tie", "log-uniform"])
    def test_fitted_rows_match_scalar_quadrature(self, kind):
        # beside the hypothesis test: entries within 10% of each other, and entries spread over three decades
        draw = np.random.default_rng(9)
        compared = 0
        for n in range(2, 9):
            for _ in range(3):
                if kind == "near-tie":
                    entries = draw.uniform(0.9, 1.0, (n, n))
                else:
                    entries = 10.0 ** draw.uniform(-3.0, 0.0, (n, n))
                for v in conjugate_inverse_knots(WeightMatrix(np.sort(entries, axis=1)[:, ::-1])):
                    try:
                        row = matrix_from_profiles(fit_concave_profile(v)[0], n).entries[0]
                    except ValueError:  # most random rows fail a guard of the fit, as in the hypothesis test
                        continue
                    np.testing.assert_allclose(row, quad_fitted_row(v), rtol=1e-10)
                    compared += 1
        assert compared >= 20


class TestBatchedFit:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_roundtrip_matches_per_row_scipy_fits(self, n):
        a = power_matrix(np.linspace(1.1, 1.9, n))
        v = conjugate_inverse_knots(a)
        fits = [scipy_fit_concave_profile(row) for row in v]
        rebuilt = WeightMatrix(np.vstack([matrix_from_profiles(prof, n).entries * scale for prof, scale in fits]))
        expected = conjugate_inverse_knots(rebuilt)[:, 1:] / v[:, 1:]
        # every ratio, as roundtrip_check forms them, and the report's extremes
        prof, scales = fit_concave_profile(v)
        refitted = WeightMatrix(matrix_from_profiles(prof, n).entries * scales[:, None])
        ratios = conjugate_inverse_knots(refitted)[:, 1:] / v[:, 1:]
        np.testing.assert_allclose(ratios, expected, rtol=1e-12)
        rep = roundtrip_check(a)
        assert (rep.c_low, rep.c_high) == (ratios.min(), ratios.max())

    def test_rows_of_one_profile(self):
        v = conjugate_inverse_knots(power_matrix([1.2, 1.5, 1.8]))
        prof, scales = fit_concave_profile(v)
        t = np.array([0.01, 0.5, 1.0])
        assert prof.value(t).shape == (3, 3) and scales.shape == (3,)
        for i, row in enumerate(v):
            single, scale = fit_concave_profile(row)
            assert scale == scales[i]
            np.testing.assert_allclose(prof.value(t)[i], single.value(t), rtol=1e-14)
            assert integral(prof, 0.0, 0.5)[i] == pytest.approx(integral(single, 0.0, 0.5), rel=1e-14)

    def test_guard_names_the_first_failing_row(self):
        good = conjugate_inverse_knots(WeightMatrix(np.ones((3, 3))))[0]
        bad = conjugate_inverse_knots(WeightMatrix(np.tile([1.0, 1.0, 0.5], (3, 1))))[0]
        prof, _ = fit_concave_profile(np.stack([good, bad, bad]))
        with pytest.raises(ConstructionError, match=r"^row 1: H\(s\) - s H'\(s\) <= 0 at s = "):
            matrix_from_profiles(prof, 3)


class TestInputChecks:
    @pytest.mark.parametrize(
        "knots",
        [
            [0.0, math.nan, 1.0],
            [0.0, math.inf, 1.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.5, -1.0],
            [0.0, -0.8, 1.0],  # the same squares as [0, 0.8, 1]
            [0.5, 0.9, 1.0],  # H(0) = 0.25
        ],
    )
    def test_bad_knot_values_rejected(self, knots):
        with pytest.raises(ValueError, match=r"^knot_values row 0 "):
            fit_concave_profile(knots)

    def test_bad_row_named(self):
        good = np.sqrt(np.arange(4) / 3)
        with pytest.raises(ValueError, match=r"^knot_values row 2 "):
            fit_concave_profile(np.stack([good, good, np.append(good[:-1], math.nan)]))

    @pytest.mark.parametrize("knots", [[0.0], [], [[0.0], [1.0]]])
    def test_rows_of_fewer_than_two_values_rejected(self, knots):
        with pytest.raises(ValueError, match=r"^knot_values row 0 .*at least 2 values"):
            fit_concave_profile(knots)

    @pytest.mark.parametrize("n", [0, -1, 2.5, True])
    def test_matrix_needs_a_positive_n(self, n):
        with pytest.raises(ValueError, match=r"^n must be at least 1 and an integer"):
            matrix_from_profiles(power_profile(1.5), n)


class TestConfig:
    def test_smooth_fit_reproduces_linear(self):
        prof, scale = fit_concave_profile(np.sqrt(np.arange(5) / 4))
        assert scale == pytest.approx(1.0)
        assert prof.value(0.3) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(entries=st.integers(2, 8).flatmap(lambda n: st.lists(st.floats(0.05, 1.0), min_size=n * n, max_size=n * n)))
# four rows of 1.0 and a last row whose entry 0 was 1.18e-10 off when the fit's H'' was integrated
@example(entries=[1.0] * 20 + [1.0, 0.78125, 0.5224183196105076, 0.140625, 0.0625])
def test_fitted_rows_match_scalar_quadrature(entries):
    n = math.isqrt(len(entries))
    a = WeightMatrix(np.sort(np.reshape(entries, (n, n)), axis=1)[:, ::-1])
    knots = conjugate_inverse_knots(a)
    # most fits of random rows fail the concavity guards for n >= 3; compare
    # the rows that pass, all in one call
    fitted = []
    for v in knots:
        try:
            matrix_from_profiles(fit_concave_profile(v)[0], n)
        except (ConstructionError, ValueError):
            continue
        fitted.append(v)
    assume(fitted)
    rows = matrix_from_profiles(fit_concave_profile(np.stack(fitted))[0], n).entries
    for row, v in zip(rows, fitted):
        np.testing.assert_allclose(row, quad_fitted_row(v), rtol=1e-10)
