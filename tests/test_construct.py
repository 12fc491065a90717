import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from musielak.construct import (
    ConstructionConfig,
    ConstructionError,
    FProfile,
    conjugate_inverse_knots,
    fit_concave_profile,
    functions_from_matrix,
    h_reconstruct_check,
    matrix_from_functions,
    power_orlicz,
    power_profile,
    power_profile_value,
    roundtrip_check,
)
from musielak.convex import MusielakSystem, PowerFunction, is_two_concave
from musielak.perms import WeightMatrix

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


def random_matrix(n):
    return WeightMatrix(np.sort(rng.uniform(0.05, 1, (n, n)), axis=1)[:, ::-1])


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


class TestFunctionsFromMatrix:
    def test_conjugate_interpolates_knots(self):
        a = random_matrix(4)
        v = conjugate_inverse_knots(a)
        system = functions_from_matrix(a)
        for i, m in enumerate(system):
            mstar = m.conjugate()
            for ell in range(1, 5):
                assert mstar.inverse(ell / 4) == pytest.approx(v[i, ell], rel=1e-10)

    def test_shape(self):
        assert functions_from_matrix(random_matrix(3)).n == 3

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            conjugate_inverse_knots(WeightMatrix(np.ones((2, 3))))


class TestFProfile:
    def test_degenerate_linear(self):
        prof = FProfile(lambda t: t, lambda t: 1.0, lambda t: 0.0)
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

    def test_finite_difference_backend(self):
        alpha = 0.6
        prof = FProfile(lambda t: t**alpha)
        exact = power_profile(2.0 / (2.0 - alpha))  # alpha = 2/q = 2(p-1)/p
        for t in [0.1, 0.5, 1.0]:
            assert prof.value(t) == pytest.approx(exact.value(t), rel=1e-6)

    def test_convex_h_rejected_at_construction(self):
        with pytest.raises(ConstructionError):
            FProfile(lambda t: t**2, lambda t: 2 * t, lambda t: 2.0)

    def test_interior_convexity_violation_detected(self):
        # concave at the right endpoint but H - s H' < 0 inside
        prof = FProfile(
            lambda s: s * s,
            lambda s: 0.5 if s == 1.0 else 2 * s,
            lambda s: 2.0,
        )
        with pytest.raises(ConstructionError):
            prof.value(0.5)


class TestMatrixFromFunctions:
    def test_degenerate_gives_ones(self):
        # H(t) = t, i.e. M*(x) = x^2, M(t) = t^2/4
        system = MusielakSystem((PowerFunction(2.0, 0.25),) * 3)
        a = matrix_from_functions(system, 3)
        np.testing.assert_allclose(a.entries, np.ones((3, 3)), atol=1e-9)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_flat_profile_rows_tie_exactly(self, n):
        # interval widths of arange(n + 1) / n differ by rounding; the rows
        # of a flat profile must still be nonincreasing
        a = matrix_from_functions(MusielakSystem((PowerFunction(2.0, 0.25),) * n), n)
        assert np.all(a.entries == a.entries[0, 0]) and a.entries[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_closed_form_matches_quadrature(self, p):
        prof = power_profile(p)
        for n in range(2, 13):
            a = matrix_from_functions(MusielakSystem((power_orlicz(p),) * n), n)
            quadrature = [n * prof.integral(j / n, (j + 1) / n) for j in range(n)]
            np.testing.assert_allclose(a.entries[0], quadrature, rtol=1e-6)

    def test_p_above_two_rejected(self):
        with pytest.raises(ConstructionError, match="not concave"):
            matrix_from_functions(MusielakSystem((PowerFunction(2.5),) * 3), 3)

    def test_power_family_against_analytic(self):
        n, p = 4, 1.5
        system = MusielakSystem((power_orlicz(p),) * n)
        a = matrix_from_functions(system, n)
        expected = np.array([n * analytic_profile_integral(p, j / n, (j + 1) / n) for j in range(n)])
        np.testing.assert_allclose(a.entries, np.tile(expected, (n, 1)), rtol=1e-12)

    def test_rows_positive_nonincreasing(self):
        system = MusielakSystem(tuple(power_orlicz(p) for p in [1.2, 1.5, 1.8, 1.3, 1.7]))
        a = matrix_from_functions(system, 5)
        assert np.all(a.entries > 0)
        assert np.all(np.diff(a.entries, axis=1) <= 0)

    def test_rejects_pwa_members(self):
        a = random_matrix(3)
        with pytest.raises(TypeError):
            matrix_from_functions(functions_from_matrix(a), 3)


class TestReconstructionIdentity:
    def test_degenerate_exact(self):
        prof = FProfile(lambda t: t, lambda t: 1.0, lambda t: 0.0)
        assert h_reconstruct_check(prof) <= 1e-12

    def test_power_family(self):
        for p in [1.2, 1.5, 1.8]:
            assert h_reconstruct_check(power_profile(p)) <= 1e-6

    def test_identity_at_one(self):
        # H(1) = (int_0^1 f)^2
        prof = power_profile(1.6)
        assert prof.integral(0.0, 1.0) ** 2 == pytest.approx(1.0, abs=1e-6)

    def test_oracle_cross_check(self):
        # both sides from the analytic profile, independent quadrature
        p, t = 1.5, 0.37
        alpha = 2.0 * (p - 1.0) / p
        head = analytic_profile_integral(p, 0.0, t)
        tail, _ = quad(lambda s: float(power_profile_value(p, s)) ** 2, t, 1.0)
        assert head**2 + t * tail == pytest.approx(t**alpha, abs=1e-9)


class TestPowerOrlicz:
    def test_conjugate_exponent(self):
        m = power_orlicz(1.5)
        assert m.conjugate().p == pytest.approx(3.0)

    def test_normalization(self):
        for p in [1.2, 1.5, 1.8]:
            mstar = power_orlicz(p).conjugate()
            assert mstar(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_strict_two_concavity(self):
        rep = is_two_concave(power_orlicz(1.5))
        assert rep.passed and rep.strictly

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            power_orlicz(2.5)
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            power_orlicz(2.5, strict=False)
        assert len(w) == 1

    def test_h_strictly_concave(self):
        # (M*^{-1})^2 = t^(2/q) has strictly negative second differences
        for p in [1.2, 1.8]:
            q = p / (p - 1.0)
            grid = np.linspace(0.01, 1, 100)
            h = grid ** (2.0 / q)
            assert np.all(np.diff(h, 2) < 0)


class TestRoundtrip:
    def test_constant_fixed_point(self):
        rep = roundtrip_check(WeightMatrix(np.ones((4, 4))))
        assert rep.c_low == pytest.approx(1.0, abs=1e-6)
        assert rep.c_high == pytest.approx(1.0, abs=1e-6)

    def test_power_family_band(self):
        system = MusielakSystem(tuple(power_orlicz(p) for p in [1.2, 1.5, 1.8]))
        a = matrix_from_functions(system, 3)
        rep = roundtrip_check(a)
        assert 0.25 <= rep.c_low <= rep.c_high <= 4.0
        # swapping original/reconstructed inverts every ratio
        swapped = 1.0 / rep.ratios
        assert swapped.min() == pytest.approx(1.0 / rep.c_high)
        assert swapped.max() == pytest.approx(1.0 / rep.c_low)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConstructionConfig(n=0)
        with pytest.raises(ValueError):
            ConstructionConfig(n=4, quad_tol=-1)
        with pytest.raises(ValueError):
            ConstructionConfig(n=4, t_min=0.5)

    def test_default_cutoff(self):
        assert ConstructionConfig(n=8).cutoff == pytest.approx(1e-6 / 8)

    def test_smooth_fit_reproduces_linear(self):
        prof, scale = fit_concave_profile(np.sqrt(np.arange(5) / 4), ConstructionConfig(n=4))
        assert scale == pytest.approx(1.0)
        assert prof.value(0.3) == pytest.approx(1.0, abs=1e-9)
