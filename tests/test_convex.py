import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from musielak.campaigns import make_matrix
from musielak.construct import ConstructionError, conjugate_inverse_knots, functions_from_matrix, power_orlicz
from musielak.convex import (
    DegenerateTailError,
    EquivalenceReport,
    MusielakSystem,
    PiecewiseAffineConvex,
    PowerFunction,
    is_two_concave,
    luxemburg_norm,
)
from musielak.perms import WeightMatrix, prefix_sum_system

rng = np.random.default_rng(20240817)


def random_pwa(max_knots=5):
    """Random convex PWA with increasing slopes."""
    m = rng.integers(1, max_knots + 1)
    gaps = rng.uniform(0.2, 1.5, m)
    knots = np.concatenate([[0.0], np.cumsum(gaps)])
    slopes = np.cumsum(rng.uniform(0.1, 1.0, m + 1))
    values = np.concatenate([[0.0], np.cumsum(slopes[:-1] * gaps)])
    return PiecewiseAffineConvex(knots, values, slopes[-1])


def grid_sup_conjugate(m, x, tmax=50.0, points=200001):
    """Dense-mesh sup oracle for the Legendre conjugate.

    The mesh includes the knots of m, where the sup of x t - m(t) is
    attained whenever it is finite.
    """
    t = np.union1d(np.linspace(0.0, tmax, points), m.knots)
    return float(np.max(x * t - m(t)))


def modular_sum(system, absx, rho):
    total = 0.0
    for m, xi in zip(system, absx):
        if xi == 0.0:
            continue
        v = m(xi / rho)
        if not np.isfinite(v):
            return math.inf
        total += v
    return total


def bisection_norm(system, x):
    """Reference Luxemburg norm: bisection on rho to a relative 1e-10.

    Returns the feasible end of the final bracket, so it is at most 1e-10
    (relative) above the norm.
    """
    absx = np.abs(np.asarray(x, dtype=float))
    if not absx.any():
        return 0.0
    n = system.n
    lo = float(absx.max() / max(m.inverse(1.0) for m in system))
    hi = float(absx.sum() / min(m.inverse(1.0 / n) for m in system))
    if hi <= lo:
        hi = lo * (1 + 1e-6) + 1e-300
    while modular_sum(system, absx, hi) > 1.0:
        hi *= 2.0
    while lo > 0 and modular_sum(system, absx, lo) < 1.0:
        lo *= 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if modular_sum(system, absx, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-10 * hi:
            break
    return hi


class TestEval:
    def test_power_closed_form(self):
        assert PowerFunction(2, 1)(3) == 9

    def test_zero_at_zero(self):
        assert PowerFunction(1.7, 0.3)(0) == 0
        assert PiecewiseAffineConvex([0, 1, 2], [0, 1, 3], 3.0)(0) == 0

    def test_pwa_interpolation(self):
        m = PiecewiseAffineConvex([0, 1, 2], [0, 1, 3], 3.0)
        assert m(1.5) == 2.0
        assert m(3.0) == 6.0  # linear extension

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PowerFunction(2)(-1)
        with pytest.raises(ValueError):
            PiecewiseAffineConvex([0, 1], [0, 1], 1.0)(-0.5)

    def test_empty_knots_rejected(self):
        with pytest.raises(ValueError, match="knots"):
            PiecewiseAffineConvex([], [], 1.0)

    def test_value_and_slope_pwa(self):
        m = PiecewiseAffineConvex([0, 1, 2], [0, 1, 3], 3.0, domain_bound=4.0)
        # left derivative: the slope of the segment ending at a knot
        assert m.value_and_slope(0.5) == (0.5, 1.0)
        assert m.value_and_slope(1.0) == (1.0, 1.0)
        assert m.value_and_slope(2.0) == (3.0, 2.0)
        assert m.value_and_slope(3.0) == (6.0, 3.0)
        assert m.value_and_slope(4.0) == (9.0, 3.0)
        assert m.value_and_slope(4.5) == (math.inf, math.inf)

    def test_value_and_slope_matches_call(self):
        for m in [random_pwa(), random_pwa().conjugate(), PowerFunction(1.7, 0.3)]:
            top = min(3.0, getattr(m, "domain_bound", None) or 3.0)
            for t in rng.uniform(1e-3, top, 20):
                v, d = m.value_and_slope(float(t))
                assert v == pytest.approx(m(t), rel=1e-13)
                h = 1e-7 * t
                assert d == pytest.approx((m(t) - m(t - h)) / h, rel=1e-5, abs=1e-6)


class TestInverse:
    def test_power(self):
        assert PowerFunction(2, 1).inverse(9) == pytest.approx(3)

    def test_zero(self):
        assert PowerFunction(3.0).inverse(0) == 0
        assert PiecewiseAffineConvex([0, 1, 2], [0, 1, 3], 3.0).inverse(0) == 0

    def test_pwa(self):
        m = PiecewiseAffineConvex([0, 1, 2], [0, 1, 3], 3.0)
        assert m.inverse(2) == pytest.approx(1.5)

    def test_roundtrip(self):
        for _ in range(20):
            m = random_pwa()
            y = rng.uniform(0, float(m(m.knots[-1] * 2)))
            assert m(m.inverse(y)) == pytest.approx(y, abs=1e-12)

    def test_flat_tail_rejected(self):
        m = PiecewiseAffineConvex([0.0, 1.0], [0.0, 0.0], 0.0)
        with pytest.raises(DegenerateTailError):
            m.inverse(2.0)


class TestConjugate:
    def test_power_pair(self):
        # (t^p/p)* = t^q/q with 1/p + 1/q = 1
        for p in [1.5, 2.0, 3.0]:
            q = p / (p - 1)
            mstar = PowerFunction(p, 1 / p).conjugate()
            t = np.linspace(0, 5, 50)
            np.testing.assert_allclose(mstar(t), t**q / q, atol=1e-12)

    def test_biconjugation_power(self):
        m = PowerFunction(1.8, 0.7)
        mm = m.conjugate().conjugate()
        t = np.linspace(0, 10, 100)
        np.testing.assert_allclose(mm(t), m(t), atol=1e-10)

    def test_biconjugation_pwa(self):
        for _ in range(30):
            m = random_pwa()
            mm = m.conjugate().conjugate()
            t = np.linspace(0, float(m.knots[-1]) * 2, 200)
            np.testing.assert_allclose(mm(t), m(t), atol=1e-10)

    def test_single_knot_example(self):
        # M through (0,0)-(1,1), extension slope 2: M*(1) = 0, M*(2) = 1
        m = PiecewiseAffineConvex([0, 1], [0, 1], 2.0)
        c = m.conjugate()
        assert c(1.0) == pytest.approx(0.0, abs=1e-12)
        assert c(2.0) == pytest.approx(1.0, abs=1e-12)
        assert c.domain_bound == pytest.approx(2.0)
        assert c(1.5) == pytest.approx(grid_sup_conjugate(m, 1.5), abs=1e-4)

    def test_degenerate_tail_bound(self):
        # linear M: conjugate is 0 up to the slope, +inf beyond
        m = PiecewiseAffineConvex([0.0], [0.0], 1.5)
        c = m.conjugate()
        assert c(1.0) == 0.0
        assert c.domain_bound == pytest.approx(1.5)
        assert np.isinf(c(2.0))

    def test_pwa_matches_grid_sup(self):
        for _ in range(10):
            m = random_pwa()
            c = m.conjugate()
            for x in rng.uniform(0, float(c.domain_bound or c.knots[-1] * 2), 5):
                assert c(float(x)) == pytest.approx(grid_sup_conjugate(m, float(x)), abs=1e-8)

    def test_youngs_inequality(self):
        for m in [PowerFunction(1.6, 0.4), random_pwa(), random_pwa()]:
            c = m.conjugate()
            tmax = float(getattr(c, "domain_bound", None) or 10.0)
            for s in np.linspace(0, 8, 17):
                for t in np.linspace(0, tmax, 17):
                    assert s * t <= m(s) + c(t) + 1e-10


class TestTwoConcavity:
    def test_strict(self):
        rep = is_two_concave(PowerFunction(1.5))
        assert rep.passed and rep.strictly

    @pytest.mark.parametrize("p", [1.5, 1.9, 1.95, 1.99])
    @pytest.mark.parametrize("power", [PowerFunction, power_orlicz])
    def test_strict_below_two(self, power, p):
        # every p < 2 is strictly 2-concave, however close to 2
        rep = is_two_concave(power(p))
        assert rep.passed and rep.strictly and rep.worst_margin < 0

    def test_boundary_case(self):
        rep = is_two_concave(PowerFunction(2.0))
        assert rep.passed and not rep.strictly

    def test_fail(self):
        rep = is_two_concave(PowerFunction(3.0))
        assert not rep.passed
        assert rep.worst_margin > 0

    def test_finite_domain_gives_finite_margin(self):
        # M(sqrt t) is +inf past domain_bound**2; the grid must stop there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in functions_from_matrix(make_matrix("power-family", 4)):
                assert math.isfinite(is_two_concave(m).worst_margin)


class TestLuxemburgNorm:
    def test_euclidean(self):
        s = MusielakSystem((PowerFunction(2),) * 2)
        assert luxemburg_norm(s, [3, 4]) == pytest.approx(5, rel=1e-9)

    def test_l1(self):
        # M(t) = t as a PWA with unit slope
        lin = PiecewiseAffineConvex([0.0, 1.0], [0.0, 1.0], 1.0)
        s = MusielakSystem((lin,) * 3)
        assert luxemburg_norm(s, [1, 2, 3]) == pytest.approx(6, rel=1e-9)

    def test_zero_vector(self):
        s = MusielakSystem((PowerFunction(2),) * 4)
        assert luxemburg_norm(s, np.zeros(4)) == 0.0

    def test_mixed_system_against_scan(self):
        # M1(t) = t, M2(t) = t^2, x = (1, 1): 1/rho + 1/rho^2 = 1 at the
        # golden ratio; frozen value confirmed by a 1e-6 grid scan
        lin = PiecewiseAffineConvex([0.0, 1.0], [0.0, 1.0], 1.0)
        s = MusielakSystem((lin, PowerFunction(2)))
        got = luxemburg_norm(s, [1, 1])
        rhos = np.arange(1.0, 3.0, 1e-6)
        feasible = 1 / rhos + 1 / rhos**2 <= 1
        scan = rhos[feasible][0]
        assert got == pytest.approx(scan, abs=2e-6)
        assert got == pytest.approx((1 + np.sqrt(5)) / 2, rel=1e-9)

    def test_homogeneity(self):
        s = MusielakSystem((PowerFunction(1.5), PowerFunction(2.5), random_pwa()))
        for _ in range(25):
            x = rng.normal(size=3)
            lam = rng.uniform(0.1, 10)
            a = luxemburg_norm(s, lam * x)
            b = abs(lam) * luxemburg_norm(s, x)
            assert a == pytest.approx(b, rel=2e-10, abs=2e-10)

    def test_triangle_inequality(self):
        s = MusielakSystem((PowerFunction(1.5), random_pwa(), PowerFunction(3)))
        for _ in range(25):
            x, y = rng.normal(size=3), rng.normal(size=3)
            nx, ny, nxy = (luxemburg_norm(s, v) for v in (x, y, x + y))
            assert nxy <= nx + ny + 3e-10 * (nx + ny)

    def test_modular_at_optimum(self):
        # at the norm the modular sum sits at 1 (unbounded strictly
        # increasing members)
        s = MusielakSystem((PowerFunction(1.5), PowerFunction(2), PowerFunction(2.5)))
        for _ in range(10):
            x = rng.normal(size=3)
            rho = luxemburg_norm(s, x)
            total = sum(m(abs(xi) / rho) for m, xi in zip(s, x))
            assert total == pytest.approx(1.0, abs=1e-8)


    def test_domain_cap_binds(self):
        # M = 0.2 t up to its domain bound 2, then +inf: the modular of
        # x = (1, 1) climbs to 0.8 at rho = 1/2 and jumps straight to +inf
        m = PiecewiseAffineConvex([0.0, 1.0], [0.0, 0.2], 0.2, domain_bound=2.0)
        s = MusielakSystem((m, m))
        rho = luxemburg_norm(s, [1.0, -1.0])
        assert rho == pytest.approx(0.5, rel=1e-15)
        assert modular_sum(s, [1.0, 1.0], rho) == pytest.approx(0.8)
        assert modular_sum(s, [1.0, 1.0], rho * (1 - 1e-12)) == math.inf
        assert rho == pytest.approx(bisection_norm(s, [1.0, -1.0]), rel=1e-9)

    def test_conjugate_of_linear_is_a_max_norm(self):
        # (1.5 t)* is 0 up to 1.5 and +inf beyond, so the norm is max|x_i|/1.5
        c = PiecewiseAffineConvex([0.0], [0.0], 1.5).conjugate()
        s = MusielakSystem((c, c))
        assert luxemburg_norm(s, [3.0, -1.0]) == pytest.approx(2.0, rel=1e-15)

    def test_ends_of_the_float_range(self):
        # unscaled, the Newton slope overflows at 1e308 and the start 1/|x| at 1e-310
        power = MusielakSystem((PowerFunction(1.5),) * 2)
        assert luxemburg_norm(power, [1e308, 1e308]) == pytest.approx(2 ** (2 / 3) * 1e308, rel=1e-15)
        assert luxemburg_norm(MusielakSystem((PowerFunction(1.5),)), [1e-310]) == pytest.approx(1e-310, rel=1e-12)
        prefix = prefix_sum_system(WeightMatrix(np.ones((2, 2))))
        assert luxemburg_norm(prefix, [1e-310, 0.0]) == pytest.approx(1e-310 * luxemburg_norm(prefix, [1.0, 0.0]), rel=1e-12)

    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_exact_homogeneity_by_powers_of_two(self, k):
        draws = np.random.default_rng(abs(k))
        pwa = prefix_sum_system(WeightMatrix(np.sort(draws.uniform(0.05, 1, (3, 4)), axis=1)[:, ::-1]))
        for s in (
            MusielakSystem((PowerFunction(1.5), PowerFunction(2.5), PowerFunction(1.2))),
            pwa,
            MusielakSystem((PowerFunction(1.5), pwa[1], PowerFunction(3))),
        ):
            for _ in range(20):
                x = draws.choice([-1.0, 0.0, 1.0], 3) * draws.uniform(0.01, 10, 3)
                assert luxemburg_norm(s, math.ldexp(1.0, k) * x) == math.ldexp(luxemburg_norm(s, x), k)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vector_rejected(self, bad):
        lin = PiecewiseAffineConvex([0.0, 1.0], [0.0, 1.0], 1.0)
        for s in (MusielakSystem((lin,) * 3), MusielakSystem((PowerFunction(1.5),) * 3)):
            with pytest.raises(ValueError, match="vector x"):
                luxemburg_norm(s, [bad, 1.0, 1.0])


# -- the Newton solver against the bisection oracle ---------------------------


def _pwa(gaps, slope_steps):
    knots = np.concatenate([[0.0], np.cumsum(gaps)])
    slopes = np.cumsum(slope_steps)
    values = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.asarray(gaps))])
    return PiecewiseAffineConvex(knots, values, slopes[-1])


pwa_functions = st.integers(1, 5).flatmap(
    lambda m: st.builds(
        _pwa,
        st.lists(st.floats(0.2, 1.5), min_size=m, max_size=m),
        st.lists(st.floats(0.1, 1.0), min_size=m + 1, max_size=m + 1),
    )
)
power_functions = st.builds(PowerFunction, st.floats(1.05, 4.0), st.floats(0.1, 10.0))
any_functions = st.one_of(pwa_functions, pwa_functions.map(lambda m: m.conjugate()), power_functions)


def _systems(functions):
    return st.lists(functions, min_size=1, max_size=7).map(MusielakSystem)


def _matrices():
    def build(n, entries):
        rows = np.sort(np.reshape(entries, (n, n)), axis=1)[:, ::-1]
        return WeightMatrix(rows)

    return st.integers(1, 6).flatmap(
        lambda n: st.builds(build, st.just(n), st.lists(st.floats(0.05, 1.0), min_size=n * n, max_size=n * n))
    )


SYSTEMS = {
    "pwa": _systems(pwa_functions),
    "conjugate": _systems(pwa_functions.map(lambda m: m.conjugate())),
    "power": _systems(power_functions),
    "mixed": _systems(any_functions),
    "prefix-sum": _matrices().map(prefix_sum_system),
    "from-matrix": _matrices().map(functions_from_matrix),
}

# zero entries and magnitudes 1e-6 .. 1e6 of either sign
entries = st.one_of(
    st.just(0.0),
    st.builds(lambda e, sign: sign * 10.0**e, st.floats(-6.0, 6.0), st.sampled_from([-1.0, 1.0])),
)


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_newton_matches_bisection(kind, data):
    system = data.draw(SYSTEMS[kind])
    x = data.draw(st.lists(entries, min_size=system.n, max_size=system.n))
    rho = luxemburg_norm(system, x)
    assert rho == pytest.approx(bisection_norm(system, x), rel=1e-9, abs=0.0)
    if rho > 0:
        # feasible: the modular at the returned rho is at most 1
        assert modular_sum(system, np.abs(x), rho) <= 1.0 + 1e-12


class TestEquivalence:
    def test_report_invariant(self):
        with pytest.raises(ValueError):
            EquivalenceReport(1.0, 2.0, np.array([0.5]))


# -- the array builders against the per-row reference -------------------------


def loop_conjugate(m):
    """Reference conjugate: slope duality one segment at a time (the earlier scalar path)."""
    seg = np.diff(m.values) / np.diff(m.knots)
    kt, kv = [0.0], [0.0]
    for k, s in enumerate(seg):
        kt.append(float(s))
        kv.append(float(s * m.knots[k + 1] - m.values[k + 1]))
    if m.domain_bound is None:
        ext, bound = float(m.knots[-1]), float(m.ext_slope)
    else:
        kt.append(float(m.ext_slope))
        kv.append(float(m.ext_slope * m.knots[-1] - m.values[-1]))
        ext, bound = float(m.domain_bound), None
    kt = np.maximum.accumulate(np.asarray(kt))
    kv = np.maximum.accumulate(np.maximum(np.asarray(kv), 0.0))
    keep = np.concatenate([[True], np.diff(kt) > 1e-12 * kt[-1]])
    if bound is not None:
        bound = max(bound, float(kt[keep][-1]))
    return PiecewiseAffineConvex(kt[keep], kv[keep], ext, bound)


def loop_functions_from_matrix(a):
    """Reference ``functions_from_matrix``: one M* object per row, then its loop conjugate."""
    v = conjugate_inverse_knots(a)
    n = a.n
    funcs = []
    for i in range(n):
        inc = np.diff(v[i])
        if np.any(inc <= 0):
            raise ConstructionError(f"row {i}: knot values are not strictly increasing")
        if np.any(np.diff(inc) > 1e-12 * v[i, -1]):
            raise ConstructionError(f"row {i}: knot values are not concave")
        mstar = PiecewiseAffineConvex(v[i], np.arange(n + 1) / n, (1.0 / n) / inc[-1])
        funcs.append(loop_conjugate(mstar))
    return funcs


def loop_prefix_sum_system(a):
    """Reference ``prefix_sum_system``: one M* object per row, then its loop conjugate."""
    N = a.ncols
    funcs = []
    for i in range(a.n):
        prefix = np.concatenate([[0.0], np.cumsum(a.entries[i])])
        mstar = PiecewiseAffineConvex(prefix, np.arange(N + 1) / N, (1.0 / N) / a.entries[i, -1])
        funcs.append(loop_conjugate(mstar))
    return funcs


@st.composite
def tied_matrices(draw, square=True):
    """Nonincreasing rows, n = 1..8, whose entries are often tied or constant."""
    n = draw(st.integers(1, 8))
    ncols = n if square else draw(st.integers(n, 8))
    levels = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3))
    entry = st.one_of(st.sampled_from(levels), st.floats(0.05, 1.0))
    entries = draw(st.lists(entry, min_size=n * ncols, max_size=n * ncols))
    return WeightMatrix(np.sort(np.reshape(entries, (n, ncols)), axis=1)[:, ::-1])


def assert_same_bits(got, want):
    for m, r in zip(got, want, strict=True):
        np.testing.assert_array_equal(m.knots, r.knots)
        np.testing.assert_array_equal(m.values, r.values)
        assert m.ext_slope == r.ext_slope and m.domain_bound == r.domain_bound


def built_or_error(build, a):
    try:
        return list(build(a))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=100, deadline=None)
@given(a=tied_matrices())
def test_functions_from_matrix_matches_row_loop(a):
    got, want = built_or_error(functions_from_matrix, a), built_or_error(loop_functions_from_matrix, a)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_bits(got, want)


@settings(max_examples=100, deadline=None)
@given(a=tied_matrices(square=False))
def test_prefix_sum_system_matches_row_loop(a):
    assert_same_bits(prefix_sum_system(a), loop_prefix_sum_system(a))


@pytest.mark.parametrize("n", range(1, 9))
def test_builders_match_row_loop_on_random_matrices(n):
    # a fixed sweep besides the hypothesis draws: a last slope formed as
    # diff(grid) / inc instead of (1/n) / inc moves some rows by an ulp
    draws = np.random.default_rng(n)
    for _ in range(25):
        a = WeightMatrix(np.sort(draws.uniform(0.05, 1.0, (n, n)), axis=1)[:, ::-1])
        assert_same_bits(functions_from_matrix(a), loop_functions_from_matrix(a))
        assert_same_bits(prefix_sum_system(a), loop_prefix_sum_system(a))


@settings(max_examples=50, deadline=None)
@given(a=tied_matrices(square=False))
def test_conjugate_of_finite_domain_matches_loop(a):
    # every built M has a finite domain, often bounded at its last knot
    built = built_or_error(functions_from_matrix, a) if a.is_square else []
    for m in list(prefix_sum_system(a)) + ([] if isinstance(built, str) else built):
        got, want = m.conjugate(), loop_conjugate(m)
        for x, y in [(got.knots, want.knots), (got.values, want.values)]:
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-12 * np.abs(y).max())
        assert got.ext_slope == want.ext_slope and got.domain_bound is want.domain_bound is None


@settings(max_examples=100, deadline=None)
@given(m=pwa_functions)
def test_conjugate_of_unbounded_domain_matches_loop(m):
    assert_same_bits([m.conjugate()], [loop_conjugate(m)])


# -- the list-based validation against the numpy checks it replaced ------------


def numpy_checked_slopes(knots, values, ext_slope, domain_bound):
    """Reference validation: the checks of ``PiecewiseAffineConvex`` on numpy arrays; returns its slopes."""
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    if knots.ndim != 1 or knots.shape != values.shape:
        raise ValueError("knots and values must be 1-d arrays of equal length")
    if knots[0] != 0.0 or values[0] != 0.0:
        raise ValueError("first knot must be (0, 0)")
    with np.errstate(all="ignore"):
        dk, dv = knots[1:] - knots[:-1], values[1:] - values[:-1]
        if (dk <= 0).any():
            raise ValueError("knots must be strictly increasing")
        if (dv < 0).any():
            raise ValueError("values must be nondecreasing")
        slopes = np.concatenate([dv / dk, [ext_slope]])
        if (slopes[1:] - slopes[:-1] < -1e-12).any():
            raise ValueError("segment slopes must be nondecreasing (convexity)")
    if domain_bound is not None and domain_bound < knots[-1]:
        raise ValueError("domain_bound must not cut into the knot range")
    return slopes


special_floats = st.sampled_from([0.0, -0.0, 1e-300, -1e-13, 1e300, math.nan, math.inf, -math.inf])


@st.composite
def pwa_inputs(draw):
    """(knots, values, ext_slope, domain_bound) near a valid function, often broken by NaN, inf or a tie."""
    m = draw(st.integers(0, 4))
    gap = st.one_of(st.floats(0.0, 2.0, exclude_min=True), special_floats)
    gaps = draw(st.lists(gap, min_size=m, max_size=m))
    # slope steps a little below 0 probe the convexity tolerance of 1e-12
    step = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-5e-13, -2e-12]), special_floats)
    steps = draw(st.lists(step, min_size=m + 1, max_size=m + 1))
    origin = draw(st.sampled_from([0.0, 0.0, 0.0, -0.0, 1e-300, math.nan]))
    with np.errstate(all="ignore"):
        slopes = np.cumsum(steps)
        knots = np.concatenate([[origin], origin + np.cumsum(gaps)])
        values = np.concatenate([[0.0], np.cumsum(slopes[:-1] * gaps)])
    if draw(st.sampled_from([False] * 9 + [True])):
        values = values[:-1]
    past = st.one_of(st.floats(0.0, 2.0), special_floats).map(lambda d: float(knots[-1]) + d)
    bound = draw(st.one_of(st.none(), past, special_floats))
    return knots.tolist(), values.tolist(), float(slopes[-1]), bound


@settings(max_examples=300, deadline=None)
@given(args=pwa_inputs())
def test_list_checks_match_numpy_checks(args):
    try:
        want = numpy_checked_slopes(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            PiecewiseAffineConvex(*args)
        assert str(got.value) == str(exc)
    else:
        assert PiecewiseAffineConvex(*args)._slopes.tobytes() == want.tobytes()


def test_unit_inverse_is_computed_once(monkeypatch):
    calls = []
    for cls in (PiecewiseAffineConvex, PowerFunction):
        inverse = cls.inverse
        monkeypatch.setattr(cls, "inverse", lambda m, y, inverse=inverse: calls.append(y) or inverse(m, y))
    pwa, power = PiecewiseAffineConvex([0, 1, 2], [0, 1, 3], 3.0), PowerFunction(1.5, 2.0)
    system = MusielakSystem((pwa, power, pwa))
    first = luxemburg_norm(system, [1.0, 2.0, 3.0])
    assert luxemburg_norm(system, [1.0, 2.0, 3.0]) == first and luxemburg_norm(system, [3.0, 0.5, 1.0]) > 0
    assert calls == [1.0, 1.0]  # one M^{-1}(1) per distinct function, over three solves
    assert (pwa.unit_inverse, power.unit_inverse) == (pwa.inverse(1.0), power.inverse(1.0))


def test_zero_function_raises_only_when_solved():
    zero = PiecewiseAffineConvex([0.0, 1.0], [0.0, 0.0], 0.0)  # flat tail, no domain bound
    system = MusielakSystem((zero,))
    assert luxemburg_norm(system, [0.0]) == 0.0
    with pytest.raises(DegenerateTailError):
        luxemburg_norm(system, [1.0])
