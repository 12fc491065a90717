import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from orlicz import PiecewiseAffineConvex, PowerFunction, system_of

from musielak import convex
from musielak.construct import (
    ConstructionError,
    conjugate_inverse_knots,
    functions_from_matrices,
    functions_from_matrix,
)
from musielak.convex import (
    DegenerateTailError,
    EquivalenceReport,
    MusielakSystem,
    luxemburg_norm,
    stacked_passes,
)
from musielak.perms import WeightMatrix, prefix_sum_system, prefix_sum_systems

rng = np.random.default_rng(20240817)


def norm(system, x):
    """The Luxemburg norm of one vector: a batch of one row."""
    (rho,) = luxemburg_norm(system, [x])
    return rho


def row_functions(system):
    """The M_i of a piecewise-affine system, each the conjugate of its row of knot data."""
    return [PiecewiseAffineConvex(t, v, b).conjugate() for t, v, b in zip(system.knots, system.values, system.bounds)]


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


def modular_sum(functions, absx, rho):
    total = 0.0
    for m, xi in zip(functions, absx):
        if xi == 0.0:
            continue
        v = m(xi / rho)
        if not np.isfinite(v):
            return math.inf
        total += v
    return total


def bisection_norm(functions, x):
    """Reference Luxemburg norm of the system of ``functions``: bisection on rho to a relative 1e-10.

    Returns the feasible end of the final bracket, so it is at most 1e-10
    (relative) above the norm.
    """
    absx = np.abs(np.asarray(x, dtype=float))
    if not absx.any():
        return 0.0
    n = len(functions)
    lo = float(absx.max() / max(m.inverse(1.0) for m in functions))
    hi = float(absx.sum() / min(m.inverse(1.0 / n) for m in functions))
    if hi <= lo:
        hi = lo * (1 + 1e-6) + 1e-300
    while modular_sum(functions, absx, hi) > 1.0:
        hi *= 2.0
    while lo > 0 and modular_sum(functions, absx, lo) < 1.0:
        lo *= 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if modular_sum(functions, absx, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-10 * hi:
            break
    return hi


def scalar_terms(system):
    """Per coordinate, (M_i^{-1}(1), t -> (M_i(t), left derivative)) in plain floats, from the system's arrays.

    A piecewise-affine M_i is the max of the lines of its conjugate's knots,
    the first maximising line on a tie, and +inf past its domain bound (with
    the program's rounding margin); a power M_i is scale t^p.
    """
    if system.p is not None:
        return [
            ((1.0 / c) ** (1.0 / p), lambda u, p=p, c=c: (c * u**p, p * c * u ** (p - 1.0)))
            for p, c in zip(system.p.tolist(), system.scale.tolist())
        ]
    terms = []
    for t, v, b in zip(system.knots.tolist(), system.values.tolist(), system.bounds.tolist()):

        def value_and_slope(u, t=t, v=v, b=b):
            if u > b * (1 + 1e-15):
                return math.inf, math.inf
            lines = [u * tk - vk for tk, vk in zip(t, v)]
            k = lines.index(max(lines))
            return lines[k], t[k]

        terms.append((min([b] + [(1.0 + vk) / tk for tk, vk in zip(t, v) if tk > 0]), value_and_slope))
    return terms


def scalar_newton_norm(system, x):
    """Reference Luxemburg norm: the monotone Newton loop, one vector and one coordinate at a time.

    The iteration of ``luxemburg_norm`` (power-of-two scaling, start at
    min_i M_i^{-1}(1)/|x_i|, stop once a step does not decrease s) in plain
    floats, with ``scalar_terms`` in place of the array evaluation.
    """
    absx = [abs(float(v)) for v in x]
    e = math.frexp(max(absx, default=0.0))[1]
    terms = [(term, xi) for term, xi in zip(scalar_terms(system), [math.ldexp(v, -e) for v in absx]) if xi > 0.0]
    if not terms:
        return 0.0
    s = min(unit / xi for (unit, _), xi in terms)
    while True:
        total = slope = 0.0
        for (_, value_and_slope), xi in terms:
            v, d = value_and_slope(xi * s)
            total += v
            slope += xi * d
        step = s - (total - 1.0) / slope if total > 1.0 else s
        if not step < s:  # s is the root
            return math.ldexp(1.0 / s, e)
        s = step


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

    def test_value_and_slope_pwa(self):
        m = PiecewiseAffineConvex([0, 1, 2], [0, 1, 3], 3.0, domain_bound=4.0)
        value, slope = system_of((m,))._terms(np.array([[0.5, 1.0, 2.0, 3.0, 4.0]]))(np.ones(5))
        # left derivative: the slope of the segment ending at a knot
        assert value.tolist() == [[0.5, 1.0, 3.0, 6.0, 9.0]]
        assert slope.tolist() == [[1.0, 1.0, 2.0, 3.0, 3.0]]
        assert m(4.5) == math.inf  # past the domain bound, which Newton's iterates never pass

    def test_value_and_slope_matches_call(self):
        for functions in ([random_pwa(), random_pwa().conjugate()], [PowerFunction(1.7, 0.3)]):
            tops = [min(3.0, getattr(m, "domain_bound", None) or 3.0) for m in functions]
            t = rng.uniform(1e-3, 1.0, (len(functions), 20)) * np.array(tops)[:, None]
            value, slope = system_of(functions)._terms(t)(np.ones(20))
            for m, ts, vs, ds in zip(functions, t, value, slope):
                np.testing.assert_allclose(vs, m(ts), rtol=1e-13)
                h = 1e-7 * ts
                assert ds == pytest.approx((m(ts) - m(ts - h)) / h, rel=1e-5, abs=1e-6)


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


class TestLuxemburgNorm:
    def test_euclidean(self):
        s = system_of((PowerFunction(2),) * 2)
        assert norm(s, [3, 4]) == pytest.approx(5, rel=1e-9)

    def test_l1(self):
        # M(t) = t as a PWA with unit slope
        lin = PiecewiseAffineConvex([0.0, 1.0], [0.0, 1.0], 1.0)
        s = system_of((lin,) * 3)
        assert norm(s, [1, 2, 3]) == pytest.approx(6, rel=1e-9)

    def test_zero_vector(self):
        s = system_of((PowerFunction(2),) * 4)
        assert luxemburg_norm(s, np.zeros((2, 4))).tolist() == [0.0, 0.0]

    def test_batch_shape(self):
        s = system_of((PowerFunction(2),) * 2)
        assert luxemburg_norm(s, np.zeros((0, 2))).shape == (0,)
        for bad in ([3.0, 4.0], [[3.0, 4.0, 0.0]], np.ones((1, 1, 2))):
            with pytest.raises(ValueError, match=r"xs must be a \(V, 2\) batch"):
                luxemburg_norm(s, bad)

    def test_mixed_system_against_scan(self):
        # M1(t) = t^2, M2(t) = t^4, x = (1, 1): 1/rho^2 + 1/rho^4 = 1 at the
        # square root of the golden ratio; frozen value confirmed by a 1e-6 grid scan
        s = system_of((PowerFunction(2), PowerFunction(4)))
        got = norm(s, [1, 1])
        rhos = np.arange(1.0, 3.0, 1e-6)
        feasible = 1 / rhos**2 + 1 / rhos**4 <= 1
        scan = rhos[feasible][0]
        assert got == pytest.approx(scan, abs=2e-6)
        assert got == pytest.approx(np.sqrt((1 + np.sqrt(5)) / 2), rel=1e-9)

    def test_homogeneity(self):
        for s in (system_of((PowerFunction(1.5), PowerFunction(2.5))), system_of((random_pwa(), random_pwa()))):
            xs = rng.normal(size=(25, 2))
            lam = rng.uniform(0.1, 10, 25)
            a = luxemburg_norm(s, lam[:, None] * xs)
            b = lam * luxemburg_norm(s, xs)
            assert a == pytest.approx(b, rel=2e-10, abs=2e-10)

    def test_triangle_inequality(self):
        for s in (system_of((PowerFunction(1.5), PowerFunction(3))), system_of((random_pwa(), random_pwa()))):
            x, y = rng.normal(size=(25, 2)), rng.normal(size=(25, 2))
            nx, ny, nxy = (luxemburg_norm(s, v) for v in (x, y, x + y))
            assert np.all(nxy <= nx + ny + 3e-10 * (nx + ny))

    def test_modular_at_optimum(self):
        # at the norm the modular sum sits at 1 (unbounded strictly
        # increasing members)
        functions = (PowerFunction(1.5), PowerFunction(2), PowerFunction(2.5))
        xs = rng.normal(size=(10, 3))
        for x, rho in zip(xs, luxemburg_norm(system_of(functions), xs)):
            total = sum(m(abs(xi) / rho) for m, xi in zip(functions, x))
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_domain_cap_binds(self):
        # M = 0.2 t up to its domain bound 2, then +inf: the modular of
        # x = (1, 1) climbs to 0.8 at rho = 1/2 and jumps straight to +inf
        m = PiecewiseAffineConvex([0.0, 1.0], [0.0, 0.2], 0.2, domain_bound=2.0)
        s = system_of((m, m))
        rho = norm(s, [1.0, -1.0])
        assert rho == pytest.approx(0.5, rel=1e-15)
        assert modular_sum((m, m), [1.0, 1.0], rho) == pytest.approx(0.8)
        assert modular_sum((m, m), [1.0, 1.0], rho * (1 - 1e-12)) == math.inf
        assert rho == pytest.approx(bisection_norm((m, m), [1.0, -1.0]), rel=1e-9)

    def test_conjugate_of_linear_is_a_max_norm(self):
        # (1.5 t)* is 0 up to 1.5 and +inf beyond, so the norm is max|x_i|/1.5
        c = PiecewiseAffineConvex([0.0], [0.0], 1.5).conjugate()
        s = system_of((c, c))
        assert norm(s, [3.0, -1.0]) == pytest.approx(2.0, rel=1e-15)

    def test_ends_of_the_float_range(self):
        # unscaled, the Newton slope overflows at 1e308 and the start 1/|x| at 1e-310
        power = system_of((PowerFunction(1.5),) * 2)
        assert norm(power, [1e308, 1e308]) == pytest.approx(2 ** (2 / 3) * 1e308, rel=1e-15)
        assert norm(system_of((PowerFunction(1.5),)), [1e-310]) == pytest.approx(1e-310, rel=1e-12)
        prefix = prefix_sum_system(WeightMatrix(np.ones((2, 2))))
        tiny, one = luxemburg_norm(prefix, [[1e-310, 0.0], [1.0, 0.0]])
        assert tiny == pytest.approx(1e-310 * one, rel=1e-12)

    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_exact_homogeneity_by_powers_of_two(self, k):
        draws = np.random.default_rng(abs(k))
        pwa = prefix_sum_system(WeightMatrix(np.sort(draws.uniform(0.05, 1, (3, 4)), axis=1)[:, ::-1]))
        for s in (
            system_of((PowerFunction(1.5), PowerFunction(2.5), PowerFunction(1.2))),
            pwa,
            system_of(row_functions(pwa)[::-1]),
        ):
            xs = draws.choice([-1.0, 0.0, 1.0], (20, 3)) * draws.uniform(0.01, 10, (20, 3))
            assert luxemburg_norm(s, np.ldexp(xs, k)).tolist() == np.ldexp(luxemburg_norm(s, xs), k).tolist()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vector_rejected(self, bad):
        lin = PiecewiseAffineConvex([0.0, 1.0], [0.0, 1.0], 1.0)
        for s in (system_of((lin,) * 3), system_of((PowerFunction(1.5),) * 3)):
            with pytest.raises(ValueError, match="xs: row 1 has a non-finite entry"):
                luxemburg_norm(s, [[1.0, 1.0, 1.0], [bad, 1.0, 1.0]])


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


def _systems(functions, max_size=7):
    """(system, its function objects), for the oracles."""
    return st.lists(functions, min_size=1, max_size=max_size).map(lambda fs: (system_of(fs), fs))


def _matrices(max_n=6):
    def build(n, entries):
        rows = np.sort(np.reshape(entries, (n, n)), axis=1)[:, ::-1]
        return WeightMatrix(rows)

    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(build, st.just(n), st.lists(st.floats(0.05, 1.0), min_size=n * n, max_size=n * n))
    )


def _built(build, loop_build):
    """(the system ``build`` makes of a matrix, the M_i of ``loop_build``'s row-by-row reference).

    The references are defined further down, so the tables below name them inside lambdas.
    """
    return lambda a: (build(a), [mstar.conjugate() for mstar in loop_build(a)])


SYSTEMS = {
    "pwa": _systems(pwa_functions),
    "conjugate": _systems(pwa_functions.map(lambda m: m.conjugate())),
    "power": _systems(power_functions),
    "prefix-sum": _matrices().map(_built(prefix_sum_system, lambda a: loop_prefix_sum_system(a))),
    "from-matrix": _matrices().map(_built(functions_from_matrix, lambda a: loop_functions_from_matrix(a))),
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
    system, functions = data.draw(SYSTEMS[kind])
    x = data.draw(st.lists(entries, min_size=system.n, max_size=system.n))
    rho = norm(system, x)
    assert rho == pytest.approx(bisection_norm(functions, x), rel=1e-9, abs=0.0)
    if rho > 0:
        # feasible: the modular at the returned rho is at most 1
        assert modular_sum(functions, np.abs(x), rho) <= 1.0 + 1e-12


# the systems of the batch oracle test, n = 1..12
BATCH_SYSTEMS = {
    "from-matrix": _matrices(12).map(_built(functions_from_matrix, lambda a: loop_functions_from_matrix(a))),
    "prefix-sum": _matrices(12).map(_built(prefix_sum_system, lambda a: loop_prefix_sum_system(a))),
    "power": _systems(power_functions, 12),
}


@pytest.mark.parametrize("kind", sorted(BATCH_SYSTEMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_matches_scalar_oracles(kind, data):
    system, functions = data.draw(BATCH_SYSTEMS[kind])
    rows = st.lists(entries, min_size=system.n, max_size=system.n)
    xs = np.array(data.draw(st.lists(rows, min_size=1, max_size=8)))
    got = luxemburg_norm(system, xs)
    for v, (x, rho) in enumerate(zip(xs, got)):
        assert luxemburg_norm(system, xs[v : v + 1]).tobytes() == rho.tobytes()  # the same bits alone
        newton = scalar_newton_norm(system, x)
        assert abs(rho - newton) <= 4 * np.spacing(newton)
        assert rho == pytest.approx(bisection_norm(functions, x), rel=1e-9, abs=0.0)


# -- stacked systems: the vectors of many systems in one solve -----------------

# M = 0 up to a domain bound b and +inf beyond: a vector on it alone has its norm at the bound
bounded_zeros = st.floats(0.5, 3.0).map(lambda b: PiecewiseAffineConvex([0.0], [0.0], b).conjugate())
STACKS = {
    "pwa": st.one_of(pwa_functions, pwa_functions.map(lambda m: m.conjugate()), bounded_zeros),
    "power": power_functions,
}


def _stack_pair(functions, rows=st.integers(0, 4)):
    """(system, batch): a system of 1..7 ``functions`` and a (V, n) batch of ``entries``."""

    def batch(system, count):
        return st.lists(st.lists(entries, min_size=system.n, max_size=system.n), min_size=count, max_size=count)

    systems = _systems(functions).map(lambda pair: pair[0])
    return systems.flatmap(lambda system: st.tuples(st.just(system), rows.flatmap(lambda v: batch(system, v))))


def _width(system):
    return 1 if system.knots is None else system.knots.shape[1]


def _stacked_norms(pairs):
    """Each pair's norms from ``stacked_passes``, and the number of passes."""
    norms, passes = [], 0
    problems = ((system, np.reshape(xs, (-1, system.n)), j) for j, (system, xs) in enumerate(pairs))
    for system, xs, items in stacked_passes(problems):
        solved, passes = luxemburg_norm(system, xs), passes + 1
        norms += [(j, solved[rows]) for j, rows in items]
    assert [j for j, _ in norms] == list(range(len(pairs)))
    return [rho for _, rho in norms], passes


# Passes of this many elements in the test below: its big batch then has tens of rows, not thousands.
# Its failures skip hypothesis's explain phase, which reruns a failing example hundreds of times to
# comment on it.  With both, a broken stack is reported in well under a minute, not after 5 minutes.
SMALL_PASS = 256


@pytest.mark.parametrize("kind", sorted(STACKS))
@settings(max_examples=40, deadline=None, phases=[phase for phase in Phase if phase is not Phase.explain])
@given(data=st.data())
def test_stacked_rows_keep_their_own_bits(kind, data):
    pairs = data.draw(st.lists(_stack_pair(STACKS[kind]), min_size=1, max_size=6))
    system, xs = pairs[0]
    pairs[0] = system, [*xs, [0.0] * system.n]  # a zero vector
    # a batch that fills more than one pass by itself, among the others
    system, _ = data.draw(_stack_pair(STACKS[kind]))
    draws = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    big = draws.normal(size=(SMALL_PASS // (system.n * _width(system)) + 1, system.n))
    pairs.insert(data.draw(st.integers(0, len(pairs))), (system, big))
    if kind == "pwa":  # last, a vector on the coordinate of a bounded M = 0 alone: its norm is |x_0| / b_0
        bounded = system_of((data.draw(bounded_zeros), *data.draw(st.lists(STACKS[kind], max_size=3))))
        pairs.append((bounded, [[2.5] + [0.0] * (bounded.n - 1)]))
    with mock.patch.object(convex, "PASS_ELEMENTS", SMALL_PASS):
        norms, passes = _stacked_norms(pairs)
    assert passes >= 2
    for (system, xs), rho in zip(pairs, norms):
        assert rho.tobytes() == luxemburg_norm(system, np.reshape(xs, (-1, system.n))).tobytes()
        if xs is not big:  # row by row as well (the big batch's rows alone: ``test_batch_matches_scalar_oracles``)
            assert [luxemburg_norm(system, [x])[0] for x in xs] == rho.tolist()
    if kind == "pwa":
        assert norms[-1][0] == pytest.approx(2.5 / bounded.bounds[0], rel=1e-15)


def test_stack_pads_each_system_to_the_largest():
    lin = PiecewiseAffineConvex([0.0, 1.0], [0.0, 1.0], 1.0)
    wide = PiecewiseAffineConvex([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 3.0, 6.0], 4.0)
    small, large = system_of((lin,)), system_of((wide, wide))
    stack = MusielakSystem.stack([small, large], [2, 1])
    assert (stack.n, stack.vectors, stack.knots.shape, stack.bounds.shape) == (2, 3, (2, 3, 4), (2, 3))
    np.testing.assert_array_equal(stack.knots[0, 0], np.pad(small.knots[0], (0, 2), "edge"))
    np.testing.assert_array_equal(stack.knots[:, 2], large.knots)
    assert stack.knots[1, :2].tolist() == [[0.0] * 4] * 2 and stack.unit_inverse[1, :2].tolist() == [math.inf] * 2
    with pytest.raises(ValueError, match=r"xs must be a \(3, 2\) batch of vectors, got shape \(2, 2\)"):
        luxemburg_norm(stack, np.ones((2, 2)))
    with pytest.raises(ValueError, match="systems of one kind"):
        MusielakSystem.stack([small, system_of((PowerFunction(1.5),))], [1, 1])
    with pytest.raises(ValueError, match="none of them stacked"):
        MusielakSystem.stack([stack, small], [3, 1])


def test_stacked_zero_function_raises_naming_its_coordinate():
    lin = PiecewiseAffineConvex([0.0, 1.0], [0.0, 1.0], 1.0)
    zero = PiecewiseAffineConvex([0.0, 1.0], [0.0, 0.0], 0.0)  # flat tail, no domain bound
    degenerate = system_of((lin, zero))
    fine = [(system_of((lin,) * 3), [[1.0, 2.0, 3.0]]), (degenerate, [[3.0, 0.0]])]
    assert [rho.tolist() for rho in _stacked_norms(fine)[0]] == [[6.0], [3.0]]  # l1 norms
    with pytest.raises(DegenerateTailError, match="M_1 is 0 with no domain bound, and x_1 is nonzero"):
        _stacked_norms([*fine, (degenerate, [[0.0, 0.0], [1.0, 2.0]])])


class TestEquivalence:
    def test_report_invariant(self):
        assert EquivalenceReport(0.5, 2.0).spread == 4.0
        with pytest.raises(ValueError, match="c_low must be positive"):
            EquivalenceReport(0.0, 2.0)


# -- the array builders against the per-row reference -------------------------


def loop_functions_from_matrix(a):
    """Reference ``functions_from_matrix``: one M* object per row, each checked on its own."""
    v = conjugate_inverse_knots(a)
    n = a.n
    mstars = []
    for i in range(n):
        inc = np.diff(v[i])
        if np.any(inc <= 0):
            raise ConstructionError(f"row {i}: knot values are not strictly increasing")
        if np.any(np.diff(inc) > 1e-12 * v[i, -1]):
            raise ConstructionError(f"row {i}: knot values are not concave")
        mstars.append(PiecewiseAffineConvex(v[i], np.arange(n + 1) / n, (1.0 / n) / inc[-1]))
    return mstars


def loop_prefix_sum_system(a):
    """Reference ``prefix_sum_system``: one M* object per row."""
    N = a.ncols
    mstars = []
    for i in range(a.n):
        prefix = np.concatenate([[0.0], np.cumsum(a.entries[i])])
        mstars.append(PiecewiseAffineConvex(prefix, np.arange(N + 1) / N, (1.0 / N) / a.entries[i, -1]))
    return mstars


@st.composite
def tied_matrices(draw, square=True):
    """Nonincreasing rows, n = 1..8, whose entries are often tied or constant."""
    n = draw(st.integers(1, 8))
    ncols = n if square else draw(st.integers(n, 8))
    levels = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3))
    entry = st.one_of(st.sampled_from(levels), st.floats(0.05, 1.0))
    entries = draw(st.lists(entry, min_size=n * ncols, max_size=n * ncols))
    return WeightMatrix(np.sort(np.reshape(entries, (n, ncols)), axis=1)[:, ::-1])


def assert_same_bits(system, mstars):
    """The system's knot data, row by row, has the bits of the reference M* objects."""
    assert system.n == len(mstars) and system.p is None
    for t, v, b, r in zip(system.knots, system.values, system.bounds, mstars, strict=True):
        np.testing.assert_array_equal(t, r.knots)
        np.testing.assert_array_equal(v, r.values)
        assert b == r.ext_slope and r.domain_bound is None


def built_or_error(build, a):
    try:
        return build(a)
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


def check_stacked_build(build, build_stack, cases):
    """``build_stack`` of ``(matrix, count)`` cases has the bits of ``MusielakSystem.stack`` of one-matrix builds."""
    matrices, counts = zip(*cases)
    try:
        want = MusielakSystem.stack([build(a) for a in matrices], counts)
    except ValueError as exc:  # the first matrix whose rows build no system
        with pytest.raises(type(exc)) as got:
            build_stack(matrices, counts)
        assert str(got.value) == str(exc)
        return
    got = build_stack(matrices, counts)
    assert (got.n, got.vectors, got.p, got._zero) == (want.n, want.vectors, None, want._zero)
    for name in ("knots", "values", "bounds", "unit_inverse"):
        assert getattr(got, name).shape == getattr(want, name).shape, name
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


# n = 1 next to a tie of leading entries, each for two vectors
ONE_AND_A_TIE = [(WeightMatrix([[0.7]]), 2), (WeightMatrix([[1.0, 1.0, 0.5], [0.9, 0.9, 0.9], [1.0, 0.2, 0.1]]), 2)]


def stack_cases(square=True):
    return st.lists(st.tuples(tied_matrices(square), st.integers(1, 3)), min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(cases=stack_cases())
@example(cases=ONE_AND_A_TIE)
def test_functions_from_matrices_has_the_bits_of_one_matrix_builds(cases):
    check_stacked_build(functions_from_matrix, functions_from_matrices, cases)


@settings(max_examples=100, deadline=None)
@given(cases=stack_cases(square=False))
@example(cases=ONE_AND_A_TIE)
def test_prefix_sum_systems_has_the_bits_of_one_matrix_builds(cases):
    check_stacked_build(prefix_sum_system, prefix_sum_systems, cases)


@pytest.mark.parametrize(
    "build, build_stack", [(functions_from_matrix, functions_from_matrices), (prefix_sum_system, prefix_sum_systems)]
)
def test_stacked_build_names_the_bad_row_as_one_matrix_build(build, build_stack):
    good, bad = WeightMatrix(np.ones((3, 3))), WeightMatrix([[1.0, 0.5], [1e20, 1.0]])  # row 1 sums to its lead
    with pytest.raises(ValueError, match="^row 1: ") as alone:
        build(bad)
    with pytest.raises(type(alone.value)) as stacked:
        build_stack([good, bad, good], [1, 2, 1])
    assert str(stacked.value) == str(alone.value)


def test_unit_inverse_matches_each_function():
    # M^{-1}(1) of every column, from the system's arrays, against each function's own inverse
    pwa, power = PiecewiseAffineConvex([0, 1, 2], [0, 1, 3], 3.0), PowerFunction(1.5, 2.0)
    for functions in (
        (pwa, pwa.conjugate(), random_pwa(), PiecewiseAffineConvex([0.0], [0.0], 1.5).conjugate()),
        (power, PowerFunction(1.2), PowerFunction(3.0, 0.1)),
    ):
        want = [m.inverse(1.0) for m in functions]
        np.testing.assert_allclose(system_of(functions).unit_inverse, want, rtol=1e-15)
    assert system_of((pwa,)).unit_inverse.tolist() == [1.0]
    assert system_of((power,)).unit_inverse.tolist() == [0.5 ** (2 / 3)]


def test_zero_function_raises_only_when_solved():
    lin = PiecewiseAffineConvex([0.0, 1.0], [0.0, 1.0], 1.0)
    zero = PiecewiseAffineConvex([0.0, 1.0], [0.0, 0.0], 0.0)  # flat tail, no domain bound
    system = system_of((lin, zero))
    assert luxemburg_norm(system, [[0.0, 0.0], [3.0, 0.0]]).tolist() == [0.0, 3.0]
    with pytest.raises(DegenerateTailError, match="M_1 is 0"):
        luxemburg_norm(system, [[3.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "p,scale,error",
    [
        ([1.5, 1.0], [1.0, 1.0], "p[1] must be a finite number above 1, got 1.0"),
        ([0.5, 2.0], [1.0, 1.0], "p[0] must be a finite number above 1, got 0.5"),
        ([1.5, math.nan], [1.0, 1.0], "p[1] must be a finite number above 1, got nan"),
        ([1.5, math.inf], [1.0, 1.0], "p[1] must be a finite number above 1, got inf"),
        ([1.5, 2.0], [1.0, 0.0], "scale[1] must be a finite positive number, got 0.0"),
        ([1.5, 2.0], [-1.0, 1.0], "scale[0] must be a finite positive number, got -1.0"),
        ([1.5, 2.0], [1.0, math.inf], "scale[1] must be a finite positive number, got inf"),
        ([1.5, 2.0], [math.nan, 1.0], "scale[0] must be a finite positive number, got nan"),
        ([1.5], [1.0, 1.0], "p and scale must be equally long non-empty lists, got shapes (1,) and (2,)"),
        ([], [], "p and scale must be equally long non-empty lists, got shapes (0,) and (0,)"),
    ],
    ids=["p-one", "p-below-one", "p-nan", "p-inf", "scale-zero", "scale-negative", "scale-inf", "scale-nan"]
    + ["lengths", "empty"],
)
def test_powers_rejects_a_bad_member(p, scale, error):
    with pytest.raises(ValueError) as exc:
        MusielakSystem.powers(p, scale)
    assert str(exc.value) == error

