import itertools
import math

import numpy as np
import pytest

from musielak import embed
from musielak.construct import functions_from_matrix, matrix_from_functions, power_system
from musielak.convex import EquivalenceReport, luxemburg_norm
from musielak.embed import (
    N_EXACT_PSI,
    distortion_directions,
    distortion_estimate,
    khintchine_sandwich_check,
    psi_image_norm,
)
from musielak.perms import PermutationSampler, WeightMatrix, ave_l2

rng = np.random.default_rng(31337)


def random_matrix(n):
    return WeightMatrix(np.sort(rng.uniform(0.05, 1, (n, n)), axis=1)[:, ::-1])


def brute_psi_norm(a: WeightMatrix, x):
    """Nested-loop oracle for the normalized L1 norm of the embedding."""
    n = a.n
    total, count = 0.0, 0
    for p in itertools.permutations(range(n)):
        for eps in itertools.product([-1, 1], repeat=n):
            total += abs(sum(x[i] * eps[i] * a.entries[i, p[i]] for i in range(n)))
            count += 1
    return total / count


def sign_patterns(n: int) -> np.ndarray:
    """(2^n, n) array of all +-1 patterns."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    return (2 * bits - 1).astype(float)


def matmul_psi_norm(a: WeightMatrix, x):
    """Oracle: the full (2^n, n!) table of signed sums by one matrix product."""
    n = a.n
    perms = np.array(list(itertools.permutations(range(n))))
    terms = np.asarray(x) * a.entries[np.arange(n), perms]  # (n!, n)
    return float(np.abs(sign_patterns(n) @ terms.T).mean())


class TestSignPatterns:
    def test_shape_and_values(self):
        s = sign_patterns(3)
        assert s.shape == (8, 3)
        assert set(s.ravel()) == {-1.0, 1.0}

    def test_all_distinct(self):
        s = sign_patterns(4)
        assert len({tuple(row) for row in s}) == 16


class TestPsiNorm:
    def test_n1(self):
        a = WeightMatrix(np.array([[0.6]]))
        res = psi_image_norm(a, [[-2.0]])
        assert res.value == pytest.approx([1.2])
        assert res.mode == "exact" and res.samples == 2

    def test_ones_matrix(self):
        # every table entry is |sum eps_i|; for n = 2 the mean of |e1 + e2|
        # over the four sign patterns is 1
        a = WeightMatrix(np.ones((2, 2)))
        assert psi_image_norm(a, [[1.0, 1.0]]).value == pytest.approx([1.0])

    def test_homogeneity(self):
        a = random_matrix(3)
        xs = rng.normal(size=(2, 3))
        assert psi_image_norm(a, 2.5 * xs).value == pytest.approx(
            2.5 * psi_image_norm(a, xs).value, rel=1e-13
        )

    def test_monte_carlo_close_to_exact(self):
        a = random_matrix(4)
        xs = rng.normal(size=(3, 4))
        exact = psi_image_norm(a, xs).value
        res = psi_image_norm(a, xs, sampler=PermutationSampler(17), samples=40_000)
        assert res.mode == "monte-carlo" and (res.stderr > 0).all()
        assert (abs(res.value - exact) < 5 * res.stderr).all()


class TestPsiExact:
    def test_against_brute_force(self):
        for n in range(1, N_EXACT_PSI + 1):
            a = random_matrix(n)
            x = rng.normal(size=n)
            assert psi_image_norm(a, [x]).value[0] == pytest.approx(brute_psi_norm(a, x), rel=1e-13)

    def test_against_matmul_oracle(self):
        for n in range(1, N_EXACT_PSI + 1):
            a = random_matrix(n)
            xs = rng.normal(size=(3, n))
            expected = [matmul_psi_norm(a, x) for x in xs]
            np.testing.assert_allclose(psi_image_norm(a, xs).value, expected, rtol=1e-13)

    def test_batch_has_the_bits_of_single_calls(self):
        # 40 vectors at n = 6 take several passes of the kernel
        a = random_matrix(6)
        xs = rng.normal(size=(40, 6))
        single = [psi_image_norm(a, [x]).value[0] for x in xs]
        assert np.array_equal(psi_image_norm(a, xs).value, single)

    @pytest.mark.parametrize("n", range(1, N_EXACT_PSI + 1))
    def test_matrices_per_vector_have_the_bits_of_single_calls(self, n):
        # one matrix per vector: each row has the bits of its own call, the zero row included;
        # 40 vectors take several passes at n = 6
        draws = np.random.default_rng(700 + n)
        matrices = [WeightMatrix(np.sort(draws.uniform(0.05, 1, (n, n)), axis=1)[:, ::-1]) for _ in range(40)]
        xs = np.vstack([np.zeros(n), draws.normal(size=(39, n))])
        for scale in (1e-170, 1e-150, 1.0, 1e150, 1e170):
            stacked = psi_image_norm(matrices, scale * xs).value
            single = [psi_image_norm(a, [scale * x]).value[0] for a, x in zip(matrices, xs)]
            assert np.array_equal(stacked, single) and stacked[0] == 0.0

    def test_coordinate_sign_flip(self):
        a = random_matrix(5)
        x = rng.normal(size=5)
        flipped = x * np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        expected = psi_image_norm(a, [x]).value
        np.testing.assert_allclose(psi_image_norm(a, [flipped]).value, expected, rtol=1e-13)

    def test_exact_limit_named(self):
        n = N_EXACT_PSI + 1
        with pytest.raises(ValueError, match=f"n <= {N_EXACT_PSI}"):
            psi_image_norm(random_matrix(n), np.ones((1, n)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=r"^xs must be a \(V, 3\) batch of vectors, got shape \(2, 4\)$"):
            psi_image_norm(random_matrix(3), np.ones((2, 4)))


class TestKhintchine:
    def test_random_instances(self):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            (rep,) = khintchine_sandwich_check([(random_matrix(n), rng.normal(size=n))])
            assert rep.passed
            assert rep.lower == pytest.approx(rep.upper / math.sqrt(2.0))

    def test_batch_has_the_bits_of_one_pair_checks(self, monkeypatch):
        # mixed n in mixed order: one ave_l2 and one psi call per n, and each report as if checked alone
        draws = np.random.default_rng(41)
        dims = [3, 1, 5, 3, 2, 5, 5, 1, 4, 3]
        matrices = [WeightMatrix(np.sort(draws.uniform(0.05, 1, (n, n)), axis=1)[:, ::-1]) for n in dims]
        instances = [(a, draws.normal(size=a.n)) for a in matrices]
        alone = [khintchine_sandwich_check([pair]) for pair in instances]
        calls = []
        for name in ("ave_l2", "psi_image_norm"):
            kernel = getattr(embed, name)
            monkeypatch.setattr(
                embed, name, lambda a, xs, kernel=kernel, name=name: calls.append(name) or kernel(a, xs)
            )
        reports = khintchine_sandwich_check(iter(instances))
        assert [vars(r) for r in reports] == [vars(r) for (r,) in alone]
        assert sorted(calls) == sorted(["ave_l2", "psi_image_norm"] * len(set(dims)))
        assert khintchine_sandwich_check([]) == []

    def test_psi_below_l2_average(self):
        # the upper half of the sandwich separately (Jensen)
        a = random_matrix(4)
        xs = rng.normal(size=(3, 4))
        assert (psi_image_norm(a, xs).value <= ave_l2(a, xs).value + 1e-12).all()

    def test_x_is_checked_as_a_vector(self):
        # a 0-d x raised IndexError, a (1, n) x a length mismatch, and a NaN was named as xs: row 0
        a = random_matrix(3)
        for bad in (1.0, [[1.0, 2.0, 3.0]], [], [1.0, np.nan, 0.0], [np.inf, 1.0, 0.0]):
            with pytest.raises(ValueError, match="^x must be a nonempty finite vector$"):
                khintchine_sandwich_check([(a, bad)])
        with pytest.raises(ValueError, match="^vector length must match matrix dimension$"):
            khintchine_sandwich_check([(a, [1.0, 2.0])])

    def test_lower_bound_tight_for_n1(self):
        # n = 1: |x a| on both sides, so value == upper exactly
        (rep,) = khintchine_sandwich_check([(WeightMatrix(np.array([[0.9]])), [1.4])])
        assert rep.value == pytest.approx(rep.upper)


def sampled_distortion(system, a, sampler, samples):
    """The distortion band over ``distortion_directions``, with their Luxemburg norms in ``system``."""
    directions = distortion_directions(a.n, sampler, samples)
    return distortion_estimate(a, directions, luxemburg_norm(system, directions))


class TestDistortion:
    def test_n1_is_flat(self):
        a = WeightMatrix(np.array([[1.0]]))
        system = functions_from_matrix(a)
        rep = sampled_distortion(system, a, PermutationSampler(1), samples=20)
        assert rep.spread == pytest.approx(1.0, rel=1e-8)

    def test_matrix_scaling_invariance(self):
        # scaling the matrix scales psi but also the knot values, leaving
        # the ratio band unchanged
        a = random_matrix(3)
        b = WeightMatrix(2.0 * a.entries)
        r1 = sampled_distortion(functions_from_matrix(a), a, PermutationSampler(5), samples=50)
        r2 = sampled_distortion(functions_from_matrix(b), b, PermutationSampler(5), samples=50)
        assert r1.spread == pytest.approx(r2.spread, rel=1e-8)

    def test_power_family_bounded(self):
        system = power_system([1.5] * 4)
        a = matrix_from_functions(system)
        rep = sampled_distortion(system, a, PermutationSampler(9), samples=100)
        assert 1.0 <= rep.spread < 10.0

    def test_report_invariants(self):
        with pytest.raises(ValueError, match="c_high must be at least c_low"):
            EquivalenceReport(2.0, 1.0)
        with pytest.raises(ValueError, match="c_low must be positive"):
            EquivalenceReport(0.0, 1.0)
        with pytest.raises(ValueError, match="c_low must be positive"):
            EquivalenceReport(np.nan, 1.0)
        with pytest.raises(ValueError, match="c_high must be at least c_low"):
            EquivalenceReport(1.0, np.nan)
        assert EquivalenceReport(0.5, 1.5).spread == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        a = random_matrix(3)
        with pytest.raises(ValueError, match=r"need \(V, 3\) directions and V norms"):
            distortion_estimate(a, np.ones((2, 4)), [1.0, 1.0])
        with pytest.raises(ValueError, match="V norms"):
            distortion_estimate(a, np.ones((2, 3)), [1.0])
        with pytest.raises(ValueError, match="zero-norm direction"):
            distortion_estimate(a, np.ones((2, 3)), [1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_norms_rejected_by_row(self, bad):
        a = random_matrix(3)
        with pytest.raises(ValueError, match=r"^norms: row 1 is .*, not finite and positive$"):
            distortion_estimate(a, np.ones((3, 3)), [1.0, bad, 0.0])
