import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from orlicz import PiecewiseAffineConvex
from scipy.stats import chisquare

import musielak.perms
from musielak.convex import luxemburg_norm
from musielak.embed import N_EXACT_PSI, psi_image_norm
from musielak.perms import (
    N_EXACT,
    N_EXACT_PAIRS,
    AverageResult,
    PermutationSampler,
    WeightMatrix,
    _max_layout,
    _split_layout,
    ave_l2,
    ave_max_two,
    ave_max_vector,
    build_b_vector,
    dra,
    dra_sum_bound,
    lemma_matrixnorm_check,
    matrix_norm_a,
    prefix_sum_system,
)

rng = np.random.default_rng(99)


def random_matrix(n, N=None):
    N = N or n
    return WeightMatrix(np.sort(rng.uniform(0.05, 1, (n, N)), axis=1)[:, ::-1])


def brute_matrix_norm(a: WeightMatrix, x):
    """Max over all budget vectors sum l_i <= N of the prefix-weighted sum."""
    x = np.abs(np.asarray(x, dtype=float))
    n, N = a.n, a.ncols
    prefix = np.concatenate([np.zeros((n, 1)), np.cumsum(a.entries, axis=1)], axis=1)
    best = 0.0
    for ls in itertools.product(range(N + 1), repeat=n):
        if sum(ls) <= N:
            best = max(best, sum(prefix[i, l] * x[i] for i, l in enumerate(ls)))
    return best


class TestDra:
    def test_sorting(self):
        np.testing.assert_array_equal(dra([3, 1, 2]), [3, 2, 1])

    def test_absolute_values(self):
        np.testing.assert_array_equal(dra([-5, 2]), [5, 2])

    def test_permutation_invariance(self):
        v = rng.normal(size=30)
        np.testing.assert_array_equal(dra(v), dra(rng.permutation(v)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dra([])


class TestSampler:
    def test_reproducible(self):
        a = PermutationSampler(123).permutations(6, 50)
        b = PermutationSampler(123).permutations(6, 50)
        np.testing.assert_array_equal(a, b)
        assert np.any(PermutationSampler(124).permutations(6, 50) != a)

    def test_valid_permutations(self):
        perms = PermutationSampler(5).permutations(7, 200)
        np.testing.assert_array_equal(np.sort(perms, axis=1), np.tile(np.arange(7), (200, 1)))

    def test_uniformity_chi_square(self):
        # all 24 permutations of n=4 should be hit uniformly
        draws = PermutationSampler(2718).permutations(4, 24_000)
        codes = draws @ np.array([64, 16, 4, 1])
        _, counts = np.unique(codes, return_counts=True)
        assert len(counts) == 24
        _, pvalue = chisquare(counts)
        assert pvalue > 1e-4

    def test_spawn_independent(self):
        root = PermutationSampler(7)
        a = root.spawn(1).permutations(5, 10)
        b = root.spawn(2).permutations(5, 10)
        assert np.any(a != b)
        np.testing.assert_array_equal(a, PermutationSampler(7).spawn(1).permutations(5, 10))

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_streams_are_the_documented_philox_streams(self, seed):
        def assert_same(sampler, rng):
            """The sampler's draws, draw for draw, are those of ``rng``."""
            got = [sampler.permutations(5, 3), sampler.normals((2, 3))]
            got += [sampler.uniform(0.05, 1.0, 4), sampler.signs(4, 2)]
            want = [
                np.argsort(rng.random((3, 5)), axis=1, kind="stable"),
                rng.standard_normal((2, 3)),
                rng.uniform(0.05, 1.0, 4),
                rng.integers(0, 2, size=(2, 4)) * 2 - 1,
            ]
            for g, w in zip(got, want, strict=True):
                assert g.tobytes() == w.tobytes()

        root = PermutationSampler(seed)
        assert_same(PermutationSampler(seed), np.random.Generator(np.random.Philox(seed)))
        words = np.random.Philox(seed).state["state"]["key"]
        root_key = int(words[0]) + (int(words[1]) << 64)
        for key in (0, 1, 30_002, 2**64 - 1):
            child_key = root_key ^ (((2**64 - 1) << 64) | key)  # the high word inverted, the key in the low word
            assert_same(root.spawn(key), np.random.Generator(np.random.Philox(key=child_key)))

    def test_distinct_keys_give_distinct_streams(self):
        root = PermutationSampler(7)
        keys = [0, 1, 2, 5, 20_003, 2**63, 2**64 - 1]
        streams = {root.spawn(k).normals(4).tobytes() for k in keys}
        streams.add(PermutationSampler(7).normals(4).tobytes())  # and none replays the root
        assert len(streams) == len(keys) + 1

    @pytest.mark.parametrize("key", [-1, 2**64, 1.0, "3", True, None])
    def test_spawn_rejects_a_bad_key(self, key):
        with pytest.raises(ValueError, match=r"key must be an int in \[0, 2\*\*64\)"):
            PermutationSampler(7).spawn(key)

    def test_a_spawned_sampler_does_not_spawn(self):
        child = PermutationSampler(7).spawn(3)
        with pytest.raises(ValueError, match="a spawned sampler does not spawn"):
            child.spawn(4)


class TestAllPermutations:
    """S_n's one enumeration, the split, as the exact max averages read it (``_max_layout``)."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_itertools(self, n):
        perms = list(itertools.permutations(range(n)))
        for pairs in (False, True)[: 1 + (n <= N_EXACT_PAIRS)]:
            index, heads, own = _max_layout(n, pairs)
            size, h = n ** (1 + pairs), n // 2
            np.testing.assert_array_equal(own, np.r_[: heads, : index.shape[2] - heads])
            assert (index[h:, :, :heads] == n * size).all()  # the head's missing rows point past the values
            # a leaf is a head ordering and a tail ordering of one block, its coordinates the head's then the tail's
            table = np.empty((n, index.shape[1], heads, index.shape[2] - heads), dtype=np.intp)
            table[:h], table[h:] = index[:h, :, :heads, None], index[:, :, None, heads:]
            leaves = table.reshape(n, -1).T
            np.testing.assert_array_equal(leaves // size, np.broadcast_to(np.arange(n), leaves.shape))
            if pairs:  # (i * n + pi(i)) * n + sigma(i)
                rebuilt = zip(map(tuple, (leaves // n % n).tolist()), map(tuple, (leaves % n).tolist()))
                assert sorted(rebuilt) == list(itertools.product(perms, perms))  # each pair once
            else:  # i * n + pi(i)
                assert sorted(map(tuple, (leaves % n).tolist())) == perms  # each permutation once

    def test_cached_and_read_only(self):
        assert _split_layout(5) is _split_layout(5) and _max_layout(5, True) is _max_layout(5, True)
        for index in (*_split_layout(5), _max_layout(5, False)[0], _max_layout(5, True)[0]):
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index.flat[0] = 1


def brute_ave_l2(a: WeightMatrix, x) -> float:
    n = a.n
    return float(
        np.mean(
            [
                math.sqrt(sum((x[i] * a.entries[i, p[i]]) ** 2 for i in range(n)))
                for p in itertools.permutations(range(n))
            ]
        )
    )


@st.composite
def matrix_and_batch(draw):
    n = draw(st.integers(1, 6))
    entries = draw(st.lists(st.floats(0.05, 1.0), min_size=n * n, max_size=n * n))
    a = WeightMatrix(np.sort(np.reshape(entries, (n, n)), axis=1)[:, ::-1])
    count = draw(st.integers(1, 4))
    coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    xs = np.reshape(draw(st.lists(coords, min_size=count * n, max_size=count * n)), (count, n))
    return a, xs


@settings(max_examples=60, deadline=None)
@given(matrix_and_batch())
def test_batched_exact_average_matches_brute_force(case):
    a, xs = case
    values = ave_l2(a, xs).value
    assert values.shape == (len(xs),)
    for x, value in zip(xs, values):
        assert value == pytest.approx(brute_ave_l2(a, x), rel=1e-12, abs=1e-300)
        assert value == ave_l2(a, [x]).value[0]  # the same bits, one vector or a batch


def test_batch_spanning_several_passes():
    # at n = 8 one pass of the kernel holds only one vector
    a, xs = random_matrix(8), rng.normal(size=(3, 8))
    np.testing.assert_array_equal(ave_l2(a, xs).value, [ave_l2(a, [x]).value[0] for x in xs])
    assert ave_l2(a, xs[:1]).value[0] == pytest.approx(brute_ave_l2(a, xs[0]), rel=1e-12)


class TestAveL2:
    def test_constant_matrix(self):
        a = WeightMatrix(np.ones((2, 2)))
        res = ave_l2(a, [[1, 1]])
        assert res.value == pytest.approx([math.sqrt(2)])
        assert res.mode == "exact" and res.stderr.tolist() == [0.0]

    def test_n_equals_one(self):
        a = WeightMatrix(np.array([[0.7]]))
        assert ave_l2(a, [[-3.0]]).value == pytest.approx([2.1])

    def test_against_exhaustive_oracle(self):
        rows = np.array([[3.0, 2.0, 1.0]] * 3)
        a = WeightMatrix(rows)
        x = np.ones((1, 3))
        expected = np.mean(
            [
                math.sqrt(sum(rows[i, p[i]] ** 2 for i in range(3)))
                for p in itertools.permutations(range(3))
            ]
        )
        assert ave_l2(a, x).value == pytest.approx([expected], rel=1e-14)

    def test_permutation_invariance(self):
        a = random_matrix(5)
        xs = rng.normal(size=(3, 5))
        sigma = rng.permutation(5)
        b = WeightMatrix(a.entries[sigma])
        assert ave_l2(a, xs).value == pytest.approx(ave_l2(b, xs[:, sigma]).value, rel=1e-13)

    def test_monte_carlo_close_to_exact(self):
        a = random_matrix(5)
        xs = rng.normal(size=(3, 5))
        exact = ave_l2(a, xs).value
        res = ave_l2(a, xs, sampler=PermutationSampler(11), samples=20_000)
        assert res.mode == "monte-carlo" and (res.stderr > 0).all()
        assert (abs(res.value - exact) < 5 * res.stderr).all()


def average_inputs(n):
    """A weight matrix, a vector and a cube of size n, the same for each n."""
    draws = np.random.default_rng(n)
    a = WeightMatrix(np.sort(draws.uniform(0.05, 1, (n, n)), axis=1)[:, ::-1])
    return a, draws.normal(size=n), draws.normal(size=(n, n, n))


# each average called on average_inputs(n), and its exact limit
AVERAGES = {
    "ave_l2": (lambda a, x, a3, **kw: ave_l2(a, [x], **kw), N_EXACT),
    "ave_max_two": (lambda a, x, a3, **kw: ave_max_two(a3, **kw), N_EXACT_PAIRS),
    "ave_max_vector": (lambda a, x, a3, **kw: ave_max_vector(build_b_vector(len(x)), x, **kw), N_EXACT),
    "psi_image_norm": (lambda a, x, a3, **kw: psi_image_norm(a, [x], **kw), N_EXACT_PSI),
}
# the averages over a (V, n) batch of vectors
BATCHED = {"ave_l2": (ave_l2, N_EXACT), "psi_image_norm": (psi_image_norm, N_EXACT_PSI)}


@pytest.mark.parametrize("name", sorted(AVERAGES))
def test_sampler_selects_exact_or_monte_carlo(name):
    average, limit = AVERAGES[name]
    a, x, a3 = average_inputs(4)
    exact = average(a, x, a3)
    assert exact.mode == "exact" and exact.stderr == 0.0
    estimate = average(a, x, a3, sampler=PermutationSampler(7), samples=20_000)
    assert estimate.mode == "monte-carlo" and estimate.samples == 20_000 and estimate.stderr > 0
    assert abs(estimate.value - exact.value) < 5 * estimate.stderr
    past = average_inputs(limit + 1)
    with pytest.raises(ValueError, match=f"limited to n <= {limit}"):
        average(*past)
    assert average(*past, sampler=PermutationSampler(7), samples=100).mode == "monte-carlo"
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            average(a, x, a3, sampler=PermutationSampler(7), samples=samples)


def test_exact_averages_share_one_limit_message():
    for average, limit in AVERAGES.values():
        with pytest.raises(ValueError) as err:
            average(*average_inputs(limit + 1))
        assert str(err.value) == f"exact mode limited to n <= {limit}"


def test_seeded_max_averages_are_unchanged():
    # pi is drawn before sigma: each draw is replayed from the same seed, and the results are pinned
    _, x, a3 = average_inputs(4)
    b = build_b_vector(4)
    two = ave_max_two(a3, PermutationSampler(7), 500)
    vector = ave_max_vector(b, x, PermutationSampler(7), 500)
    replay = PermutationSampler(7)
    pis, sigmas = replay.permutations(4, 500), replay.permutations(4, 500)
    pairs = [max(abs(a3[i, p[i], q[i]]) for i in range(4)) for p, q in zip(pis, sigmas)]
    assert two.value == np.mean(pairs)
    perms = PermutationSampler(7).permutations(4, 500)
    assert vector.value == np.mean([max(abs(x[k] * b[p[k]]) for k in range(4)) for p in perms])
    assert (two.value, two.stderr) == (1.480837309337626, 0.02310419069716121)
    assert (vector.value, vector.stderr) == (2.6630303406866602, 0.031758242851879934)


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_exact_kernels_check_their_input(name):
    average, limit = BATCHED[name]
    a, x, _ = average_inputs(3)
    for sampler in (None, PermutationSampler(7)):  # the exact walk and the Monte Carlo kernel
        with pytest.raises(ValueError, match="square"):
            average(WeightMatrix(np.ones((2, 3))), np.ones((1, 2)), sampler, 10)
        with pytest.raises(ValueError, match=r"^xs must be a \(V, 3\) batch of vectors, got shape \(2, 4\)$"):
            average(a, np.ones((2, 4)), sampler, 10)
        with pytest.raises(ValueError, match=r"^xs must be a \(V, 3\) batch of vectors, got shape \(3,\)$"):
            average(a, x, sampler, 10)  # a single vector, not a batch
        for bad in (np.nan, np.inf, -np.inf):
            xs = np.ones((3, 3))
            xs[1:, 2] = bad
            with pytest.raises(ValueError, match="xs: row 1 has a non-finite entry"):
                average(a, xs, sampler, 10)
        assert average(a, np.empty((0, 3)), sampler, 10).value.shape == (0,)
    past, _, _ = average_inputs(limit + 1)
    with pytest.raises(ValueError, match=f"limited to n <= {limit}"):
        average(past, np.ones((1, limit + 1)))


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_matrices_per_vector_are_checked(name):
    average, limit = BATCHED[name]
    a, _, _ = average_inputs(3)
    b, _, _ = average_inputs(2)
    xs = np.ones((2, 3))
    with pytest.raises(ValueError, match="^a: a sampled average takes one WeightMatrix"):
        average([a, a], xs, PermutationSampler(7), 10)
    for bad, message in (
        ([a], "^a: 1 matrices for 2 vectors, need one per vector$"),
        ([a, b], "^a: the matrices must all have one shape$"),
        ([], "^a must be a WeightMatrix or a nonempty sequence of them$"),
        ([a, a.entries], "^a must be a WeightMatrix or a nonempty sequence of them$"),
        (np.stack([a.entries, a.entries]), "^a must be a WeightMatrix or a nonempty sequence of them$"),
    ):
        with pytest.raises(ValueError, match=message):
            average(bad, xs)
    wide = WeightMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        average([wide, wide], np.ones((2, 2)))
    with pytest.raises(ValueError, match="xs: row 1 has a non-finite entry"):
        average([a, a], [[1.0, 2.0, 3.0], [1.0, np.nan, 0.0]])
    past, _, _ = average_inputs(limit + 1)
    with pytest.raises(ValueError, match=f"limited to n <= {limit}"):
        average([past], np.ones((1, limit + 1)))


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_blocks_and_passes_keep_each_rows_bits(name, monkeypatch):
    # small passes split every batch into several blocks of several passes, one matrix or one per vector
    average, limit = BATCHED[name]
    for n in range(1, min(limit, 6) + 1):
        draws = np.random.default_rng(300 + n)
        matrices = [WeightMatrix(np.sort(draws.uniform(0.05, 1, (n, n)), axis=1)[:, ::-1]) for _ in range(9)]
        xs = draws.normal(size=(9, n))
        shared = [average(matrices[0], [x]).value[0] for x in xs]
        own = [average(a, [x]).value[0] for a, x in zip(matrices, xs)]
        monkeypatch.setattr(musielak.perms, "_BATCH_ELEMENTS", 2 * math.factorial(n))
        assert average(matrices[0], xs).value.tolist() == shared
        assert average(matrices, xs).value.tolist() == own
        monkeypatch.undo()


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_monte_carlo_batch_contract(name):
    average, limit = BATCHED[name]
    a, _, _ = average_inputs(4)
    xs = np.random.default_rng(4).normal(size=(20, 4))
    batch = average(a, xs, PermutationSampler(3), 5_000)
    assert batch.mode == "monte-carlo" and batch.value.shape == batch.stderr.shape == (20,)
    # the batch shares one sample: a row alone has the bits it has in the batch
    alone = average(a, xs[7:8], PermutationSampler(3), 5_000)
    assert (alone.value[0], alone.stderr[0]) == (batch.value[7], batch.stderr[7])
    # every row within 5 standard errors of the exact average
    assert (abs(batch.value - average(a, xs).value) < 5 * batch.stderr).all()
    # far past the exact limits
    big, _, _ = average_inputs(32)
    far = average(big, np.random.default_rng(32).normal(size=(5, 32)), PermutationSampler(5), 2_000)
    assert np.isfinite(far.value).all() and (far.stderr > 0).all()


def brute_ave_max_two(a3) -> float:
    """The pair average by a loop over itertools' pairs of permutations."""
    n = len(a3)
    perms = list(itertools.permutations(range(n)))
    return math.fsum(max(abs(a3[i, p[i], q[i]]) for i in range(n)) for p in perms for q in perms) / len(perms) ** 2


def brute_ave_max_vector(b, y) -> float:
    """The vector average by a loop over itertools' permutations."""
    perms = list(itertools.permutations(range(len(b))))
    return math.fsum(max(abs(y[k] * b[p[k]]) for k in range(len(b))) for p in perms) / len(perms)


def hard_max_inputs(draws, shape, draw):
    """Normal entries (draw 0), small integers with ties and zeros (1, 2), or entries spanning 1e-100..1e100 (3)."""
    x = draws.normal(size=shape)
    if draw == 3:
        return x * 10.0 ** draws.uniform(-100, 100, shape)
    return np.round((2.0, 0.5)[draw - 1] * x) if draw else x


@pytest.mark.parametrize("n", range(1, 6))
def test_max_averages_match_brute_force(n):
    draws = np.random.default_rng(50 + n)
    for draw in range(4):
        a3, b, y = (hard_max_inputs(draws, shape, draw) for shape in ((n, n, n), n, n))
        if n <= 4:
            assert ave_max_two(a3).value == pytest.approx(brute_ave_max_two(a3), rel=1e-14)
        assert ave_max_vector(b, y).value == pytest.approx(brute_ave_max_vector(b, y), rel=1e-14)
    b, y = build_b_vector(n + 3), draws.normal(size=n + 3)  # up to n = 8, the vector's limit
    assert ave_max_vector(b, y).value == pytest.approx(brute_ave_max_vector(b, y), rel=1e-14)


def fancy_index_ave_max_two(a3) -> float:
    """The exact pair average as one (n!, n!, n) fancy index over itertools' permutations."""
    n = a3.shape[0]
    idx, pis = np.arange(n), np.array(list(itertools.permutations(range(n))))
    vals = np.abs(a3[idx[None, None, :], pis[:, None, :], pis[None, :, :]])
    return float(vals.max(axis=2).ravel().mean())


class TestAveMaxTwo:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_same_bits_as_fancy_index(self, n):
        # the split sums in another order than the fancy index: equal up to rounding
        cubes = np.random.default_rng(n)
        for draw in range(8):
            a3 = hard_max_inputs(cubes, (n, n, n), draw % 4)
            assert ave_max_two(a3).value == pytest.approx(fancy_index_ave_max_two(a3), rel=1e-14)

    def test_empty_cube_rejected(self):
        with pytest.raises(ValueError, match="cubic"):
            ave_max_two(np.ones((0, 0, 0)))

    @pytest.mark.parametrize("average", [ave_max_two, dra_sum_bound])
    def test_bad_cube_rejected(self, average):
        for shape in [(0, 0, 0), (2, 2, 3), (2, 2)]:
            with pytest.raises(ValueError, match="needs a finite cubic n x n x n array, n >= 1"):
                average(np.ones(shape))
        # a NaN sorts out of dra_sum_bound's top entries, and makes ave_max_two's mean nan
        for bad in (np.nan, np.inf, -np.inf):
            a3 = np.ones((3, 3, 3))
            a3[1, 2, 0] = bad
            with pytest.raises(ValueError, match="needs a finite cubic"):
                average(a3)

    def test_single_entry(self):
        assert ave_max_two(np.full((1, 1, 1), -2.5)).value == pytest.approx(2.5)

    def test_constant_cube(self):
        assert ave_max_two(np.full((3, 3, 3), 0.4)).value == pytest.approx(0.4)

    def test_against_pair_enumeration(self):
        a3 = rng.normal(size=(3, 3, 3))
        assert ave_max_two(a3).value == pytest.approx(brute_ave_max_two(a3), rel=1e-14)

    def test_exact_limit(self):
        with pytest.raises(ValueError):
            ave_max_two(np.ones((6, 6, 6)))

    def test_monte_carlo(self):
        a3 = rng.normal(size=(4, 4, 4))
        exact = ave_max_two(a3).value
        res = ave_max_two(a3, sampler=PermutationSampler(3), samples=20_000)
        assert abs(res.value - exact) < 5 * res.stderr


class TestDraSumBound:
    def test_constant(self):
        assert dra_sum_bound(np.full((3, 3, 3), 1.7)) == pytest.approx(1.7)

    def test_single(self):
        assert dra_sum_bound(np.full((1, 1, 1), -3.0)) == pytest.approx(3.0)

    def test_top_four(self):
        a3 = np.array([8.0, 7, 6, 5, 4, 3, 2, 1]).reshape(2, 2, 2)
        assert dra_sum_bound(a3) == pytest.approx(6.5)


class TestMatrixNorm:
    def test_single_row(self):
        a = WeightMatrix(np.array([[3.0, 1.0]]))
        assert matrix_norm_a(a, [2.0]) == pytest.approx(8.0)

    def test_zero_vector(self):
        assert matrix_norm_a(random_matrix(3), np.zeros(3)) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="x must be a nonempty finite vector"):
            matrix_norm_a(random_matrix(3), [1.0, bad, 0.0])

    def test_budget_split(self):
        a = WeightMatrix(np.array([[2.0, 1.0], [3.0, 1.0]]))
        assert matrix_norm_a(a, [1.0, 1.0]) == pytest.approx(5.0)
        assert matrix_norm_a(a, [1.0, 1.0]) == pytest.approx(brute_matrix_norm(a, [1, 1]))

    def test_greedy_equals_brute_force(self):
        for _ in range(100):
            n = rng.integers(1, 5)
            N = rng.integers(n, 5)
            a = random_matrix(n, N)
            x = rng.normal(size=n)
            assert matrix_norm_a(a, x) == pytest.approx(brute_matrix_norm(a, x), rel=1e-13)

    def test_norm_axioms(self):
        a = random_matrix(4)
        for _ in range(50):
            x, y = rng.normal(size=4), rng.normal(size=4)
            lam = rng.uniform(0.1, 5)
            assert matrix_norm_a(a, lam * x) == pytest.approx(lam * matrix_norm_a(a, x), rel=1e-13)
            assert matrix_norm_a(a, x + y) <= matrix_norm_a(a, x) + matrix_norm_a(a, y) + 1e-12


class TestSandwich:
    def test_zero_vector(self):
        (rep,) = lemma_matrixnorm_check([(random_matrix(3), np.zeros(3))])
        assert rep.passed and rep.value == 0.0

    def test_one_by_one_against_scan(self):
        # n = N = 1: both norms equal a11 |x1|; confirm the Luxemburg side
        # with a fine rho scan
        a = WeightMatrix(np.array([[0.8]]))
        system = prefix_sum_system(a)
        x = [1.3]
        rhos = np.arange(1e-3, 3.0, 1e-6)
        m = PiecewiseAffineConvex(system.knots[0], system.values[0], system.bounds[0]).conjugate()
        with np.errstate(over="ignore"):
            sums = m(1.3 / rhos)
        scan = rhos[sums <= 1][0]
        (norm,) = luxemburg_norm(system, [x])
        assert norm == pytest.approx(scan, abs=2e-6)
        assert norm == pytest.approx(0.8 * 1.3, rel=1e-9)
        (rep,) = lemma_matrixnorm_check([(a, x)])
        assert rep.passed

    def test_equal_entries(self):
        # M_i* has slope 1/(4 * 0.05) = 5 throughout (the rounded prefix sums
        # make its slopes differ in the last bits), so M_i is 0 up to 5 and
        # +inf beyond, and the Luxemburg norm is max |x_i| / 5
        a = WeightMatrix(np.full((4, 4), 0.05))
        system = prefix_sum_system(a)
        assert luxemburg_norm(system, [[1.0, 2.0, -3.0, 0.5]])[0] == pytest.approx(0.6, rel=1e-12)
        (rep,) = lemma_matrixnorm_check([(a, [1.0, 2.0, -3.0, 0.5])])
        assert rep.passed

    def test_random_instances(self):
        for _ in range(100):
            n = rng.integers(1, 5)
            a = random_matrix(n, rng.integers(n, 6))
            (rep,) = lemma_matrixnorm_check([(a, rng.normal(size=n))])
            assert rep.passed


class TestBVector:
    def test_n4(self):
        np.testing.assert_allclose(build_b_vector(4), [2, math.sqrt(2), 2 / math.sqrt(3), 1])

    def test_n1(self):
        np.testing.assert_allclose(build_b_vector(1), [1.0])

    def test_shape_properties(self):
        for n in range(1, 10):
            b = build_b_vector(n)
            assert np.all(b >= 1) and b[0] == pytest.approx(math.sqrt(n))
            assert np.all(np.diff(b) <= 0)


class TestAveMaxVector:
    def test_n1(self):
        assert ave_max_vector([2.0], [-1.5]).value == pytest.approx(3.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_empty_or_non_finite_rejected(self, bad):
        b, y = build_b_vector(3), np.ones(3)
        with pytest.raises(ValueError, match="y must be a nonempty finite vector"):
            ave_max_vector(b, [1.0, 1.0, bad])
        with pytest.raises(ValueError, match="b must be a nonempty finite vector"):
            ave_max_vector([bad, 1.0, 1.0], y, PermutationSampler(1), 10)
        with pytest.raises(ValueError, match="b must be a nonempty finite vector"):
            ave_max_vector([], [])

    def test_two_permutations(self):
        res = ave_max_vector(build_b_vector(2), [1.0, 0.0])
        assert res.value == pytest.approx((math.sqrt(2) + 1) / 2)

    def test_against_exhaustive_oracle(self):
        n = 5
        b = build_b_vector(n)
        y = rng.normal(size=n)
        assert ave_max_vector(b, y).value == pytest.approx(brute_ave_max_vector(b, y), rel=1e-14)

    def test_l2_equivalence_band(self):
        # Ave_sigma max |y_k b_sigma(k)| stays within fixed factors of ||y||_2
        ratios = []
        for n in range(2, 8):
            b = build_b_vector(n)
            for _ in range(50):
                y = rng.normal(size=n)
                ratios.append(ave_max_vector(b, y).value / np.linalg.norm(y))
        assert 0.3 < min(ratios) and max(ratios) < 3.0


class TestSerialization:
    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            WeightMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ValueError, match="row 0"):
            WeightMatrix(np.array([[1.0, -1.0]]))
        for shape in [(0, 0), (0, 3), (3, 0), (2,)]:
            with pytest.raises(ValueError, match="entries must be a nonempty 2-d array"):
                WeightMatrix(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ValueError, match="row 1 has a non-finite entry"):
            WeightMatrix(np.array([[2.0, 1.0], [bad, 1.0]]))

    def test_rows_pass_reads_each_rows_own_last_entry(self):
        # rows zero-padded past their own last entry, as the stacked round trip checks its rebuilt matrices
        rows, own = np.array([[2.0, 1.0, 0.0], [3.0, 2.0, 1.0], [1.0, 0.0, 0.0]]), np.array([1, 2, 0])
        assert WeightMatrix.rows_pass(rows, rows[np.arange(3), own])
        assert not WeightMatrix.rows_pass(rows, rows[:, -1])  # rows 0 and 2 would end at their padding
        for i, j, bad in [(0, 0, 0.5), (1, 0, np.inf), (2, 0, np.nan), (1, 2, -np.inf)]:
            broken = rows.copy()
            broken[i, j] = bad
            assert not WeightMatrix.rows_pass(broken, broken[np.arange(3), own])

    def test_rejection_matches_the_row_loop(self):
        def first_bad_row(entries):  # the per-row validation, checks in message order
            for i, row in enumerate(entries):
                if not np.isfinite(row).all():
                    return f"row {i} has a non-finite entry"
                if row[-1] <= 0:
                    return f"row {i} is not strictly positive"
                if np.any(np.diff(row) > 0):
                    return f"row {i} is not nonincreasing"
            return None

        r = np.random.default_rng(17)
        seen = set()
        for _ in range(400):
            n = int(r.integers(1, 5))
            entries = np.sort(r.uniform(0.05, 1.0, (n, n + int(r.integers(0, 3)))), axis=1)[:, ::-1].copy()
            for _ in range(int(r.integers(0, 3))):
                i, j = r.integers(entries.shape[0]), r.integers(entries.shape[1])
                entries[i, j] = r.choice([np.nan, np.inf, -np.inf, -0.5, 0.0, 2.0])
            expected = first_bad_row(entries)
            seen.add(expected and expected.split(" ", 2)[2])
            if expected is None:
                WeightMatrix(entries)
            else:
                with pytest.raises(ValueError) as err:
                    WeightMatrix(entries)
                assert str(err.value) == expected
        assert seen == {None, "has a non-finite entry", "is not strictly positive", "is not nonincreasing"}


def split_order_table(n) -> np.ndarray:
    """(n!, n) flat indices i * n + pi(i) of every permutation, row t the leaf t of ``_split_layout(n)``.

    The leaves are laid out (head ordering, tail ordering, subset), and a
    leaf's coordinates are its head's followed by its tail's.
    """
    h, subsets = n // 2, math.comb(n, n // 2)
    head, tail = _split_layout(n)
    shape = (math.factorial(h), math.factorial(n - h), subsets)
    table = np.empty((n, *shape), dtype=np.intp)
    table[:h] = head.reshape(h, shape[0], 1, subsets)
    table[h:] = tail.reshape(n - h, 1, shape[1], subsets)
    return table.reshape(n, -1).T


def _flat_ave_l2_exact(a: WeightMatrix, xs) -> np.ndarray:
    """Reference: head and tail sums on the flat (V, n!) array of the split-order table's rows, then the mean."""
    table = split_order_table(a.n)
    e2 = (a.entries**2).ravel()
    x2 = np.asarray(xs, dtype=float) ** 2
    halves = []
    for coords in (range(a.n // 2), range(a.n // 2, a.n)):  # each in i order
        acc = np.zeros((len(x2), len(table)))
        for i in coords:
            acc += x2[:, i : i + 1] * e2.take(table[:, i])
        halves.append(acc)
    return np.sqrt(halves[0] + halves[1]).mean(axis=1)


@pytest.mark.parametrize("n", range(1, 9))
@np.errstate(over="ignore")
def test_split_kernel_has_the_flat_kernels_bits(n):
    a = random_matrix(n)
    xs = np.vstack([np.zeros(n), rng.normal(size=(15, n))])  # several passes at n = 7 and 8
    draws = np.random.default_rng(900 + n)
    matrices = [WeightMatrix(np.sort(draws.uniform(0.05, 1, (n, n)), axis=1)[:, ::-1]) for _ in xs]
    for scale in (1e-170, 1e-150, 1.0, 1e150, 1e170):
        values = ave_l2(a, scale * xs).value
        np.testing.assert_array_equal(values, _flat_ave_l2_exact(a, scale * xs))
        assert values[0] == 0.0
        # one matrix per vector: each row is the flat kernel of its own matrix
        stacked = ave_l2(matrices, scale * xs).value
        own = [_flat_ave_l2_exact(m, scale * x[None])[0] for m, x in zip(matrices, xs)]
        np.testing.assert_array_equal(stacked, own)
        assert stacked[0] == 0.0
    # squares underflow to 0 and overflow to inf at the extreme scales
    assert (ave_l2(a, 1e-170 * xs).value == 0.0).all()
    assert np.isinf(ave_l2(a, 1e170 * xs[1:]).value).all()


@pytest.mark.parametrize("n", range(1, 9))
def test_split_layout_covers_every_permutation_once(n):
    head, tail = _split_layout(n)
    subsets = math.comb(n, n // 2)
    assert head.shape == (n // 2, math.factorial(n // 2) * subsets)
    assert tail.shape == (n - n // 2, math.factorial(n - n // 2) * subsets)
    assert not head.flags.writeable and not tail.flags.writeable
    table = split_order_table(n)
    np.testing.assert_array_equal(table // n, np.broadcast_to(np.arange(n), table.shape))  # coordinate i at column i
    assert sorted(map(tuple, (table % n).tolist())) == list(itertools.permutations(range(n)))  # each once


def test_exact_averages_walk_one_tree():
    # all four exact averages read one split layout per n, and nothing else enumerates S_n
    _split_layout.cache_clear()
    _max_layout.cache_clear()
    a, x, a3 = average_inputs(5)
    for average, _ in AVERAGES.values():
        average(a, x, a3)
    assert (_split_layout.cache_info().misses, _split_layout.cache_info().currsize) == (1, 1)
    assert not hasattr(musielak.perms, "_prefix_tree")
