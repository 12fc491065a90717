"""Acceptance suite: one check per headline claim, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines.  Tolerances are stated inline; band criteria assert
boundedness plus stability of the band across dimensions, since the
underlying equivalence constants are absolute but not pinned down.
"""

import itertools
import math

import numpy as np
import pytest

from musielak import construct, embed, perms
from musielak.convex import luxemburg_norm
from musielak.perms import PermutationSampler, WeightMatrix


def _report(num: int, desc: str, passed: bool) -> None:
    print(f"criterion {num:2d} [{'PASS' if passed else 'FAIL'}] {desc}")
    assert passed, f"criterion {num} failed: {desc}"


def random_matrix(rng, n, N=None):
    N = N or n
    return WeightMatrix(np.sort(rng.uniform(0.05, 1, (n, N)), axis=1)[:, ::-1])


def band_of(ratios):
    r = np.asarray(ratios)
    return float(r.min()), float(r.max())


def bands_stable(bands, drift=1.25):
    """Consecutive bands agree within the multiplicative drift factor."""
    for (lo1, hi1), (lo2, hi2) in zip(bands, bands[1:]):
        for a, b in [(lo1, lo2), (hi1, hi2)]:
            if max(a / b, b / a) > drift:
                return False
    return True


def test_01_matrixnorm_sandwich():
    rng = np.random.default_rng(101)
    instances = []
    for k in range(1000):
        n = int(rng.integers(2, 7))
        a = random_matrix(rng, n)
        instances.append((a, rng.normal(size=n)))
    ok = all(rep.passed for rep in perms.lemma_matrixnorm_check(instances))
    _report(1, "1/2..2 sandwich of the matrix norm, 1000 instances, tol 1e-8", ok)


def test_02_khintchine_sandwich():
    rng = np.random.default_rng(102)
    instances = []
    for k in range(1000):
        n = int(rng.integers(2, 6))
        a = random_matrix(rng, n)
        instances.append((a, rng.normal(size=n)))
    ok = all(rep.passed for rep in embed.khintchine_sandwich_check(instances))
    _report(2, "exact Khintchine sandwich of the embedded norm, 1000 instances", ok)


def _equivalence_bands(dims, vectors, make_pair, rng):
    bands = []
    for n in dims:
        a, system = make_pair(n)
        xs = rng.normal(size=(vectors, n))  # the draws of ``vectors`` calls of rng.normal(size=n)
        bands.append(band_of(perms.ave_l2(a, xs).value / luxemburg_norm(system, xs)))
    return bands


def test_03_matrix_to_system_equivalence_band():
    rng = np.random.default_rng(103)

    def make_pair(n):
        a = random_matrix(rng, n)
        return a, construct.functions_from_matrix(a)

    bands = _equivalence_bands(range(2, 8), 500, make_pair, rng)
    bounded = all(hi / lo <= 20.0 for lo, hi in bands)
    _report(3, "l2-average vs. norm band: spread <= 20 and stable in n", bounded and bands_stable(bands))


def test_04_system_to_matrix_equivalence_band():
    rng = np.random.default_rng(104)
    exponents = (1.2, 1.5, 1.8)

    def make_pair(n):
        ps = list(itertools.islice(itertools.cycle(exponents), n))
        system = construct.power_system(ps)
        return construct.matrix_from_functions(system), system

    bands = _equivalence_bands(range(3, 7), 500, make_pair, rng)
    bounded = all(hi / lo <= 20.0 for lo, hi in bands)
    _report(4, "power-system pipeline band: spread <= 20 and stable in n", bounded and bands_stable(bands))


def test_05_profile_reconstruction_identity():
    degenerate = construct.FProfile(lambda t: t, lambda s: (0.0, s))
    worst_deg = construct.h_reconstruct_check(degenerate)
    worst_pow = max(
        construct.h_reconstruct_check(construct.power_profile(p)) for p in (1.2, 1.5, 1.8)
    )
    _report(
        5,
        "H = (int f)^2 + t int f^2 on 64 grid points: power family <= 1e-6, linear exact",
        worst_pow <= 1e-6 and worst_deg <= 1e-12,
    )


def test_06_constant_matrix_knots():
    worst = 0.0
    for n in range(1, 65):
        v = construct.conjugate_inverse_knots(WeightMatrix(np.ones((n, n))))
        expected = np.sqrt(np.arange(n + 1) / n)
        worst = max(worst, float(np.abs(v - expected).max()))
    _report(6, "constant matrix knot values are sqrt(l/n) for n <= 64, err <= 1e-12", worst <= 1e-12)


def test_07_roundtrip():
    rep_const = construct.roundtrip_check(WeightMatrix(np.ones((4, 4))))
    const_ok = max(abs(rep_const.c_low - 1), abs(rep_const.c_high - 1)) <= 1e-6
    exponents = (1.2, 1.5, 1.8)
    power_ok = True
    for n in [3, 4, 5]:
        ps = list(itertools.islice(itertools.cycle(exponents), n))
        system = construct.power_system(ps)
        a = construct.matrix_from_functions(system)
        rep = construct.roundtrip_check(a)
        power_ok = power_ok and 0.25 <= rep.c_low <= rep.c_high <= 4.0
    _report(
        7,
        "roundtrip: constant matrix fixed to 1e-6, power-family constants in [1/4, 4]",
        const_ok and power_ok,
    )


def test_08_two_permutation_band():
    rng = np.random.default_rng(108)
    bands = []
    for n in range(2, 6):
        ratios = []
        for _ in range(200):
            a3 = rng.normal(size=(n, n, n))
            lhs = perms.ave_max_two(a3).value
            ratios.append(lhs / perms.dra_sum_bound(a3))
        bands.append(band_of(ratios))
    bounded = all(0.0 < lo <= hi <= 1.0 + 1e-12 for lo, hi in bands)
    _report(8, "two-permutation max average band bounded and stable in n", bounded and bands_stable(bands))


def brute_matrix_norm(a, x):
    x = np.abs(np.asarray(x, dtype=float))
    n, N = a.n, a.ncols
    prefix = np.concatenate([np.zeros((n, 1)), np.cumsum(a.entries, axis=1)], axis=1)
    best = 0.0
    for ls in itertools.product(range(N + 1), repeat=n):
        if sum(ls) <= N:
            best = max(best, sum(prefix[i, l] * x[i] for i, l in enumerate(ls)))
    return best


def test_09_oracle_equivalences():
    rng = np.random.default_rng(109)
    greedy_ok = True
    for _ in range(500):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(n, 5))
        a = random_matrix(rng, n, N)
        x = rng.normal(size=n)
        got, want = perms.matrix_norm_a(a, x), brute_matrix_norm(a, x)
        greedy_ok = greedy_ok and got == pytest.approx(want, rel=1e-12)
    a = random_matrix(rng, 7)
    x = rng.normal(size=7)
    exact = perms.ave_l2(a, [x]).value[0]
    hits = 0
    for seed in range(100):
        res = perms.ave_l2(a, [x], sampler=PermutationSampler(seed), samples=20_000)
        hits += abs(res.value[0] - exact) <= 4 * res.stderr[0]
    _report(
        9,
        "greedy matrix norm = brute force on 500 instances; MC within 4 SE on >= 99/100 runs",
        greedy_ok and hits >= 99,
    )


def test_10_norm_axioms():
    rng = np.random.default_rng(110)
    tol = 1e-8
    ok = True
    a = random_matrix(rng, 4)
    system = construct.functions_from_matrix(a)
    for _ in range(1000):
        x, y = rng.normal(size=4), rng.normal(size=4)
        lam = rng.uniform(0.1, 5.0)
        for norm in (lambda v: luxemburg_norm(system, [v])[0], lambda v: perms.matrix_norm_a(a, v)):
            nx, ny, nxy, nlx = norm(x), norm(y), norm(x + y), norm(lam * x)
            ok = ok and nxy <= nx + ny + tol * (1 + nx + ny)
            ok = ok and abs(nlx - lam * nx) <= tol * (1 + nlx)
    _report(10, "homogeneity and triangle inequality, 1000 triples per norm", ok)
