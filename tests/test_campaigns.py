"""The campaigns' draw contract, rebuilt without the campaign code.

A row of an instance drawn per instance comes from
``PermutationSampler(seed).spawn(n * 10000 + k)``, a row of an instance
drawn per dimension from ``spawn(n)``; within an instance the matrix is
drawn first, then the vectors in row order.  The benchmark's oracle
replays these draws, so any change to them must show here first.
"""

import itertools

import numpy as np
import pytest

from musielak import campaigns, construct, convex, embed, perms
from musielak.convex import luxemburg_norm
from musielak.perms import PermutationSampler, WeightMatrix

SEED = 11


def _decreasing(s, n):
    return WeightMatrix(np.sort(s.uniform(0.05, 1.0, (n, n)), axis=1)[:, ::-1])


def _row(report, instance_id):
    (row,) = [r for r in report["rows"] if r["instance_id"] == instance_id]
    return row


def test_thm1_row_replays_from_instance_key():
    n, k, v = 3, 1, 2
    row = _row(campaigns.thm1_campaign([n], SEED, instances=2, vectors=3, family="random-decreasing"), f"n{n}-i{k}-x{v}")
    s = PermutationSampler(SEED).spawn(n * 10_000 + k)
    a = _decreasing(s, n)
    x = [s.normals(n) for _ in range(v + 1)][-1]
    assert row["lhs"] == perms.ave_l2(a, [x]).value[0]
    assert row["rhs"] == luxemburg_norm(construct.functions_from_matrix(a), [x])[0]


def test_thm2_row_replays_from_dimension_key():
    n, v, exponents = 4, 1, (1.3, 1.7)
    row = _row(campaigns.thm2_campaign([n], SEED, vectors=2, exponents=exponents), f"n{n}-x{v}")
    s = PermutationSampler(SEED).spawn(n)
    ps = itertools.islice(itertools.cycle(exponents), n)
    system = construct.power_system(ps)
    x = [s.normals(n) for _ in range(v + 1)][-1]
    assert row["lhs"] == perms.ave_l2(construct.matrix_from_functions(system), [x]).value[0]
    assert row["rhs"] == luxemburg_norm(system, [x])[0]


def test_lemma22_row_replays_from_instance_key():
    n, k = 4, 2
    row = _row(campaigns.lemma22_campaign([n], SEED, instances=3), f"l22-n{n}-i{k}")
    s = PermutationSampler(SEED).spawn(n * 10_000 + k)
    a = _decreasing(s, n)
    (rep,) = perms.lemma_matrixnorm_check([(a, s.normals(n))])
    assert (row["lhs"], row["rhs"]) == (rep.lower, rep.value)


def test_lemma21_row_replays_from_instance_key():
    n, k = 3, 1
    row = _row(campaigns.lemma21_campaign([n], SEED, instances=2), f"l21-n{n}-i{k}")
    a3 = PermutationSampler(SEED).spawn(n * 10_000 + k).normals((n, n, n))
    assert (row["lhs"], row["rhs"]) == (perms.ave_max_two(a3).value, perms.dra_sum_bound(a3))


def test_khintchine_row_replays_from_instance_key():
    n, k = 4, 2
    row = _row(campaigns.khintchine_campaign([n], SEED, instances=3), f"kh-n{n}-i{k}")
    s = PermutationSampler(SEED).spawn(n * 10_000 + k)
    a = _decreasing(s, n)
    (rep,) = embed.khintchine_sandwich_check([(a, s.normals(n))])
    assert (row["lhs"], row["rhs"], row["passed"]) == (rep.lower, rep.value, rep.passed)


MIXED = [5, 2, 4]  # unsorted, so that each stack pads vectors of a smaller n between larger ones
STACKED = {
    "thm1": lambda dims, instances: campaigns.thm1_campaign(dims, SEED, instances, 3, "random-decreasing"),
    "lemma22": lambda dims, instances: campaigns.lemma22_campaign(dims, SEED, instances),
    "khintchine": lambda dims, instances: campaigns.khintchine_campaign(dims, SEED, instances),
    "distortion": lambda dims, instances: campaigns.distortion_campaign(dims, SEED, 5, (1.3, 1.7)),
    "roundtrip": lambda dims, instances: campaigns.roundtrip_campaign(dims, SEED, "power-family", (1.3, 1.7)),
}


@pytest.mark.parametrize("campaign", sorted(STACKED))
def test_stacked_rows_are_the_rows_of_one_instance_calls(campaign, monkeypatch):
    run = STACKED[campaign]
    rows = run(MIXED, 1)["rows"]
    assert len({r["n"] for r in rows}) == len(MIXED)
    assert rows == [r for n in MIXED for r in run([n], 1)["rows"]]
    # several instances per n: the same rows when every instance is solved in a pass of its own
    rows = run(MIXED, 3)["rows"]
    monkeypatch.setattr(convex, "PASS_ELEMENTS", 0)
    assert rows == run(MIXED, 3)["rows"]


def test_roundtrip_fits_every_matrix_in_one_call(monkeypatch):
    sizes, checks = [], construct.roundtrip_checks
    monkeypatch.setattr(construct, "roundtrip_checks", lambda matrices: sizes.append(len(matrices)) or checks(matrices))
    rows = campaigns.roundtrip_campaign(MIXED, SEED, "power-family", (1.3, 1.7))["rows"]
    assert sizes == [len(MIXED)] and [r["n"] for r in rows] == MIXED
