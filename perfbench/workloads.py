"""The benchmark's workloads: seeded jobs of `musielak` CLI commands.

A job is one seed's set of commands. Job ``index`` of a workload run with
seed ``seed`` is drawn from ``random.Random("<workload>:<seed>:<index>")``,
so the same workload seed always yields the same jobs, and the program
receives only the generated seed and config.

Each command carries ``expect``: the number of CSV rows it must write, per
row kind (the instance-id prefix, see ``checks.row_kind``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# power exponents are drawn one per third of this range, so every job mixes
# a near-linear, a middle and a near-quadratic function
EXPONENT_RANGE = (1.15, 1.85)


@dataclass(frozen=True)
class Command:
    name: str
    config: dict
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Job:
    seed: int
    commands: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # random.Random -> tuple[Command, ...]
    traced_jobs: int  # fixed job count of the traced run


def _exponents(rng: random.Random) -> list:
    lo, hi = EXPONENT_RANGE
    third = (hi - lo) / 3
    return [round(rng.uniform(lo + k * third, lo + (k + 1) * third), 6) for k in range(3)]


def _pwa_matrix(rng):
    dims = [2, 3, 4, 5, 6, 7]
    small = [2, 3, 4, 5]
    instances, vectors, oracles = 1, 8, 3
    return (
        Command(
            "verify-thm1",
            {"dims": dims, "instances": instances, "vectors": vectors, "family": "random-decreasing"},
            {"thm1": len(dims) * instances * vectors},
        ),
        Command(
            "lemma-oracles",
            {"dims": small, "instances": oracles},
            {"l21": len(small) * oracles, "l22": len(small) * oracles},
        ),
    )


def _power_system(rng):
    exponents = _exponents(rng)
    big = [6, 7, 8]
    dims = [2, 3, 4, 5, 6]
    vectors, instances, samples = 12, 2, 4
    return (
        Command(
            "verify-thm2",
            {"dims": big, "vectors": vectors, "exponents": exponents},
            {"thm2": len(big) * vectors},
        ),
        Command(
            "embed-report",
            {"dims": dims, "instances": instances, "samples": samples, "exponents": exponents},
            # Khintchine is exact up to n = 5, distortion up to n = 6
            {"kh": instances * sum(n <= 5 for n in dims), "dist": len(dims)},
        ),
    )


def _roundtrip_fit(rng):
    dims = [4, 6, 8]
    return (
        Command(
            "roundtrip",
            {"dims": dims, "family": "power-family", "exponents": _exponents(rng)},
            {"rt": len(dims)},
        ),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pwa-matrix", _pwa_matrix, traced_jobs=12),
        Workload("power-system", _power_system, traced_jobs=5),
        Workload("roundtrip-fit", _roundtrip_fit, traced_jobs=4),
    )
}


def make_job(workload: Workload, seed: int, index: int) -> Job:
    rng = random.Random(f"{workload.name}:{seed}:{index}")
    job_seed = rng.randrange(2**31)
    return Job(job_seed, workload.make(rng))
