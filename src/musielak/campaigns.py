"""Seed-controlled verification campaigns over random instance families.

Each campaign draws instances from a named family (``constant``,
``random-decreasing`` or ``power-family``), evaluates one of the library's
equivalence or sandwich checks on them, and gates the rows against one
declared bound.  All randomness flows from a single seed through
per-instance derived samplers, so a campaign is reproducible instance by
instance: instance k of dimension n draws from spawn key
n * INSTANCE_KEYS + k (``_per_instance``), an instance per dimension from
key n (``_per_dim``), the matrix first and then the vectors.  A spawn key
is folded into the Philox key of the seed's root sampler, with no hash
(``PermutationSampler.spawn``), so every key is an independent stream.  So
Lemma 2.1 and Lemma 2.2 instance k of dimension n spawn the same key, each
from a fresh root sampler, and their draws start from the same state:
Lemma 2.1 draws its cube of normals, Lemma 2.2 its matrix of uniforms and
then its vector.  Khintchine instance k of ``embed-report`` draws just as
Lemma 2.2 does, so at one seed it checks the same matrix and vector.

One runner, ``_run``, works in two phases.  ``draw(n, sampler, tag)``
builds each instance from its own sampler, in the listed order, and
``check(drawn)`` turns all of them into rows in one call.  Theorems 1
and 2, Lemma 2.2 and the distortion part of ``embed-report`` solve every
Luxemburg norm of the campaign in stacked passes
(``convex.stacked_passes``): one ``luxemburg_norm`` call at the usual
sizes, each row with the bits of its own instance's solve.  Theorem 1
and Lemma 2.2 draw matrices, not systems: each pass builds the systems
of all its matrices in one call (``construct.functions_from_matrices``,
``perms.prefix_sum_systems``).  The round trip fits and integrates all its
matrices in one call (``construct.roundtrip_checks``), and Khintchine
checks all its instances in one call (``embed.khintchine_sandwich_check``:
one l2 and one psi call per n, one matrix per vector); Lemma 2.1 checks
instance by instance.  The draws are read as the check goes, so a check
holds one pass of instances at a time; Khintchine holds all of its own.

Each CLI command runs one campaign, whose parameters are the config keys
of the command, without defaults (``cli.COMMANDS`` holds those).

Every campaign returns ``gate`` (the bound, the worst value found and the
margin between them) and ``passed``, which is ``margin >= 0``; an empty
sweep has no margin and passes.  Every campaign but ``construct_campaign``
also returns ``rows`` (for CSV export), ``dims`` (the n it checked), and
``per_n`` and ``band`` (summaries of the ``ratio`` column);
``construct_campaign`` returns its ``results`` instead.  A campaign that
joins two parts returns one such block per part.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import construct, embed, perms
from .convex import MusielakSystem, luxemburg_norm, stacked_passes
from .perms import PermutationSampler, WeightMatrix

__all__ = [
    "make_matrix",
    "make_power_system",
    "thm1_campaign",
    "thm2_campaign",
    "lemma21_campaign",
    "lemma22_campaign",
    "khintchine_campaign",
    "roundtrip_campaign",
    "distortion_campaign",
    "lemma_oracles_campaign",
    "embed_report_campaign",
    "construct_campaign",
]

FAMILIES = ("constant", "random-decreasing", "power-family")
DEFAULT_EXPONENTS = (1.2, 1.5, 1.8)

# Gate bounds.  Bands of Thm 1 and Thm 2: spread max(ratio)/min(ratio).
BAND_SPREAD_MAX = 20.0
# Lemma 2.1, ave_max_two / dra_sum_bound, between values computed exactly.
LEMMA21_MAX = 1.0 + 1e-9
# Lemma 2.2 and Khintchine: rows whose own sandwich check failed.
SANDWICH_FAILURES_MAX = 0
# Round trip: both equivalence constants in this interval.
ROUNDTRIP_RANGE = (0.25, 4.0)
# Distortion of the embedding: Khintchine's sqrt 2 times the band bound.
DISTORTION_MAX = math.sqrt(2.0) * BAND_SPREAD_MAX
# Construct: knot values of the rows rebuilt from the knot values, relative to the input's.
KNOT_REBUILD_MAX = 1e-12
N_KHINTCHINE = 5  # the Khintchine part of embed-report: 2^5 5! = 3840 terms per instance
# Instance k of dimension n is drawn from spawn key n * INSTANCE_KEYS + k, so a campaign draws at most
# INSTANCE_KEYS instances per n (``cli`` rejects more): instance (n, INSTANCE_KEYS) would replay (n + 1, 0).
INSTANCE_KEYS = 10_000


def make_matrix(
    family: str, n: int, sampler: PermutationSampler | None = None, exponents=DEFAULT_EXPONENTS
) -> WeightMatrix:
    """Draw one n x n weight matrix from the named instance family."""
    if family == "constant":
        return WeightMatrix(np.ones((n, n)))
    if family == "random-decreasing":
        if sampler is None:
            raise ValueError("random-decreasing needs a sampler")
        rows = np.sort(sampler.uniform(0.05, 1.0, (n, n)), axis=1)[:, ::-1]
        return WeightMatrix(rows)
    if family == "power-family":
        return construct.matrix_from_functions(make_power_system(n, exponents))
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")


def make_power_system(n: int, exponents=DEFAULT_EXPONENTS) -> MusielakSystem:
    """Normalized power system cycling through the exponent list."""
    ps = list(itertools.islice(itertools.cycle(exponents), n))
    return construct.power_system(ps)


# ---------------------------------------------------------------------------
# the runner


def _band_summary(rows):
    if not rows:
        return {"c_low": None, "c_high": None, "spread": None, "samples": 0}
    ratios = np.array([r["ratio"] for r in rows])
    return {
        "c_low": float(ratios.min()),
        "c_high": float(ratios.max()),
        "spread": float(ratios.max() / ratios.min()),
        "samples": int(ratios.size),
    }


def _row(instance_id: str, n: int, lhs, rhs, ratio, **extra) -> dict:
    return {"instance_id": instance_id, "n": n, "lhs": lhs, "rhs": rhs, "ratio": ratio, **extra}


def _per_instance(dims, instances: int, prefix: str = ""):
    """Instances k = 0..instances-1 per n, drawn from spawn key n * INSTANCE_KEYS + k."""
    return [(n, n * INSTANCE_KEYS + k, f"{prefix}n{n}-i{k}") for n in dims for k in range(instances)]


def _per_dim(dims, prefix: str = ""):
    """One instance per n, drawn from spawn key n."""
    return [(n, n, f"{prefix}n{n}") for n in dims]


def _margin(bound, worst) -> float:
    if isinstance(bound, tuple):  # an interval [lo, hi] and worst (lowest, highest)
        return min(worst[0] - bound[0], bound[1] - worst[1])
    return bound - worst


def _gate(bound, worst) -> dict:
    """The ``gate`` block and ``passed`` for the worst value found (None for none)."""
    margin = None if worst is None else _margin(bound, worst)
    gate = {"bound": bound, "worst": worst, "margin": margin}
    return {"gate": gate, "passed": margin is None or margin >= 0}


def _run(seed: int, instances, draw, check, bound, worst) -> dict:
    """Draw the instances, check them in one call, and gate the rows.

    ``instances`` lists ``(n, spawn key, id tag)``; ``draw(n, sampler,
    tag)`` builds one instance from its own sampler, and ``check(drawn) ->
    rows`` runs once, on the iterator of the draws in that order.  The
    iterator draws as it is read, so a check holds only what it keeps.
    ``worst(rows)`` is the value held against ``bound``, an upper bound or
    an interval.
    """
    root = PermutationSampler(seed)
    rows = check(draw(n, root.spawn(key), tag) for n, key, tag in instances)
    dims = list(dict.fromkeys(n for n, _, _ in instances))
    return {
        "rows": rows,
        "dims": dims,
        "per_n": {n: _band_summary([r for r in rows if r["n"] == n]) for n in dims},
        "band": _band_summary(rows),
        **_gate(bound, worst(rows) if rows else None),
    }


def _solved(problems, build=None):
    """(item, the Luxemburg norms of xs) for each (source, xs, item) of ``problems``, in stacked passes."""
    for system, xs, items in stacked_passes(problems, build):
        norms = luxemburg_norm(system, xs)
        yield from ((item, norms[rows]) for item, rows in items)


def _spread(rows) -> float:
    return _band_summary(rows)["spread"]


def _max_ratio(rows) -> float:
    return max(r["ratio"] for r in rows)


def _failures(rows) -> int:
    return sum(not r["passed"] for r in rows)


def _constants(rows):
    return min(r["lhs"] for r in rows), max(r["rhs"] for r in rows)


def _merge(**parts) -> dict:
    """One report from named campaign reports: rows joined, passed if all passed."""
    report = {name: {k: v for k, v in part.items() if k != "rows"} for name, part in parts.items()}
    report["rows"] = [r for part in parts.values() for r in part["rows"]]
    report["passed"] = all(part["passed"] for part in parts.values())
    return report


# ---------------------------------------------------------------------------
# campaigns


def _band_rows(drawn, build=None) -> list:
    """Exact l2 average vs. Luxemburg norm for the vectors of each drawn ``(tag, n, a, source, xs)``.

    The source is the system, or with ``build`` the matrix it is built from (see ``stacked_passes``).
    """
    problems = ((source, xs, (tag, n, perms.ave_l2(a, xs).value)) for tag, n, a, source, xs in drawn)
    return [
        _row(f"{tag}-x{v}", n, lhs, rhs, lhs / rhs)
        for (tag, n, averages), norms in _solved(problems, build)
        for v, (lhs, rhs) in enumerate(zip(averages.tolist(), norms.tolist()))
    ]


def thm1_campaign(dims, seed: int, instances: int, vectors: int, family: str) -> dict:
    """Band of exact l2 average vs. Luxemburg norm of the matrix-built system."""

    def draw(n, s, tag):
        a = make_matrix(family, n, s)
        # the same draws as ``vectors`` calls of s.normals(n)
        return tag, n, a, a, s.normals((vectors, n))

    def check(drawn):
        return _band_rows(drawn, construct.functions_from_matrices)

    return _run(seed, _per_instance(dims, instances), draw, check, BAND_SPREAD_MAX, _spread)


def thm2_campaign(dims, seed: int, vectors: int, exponents) -> dict:
    """Same band as thm1 but for matrices produced from power systems."""

    def draw(n, s, tag):
        system = make_power_system(n, exponents)
        return tag, n, construct.matrix_from_functions(system), system, s.normals((vectors, n))

    return _run(seed, _per_dim(dims), draw, _band_rows, BAND_SPREAD_MAX, _spread)


def lemma21_campaign(dims, seed: int, instances: int) -> dict:
    """Exact two-permutation max average vs. the rearrangement bound."""

    def draw(n, s, tag):
        return tag, n, s.normals((n, n, n))

    def check(drawn):
        bounds = ((tag, n, perms.ave_max_two(a3).value, perms.dra_sum_bound(a3)) for tag, n, a3 in drawn)
        return [_row(tag, n, lhs, rhs, lhs / rhs) for tag, n, lhs, rhs in bounds]

    return _run(seed, _per_instance(dims, instances, "l21-"), draw, check, LEMMA21_MAX, _max_ratio)


def _matrix_and_vector(n, s, tag):
    """The draw of a sandwich instance: a random-decreasing matrix, then one Gaussian vector."""
    return make_matrix("random-decreasing", n, s), s.normals(n)


def _sandwich_rows(instances, reports) -> list:
    """One row per listed instance, from its ``SandwichReport``."""
    return [_row(tag, n, r.lower, r.value, r.ratio, passed=r.passed) for (n, _, tag), r in zip(instances, reports)]


def lemma22_campaign(dims, seed: int, instances: int) -> dict:
    """Exact 1/2 .. 2 sandwich of the matrix norm by the prefix-sum system."""
    listed = _per_instance(dims, instances, "l22-")

    def check(drawn):
        return _sandwich_rows(listed, perms.lemma_matrixnorm_check(drawn))

    return _run(seed, listed, _matrix_and_vector, check, SANDWICH_FAILURES_MAX, _failures)


def khintchine_campaign(dims, seed: int, instances: int) -> dict:
    """Exact Khintchine sandwich of the embedded L1 norm, all instances in one check."""
    listed = _per_instance(dims, instances, "kh-")

    def check(drawn):
        return _sandwich_rows(listed, embed.khintchine_sandwich_check(drawn))

    return _run(seed, listed, _matrix_and_vector, check, SANDWICH_FAILURES_MAX, _failures)


def roundtrip_campaign(dims, seed: int, family: str, exponents) -> dict:
    """Uniform-equivalence constants of the composed constructions."""
    if family == "random-decreasing":  # PCHIP of concave knot data is not concave in general
        raise ValueError("family 'random-decreasing' cannot run roundtrip: its PCHIP fits fail 2-concavity")

    def draw(n, s, tag):
        return tag, n, make_matrix(family, n, s, exponents)

    def check(drawn):
        drawn = list(drawn)
        reports = construct.roundtrip_checks([a for _, _, a in drawn])
        return [_row(tag, n, rep.c_low, rep.c_high, rep.spread) for (tag, n, _), rep in zip(drawn, reports)]

    return _run(seed, _per_dim(dims, "rt-"), draw, check, ROUNDTRIP_RANGE, _constants)


def distortion_campaign(dims, seed: int, samples: int, exponents) -> dict:
    """Embedding distortion witness for power-family pipelines, the norms of all directions in one check."""

    def draw(n, s, tag):
        system = make_power_system(n, exponents)
        return tag, n, construct.matrix_from_functions(system), system, embed.distortion_directions(n, s, samples)

    def check(drawn):
        problems = ((system, xs, (tag, n, a, xs)) for tag, n, a, system, xs in drawn)
        bands = ((tag, n, embed.distortion_estimate(a, xs, norms)) for (tag, n, a, xs), norms in _solved(problems))
        return [_row(tag, n, rep.c_low, rep.c_high, rep.spread) for tag, n, rep in bands]

    return _run(seed, _per_dim(dims, "dist-"), draw, check, DISTORTION_MAX, _max_ratio)


def lemma_oracles_campaign(dims, seed: int, instances: int) -> dict:
    """Lemma 2.1 at the n it enumerates exactly, Lemma 2.2 at every n."""
    return _merge(
        lemma21=lemma21_campaign([n for n in dims if n <= perms.N_EXACT_PAIRS], seed, instances),
        lemma22=lemma22_campaign(dims, seed, instances),
    )


def embed_report_campaign(dims, seed: int, instances: int, samples: int, exponents) -> dict:
    """Khintchine sandwich up to ``N_KHINTCHINE``, embedding distortion at every n."""
    return _merge(
        khintchine=khintchine_campaign([n for n in dims if n <= N_KHINTCHINE], seed, instances),
        distortion=distortion_campaign(dims, seed, samples, exponents),
    )


def construct_campaign(dims, seed: int, family: str, exponents, matrix) -> dict:
    """Build matrices/systems for a dimension sweep with validation info.

    An explicit ``matrix`` (list of rows) replaces the family sweep, and
    ``dims``, ``family`` and ``exponents`` are then None; invalid input
    (e.g. an increasing row) is rejected naming ``matrix`` and the row.
    Every matrix must build a system by ``construct.functions_from_matrix``.
    The gate holds the knot values of the rows that ``construct.rows_from_knots``
    rebuilds against the input's, relative (``knot_error`` per result), to
    ``KNOT_REBUILD_MAX``.  The rows themselves (``rebuild_error``) are not
    gated: near a tie of leading entries the inverse is only Hölder-1/2.
    """
    if matrix is not None:
        try:
            out = [_construction(WeightMatrix(np.asarray(matrix, dtype=float)))]
        except ValueError as exc:
            raise ValueError(f"matrix: {exc}") from exc
    else:
        root = PermutationSampler(seed)
        out = [_construction(make_matrix(family, n, root.spawn(n), exponents)) for n in dims]
    worst = max((r["knot_error"] for r in out), default=None)
    return {"results": out, **_gate(KNOT_REBUILD_MAX, worst)}


def _construction(a: WeightMatrix) -> dict:
    construct.functions_from_matrix(a)  # raises ConstructionError if the rows build no system
    knots = construct.conjugate_inverse_knots(a)
    rebuilt = construct.rows_from_knots(knots)
    # rounding near a tie can leave the rebuilt rows increasing, so they are not a WeightMatrix
    rebuilt_knots = construct._knot_values(rebuilt)
    return {
        "n": a.n,
        "matrix": [list(map(float, r)) for r in a.entries],
        "knot_values": [list(map(float, r)) for r in knots],
        "rebuild_error": float(np.max(np.abs(rebuilt - a.entries) / a.entries)),
        "knot_error": float(np.max(np.abs(rebuilt_knots[:, 1:] - knots[:, 1:]) / knots[:, 1:])),
    }
