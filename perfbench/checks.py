"""The benchmark's own correctness checks on the CLI's JSON and CSV reports.

The reports' ``passed`` field is not trusted: several campaigns hard-code
it. Every check below is counted as attempted; ``failed / attempted`` is
the run's fail ratio. The checks are:

* per command: exit code 0 within the job's time limit, a readable JSON
  report naming the command, and the expected number of CSV rows per kind;
* per row: finite positive values, a ``ratio`` column consistent with
  ``lhs`` and ``rhs``, and the row's exact inequality where it has one
  (lemma 2.1 upper bound, lemma 2.2 and Khintchine sandwiches, round-trip
  constants in [1/4, 4], distortion at most sqrt(2) times the band bound);
* per thm1/thm2 command: band spread max(ratio)/min(ratio) <= 20;
* off the clock, a seeded sample of rows recomputed by ``oracle``, kept
  while the run goes on in a reservoir of a fixed size per row kind, so the
  benchmark's memory does not grow with the number of jobs.
"""

from __future__ import annotations

import math
import random
import re
import sys
from dataclasses import dataclass, field

import oracle

BAND_SPREAD_MAX = 20.0
ROUNDTRIP_RANGE = (0.25, 4.0)
DISTORTION_MAX = math.sqrt(2.0) * BAND_SPREAD_MAX
# slack on exact inequalities between values solved to 1e-10
SANDWICH_RTOL = 1e-9
# the ratio column is computed from lhs and rhs before both are printed
# with 17 significant digits
RATIO_RTOL = 1e-12
# rows recomputed by the oracle per row kind and run
ORACLE_ROWS_PER_KIND = 4
ORACLE_KINDS = ("thm1", "thm2", "l21", "l22", "kh", "rt")
# failed checks printed to stderr
FAILURES_SHOWN = 10
SQRT2 = math.sqrt(2.0)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    rows_passed: int = 0  # rows of timed jobs that passed every check
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Candidate:
    """A row queued for the oracle, with only what its replay needs."""

    kind: str
    command: str
    seed: int
    exponents: list | None  # the command's config["exponents"], if any
    row: dict
    counted: bool  # among Tally.rows_passed


class OracleSample:
    """A seeded reservoir of ``ORACLE_ROWS_PER_KIND`` candidates per row kind."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"oracle:{seed}")
        self.seen = dict.fromkeys(ORACLE_KINDS, 0)
        self.kept = {kind: [] for kind in ORACLE_KINDS}

    def offer(self, candidate: Candidate) -> None:
        kept = self.kept[candidate.kind]
        self.seen[candidate.kind] += 1
        if len(kept) < ORACLE_ROWS_PER_KIND:
            kept.append(candidate)
        else:
            slot = self.rng.randrange(self.seen[candidate.kind])
            if slot < ORACLE_ROWS_PER_KIND:
                kept[slot] = candidate

    def chosen(self) -> list:
        return [c for kind in ORACLE_KINDS for c in self.kept[kind]]


def row_kind(command: str, instance_id: str) -> str:
    if command in ("verify-thm1", "verify-thm2"):
        return command[len("verify-"):]
    return instance_id.split("-", 1)[0]


def _consistent_ratio(kind: str, lhs: float, rhs: float) -> float:
    if kind == "l22":
        return rhs / (4.0 * lhs)
    if kind == "kh":
        return rhs / (SQRT2 * lhs)
    if kind in ("rt", "dist"):
        return rhs / lhs
    return lhs / rhs


def _row_gate(kind: str, lhs: float, rhs: float, ratio: float) -> bool:
    lo, hi = 1.0 - SANDWICH_RTOL, 1.0 + SANDWICH_RTOL
    if kind == "l21":
        return lhs <= rhs * hi
    if kind == "l22":  # lhs = ||x||_a / 2 <= rhs <= 2 ||x||_a
        return lhs * lo <= rhs <= 4.0 * lhs * hi
    if kind == "kh":  # lhs = Ave / sqrt 2 <= rhs <= Ave
        return lhs * lo <= rhs <= SQRT2 * lhs * hi
    if kind == "rt":
        return ROUNDTRIP_RANGE[0] <= lhs <= rhs <= ROUNDTRIP_RANGE[1]
    if kind == "dist":
        return ratio <= DISTORTION_MAX
    return True


def row_ok(kind: str, row: dict) -> bool:
    lhs, rhs, ratio = row["lhs"], row["rhs"], row["ratio"]
    if not all(math.isfinite(v) and v > 0 for v in (lhs, rhs, ratio)):
        return False
    if not oracle.close(ratio, _consistent_ratio(kind, lhs, rhs), RATIO_RTOL):
        return False
    return _row_gate(kind, lhs, rhs, ratio)


def check_job(result, tally: Tally, offer) -> None:
    """Apply every report check to one job; pass oracle candidates to ``offer``."""
    for res in result.commands:
        where = f"{res.name} seed {res.seed}"
        ran = res.exit_code == 0 and not res.error and res.report is not None
        ran = ran and res.report.get("command") == res.name
        if not tally.check(ran, f"{where}: exit {res.exit_code} {res.error}"):
            continue
        kinds = {}
        for row in res.rows:
            kinds.setdefault(row_kind(res.name, row["instance_id"]), []).append(row)
        counts = {k: len(v) for k, v in kinds.items()}
        command_ok = tally.check(counts == res.expect, f"{where}: rows {counts}, expected {res.expect}")
        for kind in ("thm1", "thm2"):
            if kind in kinds:
                ratios = [r["ratio"] for r in kinds[kind]]
                spread = max(ratios) / min(ratios) if min(ratios) > 0 else math.inf
                command_ok &= tally.check(spread <= BAND_SPREAD_MAX, f"{where}: band spread {spread}")
        for kind, rows in kinds.items():
            for row in rows:
                ok = tally.check(row_ok(kind, row), f"{where}: row {row}")
                counted = ok and command_ok and result.timed
                tally.rows_passed += counted
                if ok and kind in ORACLE_KINDS:
                    offer(Candidate(kind, res.name, res.seed, res.config.get("exponents"), row, counted))


# ---------------------------------------------------------------------------
# oracle replay


def _field(instance_id: str, tag: str) -> int:
    """The number after ``tag`` in an id such as ``n5-i0-x3`` or ``kh-n3-i2``."""
    return int(re.search(rf"(?:^|-){tag}(\d+)", instance_id).group(1))


def _vector(sampler, n: int, index: int):
    for _ in range(index + 1):
        x = sampler.normals(n)
    return x


def _decreasing(sampler, n: int):
    """The random-decreasing family: uniform(0.05, 1) rows sorted downwards."""
    return [sorted(row, reverse=True) for row in sampler.uniform(0.05, 1.0, (n, n)).tolist()]


def replay(c: Candidate) -> list:
    """[(label, program value, oracle value, rtol)] for one row."""
    from musielak.perms import PermutationSampler

    kind, row, n = c.kind, c.row, c.row["n"]
    if kind == "rt":
        c_low, c_high = oracle.roundtrip_constants(c.exponents, n)
        return [
            ("lhs", row["lhs"], c_low, oracle.RTOL_ROUNDTRIP),
            ("rhs", row["rhs"], c_high, oracle.RTOL_ROUNDTRIP),
        ]
    root = PermutationSampler(c.seed)
    if kind == "thm1":
        k, v = _field(row["instance_id"], "i"), _field(row["instance_id"], "x")
        s = root.spawn(n * 10_000 + k)
        a = _decreasing(s, n)
        x = _vector(s, n, v)
        return [
            ("lhs", row["lhs"], oracle.ave_l2(a, x), oracle.RTOL_EXACT),
            ("rhs", row["rhs"], oracle.luxemburg(oracle.matrix_functions(a), x), oracle.RTOL_NORM),
        ]
    if kind == "thm2":
        v = _field(row["instance_id"], "x")
        exps = c.exponents
        x = _vector(root.spawn(n), n, v)
        funcs = [oracle.power_function(exps[i % len(exps)]) for i in range(n)]
        return [
            ("lhs", row["lhs"], oracle.ave_l2(oracle.power_matrix(exps, n), x), oracle.RTOL_QUADRATURE),
            ("rhs", row["rhs"], oracle.luxemburg(funcs, x), oracle.RTOL_NORM),
        ]
    s = root.spawn(n * 10_000 + _field(row["instance_id"], "i"))
    if kind == "l21":
        a3 = s.normals((n, n, n)).tolist()
        return [
            ("lhs", row["lhs"], oracle.ave_max_two(a3), oracle.RTOL_EXACT),
            ("rhs", row["rhs"], oracle.dra_sum_bound(a3), oracle.RTOL_EXACT),
        ]
    a = _decreasing(s, n)
    x = s.normals(n)
    if kind == "l22":
        return [
            ("lhs", row["lhs"], 0.5 * oracle.matrix_norm(a, x), oracle.RTOL_EXACT),
            ("rhs", row["rhs"], oracle.luxemburg(oracle.prefix_functions(a), x), oracle.RTOL_NORM),
        ]
    if kind == "kh":
        return [
            ("lhs", row["lhs"], oracle.ave_l2(a, x) / SQRT2, oracle.RTOL_EXACT),
            ("rhs", row["rhs"], oracle.psi_norm(a, x), oracle.RTOL_EXACT),
        ]
    raise ValueError(f"no oracle for row kind {kind!r}")


def run_oracle(chosen: list, tally: Tally) -> None:
    for c in chosen:
        where = f"{c.command} seed {c.seed} row {c.row['instance_id']}"
        try:
            values = replay(c)
            bad = [(lbl, got, want) for lbl, got, want, rtol in values if not oracle.close(got, want, rtol)]
        except (ValueError, KeyError, IndexError, AttributeError, TypeError) as exc:
            bad = [("replay", repr(exc), None)]
        if not tally.check(not bad, f"{where}: oracle disagrees {bad}") and c.counted:
            tally.rows_passed -= 1


def report_failures(tally: Tally) -> None:
    for what in tally.failures[:FAILURES_SHOWN]:
        print(f"perfbench: check failed: {what}", file=sys.stderr)
    if len(tally.failures) > FAILURES_SHOWN:
        print(f"perfbench: ... {len(tally.failures) - FAILURES_SHOWN} more failed checks", file=sys.stderr)
