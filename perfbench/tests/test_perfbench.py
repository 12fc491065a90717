"""Self-test of the benchmark: python3 -m pytest perfbench/tests"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, make_job  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.import_program()


def _units(group):
    return {m["name"]: m["unit"] for m in SPEC[group]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_job_emits_every_metric_with_its_unit(workload):
    plain = run.run(workload, 3, 0, False, setup_starts=1)
    traced = run.run(workload, 3, 0, True)
    for result, group in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(group)
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert all(plain["metrics"][m]["value"] > 0 for m in _units("end_to_end"))
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    assert layer["bench.traced_jobs"] == 1
    if workload == "roundtrip-fit":
        assert layer["convex.luxemburg_norm.calls"] == 0 and layer["perms.ave_l2.calls"] == 0
    if workload == "pwa-matrix":
        assert layer["construct.quad.calls"] == 0 and layer["convex.luxemburg_norm.calls"] > 0


def _checked(result, row):
    """Every check of the job, with the oracle run on ``row``."""
    tally, candidates = checks.Tally(), []
    checks.check_job(result, tally, candidates.append)
    checks.run_oracle([c for c in candidates if c.row is row], tally)
    return tally


# (workload, row index in the first command, relative error put on lhs)
CORRUPTIONS = [("pwa-matrix", 5, 1e-3), ("roundtrip-fit", 2, 1e-4)]


@pytest.mark.parametrize("workload,index,error", CORRUPTIONS)
def test_corrupted_row_raises_fail_ratio(cli, tmp_path, workload, index, error):
    result = harness.run_job(cli, make_job(WORKLOADS[workload], 3, 1), tmp_path)
    row = result.commands[0].rows[index]
    assert _checked(result, row).fail_ratio == 0
    # slightly off but self-consistent and within every gate, so only the
    # oracle can see it
    row["lhs"] *= 1 + error
    kind = checks.row_kind(result.commands[0].name, row["instance_id"])
    row["ratio"] = checks._consistent_ratio(kind, row["lhs"], row["rhs"])
    assert _checked(result, row).fail_ratio > 0


def test_oracle_sample_stays_bounded():
    sample = checks.OracleSample(1)
    for k in range(1000):
        sample.offer(checks.Candidate("thm1", "verify-thm1", k, None, {"k": k}, True))
    kept = sample.chosen()
    assert len(kept) == checks.ORACLE_ROWS_PER_KIND
    assert max(c.seed for c in kept) >= checks.ORACLE_ROWS_PER_KIND  # later rows get a chance


def test_hanging_job_is_a_failed_check(cli, tmp_path, monkeypatch):
    from musielak import convex

    def hangs(*args, **kwargs):  # a NaN input made the bisection loop forever at the seed commit
        system = convex.MusielakSystem((convex.PowerFunction(1.5),) * 3)
        return convex.luxemburg_norm(system, [math.nan, 1.0, 1.0])

    monkeypatch.setattr(cli.campaigns, "thm1_campaign", hangs)
    result = harness.run_job(cli, make_job(WORKLOADS["pwa-matrix"], 3, 1), tmp_path, limit_s=1.0)
    tally = checks.Tally()
    checks.check_job(result, tally, [].append)
    assert tally.failed >= 1 and result.seconds < 10


def test_without_program_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    argv = SPEC["command"] + ["--workload", "pwa-matrix", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
