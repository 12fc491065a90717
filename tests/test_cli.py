import csv
import json

import pytest

from musielak import campaigns
from musielak.cli import main

SMALL = {
    "construct": {"dims": [2, 3]},
    "verify-thm1": {"dims": [2, 3], "instances": 2, "vectors": 10},
    "verify-thm2": {"dims": [2, 3], "vectors": 10},
    "roundtrip": {"dims": [2, 3]},
    "lemma-oracles": {"dims": [2, 3], "instances": 5},
    "embed-report": {"dims": [2, 3], "instances": 5, "samples": 10},
}


def run(tmp_path, command, cfg=None, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    argv = [command, "--out", str(tmp_path), "--seed", "7"]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
    return main(argv + list(extra))


def load_json(tmp_path, command):
    with open(tmp_path / f"{command}.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("command", sorted(SMALL))
def test_commands_pass_and_write_reports(tmp_path, command):
    assert run(tmp_path, command, SMALL[command]) == 0
    doc = load_json(tmp_path, command)
    assert doc["passed"] is True
    assert doc["command"] == command
    assert doc["config"]["seed"] == 7
    if command != "construct":  # construct has no per-instance rows
        with open(tmp_path / f"{command}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and list(rows[0]) == ["instance_id", "n", "lhs", "rhs", "ratio"]
        ids = [r["instance_id"] for r in rows]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)


def test_same_seed_reproducible(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run(d, "verify-thm1", SMALL["verify-thm1"]) == 0
    j1, j2 = load_json(d1, "verify-thm1"), load_json(d2, "verify-thm1")
    j1.pop("timestamp"), j2.pop("timestamp")
    assert j1 == j2
    assert (d1 / "verify-thm1.csv").read_text() == (d2 / "verify-thm1.csv").read_text()


def test_json_only_format(tmp_path):
    assert run(tmp_path, "roundtrip", SMALL["roundtrip"], extra=["--format", "json"]) == 0
    assert (tmp_path / "roundtrip.json").exists()
    assert not (tmp_path / "roundtrip.csv").exists()


def test_empty_sweep_is_a_pass(tmp_path):
    assert run(tmp_path, "verify-thm2", {"dims": []}) == 0
    doc = load_json(tmp_path, "verify-thm2")
    assert doc["band"]["samples"] == 0


def test_unreadable_config_is_usage_error(tmp_path):
    assert main(["construct", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 1


def test_malformed_config_is_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    assert main(["construct", "--config", str(path), "--out", str(tmp_path)]) == 1


def test_unknown_family_is_usage_error(tmp_path):
    assert run(tmp_path, "verify-thm1", {"family": "nope"}) == 1


def test_invalid_matrix_reports_row(tmp_path, capsys):
    cfg = {"matrix": [[1.0, 2.0], [2.0, 1.0]]}  # first row increases
    assert run(tmp_path, "construct", cfg) == 1
    assert "row 0" in capsys.readouterr().err


@pytest.mark.parametrize("dims", [[0], [2, -1], [2.5], [True], "3", 3, None])
def test_invalid_dims_is_usage_error(tmp_path, capsys, dims):
    assert run(tmp_path, "verify-thm1", {"dims": dims}) == 1
    assert "dims" in capsys.readouterr().err


def test_explicit_matrix_construct(tmp_path):
    cfg = {"matrix": [[2.0, 1.0], [2.0, 1.0]]}
    assert run(tmp_path, "construct", cfg) == 0
    doc = load_json(tmp_path, "construct")
    knots = doc["results"][0]["knot_values"][0]
    assert knots[0] == 0.0 and knots[2] == pytest.approx(1.5)


def test_failed_invariant_exits_two(tmp_path, monkeypatch):
    def broken(dims, seed, instances=200, tol=1e-8, threads=1):
        return {"rows": [], "failures": ["forced"], "passed": False}

    monkeypatch.setattr(campaigns, "lemma22_campaign", broken)
    assert run(tmp_path, "lemma-oracles", SMALL["lemma-oracles"]) == 2
    assert load_json(tmp_path, "lemma-oracles")["passed"] is False


def test_unknown_command_is_usage_error(tmp_path, capsys):
    assert main(["frobnicate", "--out", str(tmp_path)]) == 1
    capsys.readouterr()


def test_threads_flag_matches_serial(tmp_path):
    d1, d2 = tmp_path / "s", tmp_path / "t"
    assert run(d1, "verify-thm2", SMALL["verify-thm2"]) == 0
    assert run(d2, "verify-thm2", SMALL["verify-thm2"], extra=["--threads", "2"]) == 0
    assert (d1 / "verify-thm2.csv").read_text() == (d2 / "verify-thm2.csv").read_text()
