import csv
import dataclasses
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from musielak import campaigns, cli, construct, embed, perms
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


def _gates(doc):
    """The gate blocks of a report: its own, or one per merged campaign."""
    if "gate" in doc:
        return [doc["gate"]]
    gates = [part["gate"] for part in doc.values() if isinstance(part, dict) and "gate" in part]
    assert len(gates) == 2
    return gates


@pytest.mark.parametrize("command", sorted(SMALL))
def test_commands_pass_and_write_reports(tmp_path, command):
    assert run(tmp_path, command, SMALL[command]) == 0
    doc = load_json(tmp_path, command)
    assert doc["passed"] is True
    assert doc["command"] == command
    assert doc["config"]["seed"] == 7
    for gate in _gates(doc):
        assert set(gate) == {"bound", "worst", "margin"} and gate["margin"] >= 0
    if command != "construct":  # construct has no per-instance rows
        with open(tmp_path / f"{command}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and list(rows[0]) == ["instance_id", "n", "lhs", "rhs", "ratio"]
        ids = [r["instance_id"] for r in rows]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)


def cell_by_cell_csv(rows) -> str:
    """Reference CSV: each cell formatted on its own, a float to 17 significant digits and anything else by ``str``."""

    def cell(x):
        return format(x, ".17g") if isinstance(x, float) else str(x)

    ordered = sorted(rows, key=lambda r: r["instance_id"])
    lines = [cli.CSV_COLUMNS] + [[cell(r[c]) for c in cli.CSV_COLUMNS] for r in ordered]
    return "".join(",".join(line) + "\n" for line in lines)


NUMBERS = st.one_of(st.floats(), st.floats().map(np.float64), st.integers(-(10**15), 10**15))
CSV_ROWS = st.lists(
    st.fixed_dictionaries(
        {"instance_id": st.text("lnxi0123456789-", min_size=1), "n": st.integers(0, 10**30)}
        | dict.fromkeys(("lhs", "rhs", "ratio"), NUMBERS)
    ),
    max_size=6,
)
TRICKY = (0.1, 1 / 3, -0.0, math.inf, -math.nan, 5e-324, 1e300, np.float64(2.0) / 3, 7)


@settings(max_examples=200, deadline=None)
@given(rows=CSV_ROWS)
@example(rows=[{"instance_id": f"n2-i{k}", "n": 2, "lhs": v, "rhs": -v, "ratio": v} for k, v in enumerate(TRICKY)])
def test_csv_has_the_bytes_of_cell_by_cell_formatting(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        cli.write_csv(path, rows)
        assert path.read_text() == cell_by_cell_csv(rows)


def test_same_seed_reproducible(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run(d, "verify-thm1", SMALL["verify-thm1"]) == 0
    j1, j2 = load_json(d1, "verify-thm1"), load_json(d2, "verify-thm1")
    j1.pop("timestamp"), j2.pop("timestamp")
    assert j1 == j2
    assert (d1 / "verify-thm1.csv").read_text() == (d2 / "verify-thm1.csv").read_text()


@pytest.mark.parametrize("command", sorted(SMALL))
def test_report_has_one_top_level_key_per_line(tmp_path, command):
    assert run(tmp_path, command, SMALL[command]) == 0
    lines = (tmp_path / f"{command}.json").read_text().splitlines()
    doc = load_json(tmp_path, command)
    assert lines[0] == "{" and lines[-1] == "}" and len(lines) == len(doc) + 2
    # the timestamp alone on its line, so that dropping that line compares every other key
    assert [line for line in lines if '"timestamp"' in line] == [f'"timestamp": {json.dumps(doc["timestamp"])}']


def test_report_parses_to_its_indented_form(tmp_path):
    report = {
        "gate": {"bound": (0.25, 4.0), "worst": None, "margin": np.float64(0.5)},
        "per_n": {2: {"c_low": math.inf, "samples": 3}, 10: {}},
        "config": {"dims": [], "out": Path("a\nb"), "family": "é"},
        "passed": False,
        "timestamp": "2026-01-01T00:00:00+00:00",
    }
    cli.write_json(tmp_path / "report.json", report)
    text = (tmp_path / "report.json").read_text()
    assert json.loads(text) == json.loads(json.dumps(report, indent=2, default=str))
    assert text.count("\n") == len(report) + 2


def test_json_only_format(tmp_path):
    assert run(tmp_path, "roundtrip", SMALL["roundtrip"], extra=["--format", "json"]) == 0
    assert (tmp_path / "roundtrip.json").exists()
    assert not (tmp_path / "roundtrip.csv").exists()


def test_construct_rejects_csv_format(tmp_path, capsys):
    # construct has no rows: a CSV-only run would write nothing and pass, so it is a usage error that writes no file
    assert run(tmp_path, "construct", SMALL["construct"], extra=["--format", "csv"]) == 1
    assert capsys.readouterr().err.startswith("error: --format csv: construct writes no CSV")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    assert run(tmp_path / "both", "construct", SMALL["construct"], extra=["--format", "both"]) == 0
    assert sorted(p.name for p in (tmp_path / "both").iterdir()) == ["cfg.json", "construct.json"]


def test_empty_sweep_is_a_pass(tmp_path):
    assert run(tmp_path, "verify-thm2", {"dims": []}) == 0
    doc = load_json(tmp_path, "verify-thm2")
    assert doc["band"]["samples"] == 0
    assert doc["gate"] == {"bound": campaigns.BAND_SPREAD_MAX, "worst": None, "margin": None}


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


@pytest.mark.parametrize("matrix", ["abc", [[1, 2], [3]], [[2, 1]], [1, 2], [], [[2, 1], [2, 1], [2, 1]]])
def test_malformed_matrix_names_matrix(tmp_path, capsys, matrix):
    assert run(tmp_path, "construct", {"matrix": matrix}) == 1
    assert capsys.readouterr().err.startswith("error: matrix")
    assert not (tmp_path / "construct.json").exists()


def test_every_construct_family_builds_its_system(tmp_path, monkeypatch):
    def fails(a):
        raise construct.ConstructionError("row 0: forced")

    monkeypatch.setattr(construct, "functions_from_matrix", fails)
    assert run(tmp_path, "construct", {"dims": [2], "family": "power-family"}) == 1
    assert not (tmp_path / "construct.json").exists()


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_config_keys_are_the_campaign_parameters(command):
    spec = cli.COMMANDS[command]
    params = inspect.signature(getattr(campaigns, spec.campaign)).parameters
    assert set(params) == set(spec.config)
    assert all(p.default is inspect.Parameter.empty for p in params.values())


@pytest.mark.parametrize("dims", [[0], [2, -1], [2.5], [True], "3", 3, None])
def test_invalid_dims_is_usage_error(tmp_path, capsys, dims):
    assert run(tmp_path, "verify-thm1", {"dims": dims}) == 1
    assert "dims" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value",
    [
        ("exponents", "abc"),
        ("exponents", [None]),
        ("exponents", []),
        ("exponents", [1.5, 2.0]),
        ("exponents", [1.0]),
        ("exponents", [True]),
        ("seed", "7"),
        ("seed", 7.5),
        ("seed", -1),
        ("instances", 0),
        ("instances", 2.0),
        ("vectors", -2),
        ("vectors", "10"),
        ("samples", 0),
        ("samples", None),
        ("sample", 10),  # misspelt: ran with the default 200 before
        ("vectors", 3),  # read by verify-thm1/2, not by embed-report
        ("family", "constant"),
        ("threads", 2),
        ("dims", [3, 3]),  # ran n = 3 twice, with one n in the report's dims
        ("instances", 10_001),  # instance (2, 10000) would replay the draws of instance (3, 0)
    ],
)
def test_invalid_config_field_is_usage_error(tmp_path, capsys, field, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dims": [2], field: value}))
    assert main(["embed-report", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "embed-report.json").exists()


def test_instances_past_the_spawn_keys_is_usage_error(tmp_path, capsys):
    assert run(tmp_path, "lemma-oracles", {"instances": campaigns.INSTANCE_KEYS + 1}) == 1
    assert "drawn from spawn key n * 10000 + k, got 10001" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,dims,limit",
    [
        ("verify-thm1", [9], perms.N_EXACT),
        ("verify-thm2", [2, 9], perms.N_EXACT),
        ("embed-report", [7, 8], embed.N_EXACT_PSI),
    ],
)
def test_dims_past_the_exact_limit_is_usage_error(tmp_path, capsys, command, dims, limit):
    assert run(tmp_path, command, {"dims": dims}) == 1
    err = capsys.readouterr().err
    assert "dims" in err and f"at most {limit}" in err
    assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize(
    "command,cfg,parts",
    [
        ("lemma-oracles", {"dims": [2, 6], "instances": 1}, {"lemma21": [2], "lemma22": [2, 6]}),
        (
            "embed-report",
            {"dims": [2, 6], "instances": 1, "samples": 2},
            {"khintchine": [2], "distortion": [2, 6]},
        ),
    ],
)
def test_each_part_reports_the_dims_it_checked(tmp_path, command, cfg, parts):
    assert run(tmp_path, command, cfg) == 0
    doc = load_json(tmp_path, command)
    assert {part: doc[part]["dims"] for part in parts} == parts
    assert {part: sorted(map(int, doc[part]["per_n"])) for part in parts} == parts


def test_roundtrip_rejects_random_decreasing(tmp_path, capsys):
    # PCHIP fits of its knot data are rarely 2-concave past n = 2
    assert run(tmp_path, "roundtrip", {"dims": [3, 4], "family": "random-decreasing"}) == 1
    assert "family" in capsys.readouterr().err
    assert not (tmp_path / "roundtrip.json").exists()


def test_unknown_key_error_lists_the_accepted_keys(tmp_path, capsys):
    assert run(tmp_path, "verify-thm1", {"dims": [2], "vector": 3}) == 1
    err = capsys.readouterr().err
    assert "'vector'" in err and "dims, family, instances, seed, vectors" in err


def test_report_echoes_the_values_used(tmp_path):
    assert run(tmp_path, "verify-thm1", {"dims": [2], "instances": 1}) == 0
    doc = load_json(tmp_path, "verify-thm1")
    assert doc["config"] == {
        "seed": 7,
        "dims": [2],
        "instances": 1,
        "vectors": 100,
        "family": "random-decreasing",
    }
    assert doc["band"]["samples"] == 100


def _modules_after(code: str, packages=("scipy",)) -> str:
    """The sorted list of the modules of ``packages`` that a fresh interpreter has loaded after ``code``."""
    src = str(Path(campaigns.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    loaded = f"print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') for p in {packages!r})))"
    argv = [sys.executable, "-c", f"{code}; {loaded}"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_quadrature_unloaded():
    # numpy is the only runtime dependency, and numpy.random and numpy.polynomial load on first use: importing the CLI
    # pays for none of them
    loaded = _modules_after("import sys, musielak.cli", ("scipy", "numpy.random", "numpy.polynomial"))
    assert loaded == "[]", loaded


def test_roundtrip_leaves_scipy_quadrature_unloaded(tmp_path):
    # fitted profiles are fitted and integrated by the package's own numpy code, its quadrature rule included
    argv = ["roundtrip", "--out", str(tmp_path), "--seed", "7", "--config", str(tmp_path / "cfg.json")]
    (tmp_path / "cfg.json").write_text(json.dumps(SMALL["roundtrip"]))
    code = f"import sys; from musielak.cli import main; assert main({argv!r}) == 0"
    loaded = _modules_after(code, ("scipy", "numpy.polynomial"))
    assert loaded == "[]", loaded


def test_threads_flag_is_usage_error(tmp_path, capsys):
    assert run(tmp_path, "verify-thm2", SMALL["verify-thm2"], extra=["--threads", "2"]) == 1
    capsys.readouterr()


def test_explicit_matrix_construct(tmp_path):
    cfg = {"matrix": [[2.0, 1.0], [2.0, 1.0]]}
    assert run(tmp_path, "construct", cfg) == 0
    doc = load_json(tmp_path, "construct")
    knots = doc["results"][0]["knot_values"][0]
    assert knots[0] == 0.0 and knots[2] == pytest.approx(1.5)
    result = doc["results"][0]
    assert doc["passed"] is True and doc["gate"]["worst"] == result["knot_error"] < 1e-15
    assert result["rebuild_error"] < 1e-15


def test_near_tie_matrix_passes_the_knot_gate(tmp_path):
    # the rows rebuilt from the knots are off by 5e-8 where the leading entries nearly tie,
    # but their knot values are the input's to rounding
    cfg = {"matrix": [[1.0, 0.9999999, 0.5]] * 3}
    assert run(tmp_path, "construct", cfg) == 0
    doc = load_json(tmp_path, "construct")
    assert doc["gate"]["bound"] == campaigns.KNOT_REBUILD_MAX
    assert doc["gate"]["worst"] == doc["results"][0]["knot_error"] <= campaigns.KNOT_REBUILD_MAX
    assert doc["results"][0]["rebuild_error"] > campaigns.KNOT_REBUILD_MAX


def test_explicit_matrix_config_holds_seed_and_matrix(tmp_path):
    # the sweep keys are not used next to a matrix, so the report does not echo their defaults
    cfg = {"matrix": [[2.0, 1.0], [2.0, 1.0]]}
    assert run(tmp_path, "construct", cfg) == 0
    assert load_json(tmp_path, "construct")["config"] == {"seed": 7, **cfg}


@pytest.mark.parametrize("key,value", [("dims", [2, 3]), ("family", "constant"), ("exponents", [1.5])])
def test_sweep_key_with_explicit_matrix_is_usage_error(tmp_path, capsys, key, value):
    assert run(tmp_path, "construct", {"matrix": [[2.0, 1.0], [2.0, 1.0]], key: value}) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and "matrix" in err
    assert not (tmp_path / "construct.json").exists()


def test_failed_invariant_exits_two(tmp_path, monkeypatch):
    def broken(dims, seed, instances):
        return {"rows": [], "failures": ["forced"], "passed": False}

    monkeypatch.setattr(campaigns, "lemma22_campaign", broken)
    assert run(tmp_path, "lemma-oracles", SMALL["lemma-oracles"]) == 2
    assert load_json(tmp_path, "lemma-oracles")["passed"] is False


def test_consecutive_main_calls_parse_their_own_arguments(tmp_path):
    # the parser is built once and shared: no flag of one call may carry into the next
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(first, "verify-thm2", SMALL["verify-thm2"], extra=["--format", "json"]) == 0
    second.mkdir()
    (second / "cfg.json").write_text(json.dumps(SMALL["lemma-oracles"]))
    assert main(["lemma-oracles", "--out", str(second), "--config", str(second / "cfg.json")]) == 0
    assert sorted(p.name for p in first.iterdir()) == ["cfg.json", "verify-thm2.json"]
    assert sorted(p.name for p in second.iterdir()) == ["cfg.json", "lemma-oracles.csv", "lemma-oracles.json"]
    assert load_json(first, "verify-thm2")["config"]["seed"] == 7
    assert load_json(second, "lemma-oracles")["config"]["seed"] == 0
    assert cli.build_parser() is cli.build_parser()


def test_unknown_command_is_usage_error(tmp_path, capsys):
    assert main(["frobnicate", "--out", str(tmp_path)]) == 1
    capsys.readouterr()




def _scaled(fn, factor):
    return lambda *args, **kwargs: factor * fn(*args, **kwargs)


def _growing(fn):
    """fn with its k-th value (over the rows of every batch) multiplied by 2**k, so ratios spread without bound."""
    values = itertools.count()
    return lambda *args, **kwargs: np.array([v * 2.0 ** next(values) for v in fn(*args, **kwargs)])


def _break_band(monkeypatch):
    monkeypatch.setattr(campaigns, "luxemburg_norm", _growing(campaigns.luxemburg_norm))


def _break_lemma21(monkeypatch):
    monkeypatch.setattr(perms, "dra_sum_bound", _scaled(perms.dra_sum_bound, 0.5))


def _break_lemma22(monkeypatch):
    monkeypatch.setattr(perms, "matrix_norm_a", _scaled(perms.matrix_norm_a, 10.0))


def _break_khintchine(monkeypatch):
    psi = embed.psi_image_norm

    def scaled(*args, **kwargs):
        res = psi(*args, **kwargs)
        return dataclasses.replace(res, value=10.0 * res.value)

    monkeypatch.setattr(embed, "psi_image_norm", scaled)


def _break_roundtrip(monkeypatch):
    from musielak.convex import EquivalenceReport

    report = EquivalenceReport(0.1, 1.0)
    monkeypatch.setattr(construct, "roundtrip_checks", lambda matrices: [report for _ in matrices])


def _break_construct(monkeypatch):
    monkeypatch.setattr(construct, "rows_from_knots", _scaled(construct.rows_from_knots, 1.0 + 1e-6))


def _break_distortion(monkeypatch):
    from musielak.convex import EquivalenceReport

    report = EquivalenceReport(0.1, 10.0)
    monkeypatch.setattr(embed, "distortion_estimate", lambda *args, **kwargs: report)


@pytest.mark.parametrize(
    "command,part,breaker",
    [
        ("verify-thm1", None, _break_band),
        ("verify-thm2", None, _break_band),
        ("lemma-oracles", "lemma21", _break_lemma21),
        ("lemma-oracles", "lemma22", _break_lemma22),
        ("embed-report", "khintchine", _break_khintchine),
        ("embed-report", "distortion", _break_distortion),
        ("roundtrip", None, _break_roundtrip),
        ("construct", None, _break_construct),
    ],
)
def test_violated_gate_exits_two(tmp_path, monkeypatch, command, part, breaker):
    breaker(monkeypatch)
    assert run(tmp_path, command, SMALL[command]) == 2
    doc = load_json(tmp_path, command)
    assert doc["passed"] is False
    failed = doc[part] if part else doc
    assert failed["passed"] is False and failed["gate"]["margin"] < 0
