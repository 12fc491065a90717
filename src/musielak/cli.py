"""Experiment runner: reproducible campaigns with JSON/CSV reports.

Subcommands: construct, verify-thm1, verify-thm2, roundtrip, lemma-oracles,
embed-report, each declared once in ``COMMANDS``.  A JSON config file
overrides a command's defaults key by key; --seed and --out override the
config.  Exit code 0 means every gate in the run passed, 2 means at least
one failed (the report's ``gate`` blocks name the bound, the worst value
and the margin), 1 is a usage or config error.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import sys
from pathlib import Path
from typing import NamedTuple

from . import __version__, campaigns, embed, perms

_EXPONENTS = list(campaigns.DEFAULT_EXPONENTS)


class Command(NamedTuple):
    campaign: str  # a function of ``campaigns``, looked up when the command runs
    config: dict  # the keys it reads, named like the campaign's parameters, with defaults
    max_dim: float = float("inf")  # the largest n in dims; a larger n is a config error


COMMANDS = {
    "construct": Command(
        "construct_campaign",
        dict(seed=0, dims=[2, 3, 4], family="random-decreasing", exponents=_EXPONENTS, matrix=None),
    ),
    "verify-thm1": Command(
        "thm1_campaign",
        dict(seed=0, dims=[2, 3, 4, 5], instances=5, vectors=100, family="random-decreasing"),
        perms.N_EXACT,
    ),
    "verify-thm2": Command(
        "thm2_campaign", dict(seed=0, dims=[3, 4, 5], vectors=200, exponents=_EXPONENTS), perms.N_EXACT
    ),
    "roundtrip": Command(
        "roundtrip_campaign", dict(seed=0, dims=[3, 4, 5], family="power-family", exponents=_EXPONENTS)
    ),
    "lemma-oracles": Command("lemma_oracles_campaign", dict(seed=0, dims=[2, 3, 4], instances=100)),
    "embed-report": Command(
        "embed_report_campaign",
        dict(seed=0, dims=[2, 3, 4], instances=100, samples=200, exponents=_EXPONENTS),
        embed.N_EXACT_PSI,
    ),
}

CSV_COLUMNS = ["instance_id", "n", "lhs", "rhs", "ratio"]


class ConfigError(ValueError):
    pass


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


# the C encoder, which ``json.dumps`` uses only without an indent
_ENCODER = json.JSONEncoder(default=str)


def write_json(path: Path, report: dict) -> None:
    """The report with one top-level key per line: ``{``, then ``"key": <compact JSON>,`` per key, then ``}``."""
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{_ENCODER.encode(k)}: {_ENCODER.encode(v)}" for k, v in report.items()) + "\n}\n")


def write_csv(path: Path, rows) -> None:
    """The rows in ``CSV_COLUMNS`` order, sorted by instance id; floats with 17 digits, which read back exactly."""
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(
            f"{r['instance_id']},{r['n']},{r['lhs']:.17g},{r['rhs']:.17g},{r['ratio']:.17g}\n"
            for r in sorted(rows, key=lambda r: r["instance_id"])
        )


def _is_int(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_square(rows) -> bool:
    n = len(rows) if isinstance(rows, list) else 0
    return n > 0 and all(isinstance(r, list) and len(r) == n and all(map(_is_number, r)) for r in rows)


# What each config key must hold, and how an error says it.
_FIELDS = {
    "seed": (lambda v: _is_int(v, 0), "an integer >= 0"),
    "instances": (
        lambda v: _is_int(v, 1) and v <= campaigns.INSTANCE_KEYS,
        f"an integer from 1 to {campaigns.INSTANCE_KEYS}: instance k of dimension n is drawn from spawn key "
        f"n * {campaigns.INSTANCE_KEYS} + k",
    ),
    **dict.fromkeys(("vectors", "samples"), (lambda v: _is_int(v, 1), "an integer >= 1")),
    "dims": (
        lambda v: isinstance(v, list) and all(_is_int(n, 1) for n in v) and len(set(v)) == len(v),
        "a list of distinct integers >= 1",
    ),
    "exponents": (
        lambda v: isinstance(v, list) and len(v) > 0 and all(_is_number(p) and 1 < p < 2 for p in v),
        "a non-empty list of numbers in (1, 2)",
    ),
    "family": (lambda v: v in campaigns.FAMILIES, f"one of {campaigns.FAMILIES}"),
    "matrix": (lambda v: v is None or _is_square(v), "null or a square list of rows of numbers"),
}


def _resolve_config(command: str, cfg: dict) -> dict:
    """The values ``command`` runs with: its defaults overridden by ``cfg``.

    Rejects a key the command does not read, a field of the wrong type or
    range, and a key given next to an explicit ``matrix``, naming the key.
    With a ``matrix`` the values used are the seed and the matrix alone.
    """
    spec = COMMANDS[command]
    for key in cfg:
        if key not in spec.config:
            raise ConfigError(
                f"unknown config key {key!r} for {command}; accepted keys: {', '.join(sorted(spec.config))}"
            )
    used = {**spec.config, **cfg}
    for key, value in used.items():
        valid, wanted = _FIELDS[key]
        if not valid(value):
            raise ConfigError(f"{key} must be {wanted}, got {value!r}")
    if any(n > spec.max_dim for n in used["dims"]):
        raise ConfigError(f"dims must be at most {spec.max_dim} for {command}, got {used['dims']!r}")
    if used.get("matrix") is not None:  # an explicit matrix replaces the sweep the other keys describe
        for key in cfg:
            if key not in ("seed", "matrix"):
                raise ConfigError(f"{key} cannot be given with matrix, which replaces the {command} sweep")
        return {"seed": used["seed"], "matrix": used["matrix"]}
    return used


def run_command(command: str, cfg: dict) -> dict:
    """Run ``command`` with config ``cfg``; the report's ``config`` holds the values used.

    The campaign gets every key of the command; a key the run does not use is None.
    """
    spec = COMMANDS[command]
    used = _resolve_config(command, cfg)
    report = getattr(campaigns, spec.campaign)(**{**dict.fromkeys(spec.config), **used})
    report["config"] = used
    return report


@functools.cache  # built on first use, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="musielak", description="permutation-average / Musielak-Orlicz experiment runner"
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", metavar="PATH", help="campaign config JSON")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", metavar="DIR", default=".", help="output directory")
    parser.add_argument("--format", choices=["json", "csv", "both"], default="both")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        report = run_command(args.command, cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = report.pop("rows", None)
    report["command"] = args.command
    report["version"] = __version__
    report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if args.format in ("json", "both"):
        write_json(outdir / f"{args.command}.json", report)
    if args.format in ("csv", "both") and rows is not None:
        write_csv(outdir / f"{args.command}.csv", rows)
    print(f"{args.command}: {'pass' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 2


if __name__ == "__main__":
    sys.exit(main())
