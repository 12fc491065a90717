"""Experiment runner: reproducible campaigns with JSON/CSV reports.

Subcommands: construct, verify-thm1, verify-thm2, roundtrip, lemma-oracles,
embed-report.  A campaign is defined by a JSON config file; --seed and
--out override the config on the command line.  Exit code 0 means every
gate in the run passed, 2 means at least one failed (the report's ``gate``
blocks name the bound, the worst value and the margin), 1 is a usage or
config error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

from . import __version__, campaigns, embed, perms

_EXPONENTS = list(campaigns.DEFAULT_EXPONENTS)

# The config keys each command reads, with their defaults.  Any other key is
# a config error.
COMMAND_CONFIG = {
    "construct": {
        "seed": 0,
        "dims": [2, 3, 4],
        "family": "random-decreasing",
        "exponents": _EXPONENTS,
        "matrix": None,
    },
    "verify-thm1": {
        "seed": 0,
        "dims": [2, 3, 4, 5],
        "instances": 5,
        "vectors": 100,
        "family": "random-decreasing",
    },
    "verify-thm2": {"seed": 0, "dims": [3, 4, 5], "vectors": 200, "exponents": _EXPONENTS},
    "roundtrip": {"seed": 0, "dims": [3, 4, 5], "family": "power-family", "exponents": _EXPONENTS},
    "lemma-oracles": {"seed": 0, "dims": [2, 3, 4], "instances": 100},
    "embed-report": {
        "seed": 0,
        "dims": [2, 3, 4],
        "instances": 100,
        "samples": 200,
        "exponents": _EXPONENTS,
    },
}

# The largest n a command enumerates exactly; a larger n in dims is a config error.
MAX_DIM = {"verify-thm1": perms.N_EXACT, "verify-thm2": perms.N_EXACT, "embed-report": embed.N_EXACT_PSI}
N_KHINTCHINE = 5  # the Khintchine part of embed-report: 2^5 5! = 3840 terms per instance

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


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: Path, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in sorted(rows, key=lambda r: r["instance_id"]):
            fh.write(",".join(_fmt(row.get(c, "")) for c in CSV_COLUMNS) + "\n")


def _merge(**parts) -> dict:
    """One report from named campaign reports: rows joined, passed if all passed."""
    report = {name: {k: v for k, v in part.items() if k != "rows"} for name, part in parts.items()}
    report["rows"] = [r for part in parts.values() for r in part["rows"]]
    report["passed"] = all(part["passed"] for part in parts.values())
    return report


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _resolve_config(command: str, cfg: dict) -> dict:
    """The values ``command`` runs with: its defaults overridden by ``cfg``.

    Rejects a key the command does not read, and a field of the wrong type
    or range, naming the key.
    """
    if command not in COMMAND_CONFIG:
        raise ConfigError(f"unknown command {command!r}")
    defaults = COMMAND_CONFIG[command]
    for key in cfg:
        if key not in defaults:
            raise ConfigError(
                f"unknown config key {key!r} for {command}; accepted keys: {', '.join(sorted(defaults))}"
            )
    used = {**defaults, **cfg}
    _check_config(used)
    limit = MAX_DIM.get(command, float("inf"))
    if any(n > limit for n in used["dims"]):
        raise ConfigError(f"dims must be at most {limit} for {command}, got {used['dims']!r}")
    if command == "roundtrip" and used["family"] == "random-decreasing":  # see the README
        raise ConfigError("family 'random-decreasing' cannot run roundtrip: its PCHIP fits fail 2-concavity")
    return used


def _check_config(cfg: dict) -> None:
    """Reject a config field of the wrong type or range, naming the field."""
    if not (_is_int(cfg["seed"]) and cfg["seed"] >= 0):
        raise ConfigError(f"seed must be an integer >= 0, got {cfg['seed']!r}")
    for key in ("instances", "vectors", "samples"):
        if key in cfg and not (_is_int(cfg[key]) and cfg[key] >= 1):
            raise ConfigError(f"{key} must be an integer >= 1, got {cfg[key]!r}")
    dims = cfg["dims"]
    if not isinstance(dims, list) or not all(_is_int(n) and n >= 1 for n in dims):
        raise ConfigError(f"dims must be a list of integers >= 1, got {dims!r}")
    exponents = cfg.get("exponents", _EXPONENTS)
    if not isinstance(exponents, list) or not exponents or not all(
        isinstance(p, (int, float)) and not isinstance(p, bool) and 1 < p < 2 for p in exponents
    ):
        raise ConfigError(f"exponents must be a non-empty list of numbers in (1, 2), got {exponents!r}")
    if cfg.get("family", "power-family") not in campaigns.FAMILIES:
        raise ConfigError(f"family must be one of {campaigns.FAMILIES}, got {cfg['family']!r}")


def run_command(command: str, cfg: dict) -> dict:
    """Run ``command`` with config ``cfg``; the report's ``config`` holds the values used."""
    used = _resolve_config(command, cfg)
    report = _dispatch(command, **used)
    report["config"] = used
    return report


def _dispatch(command: str, seed, dims, **cfg) -> dict:
    if command == "construct":
        return campaigns.construct_campaign(
            dims, seed, cfg["family"], cfg["exponents"], matrix=cfg["matrix"]
        )
    if command == "verify-thm1":
        return campaigns.thm1_campaign(
            dims, seed, instances=cfg["instances"], vectors=cfg["vectors"], family=cfg["family"]
        )
    if command == "verify-thm2":
        return campaigns.thm2_campaign(dims, seed, vectors=cfg["vectors"], exponents=cfg["exponents"])
    if command == "roundtrip":
        return campaigns.roundtrip_campaign(
            dims, seed, family=cfg["family"], exponents=cfg["exponents"]
        )
    if command == "lemma-oracles":
        pairs = [n for n in dims if n <= perms.N_EXACT_PAIRS]
        return _merge(
            lemma21=campaigns.lemma21_campaign(pairs, seed, instances=cfg["instances"]),
            lemma22=campaigns.lemma22_campaign(dims, seed, instances=cfg["instances"]),
        )
    khintchine = [n for n in dims if n <= N_KHINTCHINE]
    return _merge(
        khintchine=campaigns.khintchine_campaign(khintchine, seed, instances=cfg["instances"]),
        distortion=campaigns.distortion_campaign(
            dims, seed, samples=cfg["samples"], exponents=cfg["exponents"]
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="musielak", description="permutation-average / Musielak-Orlicz experiment runner"
    )
    parser.add_argument("command", choices=sorted(COMMAND_CONFIG))
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
        with open(outdir / f"{args.command}.json", "w") as fh:
            json.dump(report, fh, indent=2, default=str)
            fh.write("\n")
    if args.format in ("csv", "both") and rows is not None:
        write_csv(outdir / f"{args.command}.csv", rows)
    print(f"{args.command}: {'pass' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 2


if __name__ == "__main__":
    sys.exit(main())
