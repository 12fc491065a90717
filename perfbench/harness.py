"""Run one job through ``musielak.cli.main`` in-process and read its reports.

The whole job runs under a wall-clock limit (``SIGALRM``), so a command
that hangs is recorded as a failed command instead of stalling the run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# a job takes well under 5 s at the seed commit
JOB_LIMIT_S = 30.0


class JobTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the program eats it."""


def _on_alarm(signum, frame):
    raise JobTimeout


@dataclass
class CommandResult:
    name: str
    config: dict
    seed: int
    expect: dict
    exit_code: int | None = None  # None: timed out, raised, or never started
    error: str = ""
    report: dict | None = None
    rows: list = field(default_factory=list)
    report_bytes: int = 0


@dataclass
class JobResult:
    seconds: float
    commands: list
    timed: bool = True


def _read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["n"] = int(row["n"])
        for key in ("lhs", "rhs", "ratio"):
            row[key] = float(row[key])
    return rows


def _read_reports(res: CommandResult, outdir: Path) -> None:
    json_path = outdir / f"{res.name}.json"
    csv_path = outdir / f"{res.name}.csv"
    try:
        with open(json_path) as fh:
            res.report = json.load(fh)
        res.rows = _read_rows(csv_path)
        res.report_bytes = json_path.stat().st_size + csv_path.stat().st_size
    except (OSError, ValueError, KeyError) as exc:
        res.error = f"unreadable report: {exc!r}"


def run_job(cli, job, workdir: Path, limit_s: float = JOB_LIMIT_S) -> JobResult:
    """Run every command of ``job``; time the ``cli.main`` calls only.

    ``cli`` is the ``musielak.cli`` module; ``main`` is looked up on each
    call so that a tracer that rebinds it is honoured.
    """
    argvs, results = [], []
    for k, cmd in enumerate(job.commands):
        outdir = workdir / f"{k}-{cmd.name}"
        outdir.mkdir(parents=True, exist_ok=True)
        for stale in outdir.iterdir():
            stale.unlink()
        cfg_path = outdir / "config.json"
        cfg_path.write_text(json.dumps(cmd.config))
        argvs.append(
            (outdir, [cmd.name, "--config", str(cfg_path), "--seed", str(job.seed), "--out", str(outdir)])
        )
        results.append(CommandResult(cmd.name, cmd.config, job.seed, cmd.expect))

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    sink = io.StringIO()
    k = 0
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        with contextlib.redirect_stdout(sink):
            for k, (_, argv) in enumerate(argvs):
                try:
                    results[k].exit_code = cli.main(argv)
                except Exception:
                    results[k].error = traceback.format_exc(limit=-3)
    except JobTimeout:
        for res in results[k:]:
            res.error = f"job exceeded its {limit_s:g} s limit"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)

    for res, (outdir, _) in zip(results, argvs):
        if res.exit_code is not None and not res.error:
            _read_reports(res, outdir)
        if res.error:
            print(f"perfbench: {res.name} seed {res.seed}: {res.error}", file=sys.stderr)
    return JobResult(seconds, results)
