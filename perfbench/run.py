"""Benchmark of the `musielak` campaign CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process calls ``musielak.cli.main`` job after job (a
closed loop, no threads) on the program under ``src/`` of the checkout,
reads back every JSON and CSV report and checks it (see ``checks``).

With ``--trace 0`` it measures, for ``--seconds`` of jobs, the end-to-end
metrics: ``job_s_p50`` (median job wall time), ``checks_per_s`` (rows that
passed every check per second of job time), ``setup_s`` (median time of
several fresh interpreters to import ``musielak.cli``) and ``peak_rss_mb``.
With ``--trace 1`` it runs up to a fixed number of jobs, within
``--seconds``, each once untraced and once traced (see ``tracing``), and
reports the per-layer metrics per traced job.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Without a program under ``src/``
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# one process, one thread: keep BLAS pools and the CLI's thread pool off
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MUSIELAK_THREADS", None)

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks
import harness
import tracing
from workloads import WORKLOADS, make_job

# interpreters started to time the import; the median is reported
SETUP_STARTS = 5
SETUP_LIMIT_S = 60


class SetupError(RuntimeError):
    pass


def require_program() -> None:
    if not (SRC / "musielak" / "__init__.py").is_file():
        raise SetupError(f"no program at {SRC / 'musielak'}")


def import_program():
    """Import ``musielak.cli`` from this checkout's ``src/``, and nowhere else."""
    require_program()
    sys.path.insert(0, str(SRC))
    import musielak.cli

    if Path(musielak.__file__).resolve().parent != SRC / "musielak":
        raise SetupError(f"imported musielak from {musielak.__file__}, not from {SRC}")
    return musielak.cli


def measure_setup(starts: int = SETUP_STARTS) -> float:
    """Median wall time of a fresh interpreter that imports ``musielak.cli``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import musielak.cli"
    times = []
    for _ in range(starts):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=SETUP_LIMIT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"import failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return statistics.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_run(cli, workload, seed: int, seconds: float, workdir: Path, tally, sample) -> list:
    """Jobs back to back for ``seconds``; returns their wall times."""
    job_times = []
    start = time.perf_counter()
    index = 1
    while not job_times or time.perf_counter() - start < seconds:
        result = harness.run_job(cli, make_job(workload, seed, index), workdir)
        checks.check_job(result, tally, sample.offer)
        job_times.append(result.seconds)
        index += 1
    print(f"perfbench: {len(job_times)} timed jobs", file=sys.stderr)
    return job_times


def traced_run(cli, workload, seed: int, seconds: float, workdir: Path, tally, sample) -> dict:
    """Up to ``workload.traced_jobs`` jobs, each run untraced and traced in alternating order."""
    tracer = tracing.Tracer()
    plain = traced = 0.0
    report_bytes = done = 0
    start = time.perf_counter()
    for index in range(1, workload.traced_jobs + 1):
        if done and time.perf_counter() - start >= seconds:
            break
        job = make_job(workload, seed, index)
        for with_trace in ((False, True) if index % 2 else (True, False)):
            if with_trace:
                tracer.install()
            try:
                result = harness.run_job(cli, job, workdir)
            finally:
                tracer.uninstall()
            result.timed = False
            checks.check_job(result, tally, sample.offer)
            if with_trace:
                traced += result.seconds
                report_bytes += sum(c.report_bytes for c in result.commands)
            else:
                plain += result.seconds
        done += 1
    metrics = tracer.metrics(done)
    metrics["cli.report_bytes"] = (report_bytes / done, "bytes/job")
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    metrics["bench.traced_jobs"] = (done, "count")
    return metrics


def run(name: str, seed: int, seconds: float, trace_on: bool, *, setup_starts: int = SETUP_STARTS) -> dict:
    """One benchmark run; returns the result object that ``main`` prints."""
    workload = WORKLOADS[name]
    require_program()
    setup_s = None if trace_on else measure_setup(setup_starts)
    cli = import_program()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    tally, sample = checks.Tally(), checks.OracleSample(seed)
    try:
        warm = harness.run_job(cli, make_job(workload, seed, 0), workdir)
        warm.timed = False
        checks.check_job(warm, tally, sample.offer)
        gc.collect()
        if trace_on:
            metrics = traced_run(cli, workload, seed, seconds, workdir, tally, sample)
        else:
            job_times = timed_run(cli, workload, seed, seconds, workdir, tally, sample)
            peak_rss_mb = _peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it
    checks.run_oracle(sample.chosen(), tally)
    if trace_on:
        metrics["checks.fail_ratio"] = (tally.fail_ratio, "ratio")
    else:
        metrics = {
            "job_s_p50": (statistics.median(job_times), "s"),
            "checks_per_s": (tally.rows_passed / sum(job_times), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    checks.report_failures(tally)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, subprocess.TimeoutExpired, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
