"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workload NAME --seeds 1-10

Each run is untraced and measures for ``run_seconds`` of ``BENCHMARK.json``.
Prints one JSON object per run as it finishes (prefixed ``run``), then for
each metric its median, quartiles and the quartile distance as a share of
the median (``statistics.quantiles(values, n=4)``), and exits non-zero if
any run failed or reported a failed check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = RUN.parent.parent / "BENCHMARK.json"


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    seconds = json.loads(SPEC.read_text())["run_seconds"]
    runs, ok = [], True
    for seed in seed_list(args.seeds):
        argv = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=RUN.parent.parent, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        runs.append(result)
        print("run", seed, json.dumps(result), flush=True)
    if runs:
        summary = {"workload": args.workload, "seeds": args.seeds, "metrics": summarise(runs)}
        print(json.dumps(summary, indent=1))
    return 0 if ok and runs else 1


if __name__ == "__main__":
    sys.exit(main())
