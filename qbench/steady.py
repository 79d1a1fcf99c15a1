"""Steadiness check: repeat a workload over several seeds and compare spreads to bounds.

Usage (from the repository root)::

    python3 qbench/steady.py --workload trials_served --runs 10
    python3 qbench/steady.py --runs 10                 # every workload in turn

Each run is one ``qbench/run.py`` process of ``BENCHMARK.json``'s
``run_seconds`` with its own seed (1, 2, ..., N), run one after another.  For every end-to-end
metric of ``BENCHMARK.json`` the report prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the metric's bound; a spread at or above a third
of the bound is marked ``WIDE`` (``setup_s`` is reported but exempt).  It
also prints each run's failed share, which must be identical across runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(workload: str, results, spec) -> bool:
    steady = True
    print(f"== {workload}: {len(results)} runs")
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    print("  failed/attempted per run: " + ", ".join(f"{f}/{a}" for f, a in shares))
    if len({f / a for f, a in shares}) > 1:
        print("  UNEQUAL failed share across runs")
        steady = False
    if not all(r["correct"] for r in results):
        print("  INCORRECT output in at least one run")
        steady = False
    print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for entry in spec["end_to_end"]:
        name = entry["name"]
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        mark = ""
        if name != "setup_s" and spread >= entry["bound"] / 3:
            mark = "WIDE"
            steady = False
        print(f"  {name:<20} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {entry['bound']:6.2f} {mark}")
        print("    runs: " + " ".join(f"{v:.4g}" for v in values))
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    steady = True
    for name in names:
        results = []
        for seed in range(1, args.runs + 1):
            results.append(run_once(name, seed, spec["run_seconds"]))
            print(f"  {name} seed {seed} done", file=sys.stderr)
        steady &= summarize(name, results, spec)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
