"""Run one workload of the Q benchmark and print its report.

Usage (from the repository root)::

    python3 qbench/run.py --workload trials_served --seed 1 --seconds 55 --trace 0
    python3 qbench/run.py                           # every workload of BENCHMARK.json in turn

A run repeats as many whole cycles of its workload as fit in ``--seconds``,
checks every answer it received against the oracles in :mod:`oracles`, and
prints a host block, per-operation accounting (attempted / failed, with
exception types), latency statistics (the reported median and the tail),
and the metrics.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs the
workload untraced for half the time, then the same number of cycles with span
wrappers installed around each layer's entry point, and reports the
per-layer metrics (totals and self times) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Tie-breaks follow set/dict iteration order; pin the string hash seed
# (re-exec once) so every run of a seed does the same work.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

WORKLOAD_NAMES = ("trials_served", "steiner_fourkw", "catalog_registration")


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the gated workloads, their metrics and the run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


#: End-to-end metric -> (recorder sample, unit); setup, throughput and
#: memory are computed separately.
LATENCIES = {
    "cold_read_ms": "cold",
    "warm_read_ms": "warm_read",
    "feedback_fresh_ms": "feedback_fresh",
    "register_ms": "register",
    "register_fresh_ms": "register_fresh",
    "reopen_ms": "reopen",
}

#: Layers with a span: each reports ``<layer>_ms`` (total) and ``<layer>_self_ms``.
LAYERS = (
    "graph.expand",
    "steiner.solve",
    "steiner.base_solve",
    "core.generate",
    "engine.execute",
    "storage.pushdown",
    "learning.mira",
    "alignment.register",
    "alignment.align",
    "matching.match",
    "profiling.index",
    "persist.save",
    "persist.open",
)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rec, workload, peak_rss_mb) -> dict:
    metrics = {"setup_s": metric(statistics.median(workload.setups), "s")}
    for name, sample in LATENCIES.items():
        metrics[name] = metric(rec.median_ms(sample), "ms")
    metrics["ops_per_s"] = metric(rec.ops_per_s(), "ops/s")
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    return metrics


def per_layer(tracer, workload, overhead_pct: float) -> dict:
    times = tracer.layer_times()
    counts = tracer.counts
    metrics = {}
    for layer in LAYERS:
        total, self_ms, _ = times.get(layer, (0.0, 0.0, 0))
        metrics[f"{layer}_ms"] = metric(total, "ms")
        metrics[f"{layer}_self_ms"] = metric(self_ms, "ms")
    base_solves = counts.get("steiner.base_solves", 0)
    exhaustive = counts.get("profiling.exhaustive_pairs", 0)
    scored = counts.get("matching.pairs_scored_by_registration", 0)
    metrics.update(
        {
            "graph.expand_calls": metric(times.get("graph.expand", (0, 0, 0))[2], "count"),
            "steiner.solves": metric(counts.get("steiner.solves", 0), "count"),
            "steiner.base_solves": metric(base_solves, "count"),
            "steiner.trees_per_base_solve": metric(
                counts.get("steiner.trees", 0) / base_solves if base_solves else 0.0, "ratio"
            ),
            "steiner.cap_hits": metric(counts.get("steiner.cap_hits", 0), "count"),
            "core.view_refreshes": metric(workload.counters.get("core.view_refreshes", 0), "count"),
            "engine.queries_executed": metric(counts.get("engine.queries_executed", 0), "count"),
            "storage.pushdown_union_queries": metric(
                workload.counters.get("storage.pushdown_union_queries", 0), "count"
            ),
            "learning.constraints": metric(counts.get("learning.constraints", 0), "count"),
            "matching.pairs_scored": metric(workload.counters.get("matching.pairs_scored", 0), "count"),
            "profiling.pruned_fraction": metric(1.0 - scored / exhaustive if exhaustive else 0.0, "ratio"),
            "service.materializations": metric(workload.counters.get("service.materializations", 0), "count"),
            "service.carryovers": metric(workload.counters.get("service.carryovers", 0), "count"),
            "persist.bytes": metric(statistics.median(workload.saved_bytes) if workload.saved_bytes else 0, "bytes"),
            "trace.overhead_pct": metric(overhead_pct, "%"),
        }
    )
    return metrics


def run_cycles(workload, seconds: float = None, cycles: int = None) -> None:
    """Exactly ``cycles`` whole cycles, or as many as fit in ``seconds`` (at least one).

    A cycle starts only if one more cycle of the mean length so far ends
    within ``seconds``, so a run overruns its time by little.
    """
    start = time.perf_counter()
    while True:
        workload.run_cycle()
        if cycles is not None:
            if workload.cycles >= cycles:
                return
            continue
        elapsed = time.perf_counter() - start
        if elapsed * (workload.cycles + 1) / workload.cycles > seconds:
            return


def report(name: str, seed: int, recs, metrics: dict, extra_lines=()) -> dict:
    from harness import host_block

    print(f"== qbench {name} seed={seed}")
    print("host: " + json.dumps(host_block(), sort_keys=True))
    for label, rec in recs:
        print(f"operations ({label}, {rec.checks} oracle checks, busy {rec.busy_s:.3f} s):")
        print("\n".join(rec.accounting_lines()))
        print("latencies:")
        print("\n".join(rec.tail_lines()))
        for failure in rec.check_failures[:10]:
            print(f"CHECK FAILED: {failure}")
    for line in extra_lines:
        print(line)
    print("metrics:")
    for key, value in metrics.items():
        print(f"  {key:<34} {value['value']:.6g} {value['unit']}")
    attempted = sum(rec.total_attempted for _, rec in recs)
    return {
        "correct": all(not rec.check_failures and rec.checks > 0 for _, rec in recs),
        "attempted": attempted,
        "failed": sum(rec.total_failed for _, rec in recs),
        "metrics": metrics,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from harness import Recorder, peak_rss_mb
    from workloads import WORKLOADS

    workdir = ROOT / ".qbench_work"
    cls = WORKLOADS[name]
    if not trace:
        rec = Recorder()
        workload = cls(seed, rec, workdir=workdir)
        try:
            run_cycles(workload, seconds=seconds)
        finally:
            workload.cleanup()
        try:
            metrics = end_to_end(rec, workload, peak_rss_mb())
        except KeyError as exc:  # an operation never completed: no result
            report(name, seed, [("untraced", rec)], {}, [f"no result: {exc}"])
            raise SystemExit(1) from None
        return report(name, seed, [("untraced", rec)], metrics)

    from spans import SpanTracer

    plain_rec = Recorder()
    plain = cls(seed, plain_rec, workdir=workdir)
    traced_rec = Recorder()
    tracer = SpanTracer()
    traced = cls(seed, traced_rec, tracer=tracer, workdir=workdir)
    try:
        run_cycles(plain, seconds=seconds / 2)
        tracer.install()
        try:
            run_cycles(traced, cycles=plain.cycles)
        finally:
            tracer.uninstall()
    finally:
        plain.cleanup()
    overhead = (traced_rec.busy_s / plain_rec.busy_s - 1.0) * 100.0
    lines = [
        f"tracing overhead: {overhead:+.2f}% ({plain.cycles} cycle(s) each; busy "
        f"{plain_rec.busy_s:.3f} s untraced, {traced_rec.busy_s:.3f} s traced)",
        "per-layer spans (total ms / self ms / spans):",
    ]
    for layer, (total, self_ms, n) in sorted(tracer.layer_times().items()):
        lines.append(f"  {layer:<22} {total:12.3f} {self_ms:12.3f} {n:8d}")
    return report(
        name, seed, [("untraced", plain_rec), ("traced", traced_rec)], per_layer(tracer, traced, overhead), lines
    )


def run_all(args) -> int:
    """Every workload of ``BENCHMARK.json`` in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [w["name"] for w in benchmark_spec()["workloads"]]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="defaults to BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"qbench: the program's sources are missing ({src}/repro)", file=sys.stderr)
        return 2
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
