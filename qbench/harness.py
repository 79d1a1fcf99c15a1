"""Operation accounting, timing and reporting shared by the workloads."""

from __future__ import annotations

import os
import platform
import resource
import sqlite3
import statistics
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Percentile ladder for the tail report: the highest rung with at least ten
#: samples beyond it is printed (never gated).
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


class OpFailed(Exception):
    """An operation failed; the round skips the operations that needed it."""


class Recorder:
    """Per-operation attempts, failures (by exception type) and latencies.

    ``busy_s`` is the time spent inside timed sections: sequential operations
    add their own duration, a concurrent block adds its wall time once (its
    individual operations still record their latencies).  ``ops_per_s`` is
    completed operations over ``busy_s``.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: Counter = Counter()
        self.busy_s = 0.0
        self.checks = 0
        self.check_failures: List[str] = []
        self._lock = threading.Lock()

    def op(self, name: str, fn: Callable, *args, sequential: bool = True, **kwargs):
        """Run one timed operation; on failure record it and raise :class:`OpFailed`."""
        with self._lock:
            self.attempted[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the run goes on; the failure is counted
            elapsed = time.perf_counter() - start
            with self._lock:
                self.failed[name] += 1
                self.errors[(name, type(exc).__name__)] += 1
                if sequential:
                    self.busy_s += elapsed
            if len(self.errors) <= 3:
                traceback.print_exc(file=sys.stderr)
            raise OpFailed(name) from exc
        elapsed = time.perf_counter() - start
        with self._lock:
            self.samples[name].append(elapsed)
            if sequential:
                self.busy_s += elapsed
        return result

    def add_sample(self, name: str, seconds: float) -> None:
        """A derived latency (e.g. write + following read) under its own name."""
        with self._lock:
            self.samples[name].append(seconds)

    def add_busy(self, seconds: float) -> None:
        with self._lock:
            self.busy_s += seconds

    def check(self, what: str, fn: Callable, *args, **kwargs) -> None:
        """Run one oracle check outside the timed sections."""
        self.checks += 1
        try:
            fn(*args, **kwargs)
        except AssertionError as exc:
            self.check_failures.append(f"{what}: {exc}")

    # ------------------------------------------------------------------
    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def median_ms(self, name: str) -> float:
        """Median of an operation's latencies, in ms: the reported statistic."""
        values = self.samples.get(name)
        if not values:
            raise KeyError(f"no samples for {name!r}")
        return statistics.median(values) * 1000.0

    def ops_per_s(self) -> float:
        completed = self.total_attempted - self.total_failed
        return completed / self.busy_s if self.busy_s > 0 else 0.0

    def accounting_lines(self) -> List[str]:
        lines = []
        for name in sorted(self.attempted):
            errors = ", ".join(
                f"{etype} x{count}" for (op, etype), count in sorted(self.errors.items()) if op == name
            )
            lines.append(
                f"  {name:<22} attempted {self.attempted[name]:>5}  failed {self.failed[name]:>3}"
                + (f"  ({errors})" if errors else "")
            )
        return lines

    def tail_lines(self) -> List[str]:
        lines = []
        for name in sorted(self.samples):
            values = sorted(self.samples[name])
            n = len(values)
            line = f"  {name:<22} n={n:<5} median {self.median_ms(name):.3f} ms"
            rung = tail_percentile(n)
            if rung is not None:
                line += f"  p{rung:g} {percentile(values, rung) * 1000:.3f} ms"
            lines.append(line)
        return lines


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ten samples beyond it (n >= 40)."""
    if n < 40:
        return None
    best = None
    for rung in TAIL_LADDER:
        if n * (100.0 - rung) >= 1000.0 - 1e-9:  # ten samples beyond the rung
            best = rung
    return best


def percentile(sorted_values: List[float], rung: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, int(round(rung / 100.0 * len(sorted_values) + 0.5)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_block() -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def run_concurrently(workers: List[Callable[[], None]]) -> Tuple[float, List[BaseException]]:
    """Run each callable on its own thread; returns (wall seconds, errors)."""
    errors: List[BaseException] = []
    lock = threading.Lock()

    def guarded(fn: Callable[[], None]) -> None:
        try:
            fn()
        except BaseException as exc:  # reported by the caller
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(fn,)) for fn in workers]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    wall = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        errors.append(TimeoutError("client thread did not finish within 120 s"))
    return wall, errors
