"""Micro-benchmark harness: warmup, repeats, robust summary statistics.

One benchmark is one zero-argument callable.  The harness calls it
``warmup`` times untimed (to populate caches, decoded-block tables,
memoization state -- whatever the kernel under test warms), then
``repeat`` times timed, and summarizes with the **median** and the
inter-quartile range rather than mean/stddev: medians are robust to the
scheduler hiccups that dominate short Python timings.

The clock is injectable (``clock=time.perf_counter`` by default) so the
harness itself is testable with a fake deterministic clock
(``tests/test_bench.py``).  Each benchmark runs under a telemetry span
``bench.<name>`` when the telemetry subsystem is enabled.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.telemetry import get_telemetry


@dataclass
class BenchResult:
    """Timings and metadata for one benchmarked kernel."""

    name: str
    warmup: int
    repeat: int
    #: per-repeat wall-clock seconds, in execution order.
    times: List[float] = field(default_factory=list)
    #: kernel-specific facts (stream sizes, speedups, ...).
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def median_s(self) -> float:
        return statistics.median(self.times) if self.times else 0.0

    @property
    def iqr_s(self) -> float:
        """Inter-quartile range of the repeat times (0.0 if < 2 reps)."""
        if len(self.times) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.times, n=4,
                                         method="inclusive")
        return q3 - q1

    @property
    def best_s(self) -> float:
        return min(self.times) if self.times else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "warmup": self.warmup,
            "repeat": self.repeat,
            "times_s": list(self.times),
            "median_s": self.median_s,
            "iqr_s": self.iqr_s,
            "best_s": self.best_s,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BenchResult":
        return cls(
            name=payload["name"],
            warmup=payload["warmup"],
            repeat=payload["repeat"],
            times=list(payload["times_s"]),
            meta=dict(payload.get("meta", {})),
        )


def run_benchmark(
    name: str,
    fn: Callable[[], Any],
    *,
    warmup: int = 1,
    repeat: int = 5,
    clock: Callable[[], float] = time.perf_counter,
) -> BenchResult:
    """Time ``fn`` with ``warmup`` untimed then ``repeat`` timed calls."""
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    result = BenchResult(name=name, warmup=warmup, repeat=repeat)
    telemetry = get_telemetry()
    with telemetry.span("bench.run", labels={"kernel": name},
                        warmup=warmup, repeat=repeat):
        for _ in range(warmup):
            fn()
        for _ in range(repeat):
            start = clock()
            fn()
            result.times.append(clock() - start)
    telemetry.observe("bench_median_seconds", result.median_s,
                      labels={"kernel": name})
    return result
