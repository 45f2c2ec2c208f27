"""Benchmark reports: the ``BENCH_kernels.json`` schema and checks.

A report is a JSON document::

    {
      "schema_version": 1,
      "quick": false,
      "context": {"python": "...", "implementation": "...",
                  "platform": "...", "machine": "..."},
      "execution": {"pool": "serial", "workers": 1},
      "kernels": {"minisim": {"name": ..., "times_s": [...],
                              "median_s": ..., "meta": {...}}, ...}
    }

``execution`` records which execution backend produced the timings --
the worker-pool kind (``serial``, ``inprocess``, ``local``,
``socket``) and the worker count -- so baselines taken under
different backends are never median-compared as if they were the same
configuration.  (The kernel micro-benchmarks themselves always run
in-process; the field exists so reports stay comparable as sweeps
move across execution backends.)

Two kinds of guard run over a report:

* **Speedup floors** (:data:`SPEEDUP_FLOORS`) are *host-relative*
  ratios -- the optimized kernel and its retained reference ran on the
  same machine in the same process -- so they are enforced on every
  ``--check``, regardless of where the baseline came from.  The
  ``minisim`` floor of 1.1x is the acceptance bound for the batch
  analyzer on profiles recorded from the paper's workloads (mostly
  short, cold-cache streams, where the gain over the reference loop is
  small); ``fullsim`` (2.5x) and ``pipeline`` (2x) are the acceptance
  bounds for the columnar reference-stream refactor, measured against
  the retained array-of-structs implementations.
* **Regression comparison** against a baseline report flags any kernel
  whose median slowed by more than :data:`REGRESSION_THRESHOLD`.
  Absolute timings only transfer between matching hosts, so the
  comparison is skipped (with a note) when the context fingerprints
  differ.  A fingerprint names the interpreter, not the CPU or its
  load, so before comparing, the baseline medians are scaled by the
  host speed this run measured (:func:`host_speed_factor`): the median
  ratio of the retained reference kernels' medians, which no change to
  the optimized code moves.  A uniformly slower host passes; one
  kernel slower than the others still fails.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
from typing import Any, Dict, List, Optional

from .harness import BenchResult

SCHEMA_VERSION = 1

#: Median-vs-baseline slowdown tolerated before ``--check`` fails.
REGRESSION_THRESHOLD = 0.20

#: kernel name -> minimum ``meta["speedup"]`` over its retained
#: reference implementation.  Always enforced: the ratio is measured
#: within one process, so it is portable across hosts.
SPEEDUP_FLOORS: Dict[str, float] = {
    "minisim": 1.1,
    "fullsim": 2.5,
    "pipeline": 2.0,
}

#: The execution record assumed for reports written before the field
#: existed (and the default for in-process kernel benchmarking).
DEFAULT_EXECUTION: Dict[str, Any] = {"pool": "serial", "workers": 1}


def context_fingerprint() -> Dict[str, str]:
    """Where these timings were taken (absolute times only compare
    within one fingerprint)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def build_report(results: Dict[str, BenchResult],
                 quick: bool = False,
                 execution: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "context": context_fingerprint(),
        "execution": dict(DEFAULT_EXECUTION if execution is None
                          else execution),
        "kernels": {name: result.to_dict()
                    for name, result in results.items()},
    }


def report_results(report: Dict[str, Any]) -> Dict[str, BenchResult]:
    """Inverse of :func:`build_report` (schema round-trip)."""
    return {name: BenchResult.from_dict(payload)
            for name, payload in report["kernels"].items()}


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        report = json.load(handle)
    version = report.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported bench report schema {version!r} in {path} "
            f"(expected {SCHEMA_VERSION})")
    return report


def check_floors(report: Dict[str, Any]) -> List[str]:
    """Speedup-floor violations in ``report`` (empty = pass)."""
    failures = []
    kernels = report.get("kernels", {})
    for name, floor in SPEEDUP_FLOORS.items():
        payload = kernels.get(name)
        if payload is None:
            continue
        speedup = payload.get("meta", {}).get("speedup")
        if speedup is None:
            failures.append(
                f"{name}: no speedup recorded (floor is {floor:.1f}x)")
        elif speedup < floor:
            failures.append(
                f"{name}: speedup {speedup:.2f}x below the "
                f"{floor:.1f}x floor")
    return failures


def host_speed_factor(current: Dict[str, Any],
                      baseline: Dict[str, Any]) -> float:
    """How many times slower this run's host is than the baseline's.

    The median, over the kernels both reports timed against their
    retained reference (``meta["reference_median_s"]``: ``fullsim``,
    ``minisim``, ``pipeline``), of current over baseline reference
    median; 1.0 when no kernel has a reference in both.
    """
    base_kernels = baseline.get("kernels", {})
    ratios = []
    for name, payload in current.get("kernels", {}).items():
        ref = payload.get("meta", {}).get("reference_median_s")
        base_ref = base_kernels.get(name, {}).get("meta", {}).get(
            "reference_median_s")
        if ref and base_ref:
            ratios.append(ref / base_ref)
    return statistics.median(ratios) if ratios else 1.0


def compare_reports(current: Dict[str, Any],
                    baseline: Optional[Dict[str, Any]],
                    threshold: float = REGRESSION_THRESHOLD
                    ) -> List[str]:
    """Regression failures of ``current`` against ``baseline``.

    Returns a list of human-readable failure strings; an empty list
    means the check passed.  Speedup floors are always enforced; median
    comparisons additionally require a baseline with a matching context
    fingerprint, and compare against baseline medians scaled by
    :func:`host_speed_factor`.
    """
    failures = list(check_floors(current))
    if baseline is None:
        return failures
    if baseline.get("context") != current.get("context") \
            or baseline.get("quick") != current.get("quick") \
            or baseline.get("execution", DEFAULT_EXECUTION) \
            != current.get("execution", DEFAULT_EXECUTION):
        # Different host/interpreter, kernel input sizes, or execution
        # backend (pool kind / worker count): absolute medians don't
        # transfer.  Speedup floors still apply.
        return failures
    base_kernels = baseline.get("kernels", {})
    speed = host_speed_factor(current, baseline)
    for name, payload in current.get("kernels", {}).items():
        base = base_kernels.get(name)
        if base is None:
            continue
        base_median = base.get("median_s", 0.0)
        expected = base_median * speed
        median = payload.get("median_s", 0.0)
        if expected > 0 and median > expected * (1 + threshold):
            failures.append(
                f"{name}: median {median * 1000:.2f}ms is "
                f"{median / expected - 1:+.0%} vs baseline "
                f"{base_median * 1000:.2f}ms at host speed "
                f"x{speed:.2f} (threshold +{threshold:.0%})")
    return failures


def render_report(report: Dict[str, Any]) -> str:
    """One-line-per-kernel summary for the CLI."""
    lines = ["kernel          median      iqr  notes"]
    for name, payload in report.get("kernels", {}).items():
        meta = payload.get("meta", {})
        notes = []
        if "speedup" in meta:
            notes.append(f"{meta['speedup']:.2f}x vs reference")
        if "steps" in meta:
            notes.append(f"steps={meta['steps']}")
        lines.append(
            f"{name:<14s} {payload['median_s'] * 1000:7.2f}ms "
            f"{payload['iqr_s'] * 1000:7.2f}ms  {' '.join(notes)}")
    return "\n".join(lines)
