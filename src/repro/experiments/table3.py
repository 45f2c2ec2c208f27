"""Table 3: per-benchmark profiling statistics.

For every benchmark, UMI runs *without* sample-based reinforcement
(every new trace is instrumented immediately -- "an empirical upper
bound on the instrumentation overhead") and reports static loads/stores,
the number and fraction of operations selected for profiling after
filtering, the number of collected profiles (recorded memory reference
sequences), and the number of analyzer invocations.

The paper's filter removes ~80% of candidate operations (19.42%
profiled on average); the same stack/static filtering drives the
fraction here.
"""

from __future__ import annotations

from typing import List, Optional

from repro.engine import RunSpec
from repro.stats import Table

from .common import DEFAULT_SCALE, ResultCache, paper_suite_names


def required_runs(cache: ResultCache,
                  workloads: Optional[List[str]] = None) -> List[RunSpec]:
    """Every spec Table 3 consumes."""
    names = workloads if workloads is not None else paper_suite_names()
    return [cache.spec_umi(name, sampling=False) for name in names]


def run(scale: float = DEFAULT_SCALE, cache: Optional[ResultCache] = None,
        workloads: Optional[List[str]] = None) -> Table:
    """Regenerate Table 3."""
    cache = cache or ResultCache(scale)
    cache.prefill(required_runs(cache, workloads))
    names = workloads if workloads is not None else paper_suite_names()

    table = Table(
        "Table 3: profiling statistics (no sampling)",
        ["benchmark", "static_loads", "static_stores",
         "profiled_operations", "pct_profiled", "profiles_collected",
         "analyzer_invocations"],
        ["{}", "{}", "{}", "{}", "{:.2f}%", "{}", "{}"],
    )
    pct_sum = 0.0
    for name in names:
        outcome = cache.umi(name, sampling=False)
        row = outcome.umi.profiling_row(*cache.static_counts(name))
        table.add_row(
            name, row["static_loads"], row["static_stores"],
            row["profiled_operations"], row["pct_profiled"],
            row["profiles_collected"], row["analyzer_invocations"],
        )
        pct_sum += row["pct_profiled"]
    if names:
        table.add_row("average", "", "", "", pct_sum / len(names), "", "")
    return table
