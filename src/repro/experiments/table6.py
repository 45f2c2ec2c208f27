"""Table 6: quality of delinquent load prediction.

For each benchmark the ground truth ``C`` is the minimal set of load
instructions covering 90% of all L2 load misses in a full (Cachegrind)
simulation; UMI's online prediction ``P`` is the set of loads whose
mini-simulated miss ratio exceeded the (adaptive, per-trace) delinquency
threshold.  Reported per benchmark: |P|, |P| as a fraction of all static
loads, P's miss coverage, |C|, |P & C|, its coverage, recall and the
false-positive ratio -- plus averages split by the benchmark's overall
L2 miss ratio, which is where the paper's headline numbers live (88%
recall above the split, 61% overall).

The paper splits at a 1% L2 miss ratio.  The synthetic runs here are
~10^6x shorter than SPEC/ref, so compulsory misses push *every*
benchmark's ratio up by roughly two orders of magnitude; the split
parameter defaults to 15% to partition the suite the same way the
paper's 1% split partitions SPEC (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core import PredictionQuality
from repro.engine import RunSpec
from repro.fullsim import delinquent_set, miss_coverage
from repro.stats import Table

from .common import DEFAULT_SCALE, ResultCache, paper_suite_names

#: Miss-ratio split for the averages (the paper's "1%", rescaled).
DEFAULT_MISS_SPLIT = 0.15


def required_runs(cache: ResultCache,
                  workloads: Optional[List[str]] = None) -> List[RunSpec]:
    """Every spec the Table 6 measurements consume."""
    names = workloads if workloads is not None else paper_suite_names()
    # consumers matches Table 4's Pentium 4 spec exactly, so the two
    # experiments keep sharing one run per workload (cross-table dedup).
    return [cache.spec_umi(name, machine="pentium4", sampling=True,
                           with_cachegrind=True,
                           consumers=("shadow-hwpf",)) for name in names]


@dataclass
class DelinquencyRow:
    """One benchmark's Table 6 entry."""

    name: str
    l2_miss_ratio: float
    p_size: int
    p_to_total_loads: float
    p_coverage: float
    c_size: int
    pc_size: int
    pc_coverage: float
    recall: float
    false_positive: float


def measure(scale: float = DEFAULT_SCALE,
            cache: Optional[ResultCache] = None,
            workloads: Optional[List[str]] = None,
            coverage: float = 0.90) -> List[DelinquencyRow]:
    """Collect per-benchmark prediction quality."""
    cache = cache or ResultCache(scale)
    cache.prefill(required_runs(cache, workloads))
    names = workloads if workloads is not None else paper_suite_names()
    rows = []
    for name in names:
        outcome = cache.umi(name, machine="pentium4", sampling=True,
                            with_cachegrind=True,
                            consumers=("shadow-hwpf",))
        cg = outcome.cachegrind
        pc_misses = cg.pc_load_misses()
        actual = delinquent_set(pc_misses, coverage=coverage)
        predicted = outcome.umi.predicted_delinquent
        quality = PredictionQuality(predicted=frozenset(predicted),
                                    actual=actual)
        total_loads, _ = cache.static_counts(name)
        rows.append(DelinquencyRow(
            name=name,
            l2_miss_ratio=cg.l2_miss_ratio(),
            p_size=len(predicted),
            p_to_total_loads=(len(predicted) / total_loads
                              if total_loads else 0.0),
            p_coverage=miss_coverage(predicted, pc_misses),
            c_size=len(actual),
            pc_size=len(quality.intersection),
            pc_coverage=miss_coverage(quality.intersection, pc_misses),
            recall=quality.recall,
            false_positive=quality.false_positive_ratio,
        ))
    return rows


def _average(rows: List[DelinquencyRow], label: str) -> List:
    n = len(rows)
    if not n:
        return [label, None, None, None, None, None, None, None, None, None]
    return [
        label,
        None,
        sum(r.p_size for r in rows) / n,
        sum(r.p_to_total_loads for r in rows) / n,
        sum(r.p_coverage for r in rows) / n,
        sum(r.c_size for r in rows) / n,
        sum(r.pc_size for r in rows) / n,
        sum(r.pc_coverage for r in rows) / n,
        sum(r.recall for r in rows) / n,
        sum(r.false_positive for r in rows) / n,
    ]


def to_table(rows: List[DelinquencyRow],
             miss_split: float = DEFAULT_MISS_SPLIT) -> Table:
    table = Table(
        "Table 6: quality of delinquent load prediction (90% delinquency)",
        ["benchmark", "l2_miss_ratio", "P", "P_to_loads", "P_coverage",
         "C", "P_and_C", "P_and_C_coverage", "recall", "false_positive"],
        ["{}", "{:.4f}", "{:.0f}", "{:.4f}", "{:.2%}", "{:.0f}", "{:.0f}",
         "{:.2%}", "{:.2%}", "{:.2%}"],
    )
    for r in rows:
        table.add_row(r.name, r.l2_miss_ratio, r.p_size,
                      r.p_to_total_loads, r.p_coverage, r.c_size,
                      r.pc_size, r.pc_coverage, r.recall, r.false_positive)
    low = [r for r in rows if r.l2_miss_ratio < miss_split]
    high = [r for r in rows if r.l2_miss_ratio >= miss_split]
    table.add_row(*_average(low, f"average (miss ratio < {miss_split:.0%})"))
    table.add_row(*_average(high, f"average (miss ratio >= {miss_split:.0%})"))
    table.add_row(*_average(rows, "average (all benchmarks)"))
    return table


def run(scale: float = DEFAULT_SCALE,
        cache: Optional[ResultCache] = None,
        miss_split: float = DEFAULT_MISS_SPLIT,
        workloads: Optional[List[str]] = None) -> Table:
    """Regenerate Table 6."""
    return to_table(measure(scale=scale, cache=cache,
                            workloads=workloads),
                    miss_split=miss_split)
