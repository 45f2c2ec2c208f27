"""The profile analyzer: UMI's fast mini cache simulator (Section 5).

"The analyzer for this paper is a fast cache simulator.  It is configured
to match the number of sets, the line size, and the associativity of the
secondary cache on the host machine.  The simulator implements an LRU
replacement policy...  During simulation, each reference is mapped to its
corresponding set.  The tag is compared to all tags in the set.  If there
is a match, the recorded time of the matching line is updated.
Otherwise, an empty line, or the oldest line, is selected to store the
current tag.  We use a counter to simulate time."

Tuning for short profiles, also per the paper: miss accounting starts
only after the warm-up executions of each trace; a *single logical cache*
is shared across all analysed profiles, with its state carried from one
analysis to the next; and the cache is flushed when the flush interval
(or more) has elapsed since the analyzer last ran.

Implementation note.  Each profile is replayed through
:meth:`~repro.memory.cache.Cache.access_many` -- one flat batch per
profile instead of a probe/fill call pair per reference -- on every
cache engine.  The result is bit-identical to
:class:`repro.memory.cache_reference.ReferenceMiniCacheSimulator`
(``tests/test_kernel_equivalence.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.memory.cache import Cache, CacheConfig

from .config import UMIConfig
from .profiles import AddressProfile


@dataclass
class OpSimResult:
    """Mini-simulated hit/miss counts for one instrumented operation."""

    pc: int
    refs: int = 0
    misses: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.refs if self.refs else 0.0


@dataclass
class AnalysisResult:
    """Output of analysing one address profile."""

    trace_head: str
    per_op: Dict[int, OpSimResult] = field(default_factory=dict)
    counted_refs: int = 0
    counted_misses: int = 0
    warmup_refs: int = 0

    @property
    def miss_ratio(self) -> float:
        if not self.counted_refs:
            return 0.0
        return self.counted_misses / self.counted_refs


class MiniCacheSimulator:
    """Replays recorded address profiles through a small cache model."""

    # Always 0: the analyzer keeps no memo.  Read by perfbench's layer
    # tracer for its ``core.memo_hit_ratio`` metric.
    memo_hits = 0

    def __init__(self, config: UMIConfig, host_l2: CacheConfig) -> None:
        self.config = config
        self.cache_config = config.mini_cache or host_l2
        self.cache = Cache(self.cache_config)
        self._line_bits = self.cache_config.line_bits
        self._time = 0
        self._last_run_cycles: Optional[int] = None
        self.flushes = 0
        self.profiles_analyzed = 0
        self.references_simulated = 0
        # Cumulative per-pc statistics across all analyses (the basis of
        # UMI's per-instruction miss ratios and delinquency labels).
        self.pc_stats: Dict[int, OpSimResult] = {}

    # -- cache state management -------------------------------------------------

    def maybe_flush(self, now_cycles: int) -> bool:
        """Apply the periodic flush heuristic.

        The prototype flushes "whenever the analyzer is triggered and
        more than 1M processor cycles (obtained using rdtsc) have elapsed
        since it last ran", avoiding long-term contamination of the
        shared logical cache.  An interval-sized gap counts: a trigger
        arriving exactly one flush interval after the previous run must
        flush rather than slip through the comparison.
        """
        interval = self.config.flush_interval
        flushed = False
        if (
            interval is not None
            and self._last_run_cycles is not None
            and now_cycles - self._last_run_cycles >= interval
        ):
            self.cache.flush()
            self.flushes += 1
            flushed = True
        self._last_run_cycles = now_cycles
        return flushed

    # -- simulation ---------------------------------------------------------------

    def analyze(self, profile: AddressProfile) -> AnalysisResult:
        """Mini-simulate one address profile, row by row.

        Rows are replayed in recording order (actual temporal order);
        the first ``warmup_executions`` rows warm the cache without
        being counted.
        """
        if not self.config.shared_cache:
            # Ablation mode: every profile starts from a cold cache.
            self.cache.flush()
        pcs, lines, n_warmup = profile.flat_references(
            skip_rows=self.config.warmup_executions, shift=self._line_bits)
        # Ascending stream indices of the misses.
        misses = self.cache.access_many(lines, start_now=self._time,
                                        misses_only=True)
        self._time += len(lines)

        result = AnalysisResult(trace_head=profile.trace_head)
        result.warmup_refs = n_warmup
        counted_pcs = pcs
        if n_warmup:
            counted_pcs = pcs[n_warmup:]
            misses = misses[bisect_left(misses, n_warmup):]
        miss_counts = Counter(map(pcs.__getitem__, misses))
        # Counter preserves first-occurrence order, so per_op comes out
        # keyed in the order each pc first produced a counted reference.
        per_op = result.per_op
        for pc, refs in Counter(counted_pcs).items():
            per_op[pc] = OpSimResult(pc, refs=refs, misses=miss_counts[pc])
        result.counted_refs = len(counted_pcs)
        result.counted_misses = len(misses)

        self.profiles_analyzed += 1
        self.references_simulated += len(lines)
        self._accumulate(per_op)
        return result

    def _accumulate(self, per_op: Dict[int, OpSimResult]) -> None:
        for pc, op in per_op.items():
            total = self.pc_stats.get(pc)
            if total is None:
                total = self.pc_stats[pc] = OpSimResult(pc)
            total.refs += op.refs
            total.misses += op.misses

    # -- aggregate results ------------------------------------------------------------

    def overall_miss_ratio(self) -> float:
        """Coarse miss ratio over everything mini-simulated so far.

        This is the UMI-side quantity correlated against the hardware
        counters in Table 4.
        """
        refs = sum(s.refs for s in self.pc_stats.values())
        if not refs:
            return 0.0
        return sum(s.misses for s in self.pc_stats.values()) / refs

    def pc_miss_ratios(self, min_refs: int = 1) -> Dict[int, float]:
        """Per-instruction miss ratios for ops with enough references."""
        return {
            pc: s.miss_ratio
            for pc, s in self.pc_stats.items()
            if s.refs >= min_refs
        }
