"""UMI configuration.

Defaults follow the paper's prototype: a sampling frequency threshold of
64, a trace profile of 8,192 entries, address profiles of up to 256
operations x 256 trace executions, two warm-up executions before miss
accounting starts, and a 1M-cycle cache-state flush interval (Sections
3-5).

:data:`ANALYSIS_FIELDS` names the fields only the profile analyzer
reads.  Runs whose configs differ in nothing else execute identically
unless software prefetching feeds the analyzer's labels back into the
run, so one execution can serve them all
(:mod:`repro.engine.fusion`, :class:`repro.core.UMIRuntime`'s lanes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.memory.cache import CacheConfig


@dataclass
class UMIConfig:
    """All knobs of the UMI prototype."""

    # -- region selector (Section 2/3) -------------------------------------
    #: Use sample-based reinforcement; when off, every new trace is
    #: instrumented immediately (Table 3 operates in this mode).
    use_sampling: bool = False
    #: "There are two sampling strategies.  The first uses a regular
    #: sampling period, and the second is event driven."  ``timer``
    #: samples on the PC-sampling timer; ``event`` credits a trace every
    #: ``event_sample_period`` entries it executes.
    sampling_mode: str = "timer"
    #: Trace entries per event-driven sample.
    event_sample_period: int = 64
    #: Samples a trace must accumulate before being instrumented.
    frequency_threshold: int = 64
    #: Timer period in model cycles (stands in for the 10ms utility,
    #: rescaled to the model runs' much shorter cycle counts: the paper
    #: selects a fully-resident trace every 0.64s of a minutes-long run;
    #: this period selects one every ~32K cycles of a few-million-cycle
    #: run, preserving dozens of selection rounds per hot trace).
    sample_period: int = 750

    # -- instrumentor (Section 4) -------------------------------------------
    #: Skip stack (esp/ebp) and static-address operands.
    filter_operands: bool = True
    #: Trace profile buffer entries (one per instrumented-trace entry).
    trace_profile_entries: int = 8_192
    #: Maximum operations recorded per address profile.
    address_profile_max_ops: int = 256
    #: Rows (trace executions) per address profile before it is full.
    address_profile_entries: int = 256

    # -- profile analyzer (Section 5) ------------------------------------------
    #: Mini-simulated cache geometry; ``None`` = match the host L2.
    mini_cache: Optional[CacheConfig] = None
    #: Trace executions skipped for miss accounting ("warming up").
    warmup_executions: int = 2
    #: Keep one logical cache across analyses (paper behaviour).
    shared_cache: bool = True
    #: Flush the shared cache when this many cycles passed since the last
    #: analyzer run (``rdtsc`` heuristic); ``None`` disables flushing.
    #: The paper's 1M cycles is ~0.3ms on its 3GHz host while analyzer
    #: invocations are fractions of a second apart -- i.e. the flush
    #: fires at virtually every invocation.  The default reproduces that
    #: frequent-flush regime (whose compulsory-miss inflation is a
    #: driver of the paper's 57% false-positive ratio) at model scale.
    flush_interval: Optional[int] = 20_000

    # -- delinquent-load prediction (Section 7) -----------------------------------
    #: Adapt each trace's threshold downward per analyzer invocation.
    adaptive_threshold: bool = True
    initial_delinquency_threshold: float = 0.90
    threshold_step: float = 0.10
    min_delinquency_threshold: float = 0.10
    #: Minimum post-warmup references before an op can be judged.
    min_op_refs: int = 8

    #: Detect execution phases from the analyzer invocation history
    #: (see :mod:`repro.core.phase`); phases appear on the result.
    track_phases: bool = False

    #: Keep analyzed address profiles on the runtime (``profile_archive``)
    #: for offline post-processing (reuse-distance analysis, what-if
    #: exploration).  Off by default: the prototype discards them.
    retain_profiles: bool = False

    # -- online software prefetching (Section 8) -------------------------------------
    enable_sw_prefetch: bool = False
    #: Fraction of an op's reference deltas that must agree for the
    #: stride to be considered stable enough to prefetch.
    stride_confidence: float = 0.6
    #: Clamp for the computed prefetch lookahead (in strides).
    min_lookahead: int = 1
    max_lookahead: int = 16

    def __post_init__(self) -> None:
        if self.sampling_mode not in ("timer", "event"):
            raise ValueError(
                f"sampling_mode must be 'timer' or 'event', "
                f"not {self.sampling_mode!r}"
            )
        if self.event_sample_period < 1:
            raise ValueError("event_sample_period must be >= 1")
        if self.frequency_threshold < 1:
            raise ValueError("frequency_threshold must be >= 1")
        if self.trace_profile_entries < 1:
            raise ValueError("trace_profile_entries must be >= 1")
        if self.address_profile_max_ops < 1:
            raise ValueError("address_profile_max_ops must be >= 1")
        if self.address_profile_entries < 1:
            raise ValueError("address_profile_entries must be >= 1")
        if self.warmup_executions < 0:
            raise ValueError("warmup_executions must be >= 0")
        if not 0.0 < self.initial_delinquency_threshold <= 1.0:
            raise ValueError("initial_delinquency_threshold must be in (0,1]")
        if not 0.0 < self.min_delinquency_threshold <= 1.0:
            raise ValueError("min_delinquency_threshold must be in (0,1]")
        if self.threshold_step < 0.0:
            raise ValueError("threshold_step must be >= 0")
        if not 0.0 <= self.stride_confidence <= 1.0:
            raise ValueError("stride_confidence must be in [0,1]")
        if not 1 <= self.min_lookahead <= self.max_lookahead:
            raise ValueError("need 1 <= min_lookahead <= max_lookahead")


#: The fields only :class:`~repro.core.MiniCacheSimulator` reads.
MINI_SIM_FIELDS = ("mini_cache", "warmup_executions", "shared_cache",
                   "flush_interval")

#: The fields only the profile analyzer reads: the mini-simulator's and
#: :class:`~repro.core.DelinquentPredictor`'s.  Without software
#: prefetching nothing they decide feeds back into the run, so configs
#: that differ only here share one execution.  An allowlist: any other
#: field, including one added later, shapes the execution.
ANALYSIS_FIELDS = MINI_SIM_FIELDS + (
    "adaptive_threshold", "initial_delinquency_threshold",
    "threshold_step", "min_delinquency_threshold", "min_op_refs")


def config_values(config: UMIConfig, names: Tuple[str, ...]) -> Tuple:
    """``config``'s values of the fields ``names``, as a hashable key."""
    return tuple(getattr(config, name) for name in names)
