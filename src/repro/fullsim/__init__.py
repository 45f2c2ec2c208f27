"""Offline full-trace cache simulation (the Cachegrind stand-in).

Supplies the paper's offline baseline: complete-trace miss ratios for the
correlation study (Table 4) and per-instruction L2 load misses for the
delinquent-load ground truth set ``C`` (Table 6).
"""

from .cachegrind import (
    CACHEGRIND_SLOWDOWN_RANGE, CachegrindSimulator, PCStats,
)
from .delinquent import DEFAULT_COVERAGE, delinquent_set, miss_coverage
from .dinero import DineroResult, simulate_din, simulate_trace

__all__ = [
    "CachegrindSimulator", "PCStats", "CACHEGRIND_SLOWDOWN_RANGE",
    "delinquent_set", "miss_coverage", "DEFAULT_COVERAGE",
    "DineroResult", "simulate_din", "simulate_trace",
]
