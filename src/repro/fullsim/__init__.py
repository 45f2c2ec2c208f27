"""Offline full-trace cache simulation (the Cachegrind stand-in).

Supplies the paper's offline baseline: complete-trace miss ratios for the
correlation study (Table 4) and per-instruction L2 load misses for the
delinquent-load ground truth set ``C`` (Table 6).  The Dinero-style
trace simulator lives in :mod:`repro.fullsim.dinero` (its own console
entry point, so the package does not import it).
"""

from .cachegrind import (
    CACHEGRIND_SLOWDOWN_RANGE, CachegrindSimulator, PCStats,
)
from .delinquent import DEFAULT_COVERAGE, delinquent_set, miss_coverage

__all__ = [
    "CachegrindSimulator", "PCStats", "CACHEGRIND_SLOWDOWN_RANGE",
    "delinquent_set", "miss_coverage", "DEFAULT_COVERAGE",
]
