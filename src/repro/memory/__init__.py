"""Memory-system substrate: caches, hierarchies, hardware prefetchers.

Models the "real hardware" of the paper's evaluation (Pentium 4 and AMD
K7 memory systems) as well as providing the generic set-associative cache
used by the Cachegrind-style full simulator and UMI's mini-simulator.
"""

from .cache import Cache, CacheConfig, CacheStats
from .configs import (
    ATHLON_K7, DEFAULT_MACHINE_SCALE, MACHINES, PENTIUM4, XEON,
    get_machine, make_hw_prefetcher,
)
from .hierarchy import MachineConfig, MemoryHierarchy
from .lines import CacheLine
from .policies import (
    BitPLRUPolicy, FIFOPolicy, LRUPolicy, RandomPolicy, ReplacementPolicy,
    make_policy,
)
from .flat import FlatMemory
from .prefetch import (
    AdjacentLinePrefetcher, CompositePrefetcher, HardwarePrefetcher,
    Pentium4Prefetcher, StridePrefetcher, pentium4_prefetcher,
)
from .tlb import PAGE_BITS, TLB, TLBStats

__all__ = [
    "Cache", "CacheConfig", "CacheStats", "CacheLine",
    "MachineConfig", "MemoryHierarchy",
    "ReplacementPolicy", "LRUPolicy", "FIFOPolicy", "RandomPolicy",
    "BitPLRUPolicy", "make_policy",
    "HardwarePrefetcher", "AdjacentLinePrefetcher", "StridePrefetcher",
    "CompositePrefetcher", "Pentium4Prefetcher", "pentium4_prefetcher",
    "PENTIUM4", "ATHLON_K7", "XEON", "MACHINES", "DEFAULT_MACHINE_SCALE",
    "get_machine", "make_hw_prefetcher",
    "FlatMemory", "TLB", "TLBStats", "PAGE_BITS",
]
