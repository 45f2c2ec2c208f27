"""Host-speed reference: a frozen kernel timed between requests.

The benchmark's host is a small slice of a shared machine whose speed
moves in waves: a pure-Python loop runs up to 60% slower for minutes at
a time, and every wall-time figure of a run inside such a wave moves
with it.  No run length the time budget allows averages that out, so
the end-to-end times are reported in *host-normalised seconds*: each
request's wall time is scaled by how fast the host ran a fixed
reference kernel around it, to the speed of a host on which that kernel
takes :data:`NOMINAL_MS`.

The kernel is benchmark code and touches nothing of ``repro``, so no
change to the program can move it.  Contention on the shared host slows
a tight integer loop and object-heavy code (dict lookups, short list
scans, attribute updates, allocation) by different amounts, and the
simulator is a mix of both, so the kernel is a mix too: an integer loop
and then a small set-associative LRU cache model.  Nothing here imports
``repro``.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence, Tuple

#: Reference kernel time (ms) of the nominal host the normalised
#: seconds refer to: about the kernel's median time on a quiet 2.1 GHz
#: Xeon vCPU (Python 3.11), so normalised and wall seconds stay close
#: on such a host.
NOMINAL_MS = 2.5

#: Reference samples on each side of a request that its speed estimate
#: takes the median of (one sample is taken before every request).
WINDOW = 8

#: Integer-loop iterations and cache-model accesses per kernel call.
LOOP = 15_000
ACCESSES = 1200


class _Line:
    __slots__ = ("tag", "used")

    def __init__(self, tag: int, used: int) -> None:
        self.tag = tag
        self.used = used


def reference_kernel() -> Tuple[int, int]:
    """Fixed work: an integer loop, then a fixed pseudo-random address
    stream through a 64-set, 8-way LRU cache.  Returns the loop's value
    and the hit count, which never change."""
    x = 0
    for i in range(LOOP):
        x = (x * 31 + i) & 0xFFFF
    sets = {}
    hits = 0
    state = 12345
    for now in range(ACCESSES):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        line = (state >> 4) & 0x3FFF
        ways = sets.get(line & 63)
        if ways is None:
            ways = sets[line & 63] = []
        tag = line >> 6
        for entry in ways:
            if entry.tag == tag:
                entry.used = now
                hits += 1
                break
        else:
            if len(ways) >= 8:
                ways.remove(min(ways, key=lambda e: e.used))
            ways.append(_Line(tag, now))
    return x, hits


def reference_ms() -> float:
    """Wall time of one reference kernel call, in ms."""
    t0 = time.perf_counter()
    reference_kernel()
    return (time.perf_counter() - t0) * 1000.0


def speed_factors(samples: Sequence[float], window: int = WINDOW,
                  nominal_ms: float = NOMINAL_MS) -> List[float]:
    """Per sample, nominal time over the median of the samples within
    ``window`` places of it: the factor that turns wall seconds spent
    beside that sample into host-normalised seconds."""
    return [nominal_ms / statistics.median(
                samples[max(0, i - window):i + window + 1])
            for i in range(len(samples))]
