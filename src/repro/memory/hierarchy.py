"""The modelled memory hierarchy ("the real hardware").

A two-level (L1D + unified L2) hierarchy with a flat memory behind it.
This stands in for the Pentium 4 / AMD K7 memory systems of the paper:
the VM sends every data reference here, the returned latency feeds the
cycle cost model, and every demand line access is published on the
hierarchy's :class:`~repro.stream.LineStream` -- the event plane the
hardware performance counters (:mod:`repro.counters`) and the phase
detector subscribe to.

Software prefetch instructions (injected by the UMI online optimizer) and
hardware prefetchers both fill the L2 with *timeliness* modelled through
per-line ``ready_at`` cycles.

An L1D miss is served and counted by one routine
(:meth:`MemoryHierarchy._miss`) that probes the L2 inline on its
columns, fills with positional arguments and trains the hardware
prefetcher once
(:meth:`~repro.memory.prefetch.HardwarePrefetcher.train`) -- on an L2
hit only if the prefetcher trains on hits; an L1I miss probes the L2
inline the same way.

Most L1 hits never call in here: compiled blocks retire them inline on
the columns :meth:`MemoryHierarchy.hit_lanes` hands out, and send a
one-line L1D miss straight to ``_miss``.  :meth:`~MemoryHierarchy.
access` and :meth:`~MemoryHierarchy.fetch` stay the generic path and
the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.stream import BATCH_SIZE, LineStream

from .cache import Cache, CacheConfig, CacheStats
from .policies import make_policy
from .prefetch import HardwarePrefetcher


@dataclass(frozen=True)
class MachineConfig:
    """A host machine model: cache geometry plus timing parameters.

    ``l1i`` is the instruction cache; its misses are serviced by the
    *unified* L2, so instruction fetch traffic shows up in the L2
    hardware counters -- an effect neither Cachegrind-style data
    simulation nor UMI's mini-simulator models (the paper points at
    exactly this to explain the K7's lower correlation).
    """

    name: str
    l1: CacheConfig
    l2: CacheConfig
    memory_latency: int = 200
    has_hw_prefetcher: bool = False
    replacement: str = "lru"
    l1i: Optional[CacheConfig] = None

    def scaled(self, factor: int,
               l1_factor: Optional[int] = None) -> "MachineConfig":
        """Shrink the hierarchy by ``factor`` (same geometry ratios).

        Synthetic workloads keep their footprints small so that pure
        Python simulation stays fast; scaling the machine down preserves
        the working-set-to-cache relationships that drive miss
        behaviour.  The L1s shrink by ``l1_factor`` (default: half of
        ``factor``) -- shrinking them less keeps a realistic share of
        references missing L1 but hitting L2, the dilution traffic that
        shapes real L2 miss *ratios*.
        """
        if l1_factor is None:
            l1_factor = max(1, factor // 2)
        return MachineConfig(
            name=f"{self.name}/{factor}",
            l1=self.l1.scaled(l1_factor),
            l2=self.l2.scaled(factor),
            memory_latency=self.memory_latency,
            has_hw_prefetcher=self.has_hw_prefetcher,
            replacement=self.replacement,
            l1i=self.l1i.scaled(l1_factor) if self.l1i else None,
        )

    def describe(self) -> str:
        return (
            f"{self.name}: L1D {self.l1.describe()}; "
            f"L2 {self.l2.describe()}; mem {self.memory_latency} cycles"
        )


#: The instruction-line size the interpreter forms its code-line
#: addresses with (``pc >> 6``); an L1I must use the same lines.
CODE_LINE_SIZE = 64


def _hit_columns(cache: Cache) -> tuple:
    """``(stamps, mru)`` a hit lane writes for ``cache``: the real
    columns where the policy reads them, else one scratch column (PLRU
    reads both)."""
    scratch = None if cache._plru else [0] * len(cache._stamps)
    return (cache._stamps if cache._touch else scratch,
            cache._mru if cache._plru else scratch)


class MemoryHierarchy:
    """L1D + L2 + memory, with optional hardware prefetchers at the L2."""

    def __init__(self, config: MachineConfig,
                 hw_prefetcher: Optional[HardwarePrefetcher] = None,
                 line_batch_size: int = BATCH_SIZE) -> None:
        if config.l1.line_size != config.l2.line_size:
            raise ValueError("L1 and L2 line sizes must match in this model")
        if config.l1i is not None and (
                config.l1i.line_size != CODE_LINE_SIZE
                or config.l1i.line_size != config.l2.line_size):
            raise ValueError(
                f"L1I line size {config.l1i.line_size} B must equal the "
                f"L2 line size ({config.l2.line_size} B) and the "
                f"interpreter's {CODE_LINE_SIZE} B code lines")
        self.config = config
        self.l1 = Cache(config.l1, make_policy(config.replacement))
        self.l2 = Cache(config.l2, make_policy(config.replacement))
        self.l1i = (Cache(config.l1i, make_policy(config.replacement))
                    if config.l1i else None)
        self.hw_prefetcher = hw_prefetcher
        # Whether ``_miss`` trains the prefetcher on an L2 hit, read
        # once: a prefetcher's configuration is fixed once attached.
        self._train_on_hits = (hw_prefetcher is not None
                               and hw_prefetcher.trains_on_hits)
        #: optional data TLB (see :mod:`repro.memory.tlb`); attach one
        #: to study translation overheads.  None by default.
        self.tlb = None
        #: demand line-access events publish here in columnar batches;
        #: the hardware counters and phase detector attach as consumers.
        #: ``line_batch_size`` overrides the stream default
        #: (:data:`repro.stream.BATCH_SIZE`).
        self.line_stream = LineStream(batch_size=line_batch_size)
        # Bound column appends, hoisted once (the buffers are stable).
        stream = self.line_stream
        self._emit_line = (stream.pcs.append, stream.line_addrs.append,
                           stream.writes.append, stream.l1_hits.append,
                           stream.l2_hits.append)
        self._line_bits = config.l1.line_bits
        self._line_size = config.l1.line_size
        # Latencies (the configs are frozen).
        self._l1_latency = config.l1.hit_latency
        self._l2_latency = config.l2.hit_latency
        self._mem_latency = config.memory_latency
        self.sw_prefetches_issued = 0
        # Per-PC L2 accounting, filled only when enabled (the Cachegrind
        # baseline and delinquent-load ground truth need it).
        self.track_per_pc = False
        self.pc_l2_refs: Dict[int, int] = {}
        self.pc_l2_misses: Dict[int, int] = {}

    # -- demand path ---------------------------------------------------------

    def access(self, pc: int, addr: int, is_write: bool, size: int = 8,
               now: int = 0) -> int:
        """Perform a demand access; returns its latency in cycles.

        References that straddle a line boundary access both lines (the
        paper notes hardware/simulator mismatches around values that
        "cross multiple cache lines" -- here they simply cost two line
        accesses).

        The common case -- one line, no TLB -- looks the line up once in
        the L1's ``line -> slot`` map and retires a hit right here on the
        L1's columns, exactly as :meth:`Cache.probe` would.  The columns
        are read through the cache on every call because ``flush``
        rebinds some of them.  Straddles and TLB machines probe each
        line through ``probe``, after a residency check; every L1 miss
        goes to :meth:`_miss`, which counts it.
        """
        line_bits = self._line_bits
        line_addr = addr >> line_bits
        last_line = (addr + size - 1) >> line_bits
        l1 = self.l1
        if last_line == line_addr and self.tlb is None:
            slot = l1._where.get(line_addr)
            if slot is None:
                return self._miss(pc, line_addr, is_write, now)
            stats = l1.stats
            if is_write:
                stats.writes += 1
                l1._plain = False
                l1._dirty[slot] = True
            else:
                stats.reads += 1
            latency = self._l1_latency
            if not l1._plain_timing:
                ready = l1._ready[slot]
                if ready > now:
                    latency += ready - now
                    stats.late_prefetch_stall_cycles += ready - now
                if l1._pref[slot]:
                    l1._pref[slot] = False
                    stats.useful_prefetches += 1
            if l1._touch:
                l1._stamps[slot] = now
                if l1._plru:
                    l1._mru[slot] = True
            stream = self.line_stream
            if stream.consumers:
                e_pc, e_line, e_write, e_h1, e_h2 = self._emit_line
                e_pc(pc)
                e_line(line_addr)
                e_write(is_write)
                e_h1(True)
                e_h2(True)
                if len(stream.pcs) >= stream.batch_size:
                    stream.drain()
            return latency
        latency = 0
        if self.tlb is not None:
            latency += self.tlb.translate(addr)
        for line_addr in range(line_addr, last_line + 1):
            if line_addr in l1._where:
                latency += (self._l1_latency
                            + l1.probe(line_addr, is_write, now)[1])
                stream = self.line_stream
                if stream.consumers:
                    stream.emit(pc, line_addr, is_write, True, True)
            else:
                latency += self._miss(pc, line_addr, is_write, now)
        return latency

    def _miss(self, pc: int, line_addr: int, is_write: bool,
              now: int) -> int:
        """Service one L1 demand miss: the one place an L1D miss is
        counted.

        Counts the L1 reference and miss, probes the L2 on its columns
        (as :meth:`Cache.probe` would) and fills it on a miss, fills the
        L1, keeps the per-PC L2 counts, trains the hardware prefetcher
        (on a hit only if it trains on hits) and publishes the line
        event; returns the line's whole latency.  Called by
        :meth:`access` and straight from the compiled blocks' inline
        L1D lane (:meth:`hit_lanes`), which have both found the line
        absent from the L1.
        """
        latency = self._l1_latency + self._l2_latency
        l1_stats = self.l1.stats
        l2 = self.l2
        stats = l2.stats
        if is_write:
            l1_stats.writes += 1
            l1_stats.write_misses += 1
            stats.writes += 1
            l2._plain = False
        else:
            l1_stats.reads += 1
            l1_stats.read_misses += 1
            stats.reads += 1
        slot = l2._where.get(line_addr)
        track = self.track_per_pc and not is_write
        if track:
            self.pc_l2_refs[pc] = self.pc_l2_refs.get(pc, 0) + 1
        l2_hit = slot is not None
        if l2_hit:
            ready = l2._ready[slot]
            if ready > now:
                latency += ready - now
                stats.late_prefetch_stall_cycles += ready - now
            if l2._pref[slot]:
                l2._pref[slot] = False
                stats.useful_prefetches += 1
            if is_write:
                l2._dirty[slot] = True
            if l2._touch:
                l2._stamps[slot] = now
                if l2._plru:
                    l2._mru[slot] = True
        else:
            if is_write:
                stats.write_misses += 1
            else:
                stats.read_misses += 1
            latency += self._mem_latency
            l2.fill(line_addr, now, 0, False, is_write)
            if track:
                self.pc_l2_misses[pc] = self.pc_l2_misses.get(pc, 0) + 1
        self.l1.fill(line_addr, now, 0, False, is_write)
        hw_prefetcher = self.hw_prefetcher
        if hw_prefetcher is not None and (not l2_hit
                                          or self._train_on_hits):
            hw_prefetcher.train(pc, line_addr, l2_hit, l2, now,
                                self._mem_latency)
        stream = self.line_stream
        if stream.consumers:
            stream.emit(pc, line_addr, is_write, False, l2_hit)
        return latency

    # -- instruction fetch path ------------------------------------------------

    @property
    def models_ifetch(self) -> bool:
        return self.l1i is not None

    def fetch(self, code_lines, now: int = 0) -> int:
        """Fetch instruction lines through L1I; misses hit the unified L2.

        ``code_lines`` is an iterable of line addresses (one basic
        block's code footprint).  Returns the fetch latency.  Instruction
        traffic lands in the L2's demand statistics -- what the hardware
        counters see -- but is invisible to the data-only simulators.
        L1I hits retire on the cache's columns, as :meth:`access` does
        for the L1D.
        """
        l1i = self.l1i
        if l1i is None:
            return 0
        latency = 0
        l2 = self.l2
        where = l1i._where
        stats = l1i.stats
        for line_addr in code_lines:
            stats.reads += 1
            slot = where.get(line_addr)
            if slot is not None:
                if not l1i._plain_timing:
                    ready = l1i._ready[slot]
                    if ready > now:
                        stats.late_prefetch_stall_cycles += ready - now
                    if l1i._pref[slot]:
                        l1i._pref[slot] = False
                        stats.useful_prefetches += 1
                if l1i._touch:
                    l1i._stamps[slot] = now
                    if l1i._plru:
                        l1i._mru[slot] = True
                continue
            stats.read_misses += 1
            latency += self._l2_latency
            l2_stats = l2.stats
            l2_stats.reads += 1
            slot = l2._where.get(line_addr)
            if slot is None:
                l2_stats.read_misses += 1
                latency += self._mem_latency
                l2.fill(line_addr, now)
            else:
                # The L2 stall is charged to its stats, not the fetch.
                ready = l2._ready[slot]
                if ready > now:
                    l2_stats.late_prefetch_stall_cycles += ready - now
                if l2._pref[slot]:
                    l2._pref[slot] = False
                    l2_stats.useful_prefetches += 1
                if l2._touch:
                    l2._stamps[slot] = now
                    if l2._plru:
                        l2._mru[slot] = True
            l1i.fill(line_addr, now)
        return latency

    # -- inline hit lanes ---------------------------------------------------------

    def hit_lanes(self) -> tuple:
        """The columns compiled blocks retire L1 hits on, ``(data, code)``.

        :mod:`repro.vm.compiler` gives every memory-access site and
        every block's instruction fetch an inline lane that retires an
        L1 hit itself, with exactly the effects of :meth:`access` or
        :meth:`fetch`.  ``data`` is ``None`` (lane closed) unless the
        L1D can take it: no TLB, plain timing (no prefetch fill and no
        future ready time, so a hit has no stall and no useful-prefetch
        count) and the 64-byte lines the lane's straddle check assumes.
        Otherwise it is ``(consumers, probe, stats, stamps, mru, dirty,
        latency, miss)``: the line stream's consumer list (the lane
        falls through to :meth:`access` while it is non-empty, so a
        consumer attached at any time sees every line event), the L1's
        ``line -> slot`` lookup, its stats, its stamp, MRU and dirty
        columns, its hit latency and :meth:`_miss`.  ``code`` is
        ``None`` unless the L1I exists with plain timing, else
        ``(probe, stats, stamps, mru)``.

        A policy that does not stamp hits (FIFO, random) or keep MRU
        bits (all but PLRU) gets a scratch column nothing reads in
        their place, so every policy runs one lane.  Only ``_miss``
        and ``fetch`` fill these L1s, always with plain timing, so the
        answer holds for the whole run.  The L1D lane does not clear
        ``_plain`` on a store hit, so it is cleared here: the flag only
        steers :meth:`Cache.access_many`, which gives the same result
        either way.
        """
        data = code = None
        l1 = self.l1
        if (self.tlb is None and l1._plain_timing
                and self._line_size == CODE_LINE_SIZE):
            l1._plain = False
            stamps, mru = _hit_columns(l1)
            data = (self.line_stream.consumers, l1._where.get, l1.stats,
                    stamps, mru, l1._dirty, self._l1_latency, self._miss)
        l1i = self.l1i
        if l1i is not None and l1i._plain_timing:
            stamps, mru = _hit_columns(l1i)
            code = (l1i._where.get, l1i.stats, stamps, mru)
        return data, code

    # -- prefetch path --------------------------------------------------------

    def prefetch_line(self, line_addr: int, now: int = 0) -> None:
        """Bring a line into the L2 (hardware prefetch request)."""
        if line_addr >= 0:
            self.l2.fill(line_addr, now, now + self._mem_latency, True)

    def software_prefetch(self, addr: int, now: int = 0) -> None:
        """A software ``prefetcht2``-style hint for byte address ``addr``."""
        self.sw_prefetches_issued += 1
        self.prefetch_line(addr >> self._line_bits, now)

    # -- statistics -------------------------------------------------------------

    @property
    def line_size(self) -> int:
        return self._line_size

    def l2_miss_ratio(self) -> float:
        """Misses / references at the L2 (loads + stores), the quantity
        the paper correlates across tools (Section 6.2)."""
        return self.l2.stats.miss_ratio

    def l1_miss_ratio(self) -> float:
        return self.l1.stats.miss_ratio

    def counters_snapshot(self) -> Dict[str, int]:
        """A raw event dump in hardware-counter style."""
        return {
            "l1_refs": self.l1.stats.refs,
            "l1_misses": self.l1.stats.misses,
            "l2_refs": self.l2.stats.refs,
            "l2_misses": self.l2.stats.misses,
            "l2_prefetch_fills": self.l2.stats.prefetch_fills,
            "l2_useful_prefetches": self.l2.stats.useful_prefetches,
            "l2_redundant_prefetches": self.l2.stats.redundant_prefetches,
            "sw_prefetches": self.sw_prefetches_issued,
        }

    def reset_stats(self) -> None:
        self.l1.stats.reset()
        self.l2.stats.reset()
        if self.l1i is not None:
            self.l1i.stats.reset()
        self.sw_prefetches_issued = 0
        self.pc_l2_refs.clear()
        self.pc_l2_misses.clear()
        if self.hw_prefetcher is not None:
            self.hw_prefetcher.reset()

    def __repr__(self) -> str:
        pf = self.hw_prefetcher.name if self.hw_prefetcher else "none"
        return f"<MemoryHierarchy {self.config.name} prefetcher={pf}>"
