"""Built-in stream consumers and their registry entries.

These are the pipeline backends a run can request by name (see
:mod:`repro.stream.registry`):

``shadow-hwpf`` / ``shadow-nopf``
    A *shadow memory hierarchy* replaying the raw reference stream into
    an independent copy of the run's machine model, with the hardware
    prefetcher enabled / disabled.  Replay is bit-exact with a real run
    of the same machine: each event carries the cycle at which the
    producing run issued it, and cache replacement depends only on the
    ordering of those timestamps.  This is what lets a fused run derive
    "the same program on the prefetching Pentium 4" without a second
    execution (Table 4's ``hw_p4_pf`` column).
``tlb``
    A data TLB fed every data reference; measures translation traffic
    the cache simulators ignore.
``phase``
    UMI's phase detector driven from the hierarchy's line-event plane:
    windows of L1-miss traffic become miss-ratio observations for
    :class:`repro.core.phase.PhaseTracker`.
``profile-recorder``
    An offline approximation of UMI's two-level profiling structure:
    groups data references by trace pass (the batch's trace-id runs) into
    per-trace :class:`repro.core.profiles.AddressProfile` rows.
``din-writer``
    Streams events out as a din-format trace file
    (``context.options["path"]`` or a ``file`` handle); the
    ``kind`` encoding is already din's.

This module imports the memory/core layers, so it is loaded lazily by
the registry -- never at ``repro.stream`` import time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.phase import PhaseTracker
from repro.core.profiles import AddressProfile
from repro.memory.configs import make_hw_prefetcher
from repro.memory.hierarchy import MachineConfig, MemoryHierarchy
from repro.memory.tlb import TLB

from .consumer import LineConsumer, RefConsumer
from .events import KIND_IFETCH, KIND_WRITE, LineBatch, RefBatch
from .registry import BuildContext, register_consumer

#: Code lines are 64 bytes in the interpreter's fetch model; ifetch
#: events carry ``line << 6`` byte addresses (see vm/interpreter.py).
_CODE_LINE_BITS = 6


class ShadowHierarchyConsumer(RefConsumer):
    """Replays the reference stream into an independent hierarchy.

    Timing-exact: each event's recorded ``cycle`` is used as the
    replay's ``now``, reproducing the producing run's replacement
    stamps, prefetch timeliness and hit/miss decisions verbatim.
    """

    wants_ifetch = True

    def __init__(self, machine: MachineConfig,
                 hw_prefetch: bool = False) -> None:
        self.machine = machine
        self.hw_prefetch = hw_prefetch
        self.hierarchy = MemoryHierarchy(
            machine, make_hw_prefetcher(machine, enabled=hw_prefetch),
        )

    def on_batch(self, batch: RefBatch) -> None:
        hierarchy = self.hierarchy
        access = hierarchy.access
        columns = zip(batch.pcs, batch.addrs, batch.sizes, batch.kinds,
                      batch.cycles)
        if KIND_IFETCH in batch.kinds:
            fetch = hierarchy.fetch
            for pc, addr, size, kind, cycle in columns:
                if kind == KIND_IFETCH:
                    fetch((addr >> _CODE_LINE_BITS,), cycle)
                else:
                    access(pc, addr, kind == KIND_WRITE, size, cycle)
        else:
            for pc, addr, size, kind, cycle in columns:
                access(pc, addr, kind == KIND_WRITE, size, cycle)

    def summary(self) -> Dict[str, Any]:
        hierarchy = self.hierarchy
        out: Dict[str, Any] = {
            "l2_miss_ratio": hierarchy.l2_miss_ratio(),
            "l1_miss_ratio": hierarchy.l1_miss_ratio(),
        }
        out.update(hierarchy.counters_snapshot())
        return out


class TLBConsumer(RefConsumer):
    """Feeds every data reference through a data TLB model."""

    def __init__(self, entries: int = 64, walk_latency: int = 30) -> None:
        self.tlb = TLB(entries=entries, walk_latency=walk_latency)
        self.walk_cycles = 0

    def on_batch(self, batch: RefBatch) -> None:
        kinds = batch.kinds
        if KIND_IFETCH in kinds:
            addrs = [a for a, k in zip(batch.addrs, kinds)
                     if k != KIND_IFETCH]
        else:
            addrs = batch.addrs
        self.walk_cycles += sum(map(self.tlb.translate, addrs))

    def summary(self) -> Dict[str, Any]:
        stats = self.tlb.stats
        return {
            "lookups": stats.lookups,
            "misses": stats.misses,
            "miss_ratio": stats.miss_ratio,
            "walk_cycles": self.walk_cycles,
        }


class PhaseConsumer(LineConsumer):
    """Phase detection over windows of the hierarchy's L1-miss traffic."""

    def __init__(self, window: int = 4096,
                 tracker: Optional[PhaseTracker] = None) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.tracker = tracker if tracker is not None else PhaseTracker()
        self.observations = 0
        self._refs = 0
        self._misses = 0

    def on_line_batch(self, batch: LineBatch) -> None:
        l1_hits = batch.l1_hits
        if len(l1_hits) == sum(l1_hits):
            return  # every access hit L1: invisible at the L2
        # The windowed substream is the l2_hit flags of the L1 misses;
        # walking it window-chunk by window-chunk keeps the observation
        # boundaries (and therefore the ratios) bit-identical to the
        # per-event walk while counting misses with C-speed sums.
        sub = [h2 for h1, h2 in zip(l1_hits, batch.l2_hits) if not h1]
        refs = self._refs
        misses = self._misses
        window = self.window
        observe = self.tracker.observe
        total = len(sub)
        pos = 0
        while pos < total:
            take = min(window - refs, total - pos)
            chunk = sub[pos:pos + take]
            refs += take
            misses += take - sum(chunk)
            pos += take
            if refs >= window:
                observe(misses / refs)
                self.observations += 1
                refs = 0
                misses = 0
        self._refs = refs
        self._misses = misses

    def finish(self) -> None:
        if self._refs:
            self.tracker.observe(self._misses / self._refs)
            self.observations += 1
            self._refs = 0
            self._misses = 0

    def summary(self) -> Dict[str, Any]:
        return {
            "phases": len(self.tracker.phases()),
            "observations": self.observations,
        }


class ProfileRecorderConsumer(RefConsumer):
    """Offline reconstruction of UMI's per-trace address profiles.

    Consecutive events sharing a ``trace_id`` form one trace pass = one
    profile row; column assignment follows first-seen pc order within
    the trace (capped at ``max_ops``), mirroring the instrumentor's
    operation filter in spirit.  References outside traces
    (``trace_id is None``) are not profiled, as in the prototype.
    """

    wants_trace_ids = True

    def __init__(self, max_ops: int = 16, max_rows: int = 64) -> None:
        self.max_ops = max_ops
        self.max_rows = max_rows
        self.profiles: Dict[str, AddressProfile] = {}
        self.rows_recorded = 0
        self._cols: Dict[str, Dict[int, int]] = {}
        self._current: Optional[str] = None
        self._pairs: List = []

    def on_batch(self, batch: RefBatch) -> None:
        # Trace passes are exactly the batch's trace-id runs, so a pass
        # boundary costs one branch per run, not a per-event compare.
        kinds = batch.kinds
        has_ifetch = KIND_IFETCH in kinds
        pcs = batch.pcs
        addrs = batch.addrs
        current = self._current
        pairs = self._pairs
        for start, stop, tid in batch.iter_runs():
            if tid != current:
                if current is not None and pairs:
                    self._flush_pass(current, pairs)
                    pairs = self._pairs
                current = tid
            if tid is not None:
                if has_ifetch:
                    pairs.extend(
                        (pcs[i], addrs[i]) for i in range(start, stop)
                        if kinds[i] != KIND_IFETCH)
                else:
                    pairs.extend(zip(pcs[start:stop], addrs[start:stop]))
        self._current = current

    def _flush_pass(self, pass_id: str, pairs: List) -> None:
        head = pass_id.rsplit("@", 1)[0]
        cols = self._cols.get(head)
        if cols is None:
            cols = {}
            for pc, _ in pairs:
                if pc not in cols and len(cols) < self.max_ops:
                    cols[pc] = len(cols)
            self._cols[head] = cols
        profile = self.profiles.get(head)
        if profile is None:
            pcs = sorted(cols, key=cols.get)
            profile = AddressProfile(head, pcs, self.max_rows)
            self.profiles[head] = profile
        if not profile.full:
            row = profile.new_row()
            self.rows_recorded += 1
            for pc, addr in pairs:
                col = cols.get(pc)
                if col is not None:
                    row[col] = addr
        del pairs[:]

    def on_epoch(self, info: Dict[str, Any]) -> None:
        self._close_open_pass()

    def finish(self) -> None:
        self._close_open_pass()

    def _close_open_pass(self) -> None:
        if self._current is not None and self._pairs:
            self._flush_pass(self._current, self._pairs)
        self._current = None

    def summary(self) -> Dict[str, Any]:
        return {
            "traces": len(self.profiles),
            "rows": self.rows_recorded,
        }


class DinTraceWriter(RefConsumer):
    """Writes the stream out in din trace format, incrementally.

    Event kinds already use din's encoding, so each record is just
    ``"<kind> <hex addr>"``.  Pass ``include_ifetch=True`` to also
    record instruction fetches (din type 2).
    """

    def __init__(self, destination, include_ifetch: bool = False) -> None:
        if isinstance(destination, str):
            self._handle = open(destination, "w")
            self._owns_handle = True
        else:
            self._handle = destination
            self._owns_handle = False
        self.wants_ifetch = include_ifetch
        self._include_ifetch = include_ifetch
        self.records = 0

    def on_batch(self, batch: RefBatch) -> None:
        kinds = batch.kinds
        if self._include_ifetch or KIND_IFETCH not in kinds:
            count = len(kinds)
            pairs = zip(kinds, batch.addrs)
        else:
            pairs = [(k, a) for k, a in zip(kinds, batch.addrs)
                     if k != KIND_IFETCH]
            count = len(pairs)
        self._handle.write("".join(map("%d %x\n".__mod__, pairs)))
        self.records += count

    def finish(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def summary(self) -> Dict[str, Any]:
        return {"records": self.records}


# -- registry entries ---------------------------------------------------------

@register_consumer("shadow-hwpf", plane="refs", spec_safe=True,
                   doc="shadow hierarchy with the HW prefetcher enabled")
def _build_shadow_hwpf(context: BuildContext) -> ShadowHierarchyConsumer:
    return ShadowHierarchyConsumer(context.machine, hw_prefetch=True)


@register_consumer("shadow-nopf", plane="refs", spec_safe=True,
                   doc="shadow hierarchy with the HW prefetcher disabled")
def _build_shadow_nopf(context: BuildContext) -> ShadowHierarchyConsumer:
    return ShadowHierarchyConsumer(context.machine, hw_prefetch=False)


@register_consumer("tlb", plane="refs", spec_safe=True,
                   doc="data TLB fed from the reference stream")
def _build_tlb(context: BuildContext) -> TLBConsumer:
    options = context.options
    return TLBConsumer(
        entries=options.get("tlb_entries", 64),
        walk_latency=options.get("tlb_walk_latency", 30),
    )


@register_consumer("phase", plane="lines", spec_safe=True,
                   doc="phase detector over L1-miss traffic windows")
def _build_phase(context: BuildContext) -> PhaseConsumer:
    return PhaseConsumer(window=context.options.get("phase_window", 4096))


@register_consumer("profile-recorder", plane="refs", spec_safe=True,
                   doc="offline per-trace address-profile recording")
def _build_profile_recorder(context: BuildContext
                            ) -> ProfileRecorderConsumer:
    options = context.options
    return ProfileRecorderConsumer(
        max_ops=options.get("profile_max_ops", 16),
        max_rows=options.get("profile_max_rows", 64),
    )


@register_consumer("din-writer", plane="refs", spec_safe=False,
                   doc="din-format trace writer (options: path or file)")
def _build_din_writer(context: BuildContext) -> DinTraceWriter:
    options = context.options
    destination = options.get("path") or options.get("file")
    if destination is None:
        raise ValueError(
            "din-writer needs options['path'] or options['file']")
    return DinTraceWriter(
        destination, include_ifetch=options.get("include_ifetch", False))
