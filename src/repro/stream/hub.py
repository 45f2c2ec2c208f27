"""Stream hubs: the producer-side column buffers of the pipeline.

A :class:`RefStream` sits between the interpreter and any number of
:class:`~repro.stream.consumer.RefConsumer` instances; a
:class:`LineStream` does the same between the memory hierarchy and
:class:`~repro.stream.consumer.LineConsumer` instances.  Both
accumulate events directly into structure-of-arrays column buffers and
deliver whole :class:`~repro.stream.events.RefBatch` /
:class:`~repro.stream.events.LineBatch` records at :data:`BATCH_SIZE`
boundaries, so the per-event producer cost is a handful of list appends
-- the property the pipeline-overhead regression test pins.  The column
buffers are *stable list objects* (drain copies them out and clears
them in place), so producers may hoist the bound ``append`` methods
once and keep using them across drains.

Delivery calls each consumer's columnar hook (``on_batch`` /
``on_line_batch``) directly.

Producers check ``stream.consumers`` (a plain list) before emitting, so
a stream with no consumers costs a single truthiness test per event
site, same as the ad-hoc observer lists it replaced.

Trace ids are opt-in and interned per batch.  The runtime stamps
``stream.trace_id`` only while ``stream.wants_trace_ids`` is true (some
attached consumer declares ``wants_trace_ids``, recomputed on attach,
detach and quarantine, like ``wants_ifetch``); otherwise every batch's
run table is the single ``None`` run.  The property's setter records a
``(buffer_offset, table_index)`` run boundary instead of stamping every
event, so stamping is O(1) per trace pass and free per event.

Quarantine: a consumer whose callback raises must never take the
producing run down -- the paper's degrade-gracefully contract.  Both
hubs catch exceptions from delivery callbacks (``on_batch`` /
``on_line_batch`` / ``on_epoch`` / ``finish``), detach the offending
consumer on the spot, and record a :class:`QuarantineRecord` (stage,
error, traceback) on ``stream.quarantined``; the run then completes
with the remaining consumers and the outcome reports the quarantine
instead of propagating it (see ``_StreamPlan.derived`` in
:mod:`repro.runners`).  Each quarantine increments the
``stream.quarantined`` telemetry counter.  ``detach`` is idempotent so
cleanup code that detaches its consumer at end of run (e.g. hardware
counters) stays safe when quarantine already removed it.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry import get_telemetry

from .consumer import LineConsumer, RefConsumer
from .events import LineBatch, RefBatch

#: Buffered events between batch deliveries.  4096 sits on the flat
#: part of the batch-size sweep (see docs/ARCHITECTURE.md): smaller
#: batches pay drain fixed costs more often, larger ones only grow
#: peak buffer memory without measurable throughput gain.
BATCH_SIZE = 4096


@dataclass
class QuarantineRecord:
    """One detached consumer and the failure that condemned it."""

    consumer: Any
    stage: str  # "on_batch" | "on_line_batch" | "on_epoch" | "finish"
    error: str
    traceback: str


class RefStream:
    """Batched columnar fan-out of raw memory references."""

    def __init__(self, batch_size: int = BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.consumers: List[RefConsumer] = []
        #: Consumers detached after a callback raised, with the error.
        self.quarantined: List[QuarantineRecord] = []
        #: True when any attached consumer wants ifetch events.
        self.wants_ifetch = False
        #: True when any attached consumer reads trace ids.
        self.wants_trace_ids = False
        #: The column buffers.  Producers append to these directly (and
        #: may hoist the bound ``append`` methods); all five must stay
        #: the same length and the list objects are never replaced.
        self.pcs: List[int] = []
        self.addrs: List[int] = []
        self.sizes: List[int] = []
        self.kinds: List[int] = []
        self.cycles: List[int] = []
        # Trace-id interning state, scoped to the batch in progress.
        # Index 0 of the table is always None.
        self._trace_table: List[Optional[str]] = [None]
        self._trace_index: Dict[str, int] = {}
        self._trace_runs: List[Tuple[int, int]] = [(0, 0)]
        self._tid = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, consumer: RefConsumer) -> RefConsumer:
        self.consumers.append(consumer)
        self._recompute_wants()
        return consumer

    def detach(self, consumer: RefConsumer) -> None:
        # Idempotent: quarantine may have already removed the consumer,
        # and cleanup paths (e.g. HardwareCounters.detach) must not
        # crash the run over an already-detached one.
        self.drain()
        if consumer in self.consumers:
            self.consumers.remove(consumer)
        self._recompute_wants()

    def _recompute_wants(self) -> None:
        consumers = self.consumers
        self.wants_ifetch = any(
            getattr(c, "wants_ifetch", False) for c in consumers)
        self.wants_trace_ids = any(
            getattr(c, "wants_trace_ids", False) for c in consumers)

    def _quarantine(self, consumer: RefConsumer, stage: str,
                    exc: Exception) -> None:
        self.quarantined.append(QuarantineRecord(
            consumer=consumer, stage=stage,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        ))
        self.consumers.remove(consumer)
        self._recompute_wants()
        get_telemetry().count("stream.quarantined")

    # -- trace-id stamping -------------------------------------------------

    @property
    def trace_id(self) -> Optional[str]:
        """Current trace pass label (``"<head>@<entry>"``) or ``None``.

        The runtime sets it only while :attr:`wants_trace_ids` is true,
        so with no consumer reading ids it stays ``None``.  Setting it
        records a run boundary at the current buffer offset; events are
        never individually stamped.
        """
        return self._trace_table[self._tid]

    @trace_id.setter
    def trace_id(self, value: Optional[str]) -> None:
        if value is None:
            idx = 0
        else:
            idx = self._trace_index.get(value, 0)
            if not idx:
                self._trace_table.append(value)
                idx = len(self._trace_table) - 1
                self._trace_index[value] = idx
        if idx == self._tid:
            return
        self._tid = idx
        runs = self._trace_runs
        pos = len(self.pcs)
        if runs[-1][0] == pos:
            # No events under the previous run yet: replace it (or drop
            # it entirely when that re-merges two same-id neighbours).
            if len(runs) > 1 and runs[-2][1] == idx:
                runs.pop()
            else:
                runs[-1] = (pos, idx)
        else:
            runs.append((pos, idx))

    # -- producing ---------------------------------------------------------

    def emit(self, pc: int, addr: int, size: int, kind: int,
             cycle: int) -> None:
        """Append one event; delivers a batch when the buffer fills."""
        self.pcs.append(pc)
        self.addrs.append(addr)
        self.sizes.append(size)
        self.kinds.append(kind)
        self.cycles.append(cycle)
        if len(self.pcs) >= self.batch_size:
            self.drain()

    def _take_batch(self) -> Optional[RefBatch]:
        pcs = self.pcs
        if not pcs:
            return None
        addrs = self.addrs[:]
        sizes = self.sizes[:]
        # Seal-time column statistics (see RefBatch): one C-level OR /
        # max pass each, paid once per batch and shared by every
        # consumer's straddle screen.
        batch = RefBatch(pcs[:], addrs, sizes,
                         self.kinds[:], self.cycles[:],
                         self._trace_table, tuple(self._trace_runs),
                         addr_or=reduce(or_, addrs, 0),
                         max_size=max(sizes))
        del pcs[:]
        del self.addrs[:]
        del self.sizes[:]
        del self.kinds[:]
        del self.cycles[:]
        # Fresh per-batch interning state, carrying over the active id.
        if self._tid:
            current = self._trace_table[self._tid]
            self._trace_table = [None, current]
            self._trace_index = {current: 1}
            self._trace_runs = [(0, 1)]
            self._tid = 1
        else:
            self._trace_table = [None]
            self._trace_index = {}
            self._trace_runs = [(0, 0)]
        return batch

    def drain(self) -> None:
        """Deliver all buffered events to every consumer, in order."""
        batch = self._take_batch()
        if batch is None:
            return
        for consumer in list(self.consumers):
            try:
                consumer.on_batch(batch)
            except Exception as exc:  # noqa: BLE001 -- quarantined
                self._quarantine(consumer, "on_batch", exc)

    def epoch(self, info: Optional[Dict[str, Any]] = None) -> None:
        """Flush, then signal an analysis epoch to every consumer."""
        self.drain()
        info = info if info is not None else {}
        for consumer in list(self.consumers):
            try:
                consumer.on_epoch(info)
            except Exception as exc:  # noqa: BLE001 -- quarantined
                self._quarantine(consumer, "on_epoch", exc)

    def finish(self) -> None:
        """Flush and close the stream (call once, at run end)."""
        self.drain()
        for consumer in list(self.consumers):
            try:
                consumer.finish()
            except Exception as exc:  # noqa: BLE001 -- quarantined
                self._quarantine(consumer, "finish", exc)


class LineStream:
    """Batched columnar fan-out of resolved line accesses."""

    def __init__(self, batch_size: int = BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.consumers: List[LineConsumer] = []
        #: Consumers detached after a callback raised, with the error.
        self.quarantined: List[QuarantineRecord] = []
        #: Column buffers; same stability contract as RefStream's.
        self.pcs: List[int] = []
        self.line_addrs: List[int] = []
        self.writes: List[bool] = []
        self.l1_hits: List[bool] = []
        self.l2_hits: List[bool] = []

    def attach(self, consumer: LineConsumer) -> LineConsumer:
        self.consumers.append(consumer)
        return consumer

    def detach(self, consumer: LineConsumer) -> None:
        # Idempotent, like RefStream.detach: the consumer may already
        # be gone via quarantine.
        self.drain()
        if consumer in self.consumers:
            self.consumers.remove(consumer)

    def _quarantine(self, consumer: LineConsumer, stage: str,
                    exc: Exception) -> None:
        self.quarantined.append(QuarantineRecord(
            consumer=consumer, stage=stage,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        ))
        self.consumers.remove(consumer)
        get_telemetry().count("stream.quarantined")

    def emit(self, pc: int, line_addr: int, is_write: bool,
             l1_hit: bool, l2_hit: bool) -> None:
        self.pcs.append(pc)
        self.line_addrs.append(line_addr)
        self.writes.append(is_write)
        self.l1_hits.append(l1_hit)
        self.l2_hits.append(l2_hit)
        if len(self.pcs) >= self.batch_size:
            self.drain()

    def drain(self) -> None:
        pcs = self.pcs
        if not pcs:
            return
        batch = LineBatch(pcs[:], self.line_addrs[:], self.writes[:],
                          self.l1_hits[:], self.l2_hits[:])
        del pcs[:]
        del self.line_addrs[:]
        del self.writes[:]
        del self.l1_hits[:]
        del self.l2_hits[:]
        for consumer in list(self.consumers):
            try:
                consumer.on_line_batch(batch)
            except Exception as exc:  # noqa: BLE001 -- quarantined
                self._quarantine(consumer, "on_line_batch", exc)

    def finish(self) -> None:
        self.drain()
        for consumer in list(self.consumers):
            try:
                consumer.finish()
            except Exception as exc:  # noqa: BLE001 -- quarantined
                self._quarantine(consumer, "finish", exc)
