"""The columnar memory-event batches of the reference-stream pipeline.

Every producer (the interpreter, the runtime, the memory hierarchy)
speaks one of two event vocabularies, each delivered as a columnar
batch:

* :class:`RefBatch` -- raw references as the program issued them
  (byte address + size, before any cache geometry is applied).  The
  ``kind`` encoding deliberately matches the din trace format
  (:mod:`repro.vm.tracing`): 0 = read, 1 = write, 2 = ifetch, so a
  stream can be written straight out as a din trace.
* :class:`LineBatch` -- demand *line* accesses as the modelled
  hierarchy resolved them (post line-splitting, with hit/miss
  outcomes).  Hardware counters and phase detectors live on this plane.

``cycle`` is the machine-state cycle count at the moment the reference
was issued -- the exact ``now`` the producing hierarchy saw -- which is
what lets a shadow hierarchy replay the stream bit-exactly (replacement
stamps depend only on the *ordering* of access times, and the recorded
cycles reproduce the producing run's stamps verbatim).

``trace_id`` is ``None`` outside traces; inside a trace pass it is
``"<head>@<entry>"`` -- the trace-cache head label plus the pass number
-- unique per pass so consumers can group references into profile rows
without extra markers.

Batches travel in structure-of-arrays form: both batch types carry
one parallel column per field, never a list of per-event records, so
producers pay five list appends per event and consumers iterate plain
int lists at C speed.  Trace ids are run-length encoded (they only
change between trace passes): a batch carries an interning table plus
``(start_offset, table_index)`` runs, never a per-event string column.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

#: Event kinds, matching the din trace format's record types.
KIND_READ = 0
KIND_WRITE = 1
KIND_IFETCH = 2


class RefBatch:
    """A batch of raw references in structure-of-arrays form.

    The five columns are parallel lists (``len(batch)`` entries each).
    ``trace_table`` maps small ints to trace-id strings (index 0 is
    always ``None``); ``trace_runs`` is a tuple of ``(start_offset,
    table_index)`` pairs, one per maximal run of events sharing a trace
    id, ordered by offset with ``trace_runs[0][0] == 0``.  The table is
    scoped to this batch, so it stays small even across millions of
    unique per-pass trace ids.

    ``addr_or`` / ``max_size`` are optional column statistics (in the
    spirit of columnar file formats' per-chunk min/max), computed once
    when the hub seals a batch and shared by every consumer:
    ``addr_or`` is the bitwise OR of the address column, so
    ``(addr_or & (line_size - 1)) + max_size <= line_size`` proves --
    for *any* line size -- that no reference in the batch straddles a
    line, without a per-event scan.  The bound is conservative (an OR
    over-approximates the maximum of any bit-masked offset) and both
    default to ``None``, which consumers must treat as "unknown: do
    the exact per-event check".
    """

    __slots__ = ("pcs", "addrs", "sizes", "kinds", "cycles",
                 "trace_table", "trace_runs", "addr_or", "max_size")

    def __init__(self, pcs: List[int], addrs: List[int], sizes: List[int],
                 kinds: List[int], cycles: List[int],
                 trace_table: Sequence[Optional[str]],
                 trace_runs: Tuple[Tuple[int, int], ...],
                 addr_or: Optional[int] = None,
                 max_size: Optional[int] = None) -> None:
        self.pcs = pcs
        self.addrs = addrs
        self.sizes = sizes
        self.kinds = kinds
        self.cycles = cycles
        self.trace_table = trace_table
        self.trace_runs = trace_runs
        self.addr_or = addr_or
        self.max_size = max_size

    def __len__(self) -> int:
        return len(self.pcs)

    def iter_runs(self) -> Iterator[Tuple[int, int, Optional[str]]]:
        """Yield ``(start, stop, trace_id)`` per trace-id run, in order."""
        runs = self.trace_runs
        table = self.trace_table
        n = len(self.pcs)
        last = len(runs) - 1
        for i, (start, tid) in enumerate(runs):
            stop = runs[i + 1][0] if i < last else n
            if stop > start:
                yield start, stop, table[tid]

    def trace_ids(self) -> List[Optional[str]]:
        """The per-event trace-id column, materialized from the runs."""
        out: List[Optional[str]] = []
        for start, stop, tid in self.iter_runs():
            out.extend([tid] * (stop - start))
        return out


class LineBatch:
    """A batch of resolved demand line accesses, one column per field."""

    __slots__ = ("pcs", "line_addrs", "writes", "l1_hits", "l2_hits")

    def __init__(self, pcs: List[int], line_addrs: List[int],
                 writes: List[bool], l1_hits: List[bool],
                 l2_hits: List[bool]) -> None:
        self.pcs = pcs
        self.line_addrs = line_addrs
        self.writes = writes
        self.l1_hits = l1_hits
        self.l2_hits = l2_hits

    def __len__(self) -> int:
        return len(self.pcs)
