"""UMI's two-level profiling data structures.

Paper Section 4.2: "Memory references are recorded in a two-level data
structure.  A unique *address profile* is associated with each code
trace.  The address profile is two-dimensional, with each row
corresponding to a single execution of the trace.  The columns are
organized such that each records the sequence of memory addresses
referenced by an individual operation in the code fragment...  On every
trace entry, a record is allocated in a *trace profile* to point to a new
row in the address profile."

The trace profile buffer is guarded by a protected memory page in the
prototype so that filling it traps straight into the analyzer; here the
same behaviour is modelled by :meth:`TraceProfileBuffer.allocate`
returning ``True`` when the write would hit the guard page.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class AddressProfile:
    """One trace's 2-D address recording.

    ``columns[j]`` belongs to instrumented operation ``op_pcs[j]``; row
    ``i`` holds the addresses referenced during the ``i``-th recorded
    execution of the trace (``None`` when the execution exited the trace
    before reaching that operation).
    """

    __slots__ = ("trace_head", "op_pcs", "max_rows", "rows")

    def __init__(self, trace_head: str, op_pcs: Sequence[int],
                 max_rows: int) -> None:
        if max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        self.trace_head = trace_head
        self.op_pcs: Tuple[int, ...] = tuple(op_pcs)
        self.max_rows = max_rows
        self.rows: List[List[Optional[int]]] = []

    # -- recording -----------------------------------------------------------

    def new_row(self) -> List[Optional[int]]:
        """Allocate and return the next row (caller fills it in place)."""
        if self.full:
            raise OverflowError("address profile is full")
        row: List[Optional[int]] = [None] * len(self.op_pcs)
        self.rows.append(row)
        return row

    @property
    def full(self) -> bool:
        return len(self.rows) >= self.max_rows

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_ops(self) -> int:
        return len(self.op_pcs)

    @property
    def empty(self) -> bool:
        return not self.rows

    # -- reading ---------------------------------------------------------------

    def column(self, j: int) -> List[int]:
        """Operation ``j``'s recorded address sequence (gaps dropped)."""
        return [row[j] for row in self.rows if row[j] is not None]

    def column_for_pc(self, pc: int) -> List[int]:
        return self.column(self.op_pcs.index(pc))

    def iter_references(self, skip_rows: int = 0
                        ) -> Iterator[Tuple[int, int, bool]]:
        """Yield ``(pc, addr, counted)`` in execution (row-major) order.

        ``counted`` is ``False`` for the first ``skip_rows`` rows -- the
        analyzer's warm-up executions, which fill the simulated cache but
        are excluded from miss accounting.
        """
        op_pcs = self.op_pcs
        for i, row in enumerate(self.rows):
            counted = i >= skip_rows
            for j, addr in enumerate(row):
                if addr is not None:
                    yield op_pcs[j], addr, counted

    def flat_references(self, skip_rows: int = 0, shift: int = 0
                        ) -> Tuple[List[int], List[int], int]:
        """The profile flattened for batch simulation.

        Returns ``(pcs, addrs, n_warmup)``: the recorded cells in
        execution (row-major) order as two parallel lists, plus the
        number of leading cells that fall in the first ``skip_rows``
        rows (the analyzer's uncounted warm-up executions).  Equivalent
        to :meth:`iter_references` but in a shape
        :meth:`repro.memory.cache.Cache.access_many` consumes directly.
        With ``shift`` the addresses come back pre-shifted (i.e. as line
        addresses), saving the analyzer a second pass over the stream.
        """
        rows = self.rows
        # Row-major cell order, built by C-level list operations; only a
        # profile with gap cells (early trace exits) pays for a mask.
        cells = list(chain.from_iterable(rows))
        pcs = list(self.op_pcs) * len(rows)
        n_warmup = min(skip_rows, len(rows)) * len(self.op_pcs)
        if None in cells:
            keep = [cell is not None for cell in cells]
            pcs = list(compress(pcs, keep))
            cells = list(compress(cells, keep))
            n_warmup = keep[:n_warmup].count(True)
        addrs = [cell >> shift for cell in cells]
        return pcs, addrs, n_warmup

    def record_count(self) -> int:
        """Total non-empty cells (references recorded)."""
        return sum(
            1 for row in self.rows for addr in row if addr is not None
        )

    def __repr__(self) -> str:
        return (
            f"<AddressProfile {self.trace_head}: {self.num_ops} ops x "
            f"{self.num_rows}/{self.max_rows} rows>"
        )


class TraceProfileBuffer:
    """The global trace profile: one entry per instrumented-trace entry.

    The prototype guards this buffer with a protected page; a write into
    the guard page traps and triggers the analyzer.  ``allocate`` returns
    ``True`` exactly when that trap would fire.
    """

    __slots__ = ("capacity", "entries", "total_allocated")

    def __init__(self, capacity: int = 8_192) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.entries = 0
        self.total_allocated = 0

    def allocate(self) -> bool:
        """Record one trace entry; ``True`` if the buffer just filled."""
        self.entries += 1
        self.total_allocated += 1
        return self.entries >= self.capacity

    @property
    def full(self) -> bool:
        return self.entries >= self.capacity

    def drain(self) -> None:
        """Empty the buffer (done when the analyzer runs)."""
        self.entries = 0

    def __repr__(self) -> str:
        return f"<TraceProfileBuffer {self.entries}/{self.capacity}>"
