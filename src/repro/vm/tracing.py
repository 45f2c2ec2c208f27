"""Execution tracing: block traces and memory traces for offline use.

Debugging aid and interchange format: record the dynamic basic-block
sequence and/or the full memory reference stream of a run, and export
the latter in the ``din``-style text format traditional trace-driven
cache simulators (Dinero, and Cachegrind's tooling lineage) consume::

    <type> <hex address>      # type: 0 = read, 1 = write, 2 = ifetch

Attach a :class:`MemoryTraceRecorder` to an interpreter's
:class:`~repro.stream.RefStream` or use :func:`trace_program` for a
one-call capture.
"""

from __future__ import annotations

from collections import Counter
from typing import IO, Iterable, List, Optional, Tuple, Union

from repro.isa import Program
from repro.memory.flat import FlatMemory
from repro.stream import KIND_IFETCH, KIND_WRITE, RefBatch, RefConsumer

DIN_READ = 0
DIN_WRITE = 1
DIN_IFETCH = 2


class MemoryTraceRecorder(RefConsumer):
    """Records ``(pc, addr, is_write, size)`` references as they happen.

    ``limit`` caps memory use on long runs; when reached, further
    references are counted (``dropped``) but not stored.
    """

    def __init__(self, limit: Optional[int] = 1_000_000) -> None:
        if limit is not None and limit < 1:
            raise ValueError("limit must be positive or None")
        self.limit = limit
        self.records: List[Tuple[int, int, bool, int]] = []
        self.dropped = 0

    def on_batch(self, batch: RefBatch) -> None:
        """Columnar stream delivery; records data references only."""
        kinds = batch.kinds
        if KIND_IFETCH in kinds:
            rows = [(p, a, k == KIND_WRITE, s) for p, a, s, k in
                    zip(batch.pcs, batch.addrs, batch.sizes, kinds)
                    if k != KIND_IFETCH]
        else:
            rows = list(zip(batch.pcs, batch.addrs, map(bool, kinds),
                            batch.sizes))
        limit = self.limit
        records = self.records
        if limit is not None:
            room = limit - len(records)
            if room <= 0:
                self.dropped += len(rows)
                return
            if len(rows) > room:
                self.dropped += len(rows) - room
                rows = rows[:room]
        records.extend(rows)

    def __call__(self, pc: int, addr: int, is_write: bool,
                 size: int) -> None:
        if self.limit is not None and len(self.records) >= self.limit:
            self.dropped += 1
            return
        self.records.append((pc, addr, is_write, size))

    def summary(self):
        return {"records": len(self.records), "dropped": self.dropped}

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def addresses(self) -> List[int]:
        return [addr for _, addr, _, _ in self.records]

    def per_pc_counts(self) -> Counter:
        return Counter(pc for pc, _, _, _ in self.records)

    def write_fraction(self) -> float:
        if not self.records:
            return 0.0
        writes = sum(1 for _, _, w, _ in self.records if w)
        return writes / len(self.records)

    # -- export -------------------------------------------------------------

    def to_din(self, destination: Union[str, IO[str]]) -> int:
        """Write the trace in din format; returns the line count."""
        lines = (
            f"{DIN_WRITE if is_write else DIN_READ} {addr:x}\n"
            for _, addr, is_write, _ in self.records
        )
        if isinstance(destination, str):
            with open(destination, "w") as handle:
                count = sum(1 for line in lines if handle.write(line))
        else:
            count = sum(1 for line in lines if destination.write(line))
        return count


class BlockTraceRecorder:
    """Records the dynamic sequence of executed basic-block labels."""

    def __init__(self, limit: Optional[int] = 1_000_000) -> None:
        self.limit = limit
        self.labels: List[str] = []
        self.dropped = 0

    def note(self, label: str) -> None:
        if self.limit is not None and len(self.labels) >= self.limit:
            self.dropped += 1
            return
        self.labels.append(label)

    def __len__(self) -> int:
        return len(self.labels)

    def execution_counts(self) -> Counter:
        return Counter(self.labels)

    def hottest(self, top: int = 5) -> List[Tuple[str, int]]:
        return self.execution_counts().most_common(top)


def trace_program(program: Program, max_steps: int = 50_000_000,
                  memory_limit: Optional[int] = 1_000_000,
                  ) -> Tuple[MemoryTraceRecorder, BlockTraceRecorder]:
    """Execute a program natively and capture both trace kinds."""
    from repro.stream import RefStream

    from .interpreter import Interpreter

    mem_trace = MemoryTraceRecorder(limit=memory_limit)
    block_trace = BlockTraceRecorder(limit=memory_limit)
    stream = RefStream()
    stream.attach(mem_trace)
    interp = Interpreter(program, FlatMemory(latency=0), stream=stream)

    label = program.entry
    while label is not None:
        block_trace.note(label)
        label = interp.execute_block(label)
        if interp.state.steps > max_steps:
            raise RuntimeError("trace capture exceeded max_steps")
    stream.finish()
    return mem_trace, block_trace


def replay_din(lines: Iterable[str]):
    """Parse a din-format trace back into ``(is_write, addr)`` tuples."""
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            kind, addr = line.split()
            kind, addr = int(kind), int(addr, 16)
        except ValueError:
            raise ValueError(
                f"line {lineno}: malformed din record {line!r}") from None
        if kind not in (DIN_READ, DIN_WRITE, DIN_IFETCH):
            raise ValueError(f"line {lineno}: unknown record type {kind}")
        yield kind == DIN_WRITE, addr
