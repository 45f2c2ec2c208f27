"""The pre-SoA hub, kept verbatim as the pipeline bench yardstick.

This is the array-of-structs :class:`RefStream` the columnar refactor
replaced: ``emit`` constructs one ``_MemoryEvent`` record per reference
and ``drain`` hands consumers a list of tuples.  The ``pipeline`` bench
kernel runs the same event stream through this hub and the real one and
reports the ratio, giving the speedup floor a host-independent anchor.
Its only consumer is :class:`~repro.stream.NullRefConsumer`, whose
``on_batch`` ignores what it is handed, so the tuple list never leaves
this module.  Like :mod:`repro.fullsim.reference`, it must stay slow and
obvious -- do not optimize it.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from .consumer import RefConsumer
from .hub import BATCH_SIZE


class _MemoryEvent(NamedTuple):
    """One raw memory reference: ``(pc, addr, size, kind, cycle, trace_id)``."""

    pc: int
    addr: int
    size: int
    kind: int
    cycle: int
    trace_id: Optional[str]


class ReferenceRefStream:
    """Array-of-structs fan-out: one NamedTuple per emitted event."""

    def __init__(self, batch_size: int = BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.consumers: List[RefConsumer] = []
        self.trace_id: Optional[str] = None
        self._buf: List[_MemoryEvent] = []

    def attach(self, consumer: RefConsumer) -> RefConsumer:
        self.consumers.append(consumer)
        return consumer

    def emit(self, pc: int, addr: int, size: int, kind: int,
             cycle: int) -> None:
        buf = self._buf
        buf.append(_MemoryEvent(pc, addr, size, kind, cycle, self.trace_id))
        if len(buf) >= self.batch_size:
            self.drain()

    def drain(self) -> None:
        buf = self._buf
        if not buf:
            return
        batch = buf[:]
        del buf[:]
        for consumer in self.consumers:
            consumer.on_batch(batch)

    def finish(self) -> None:
        self.drain()
        for consumer in self.consumers:
            consumer.finish()
