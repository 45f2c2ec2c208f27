"""The consumer protocol of the reference-stream pipeline.

A consumer receives *batches* of events, never single callbacks -- the
producer buffers and amortizes dispatch, so a consumer's per-batch cost
is one method call plus its own loop.  Delivery is columnar and has
exactly one hook per plane: ``on_batch`` receives a
:class:`~repro.stream.events.RefBatch` (``on_line_batch`` a
:class:`~repro.stream.events.LineBatch`) whose parallel arrays can be
swept with C-speed builtins.  The base classes leave that hook
unimplemented (it raises :class:`NotImplementedError`), so a subclass
that forgets it fails loudly instead of silently seeing nothing.
The lifecycle is::

    on_batch(batch)*  on_epoch(info)*  finish()

``on_epoch`` marks analysis boundaries (UMI's analyzer invocations);
``finish`` is called exactly once when the producing run completes, with
all buffered events flushed first.  ``summary()`` returns a flat dict of
JSON-safe scalars -- what a fused run records per consumer in
``RunOutcome.derived``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .events import LineBatch, RefBatch


class RefConsumer:
    """Base class for raw-reference consumers; subclasses implement
    :meth:`on_batch`, every other hook defaults to doing nothing."""

    #: Set True to also receive instruction-fetch events (kind 2).
    #: Producers skip ifetch emission entirely when no attached consumer
    #: wants it, keeping the default data-only stream cheap.
    wants_ifetch: bool = False

    def on_batch(self, batch: RefBatch) -> None:
        """One columnar batch of raw references, in program order."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement on_batch")

    def on_epoch(self, info: Dict[str, Any]) -> None:
        """An analysis epoch boundary (buffered events already flushed)."""

    def finish(self) -> None:
        """The producing run completed; flush any internal state."""

    def summary(self) -> Dict[str, Any]:
        """Flat JSON-safe scalars describing what this consumer saw."""
        return {}


class LineConsumer:
    """Base class for line-event consumers (the hierarchy's plane);
    subclasses implement :meth:`on_line_batch`."""

    def on_line_batch(self, batch: LineBatch) -> None:
        """One columnar batch of demand line accesses, in order."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement on_line_batch")

    def finish(self) -> None:
        """The producing run completed."""

    def summary(self) -> Dict[str, Any]:
        return {}


class NullRefConsumer(RefConsumer):
    """A consumer that does nothing: the pipeline-overhead yardstick."""

    def on_batch(self, batch: Any) -> None:
        """Discard the batch (of either hub: the pipeline bench's
        reference yardstick delivers a list of per-event records)."""


class CollectingRefConsumer(RefConsumer):
    """Accumulates every event column; test/debug helper, not for long
    runs.  ``pcs`` .. ``cycles`` and ``trace_ids`` are parallel lists
    spanning every batch delivered so far."""

    def __init__(self) -> None:
        self.pcs: List[int] = []
        self.addrs: List[int] = []
        self.sizes: List[int] = []
        self.kinds: List[int] = []
        self.cycles: List[int] = []
        self.trace_ids: List[Optional[str]] = []
        self.epochs: List[Dict[str, Any]] = []
        self.finished = False

    def on_batch(self, batch: RefBatch) -> None:
        self.pcs.extend(batch.pcs)
        self.addrs.extend(batch.addrs)
        self.sizes.extend(batch.sizes)
        self.kinds.extend(batch.kinds)
        self.cycles.extend(batch.cycles)
        self.trace_ids.extend(batch.trace_ids())

    def on_epoch(self, info: Dict[str, Any]) -> None:
        self.epochs.append(dict(info))

    def finish(self) -> None:
        self.finished = True

    def summary(self) -> Dict[str, Any]:
        return {"events": len(self.pcs), "epochs": len(self.epochs)}
