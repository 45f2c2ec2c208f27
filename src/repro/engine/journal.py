"""The lease journal: coordinator crash recovery for attempt budgets.

The :class:`~repro.engine.store.ResultStore` already makes *results*
durable -- a restarted coordinator's ``--resume`` re-plans exactly the
specs with no stored record.  What the store cannot remember is the
*attempt accounting*: how many times a group was already granted to a
worker before the coordinator died.  Without it, a crash-looping group
gets a fresh retry budget on every coordinator restart and a sweep
that should fail loudly instead retries forever.

:class:`LeaseJournal` closes that gap with an append-only JSON-lines
file beside the store (``lease-journal.jsonl`` in the store root --
invisible to the store itself, which only globs ``*.json``).  The
coordinator appends one record per lease-lifecycle event:

``grant``
    A lease for group ``key`` was submitted to the pool, with its
    1-based ``attempt`` and fencing ``epoch``.
``complete``
    The group reached a final successful result (committed via the
    checkpoint callback, so the store has it too).
``fail``
    The group exhausted its retry budget and was resolved as a
    :class:`~repro.engine.executor.FailedRun`.  Failing *clears* the
    key: a later resume-after-failure run retries the group with a
    fresh budget, matching the store's treatment of failed records.

Recovery replays the file: a *dangling* grant -- one with no
``complete``/``fail`` after it -- is an attempt a dead coordinator
spent, and :meth:`prior_attempts` reports it so the restarted
coordinator's budgets pick up where the old ones stopped (clamped by
the executor so every resumed group keeps at least one attempt).  The
maximum granted ``epoch`` is recovered too, so a restarted
coordinator's fencing tokens and lease ids never collide with ones a
zombie worker may still answer to.

Durability is process-crash level (one ``write`` per grant or fail,
no fsync): the journal guards against SIGKILLed coordinators, not
power loss -- the store's fsync'd records remain the source of truth
for results.  A ``complete`` goes out with the next grant or fail, or
is dropped by compaction: its group is already in the store, so losing
it loses nothing a resume reads.  A torn final line (coordinator died
mid-append) is ignored on replay.
A sweep that ends cleanly :meth:`compact`\\ s the journal back to
empty, so budgets never leak across unrelated sweeps.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

#: The journal's file name inside the store root.
JOURNAL_NAME = "lease-journal.jsonl"

#: One record per line, keys sorted.  Built once: ``json.dumps`` with
#: ``sort_keys`` would construct a fresh encoder for every record.
_encode = json.JSONEncoder(sort_keys=True).encode


class LeaseJournal:
    """Append-only grant/complete/fail journal for one store."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        #: Append-only descriptor, opened on the first write.
        self._fd: Optional[int] = None
        #: Records not yet written: a ``complete`` waits for the next
        #: durable record, or is dropped by :meth:`compact`.
        self._pending: List[Dict[str, Any]] = []
        #: group key -> dangling grant count (grants since the last
        #: complete/fail), recovered from the file on open.
        self._dangling: Dict[str, int] = {}
        self.max_epoch = 0
        self._replay()

    # -- recovery ------------------------------------------------------

    def _replay(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                if not line.endswith("\n"):
                    break  # torn final append from a dying coordinator
                try:
                    record = json.loads(line)
                except ValueError:
                    break
                if not isinstance(record, dict):
                    break
                self._apply(record)

    def _apply(self, record: Dict[str, Any]) -> None:
        event = record.get("event")
        key = record.get("key")
        if not isinstance(key, str):
            return
        if event == "grant":
            self._dangling[key] = self._dangling.get(key, 0) + 1
            epoch = record.get("epoch")
            if isinstance(epoch, int):
                self.max_epoch = max(self.max_epoch, epoch)
        elif event in ("complete", "fail"):
            self._dangling.pop(key, None)

    def prior_attempts(self, key: str) -> int:
        """Attempts a previous coordinator spent on ``key`` (dangling)."""
        return self._dangling.get(key, 0)

    # -- appends -------------------------------------------------------

    def _append(self, record: Dict[str, Any], durable: bool = True) -> None:
        """Journal one record; a ``durable`` one reaches the file now."""
        self._pending.append(record)
        if durable:
            self._write_pending()
        self._apply(record)

    def _write_pending(self) -> None:
        if not self._pending:
            return
        if self._fd is None:
            self._fd = os.open(self.path,
                               os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                               0o644)
        lines = "".join(_encode(record) + "\n" for record in self._pending)
        os.write(self._fd, lines.encode("utf-8"))
        self._pending.clear()

    def record_grant(self, key: str, epoch: int, attempt: int,
                     lease_id: str) -> None:
        self._append({"event": "grant", "key": key, "epoch": epoch,
                      "attempt": attempt, "lease_id": lease_id})

    def record_complete(self, key: str, epoch: int) -> None:
        # Not durable on its own: the checkpoint has already put the
        # group in the store, so a resume never re-plans it and never
        # asks for its budget.
        self._append({"event": "complete", "key": key, "epoch": epoch},
                     durable=False)

    def record_fail(self, key: str) -> None:
        self._append({"event": "fail", "key": key})

    # -- lifecycle -----------------------------------------------------

    def compact(self) -> None:
        """Truncate the journal after a sweep ends with nothing dangling.

        Every group is either committed to the store or deliberately
        failed (and ``fail`` cleared its budget), so no record needs to
        survive; truncating keeps the journal from growing across
        sweeps and from leaking stale epochs into unrelated runs.
        """
        self._pending.clear()
        self._dangling.clear()
        self.max_epoch = 0
        if self._fd is not None:
            # O_APPEND: later records land at the new end of file, so
            # a sweep per engine request reopens nothing.
            os.ftruncate(self._fd, 0)
            return
        with open(self.path, "w", encoding="utf-8"):
            pass

    def close(self) -> None:
        try:
            self._write_pending()
        finally:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
