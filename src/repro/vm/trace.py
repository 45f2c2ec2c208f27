"""Instruction traces (code fragments).

A trace is a single-entry, multiple-exits sequence of basic blocks
stitched together by the trace builder, exactly as DynamoRIO's trace
cache holds them (paper Section 3).  UMI attaches its instrumentation
state here: the set of profiled operations, the address profile, and --
after online optimization -- the injected software-prefetch map.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa import BasicBlock, Instruction


class Trace:
    """A single-entry multiple-exits sequence of basic blocks."""

    __slots__ = (
        "head", "block_labels", "blocks", "loops_to_head", "entries",
        "hooked", "instrumented", "profile_cols", "prefetch_map",
        "sample_count",
    )

    def __init__(self, head: str, blocks: List[BasicBlock],
                 loops_to_head: bool) -> None:
        if not blocks or blocks[0].label != head:
            raise ValueError("trace must start at its head block")
        self.head = head
        self.blocks = blocks
        self.block_labels = [b.label for b in blocks]
        #: whether the recorded path ended with a branch back to the head
        #: (the common loop-trace case).
        self.loops_to_head = loops_to_head
        self.entries = 0
        #: whether DynamoSim calls the client's entry/exit hooks around
        #: each pass; a clean trace pays no per-pass hook call.
        self.hooked = False
        # -- UMI state ----------------------------------------------------
        self.instrumented = False
        #: pc -> address-profile column for instrumented memory operations.
        self.profile_cols: Optional[Dict[int, int]] = None
        #: pc -> byte delta for injected software prefetches.
        self.prefetch_map: Optional[Dict[int, int]] = None
        #: saturating counter driven by the sample-based region selector.
        self.sample_count = 0

    # -- structure queries ----------------------------------------------------

    def num_instructions(self) -> int:
        return sum(len(b) for b in self.blocks)

    def iter_instructions(self):
        for block in self.blocks:
            yield from block.instructions

    def memory_ops(self) -> List[Instruction]:
        """All explicit LOAD/STORE instructions in the trace."""
        return [ins for ins in self.iter_instructions()
                if ins.is_explicit_memory_ref()]

    def profiled_pcs(self) -> List[int]:
        """pcs currently selected for profiling (empty if uninstrumented)."""
        if not self.profile_cols:
            return []
        return sorted(self.profile_cols, key=self.profile_cols.get)

    # -- UMI state transitions --------------------------------------------------

    def instrument(self, profile_cols: Dict[int, int]) -> None:
        """Switch to the instrumented copy of the trace."""
        self.profile_cols = dict(profile_cols)
        self.instrumented = True

    def replace_with_clone(self) -> None:
        """Swap the instrumented fragment for its clean clone ``T_c``.

        The prefetch map survives -- the paper performs optimizations on
        the clone before installing it.
        """
        self.instrumented = False
        self.profile_cols = None
        self.sample_count = 0

    def __repr__(self) -> str:
        mark = "I" if self.instrumented else " "
        return (
            f"<Trace {self.head} [{mark}] {len(self.blocks)} blocks, "
            f"{self.num_instructions()} instrs, entries={self.entries}>"
        )
