"""Machine state for the virtual machine."""

from __future__ import annotations

from typing import Dict, List

from repro.isa import Program


class MachineState:
    """Registers, memory, flags and the cycle/instruction counters.

    ``cycles`` is the model's ``rdtsc``: every subsystem (interpreter,
    runtime, UMI, counters) charges its costs here, and the experiment
    harness reads running times from it.
    """

    __slots__ = ("regs", "memory", "flags", "cycles", "steps", "halted",
                 "call_stack", "__weakref__")

    def __init__(self, program: Program) -> None:
        if not program.finalized:
            raise ValueError("program must be finalized before execution")
        self.regs: List[int] = program.initial_register_file()
        self.memory: Dict[int, int] = dict(program.data.image)
        self.flags: int = 0
        self.cycles: int = 0
        self.steps: int = 0
        self.halted: bool = False
        self.call_stack: List[str] = []

    def snapshot(self) -> Dict[str, int]:
        """Summary counters (for reports and tests)."""
        return {
            "cycles": self.cycles,
            "steps": self.steps,
            "call_depth": len(self.call_stack),
        }

    def __repr__(self) -> str:
        return (
            f"<MachineState cycles={self.cycles} steps={self.steps} "
            f"halted={self.halted}>"
        )
