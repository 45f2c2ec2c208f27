"""Programs: basic blocks, data segments, and address-space layout.

A :class:`Program` is a collection of labelled basic blocks plus a data
segment holding the program's initial heap image.  ``finalize`` assigns a
code address to every instruction (instruction ``pc`` values), checks the
control-flow graph for well-formedness, and freezes the program.

Address space layout (bytes):

==================  =========================================
``CODE_BASE``       start of the code segment (pc values)
``HEAP_BASE``       start of the data segment / heap
``STACK_BASE``      initial ``esp``; the stack grows downward
==================  =========================================
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .instructions import CALL, HALT, Instruction, JCC, JMP, RET, SWITCH
from .registers import NUM_REGS

CODE_BASE = 0x0040_0000
HEAP_BASE = 0x1000_0000
STACK_BASE = 0x7FFF_0000

#: Byte spacing between consecutive instruction pcs.
INSTR_SIZE = 4
#: Alignment of basic-block start addresses.
BLOCK_ALIGN = 16


class ProgramError(Exception):
    """A structural problem with a program (bad CFG, missing label...)."""


class BasicBlock:
    """A single-entry straight-line sequence ending in one terminator."""

    __slots__ = ("label", "instructions", "base_pc")

    def __init__(self, label: str, instructions: Optional[List[Instruction]] = None) -> None:
        self.label = label
        self.instructions: List[Instruction] = instructions if instructions is not None else []
        self.base_pc: int = -1

    @property
    def terminator(self) -> Instruction:
        if not self.instructions:
            raise ProgramError(f"block {self.label!r} is empty")
        return self.instructions[-1]

    def successors(self) -> List[str]:
        return self.terminator.branch_targets()

    def static_loads(self) -> int:
        return sum(1 for ins in self.instructions if ins.is_load())

    def static_stores(self) -> int:
        return sum(1 for ins in self.instructions if ins.is_store())

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label} ({len(self.instructions)} instrs)>"


class DataSegment:
    """The program's initial memory image and a bump allocator for it.

    Values are 64-bit words keyed by byte address.  The interpreter's
    memory starts as a copy of :attr:`image`.
    """

    def __init__(self, base: int = HEAP_BASE) -> None:
        self.base = base
        self._next = base
        self.image: Dict[int, int] = {}
        self.symbols: Dict[str, int] = {}

    def alloc(self, name: str, nbytes: int, align: int = 8) -> int:
        """Reserve ``nbytes`` of heap, returning the base address."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if align <= 0 or align & (align - 1):
            raise ValueError("alignment must be a positive power of two")
        if name in self.symbols:
            raise ProgramError(f"duplicate data symbol {name!r}")
        addr = (self._next + align - 1) & ~(align - 1)
        self.symbols[name] = addr
        self._next = addr + nbytes
        return addr

    def write_word(self, addr: int, value: int) -> None:
        self.image[addr] = value

    def read_word(self, addr: int) -> int:
        return self.image.get(addr, 0)

    def alloc_array(self, name: str, count: int, elem_size: int = 8,
                    init=None) -> int:
        """Allocate an array of ``count`` elements; optionally initialize.

        ``init`` may be a callable ``f(i) -> value`` or a sequence.
        """
        base = self.alloc(name, count * elem_size, align=max(8, elem_size))
        if init is not None:
            getter = init if callable(init) else init.__getitem__
            self.image.update(zip(
                range(base, base + count * elem_size, elem_size),
                map(getter, range(count))))
        return base

    @property
    def size(self) -> int:
        return self._next - self.base


class Program:
    """A finalized, executable program for the virtual machine."""

    def __init__(
        self,
        name: str,
        blocks: Dict[str, BasicBlock],
        entry: str,
        data: Optional[DataSegment] = None,
        initial_regs: Optional[Dict[int, int]] = None,
    ) -> None:
        self.name = name
        self.blocks = blocks
        self.entry = entry
        self.data = data if data is not None else DataSegment()
        self.initial_regs = dict(initial_regs or {})
        self._finalized = False
        self._pc_index: Dict[int, Tuple[str, int]] = {}

    # -- finalization -----------------------------------------------------

    def finalize(self) -> "Program":
        """Assign pcs, validate the CFG, and freeze the program."""
        if self._finalized:
            return self
        self._validate()
        pc = CODE_BASE
        for label in self.blocks:  # insertion order = layout order
            block = self.blocks[label]
            pc = (pc + BLOCK_ALIGN - 1) & ~(BLOCK_ALIGN - 1)
            block.base_pc = pc
            for i, ins in enumerate(block.instructions):
                ins.pc = pc + i * INSTR_SIZE
                self._pc_index[ins.pc] = (label, i)
            pc = pc + len(block.instructions) * INSTR_SIZE
        self._finalized = True
        return self

    def _validate(self) -> None:
        if self.entry not in self.blocks:
            raise ProgramError(f"entry block {self.entry!r} not defined")
        for label, block in self.blocks.items():
            if not block.instructions:
                raise ProgramError(f"block {label!r} is empty")
            term = block.instructions[-1]
            if not term.is_terminator():
                raise ProgramError(
                    f"block {label!r} does not end in a terminator "
                    f"(found opcode {term.op})"
                )
            for ins in block.instructions[:-1]:
                if ins.is_terminator():
                    raise ProgramError(
                        f"block {label!r} has a terminator before its end"
                    )
            for succ in block.successors():
                if succ not in self.blocks:
                    raise ProgramError(
                        f"block {label!r} branches to undefined label {succ!r}"
                    )

    # -- queries -----------------------------------------------------------

    @property
    def finalized(self) -> bool:
        return self._finalized

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    def locate_pc(self, pc: int) -> Tuple[str, int]:
        """Map a pc back to ``(block label, instruction index)``."""
        return self._pc_index[pc]

    def instruction_at(self, pc: int) -> Instruction:
        label, idx = self._pc_index[pc]
        return self.blocks[label].instructions[idx]

    def static_loads(self) -> int:
        """Total static LOAD instructions (Table 3's 'Static Loads')."""
        return sum(b.static_loads() for b in self.blocks.values())

    def static_stores(self) -> int:
        """Total static STORE instructions (Table 3's 'Static Stores')."""
        return sum(b.static_stores() for b in self.blocks.values())

    def static_memory_ops(self) -> int:
        return self.static_loads() + self.static_stores()

    def iter_instructions(self) -> Iterator[Instruction]:
        for block in self.blocks.values():
            yield from block.instructions

    def cfg_edges(self) -> List[Tuple[str, str]]:
        """All (source label, destination label) control-flow edges.

        ``RET`` edges are dynamic (they depend on the call stack) and are
        not included.
        """
        edges = []
        for label, block in self.blocks.items():
            for succ in block.successors():
                edges.append((label, succ))
        return edges

    def initial_register_file(self) -> List[int]:
        regs = [0] * NUM_REGS
        from .registers import ESP

        regs[ESP] = STACK_BASE
        for reg, value in self.initial_regs.items():
            regs[reg] = value
        return regs

    def __repr__(self) -> str:
        return (
            f"<Program {self.name!r}: {len(self.blocks)} blocks, "
            f"{self.static_memory_ops()} static memory ops>"
        )
