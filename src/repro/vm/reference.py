"""Reference implementation of the basic-block interpreter.

The decoded-tuple dispatch loop the VM ran before blocks were compiled,
retained verbatim as the **behavioural contract** for the compiled
:class:`repro.vm.interpreter.Interpreter`:

* ``tests/test_vm_differential.py`` runs generated programs and real
  workloads through both and asserts identical registers, memory,
  flags, cycles, steps, call stacks, reference-stream columns,
  hierarchy counters and runtime statistics;
* the ``interpreter`` kernel in :mod:`repro.bench` times the compiled
  interpreter against this loop.

It exposes the same execution interface as the production interpreter
(``context``, :meth:`bind_lanes`, :meth:`block_function`,
:meth:`execute_block`, :meth:`run_native`), so :class:`repro.vm.DynamoSim` can drive it in
tests.  Like :mod:`repro.memory.cache_reference`, this module must stay
slow and obvious -- do not optimize it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa import Program
from repro.isa.instructions import (
    ADD, ALU_RI, ALU_RR, AND, CALL, CC_EQ, CC_GE, CC_GT, CC_LE, CC_LT,
    CC_NE, CMP_RI, CMP_RR, DIV, HALT, JCC, JMP, LEA, LOAD, MOD, MOV_RI,
    MOV_RR, MUL, NOP, OR, RET, SHL, SHR, STORE, SUB, SWITCH, WORK, XOR,
)
from repro.isa.registers import ESP

from .cost_model import DEFAULT_COST_MODEL, CostModel
from .interpreter import DEFAULT_MAX_STEPS, ExecutionLimitExceeded
from .state import MachineState

_U64_MASK = (1 << 64) - 1


class ReferenceInterpreter:
    """The tuple-dispatch interpreter (pre-compilation implementation)."""

    def __init__(
        self,
        program: Program,
        memsys,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        stream=None,
    ) -> None:
        if not program.finalized:
            raise ValueError("program must be finalized")
        self.program = program
        self.memsys = memsys
        self.cost_model = cost_model
        #: optional :class:`repro.stream.RefStream` receiving every raw
        #: reference (batched); ``None`` keeps the hot path bare.
        self.stream = stream
        self.state = MachineState(program)
        # Instrumentation context (managed by the UMI runtime).
        self.profile_cols: Optional[Dict[int, int]] = None
        self.profile_row: Optional[List[Optional[int]]] = None
        self.prefetch_map: Optional[Dict[int, int]] = None
        # Opcode of the terminator of the most recently executed block;
        # the runtime uses it to decide dispatch costs.
        self.last_terminator_op: int = HALT
        # Per-block decoded tuple lists, built lazily on first execution.
        self._decoded: Dict[str, tuple] = {}
        # Per-trace decoded block lists, keyed by trace head.
        self._trace_decoded: Dict[str, tuple] = {}
        # Instruction fetch modelling: only when the memory system has an
        # instruction cache (FlatMemory and bare caches do not).
        self._models_ifetch = bool(getattr(memsys, "models_ifetch", False))
        self._profiled_op_cost = cost_model.profiled_op_cost
        self._sw_prefetch_issue_cost = cost_model.sw_prefetch_issue_cost

    # -- decoding --------------------------------------------------------------

    def _decode_block(self, label: str) -> tuple:
        """Flatten one block into dispatch tuples (cached per label)."""
        model = self.cost_model
        block = self.program.blocks[label]
        ops = []
        for ins in block.instructions:
            op = ins.op
            cost = model.instruction_cost(op, ins.aluop)
            if op == LOAD:
                m = ins.mem
                ops.append((op, cost, ins.pc, ins.dst, ins.size,
                            m.base, m.index, m.scale, m.disp))
            elif op == STORE:
                m = ins.mem
                ops.append((op, cost, ins.pc, ins.src, ins.imm, ins.size,
                            m.base, m.index, m.scale, m.disp))
            elif op == ALU_RI:
                ops.append((op, cost, ins.aluop, ins.dst, ins.imm))
            elif op == ALU_RR:
                ops.append((op, cost, ins.aluop, ins.dst, ins.src))
            elif op == CMP_RI:
                ops.append((op, cost, ins.dst, ins.imm))
            elif op == CMP_RR:
                ops.append((op, cost, ins.dst, ins.src))
            elif op == JCC:
                ops.append((op, cost, ins.cc, ins.target, ins.fallthrough))
            elif op == MOV_RI:
                ops.append((op, cost, ins.dst, ins.imm & _U64_MASK))
            elif op == MOV_RR:
                ops.append((op, cost, ins.dst, ins.src))
            elif op == LEA:
                m = ins.mem
                ops.append((op, cost, ins.dst,
                            m.base, m.index, m.scale, m.disp))
            elif op == WORK:
                # The WORK payload is a fixed extra charge; fold it into
                # the base cost at decode time.
                ops.append((op, cost + ins.imm))
            elif op == JMP:
                ops.append((op, cost, ins.target))
            elif op == SWITCH:
                ops.append((op, cost, ins.src, ins.targets))
            elif op == CALL:
                ops.append((op, cost, ins.pc, ins.target, ins.fallthrough))
            elif op == RET:
                ops.append((op, cost, ins.pc))
            elif op == NOP or op == HALT:
                ops.append((op, cost))
            else:
                # Defer the failure to execution time, matching the
                # undecoded interpreter's behaviour for dead code.
                ops.append((op, cost, ins.pc))
        lines = None
        if self._models_ifetch:
            first = block.base_pc >> 6
            last = (block.base_pc + 4 * len(block.instructions) - 1) >> 6
            lines = tuple(range(first, last + 1))
        entry = (tuple(ops), lines)
        self._decoded[label] = entry
        return entry

    def decoded_block(self, label: str) -> tuple:
        """The block's ``(dispatch tuples, code lines)`` entry."""
        entry = self._decoded.get(label)
        if entry is None:
            entry = self._decode_block(label)
        return entry

    def trace_decoded(self, head: str, block_labels) -> tuple:
        """Decoded entries for a whole trace, cached by trace head.

        ``block_labels`` is compared by identity so a rebuilt trace that
        reuses a head (with a different label tuple) re-decodes.
        """
        cached = self._trace_decoded.get(head)
        if cached is not None and cached[0] is block_labels:
            return cached[1]
        entries = tuple(self.decoded_block(l) for l in block_labels)
        self._trace_decoded[head] = (block_labels, entries)
        return entries

    # -- execution --------------------------------------------------------------

    def execute_block(self, label: str) -> Optional[str]:
        """Execute the block named ``label``; return the next label.

        Returns ``None`` when the program halts (``HALT``, or ``RET``
        with an empty call stack).  All cycle costs (instruction base
        cost + memory latency + any software-prefetch issue cost) are
        charged to the machine state.
        """
        entry = self._decoded.get(label)
        if entry is None:
            entry = self._decode_block(label)
        return self.execute_decoded(entry)

    def execute_decoded(self, entry: tuple) -> Optional[str]:
        """Execute one pre-decoded block entry (see :meth:`decoded_block`)."""
        state = self.state
        regs = state.regs
        memory = state.memory
        memsys = self.memsys
        access = memsys.access
        stream = self.stream
        if stream is not None:
            # The stream's column buffers are stable list objects, so
            # the bound appends stay valid across drains.
            s_pcs = stream.pcs
            emit_pc = s_pcs.append
            emit_addr = stream.addrs.append
            emit_size = stream.sizes.append
            emit_kind = stream.kinds.append
            emit_cycle = stream.cycles.append
            s_limit = stream.batch_size
            s_drain = stream.drain
        else:
            emit_pc = None
        profile_cols = self.profile_cols
        profile_row = self.profile_row
        prefetch_map = self.prefetch_map
        profiled_op_cost = self._profiled_op_cost
        cycles = state.cycles
        flags = state.flags
        steps = 0
        next_label: Optional[str] = None

        ops, lines = entry
        if lines is not None:
            if emit_pc is not None and stream.wants_ifetch:
                for line_addr in lines:
                    emit_pc(0)
                    emit_addr(line_addr << 6)
                    emit_size(64)
                    emit_kind(2)
                    emit_cycle(cycles)
                if len(s_pcs) >= s_limit:
                    s_drain()
            cycles += memsys.fetch(lines, cycles)

        for t in ops:
            op = t[0]
            steps += 1
            cycles += t[1]

            if op == LOAD:
                base = t[5]
                index = t[6]
                addr = t[8]
                if base is not None:
                    addr += regs[base]
                if index is not None:
                    addr += regs[index] * t[7]
                pc = t[2]
                if emit_pc is not None:
                    # Pre-access cycle count: the exact `now` the
                    # hierarchy sees, so consumers can replay exactly.
                    emit_pc(pc)
                    emit_addr(addr)
                    emit_size(t[4])
                    emit_kind(0)
                    emit_cycle(cycles)
                    if len(s_pcs) >= s_limit:
                        s_drain()
                cycles += access(pc, addr, False, t[4], cycles)
                regs[t[3]] = memory.get(addr, 0)
                if profile_cols is not None:
                    col = profile_cols.get(pc)
                    if col is not None:
                        profile_row[col] = addr
                        cycles += profiled_op_cost
                if prefetch_map is not None:
                    delta = prefetch_map.get(pc)
                    if delta is not None:
                        memsys.software_prefetch(addr + delta, cycles)
                        cycles += self._sw_prefetch_issue_cost
                continue

            if op == STORE:
                base = t[6]
                index = t[7]
                addr = t[9]
                if base is not None:
                    addr += regs[base]
                if index is not None:
                    addr += regs[index] * t[8]
                pc = t[2]
                if emit_pc is not None:
                    emit_pc(pc)
                    emit_addr(addr)
                    emit_size(t[5])
                    emit_kind(1)
                    emit_cycle(cycles)
                    if len(s_pcs) >= s_limit:
                        s_drain()
                cycles += access(pc, addr, True, t[5], cycles)
                src = t[3]
                memory[addr] = regs[src] if src is not None else t[4]
                if profile_cols is not None:
                    col = profile_cols.get(pc)
                    if col is not None:
                        profile_row[col] = addr
                        cycles += profiled_op_cost
                continue

            if op == ALU_RI or op == ALU_RR:
                operand = t[4] if op == ALU_RI else regs[t[4]]
                aluop = t[2]
                dst = t[3]
                value = regs[dst]
                if aluop == ADD:
                    value += operand
                elif aluop == SUB:
                    value -= operand
                elif aluop == MUL:
                    value *= operand
                elif aluop == AND:
                    value &= operand
                elif aluop == OR:
                    value |= operand
                elif aluop == XOR:
                    value ^= operand
                elif aluop == SHL:
                    value <<= operand & 63
                elif aluop == SHR:
                    value = (value & _U64_MASK) >> (operand & 63)
                elif aluop == MOD:
                    value %= operand if operand else 1
                else:  # DIV
                    value //= operand if operand else 1
                regs[dst] = value & _U64_MASK
                continue

            if op == CMP_RI:
                flags = regs[t[2]] - t[3]
                continue
            if op == CMP_RR:
                flags = regs[t[2]] - regs[t[3]]
                continue

            if op == JCC:
                cc = t[2]
                if cc == CC_EQ:
                    taken = flags == 0
                elif cc == CC_NE:
                    taken = flags != 0
                elif cc == CC_LT:
                    taken = flags < 0
                elif cc == CC_LE:
                    taken = flags <= 0
                elif cc == CC_GT:
                    taken = flags > 0
                else:  # CC_GE
                    taken = flags >= 0
                next_label = t[3] if taken else t[4]
                break

            if op == MOV_RI:
                regs[t[2]] = t[3]
                continue
            if op == MOV_RR:
                regs[t[2]] = regs[t[3]]
                continue

            if op == LEA:
                base = t[3]
                index = t[4]
                addr = t[6]
                if base is not None:
                    addr += regs[base]
                if index is not None:
                    addr += regs[index] * t[5]
                regs[t[2]] = addr & _U64_MASK
                continue

            if op == WORK:
                continue

            if op == JMP:
                next_label = t[2]
                break

            if op == SWITCH:
                targets = t[3]
                next_label = targets[regs[t[2]] % len(targets)]
                break

            if op == CALL:
                regs[ESP] -= 8
                addr = regs[ESP]
                pc = t[2]
                if emit_pc is not None:
                    emit_pc(pc)
                    emit_addr(addr)
                    emit_size(8)
                    emit_kind(1)
                    emit_cycle(cycles)
                    if len(s_pcs) >= s_limit:
                        s_drain()
                cycles += access(pc, addr, True, 8, cycles)
                memory[addr] = 0
                state.call_stack.append(t[4])
                next_label = t[3]
                break

            if op == RET:
                addr = regs[ESP]
                pc = t[2]
                if emit_pc is not None:
                    emit_pc(pc)
                    emit_addr(addr)
                    emit_size(8)
                    emit_kind(0)
                    emit_cycle(cycles)
                    if len(s_pcs) >= s_limit:
                        s_drain()
                cycles += access(pc, addr, False, 8, cycles)
                regs[ESP] += 8
                if state.call_stack:
                    next_label = state.call_stack.pop()
                else:
                    next_label = None
                    state.halted = True
                break

            if op == NOP:
                continue

            if op == HALT:
                next_label = None
                state.halted = True
                break

            raise ValueError(f"unknown opcode {op} at pc {t[2]:#x}")

        state.cycles = cycles
        state.flags = flags
        state.steps += steps
        self.last_terminator_op = op
        return next_label

    # -- the production interpreter's execution interface ----------------------

    @property
    def context(self) -> "ReferenceInterpreter":
        """The instrumentation context: this interpreter's own fields."""
        return self

    def bind_lanes(self) -> None:
        """No inline hit lanes: every reference goes through
        ``access``/``fetch``."""

    def block_function(self, label: str):
        """A zero-argument callable executing block ``label``."""
        entry = self.decoded_block(label)
        return lambda: self.execute_decoded(entry)

    def run_native(self, max_steps: int = DEFAULT_MAX_STEPS) -> MachineState:
        """Run the whole program natively (no runtime system overhead)."""
        label: Optional[str] = self.program.entry
        state = self.state
        limit = max_steps
        while label is not None:
            label = self.execute_block(label)
            if state.steps > limit:
                raise ExecutionLimitExceeded(
                    f"{self.program.name}: exceeded {max_steps} dynamic "
                    f"instructions"
                )
        return state
