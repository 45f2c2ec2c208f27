"""The block compiler: decoded basic blocks to straight-line Python.

:func:`compile_block` turns one basic block into the code object of a
zero-argument function that executes the block and returns the next
label.  The block is first decoded into a hashable value
(:func:`decode_block`); each value is compiled once per process per
block label and cached, so the many interpreters a sweep builds for
the same program share every code object.  The code is named after the
label, so a profiler shows each block as its own row.  The generated
source embeds constants only through ``repr`` of ints, ``None`` and
labels, and has no opcode dispatch:

* operands are literals;
* the base costs of the instructions between two memory accesses are
  summed into one ``c += k`` placed before the access, so every access,
  stream event and software prefetch sees the exact pre-access cycle
  count;
* the step count is a per-block constant, because a finalized block
  ends in exactly one terminator;
* an unknown opcode compiles to a ``raise`` at its instruction, so dead
  code never fails.

The code runs against globals that :class:`repro.vm.interpreter.
Interpreter` binds per interpreter: ``S`` (machine state), ``R``
(registers), ``M``/``MG`` (memory and its ``get``), ``CS`` (call
stack), ``X`` (instrumentation context), ``A``/``F`` (the memory
system's ``access``/``fetch``), ``PR``/``PF`` (profile-row and
software-prefetch helpers), and for the reference stream ``E`` plus
the column appends ``EP``/``EA``/``ES``/``EK``/``EC``, ``EL`` (the pc
column), ``LIM``, ``DR`` (drain) and ``FE`` (instruction-fetch events).
``EP`` is ``None`` when the interpreter has no stream.

Every memory-access site (LOAD, STORE, CALL's push, RET's pop) and
every block fetching one or two code lines has an inline **L1 hit
lane**, which retires an L1 hit on the cache's columns with exactly the
effects of ``access``/``fetch``
(:meth:`repro.memory.MemoryHierarchy.hit_lanes`).  Its globals, bound
by :meth:`~repro.vm.interpreter.Interpreter.bind_lanes` when a run
starts:

* data lane: ``DC`` (truthy while the lane is closed: the line
  stream's consumer list, or ``True``), ``DW`` (the L1D's
  ``line -> slot`` lookup), ``DS`` (its stats), ``DT``/``DM``/``DD``
  (its stamp, MRU and dirty columns), ``DL`` (its hit latency) and
  ``DX`` (the hierarchy's one miss routine, ``_miss``).  A site whose
  access fits in one 64-byte line (``(a & 63) <= 64 - size``) probes
  ``DW`` once: a hit retires inline, a miss calls ``DX``.  A straddle,
  or a closed lane, calls ``A``.
* instruction lane: ``IW``/``IS``/``IT``/``IM`` (the L1I's lookup,
  stats, stamp and MRU columns).  A fetch whose lines all hit retires
  inline and adds no latency; any miss calls ``F``, which re-does the
  whole fetch.  A closed lane's ``IW`` finds nothing.

The lanes cost one code shape for every interpreter: a closed lane is
a binding, not a compile variant.
"""

from __future__ import annotations

import builtins
import threading
from types import CodeType
from typing import Dict

from repro.isa.instructions import (
    ADD, ALU_RI, ALU_RR, AND, CALL, CC_EQ, CC_GT, CC_LE, CC_LT, CC_NE,
    CMP_RI, CMP_RR, HALT, JCC, JMP, LEA, LOAD, MOD, MOV_RI, MOV_RR, MUL,
    NOP, OR, RET, SHL, SHR, STORE, SUB, SWITCH, TERMINATORS, WORK, XOR,
)
from repro.isa.registers import ESP

from .cost_model import CostModel

_U64_MASK = (1 << 64) - 1


# -- decoding -------------------------------------------------------------------

def decode_block(block, cost_model: CostModel, models_ifetch: bool) -> tuple:
    """A block's ``(instruction tuples, code lines)`` value.

    Each instruction becomes a tuple of its opcode, pre-resolved base
    cost and operand fields; ``code lines`` is ``None`` unless the
    memory system has an instruction cache.  The value is hashable and
    is the key of the process-wide code cache.
    """
    ops = []
    for ins in block.instructions:
        op = ins.op
        cost = cost_model.instruction_cost(op, ins.aluop)
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
            ops.append((op, cost, ins.dst, m.base, m.index, m.scale, m.disp))
        elif op == WORK:
            # The WORK payload is a fixed extra charge.
            ops.append((op, cost + ins.imm))
        elif op == JMP:
            ops.append((op, cost, ins.target))
        elif op == SWITCH:
            ops.append((op, cost, ins.src, tuple(ins.targets)))
        elif op == CALL:
            ops.append((op, cost, ins.pc, ins.target, ins.fallthrough))
        elif op == RET:
            ops.append((op, cost, ins.pc))
        elif op == NOP or op == HALT:
            ops.append((op, cost))
        else:
            # Compiled to a raise at this instruction, so dead code
            # holding an unknown opcode never fails.
            ops.append((op, cost, ins.pc))
    lines = None
    if models_ifetch:
        first = block.base_pc >> 6
        last = (block.base_pc + 4 * len(block.instructions) - 1) >> 6
        lines = tuple(range(first, last + 1))
    return tuple(ops), lines


# -- compilation ------------------------------------------------------------------

_ALU_OPERATORS = {ADD: "+", SUB: "-", MUL: "*", AND: "&", OR: "|", XOR: "^"}
_CC_OPERATORS = {CC_EQ: "==", CC_NE: "!=", CC_LT: "<", CC_LE: "<=",
                 CC_GT: ">"}  # anything else is CC_GE

#: Decoded block value extended by the block's label -> compiled code
#: object named after the label, shared by every interpreter in the
#: process.  The label is part of the key so that binding a block stays
#: one probe; it extends the value rather than wrapping it, so a key
#: costs no extra tuple.
_CODE_CACHE: Dict[tuple, CodeType] = {}

#: Entries kept before the oldest is dropped.  An entry with its key
#: takes about 5 KB (5.1 KB over the 1,088 blocks of the paper programs
#: at scale 0.1, with the L1 hit lanes, measured with tracemalloc);
#: the paper wavefront compiles ~1,400 distinct blocks, and a sweep
#: over the whole catalog would otherwise keep tens of MB alive in a
#: long-lived worker.
CODE_CACHE_LIMIT = 4096

# Serializes insertion and eviction; lookups need no lock.
_CODE_CACHE_LOCK = threading.Lock()


def _lit(value) -> str:
    """Source for a constant: an int, ``None``, a label, or a tuple of
    labels (switch targets) or of ints (code lines)."""
    if value is None or type(value) is int:
        return f"({value!r})"
    if type(value) is str or (type(value) is tuple and (
            all(type(v) is str for v in value)
            or all(type(v) is int for v in value))):
        return repr(value)
    raise TypeError(f"cannot compile operand {value!r}")


def _reg(number) -> str:
    return f"R[{_lit(number)}]"


def _address(base, index, scale, disp) -> str:
    terms = []
    if base is not None:
        terms.append(_reg(base))
    if index is not None:
        terms.append(_reg(index) if scale == 1
                     else f"{_reg(index)} * {_lit(scale)}")
    if disp or not terms:
        terms.append(_lit(disp))
    return " + ".join(terms)


def _alu(aluop: int, dst, src, imm) -> str:
    """``dst <aluop> operand``, masked; the operand is ``imm`` when
    ``src`` is ``None`` (ALU_RI), else register ``src``."""
    value = _reg(dst)
    reg = src is not None
    if aluop in _ALU_OPERATORS:
        operand = _reg(src) if reg else _lit(imm)
        return f"({value} {_ALU_OPERATORS[aluop]} {operand}) & {_U64_MASK}"
    if aluop == SHL or aluop == SHR:
        shift = f"({_reg(src)} & 63)" if reg else _lit(imm & 63)
        if aluop == SHL:
            return f"({value} << {shift}) & {_U64_MASK}"
        return f"({value} & {_U64_MASK}) >> {shift}"
    operand = f"({_reg(src)} or 1)" if reg else _lit(imm if imm else 1)
    div = "%" if aluop == MOD else "//"  # anything else is DIV
    return f"({value} {div} {operand}) & {_U64_MASK}"


def _block_source(ops: tuple, lines) -> str:
    """Straight-line Python for one decoded block.

    Names are the per-interpreter globals (see the module docstring);
    ``c`` is the running cycle count,
    ``f`` the flags, ``a`` the current effective address, ``s`` and
    ``t`` the L1 slots a hit lane probed.
    """
    out = ["def block():"]

    def w(line: str, depth: int = 1) -> None:
        out.append("    " * depth + line)

    def emit(pc, size, kind) -> None:
        w("if EP is not None:")
        for line in (f"EP({_lit(pc)})", "EA(a)", f"ES({_lit(size)})",
                     f"EK({kind})", "EC(c)", "if len(EL) >= LIM: DR()"):
            w(line, 2)

    def access(pc, size, write: bool) -> None:
        """The L1D lane at one access site: a one-line L1 hit retires
        inline, a one-line miss goes straight to ``DX``, and a straddle
        (or a closed lane) calls ``A``."""
        kind = "writes" if write else "reads"
        w(f"if DC or (a & 63) > {64 - size}:")
        w(f"c += A({_lit(pc)}, a, {write}, {_lit(size)}, c)", 2)
        w("else:")
        w("s = DW(a >> 6)", 2)
        w("if s is None:", 2)
        w(f"c += DX({_lit(pc)}, a >> 6, {write}, c)", 3)
        w("else:", 2)
        for line in (f"DS.{kind} += 1",
                     *(("DD[s] = True",) if write else ()),
                     "DT[s] = c", "DM[s] = True", "c += DL"):
            w(line, 3)

    pending = 0
    flags_local = False

    def flush() -> None:
        nonlocal pending
        if pending:
            w(f"c += {pending}")
            pending = 0

    def epilogue(op: int, steps: int) -> None:
        if has_c:
            w(f"S.cycles = c + {pending}" if pending else "S.cycles = c")
        elif pending:
            w(f"S.cycles += {pending}")
        if flags_local:
            w("S.flags = f")
        w(f"S.steps += {steps}")
        w(f"X.last_terminator_op = {op}")

    body_ops = []
    for t in ops:
        body_ops.append(t)
        if t[0] in TERMINATORS:
            break
    opcodes = {t[0] for t in body_ops}
    has_c = lines is not None or bool(opcodes & {LOAD, STORE, CALL, RET})
    if has_c:
        w("c = S.cycles")
    if opcodes & {LOAD, STORE}:
        w("P = X.profile_cols")
    if LOAD in opcodes:
        w("Q = X.prefetch_map")
    if lines is not None:
        w(f"if EP is not None and E.wants_ifetch: FE({_lit(lines)}, c)")
        if len(lines) > 2:
            w(f"c += F({_lit(lines)}, c)")
        else:
            # The L1I lane: hits add no latency; any miss re-does the
            # whole fetch through F.
            slots = ("s", "t")[:len(lines)]
            for slot, line in zip(slots, lines):
                w(f"{slot} = IW({_lit(line)})")
            w(f"if {' or '.join(f'{x} is None' for x in slots)}:")
            w(f"c += F({_lit(lines)}, c)", 2)
            w("else:")
            w(f"IS.reads += {len(lines)}", 2)
            for slot in slots:
                w(f"IT[{slot}] = c", 2)
                w(f"IM[{slot}] = True", 2)

    for steps, t in enumerate(body_ops, 1):
        op = t[0]
        pending += t[1]
        if op == LOAD:
            _, _, pc, dst, size, base, index, scale, disp = t
            w(f"a = {_address(base, index, scale, disp)}")
            flush()
            emit(pc, size, 0)
            access(pc, size, False)
            w(f"{_reg(dst)} = MG(a, 0)")
            w(f"if P is not None: c += PR(P, {_lit(pc)}, a)")
            w(f"if Q is not None: c += PF(Q, {_lit(pc)}, a, c)")
        elif op == STORE:
            _, _, pc, src, imm, size, base, index, scale, disp = t
            w(f"a = {_address(base, index, scale, disp)}")
            flush()
            emit(pc, size, 1)
            access(pc, size, True)
            w(f"M[a] = {_reg(src) if src is not None else _lit(imm)}")
            w(f"if P is not None: c += PR(P, {_lit(pc)}, a)")
        elif op == ALU_RI:
            w(f"{_reg(t[3])} = {_alu(t[2], t[3], None, t[4])}")
        elif op == ALU_RR:
            w(f"{_reg(t[3])} = {_alu(t[2], t[3], t[4], None)}")
        elif op == CMP_RI:
            w(f"f = {_reg(t[2])} - {_lit(t[3])}")
            flags_local = True
        elif op == CMP_RR:
            w(f"f = {_reg(t[2])} - {_reg(t[3])}")
            flags_local = True
        elif op == MOV_RI:
            w(f"{_reg(t[2])} = {_lit(t[3])}")
        elif op == MOV_RR:
            w(f"{_reg(t[2])} = {_reg(t[3])}")
        elif op == LEA:
            w(f"{_reg(t[2])} = ({_address(*t[3:])}) & {_U64_MASK}")
        elif op == WORK or op == NOP:
            pass
        elif op == JCC:
            _, _, cc, target, fallthrough = t
            epilogue(op, steps)
            flags = "f" if flags_local else "S.flags"
            w(f"return {_lit(target)} if {flags} "
              f"{_CC_OPERATORS.get(cc, '>=')} 0 else {_lit(fallthrough)}")
            break
        elif op == JMP:
            epilogue(op, steps)
            w(f"return {_lit(t[2])}")
            break
        elif op == SWITCH:
            _, _, src, targets = t
            w(f"n = {_lit(targets)}[{_reg(src)} % {len(targets)}]")
            epilogue(op, steps)
            w("return n")
            break
        elif op == CALL:
            _, _, pc, target, fallthrough = t
            w(f"a = R[{ESP}] - 8")
            w(f"R[{ESP}] = a")
            flush()
            emit(pc, 8, 1)
            access(pc, 8, True)
            w("M[a] = 0")
            w(f"CS.append({_lit(fallthrough)})")
            epilogue(op, steps)
            w(f"return {_lit(target)}")
            break
        elif op == RET:
            w(f"a = R[{ESP}]")
            flush()
            emit(t[2], 8, 0)
            access(t[2], 8, False)
            w(f"R[{ESP}] += 8")
            epilogue(op, steps)
            w("if CS:")
            w("return CS.pop()", 2)
            w("S.halted = True")
            w("return None")
            break
        elif op == HALT:
            epilogue(op, steps)
            w("S.halted = True")
            w("return None")
            break
        else:
            message = f"unknown opcode {op} at pc {t[2]:#x}"
            w(f"raise ValueError({message!r})")
            break
    else:
        # A block edited after finalization can lack a terminator: run
        # off its end as the reference loop does.
        epilogue(body_ops[-1][0], len(body_ops))
        w("return None")
    return "\n".join(out) + "\n"


def compile_block(block, cost_model: CostModel,
                  models_ifetch: bool) -> CodeType:
    """The code object of one basic block, named after its label
    (cached per process)."""
    decoded = decode_block(block, cost_model, models_ifetch)
    key = (*decoded, block.label)
    code = _CODE_CACHE.get(key)
    if code is None:
        namespace: dict = {}
        exec(compile(_block_source(*decoded), "<compiled block>", "exec"),
             {"__builtins__": builtins}, namespace)
        code = namespace["block"].__code__.replace(co_name=block.label)
        with _CODE_CACHE_LOCK:
            if len(_CODE_CACHE) >= CODE_CACHE_LIMIT:
                del _CODE_CACHE[next(iter(_CODE_CACHE))]
            _CODE_CACHE[key] = code
    return code
