"""The block compiler: decoded basic blocks to straight-line Python.

:func:`compile_block` builds the code object of a zero-argument function
that executes one basic block and returns the next label: it decodes
the block (:func:`decode_block`), fills its shape's template and names
the result after the block (``co_name``) and its program
(``co_filename`` ``<program name>``), so a profiler shows each block
of each program as its own row.  It keeps nothing; each program keeps
its own code (:class:`repro.vm.interpreter.Interpreter`).

Code objects are built from **templates**, one per block shape.
:func:`_block_source` writes a block's source with every operand --
register, immediate, pc, access size, label, code line, summed cost,
step count -- as a numbered placeholder constant, so blocks that differ
only in operands share one text.  Each distinct text is compiled once
(``vm.templates_compiled``) and cached with the ``co_consts`` slot of
each placeholder; a block's code object is its template with the
placeholders in ``co_consts`` replaced by its operands
(``vm.block_compiles``), which runs exactly as a compile of the
block's own source would.  That holds because every placeholder stays one
``LOAD_CONST``: no placeholder stands in a constant expression the
compiler would fold (a register-free LEA emits its masked address as
one constant), each has its operand's type, so the compiler warns
about nothing it would not warn about for the operand, and a template
missing a placeholder from ``co_consts`` raises.  The source has no
opcode dispatch:

* operands are constants;
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

import threading
from time import perf_counter
from types import CodeType
from typing import Dict, Tuple

from repro.isa.instructions import (
    ADD, ALU_RI, ALU_RR, AND, CALL, CC_EQ, CC_GT, CC_LE, CC_LT, CC_NE,
    CMP_RI, CMP_RR, HALT, JCC, JMP, LEA, LOAD, MOD, MOV_RI, MOV_RR, MUL,
    NOP, OR, RET, SHL, SHR, STORE, SUB, SWITCH, TERMINATORS, WORK, XOR,
)
from repro.isa.registers import ESP
from repro.telemetry import get_telemetry

from .cost_model import CostModel

_U64_MASK = (1 << 64) - 1


# -- decoding -------------------------------------------------------------------

def decode_block(block, cost_model: CostModel, models_ifetch: bool) -> tuple:
    """A block's ``(instruction tuples, code lines)`` value.

    Each instruction becomes a tuple of its opcode, pre-resolved base
    cost and operand fields; ``code lines`` is ``None`` unless the
    memory system has an instruction cache.
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

#: Template text -> (template code object, the ``co_consts`` index of
#: each placeholder).  Blocks of one shape share an entry.
_TEMPLATES: Dict[str, Tuple[CodeType, Tuple[int, ...]]] = {}

#: Templates kept before the oldest is dropped.  The paper wavefront's
#: ~1,500 code objects come from 59 templates.
TEMPLATE_CACHE_LIMIT = 512

# Serializes template insertion and eviction; lookups need no lock.
_TEMPLATE_LOCK = threading.Lock()

#: Int placeholder ``n`` is ``_INT_HOLE + n``: above every mask, cost
#: and small int a template holds, so it collides with no constant.
_INT_HOLE = 1 << 80


def _hole(n: int, value):
    """Placeholder ``n`` of a template, standing for operand ``value``:
    an int, ``None``, a label, or a tuple of labels (switch targets) or
    of ints (code lines).  It has the value's type (``None`` takes a
    label's), so the template compiles, and warns, as the value would
    where it stands."""
    if type(value) is int:
        return _INT_HOLE + n
    if value is None or type(value) is str:
        return f"\0{n}"
    if type(value) is tuple and (all(type(v) is str for v in value)
                                 or all(type(v) is int for v in value)):
        return (f"\0{n}",)
    raise TypeError(f"cannot compile operand {value!r}")


def _address(lit, base, index, scale, disp) -> str:
    terms = []
    if base is not None:
        terms.append(f"R[{lit(base)}]")
    if index is not None:
        terms.append(f"R[{lit(index)}]" if scale == 1
                     else f"R[{lit(index)}] * {lit(scale)}")
    if disp or not terms:
        terms.append(lit(disp))
    return " + ".join(terms)


def _alu(lit, aluop: int, dst, src, imm) -> str:
    """``dst <aluop> operand``, masked; the operand is ``imm`` when
    ``src`` is ``None`` (ALU_RI), else register ``src``."""
    value = f"R[{lit(dst)}]"
    reg = src is not None
    if aluop in _ALU_OPERATORS:
        operand = f"R[{lit(src)}]" if reg else lit(imm)
        return f"({value} {_ALU_OPERATORS[aluop]} {operand}) & {_U64_MASK}"
    if aluop == SHL or aluop == SHR:
        shift = f"(R[{lit(src)}] & 63)" if reg else lit(imm & 63)
        if aluop == SHL:
            return f"({value} << {shift}) & {_U64_MASK}"
        return f"({value} & {_U64_MASK}) >> {shift}"
    operand = f"(R[{lit(src)}] or 1)" if reg else lit(imm if imm else 1)
    div = "%" if aluop == MOD else "//"  # anything else is DIV
    return f"({value} {div} {operand}) & {_U64_MASK}"


def _block_source(ops: tuple, lines) -> Tuple[str, list]:
    """Straight-line Python for one decoded block, as ``(template text,
    operand values)``.

    Every operand -- register, immediate, pc, size, label, code line,
    summed cost, step count -- is a numbered placeholder constant in
    the text (:func:`_hole`) and its value sits at that number in the
    list, so blocks of one shape share one text.  No placeholder
    stands in a constant expression the compiler would fold.
    Names are the per-interpreter globals (see the module docstring);
    ``c`` is the running cycle count,
    ``f`` the flags, ``a`` the current effective address, ``s`` and
    ``t`` the L1 slots a hit lane probed.
    """
    out = ["def block():"]
    values: list = []

    def lit(value) -> str:
        text = repr(_hole(len(values), value))
        values.append(value)
        return text

    def reg(number) -> str:
        return f"R[{lit(number)}]"

    def w(line: str, depth: int = 1) -> None:
        out.append("    " * depth + line)

    def emit(pc, size, kind) -> None:
        w("if EP is not None:")
        for line in (f"EP({lit(pc)})", "EA(a)", f"ES({lit(size)})",
                     f"EK({kind})", "EC(c)", "if len(EL) >= LIM: DR()"):
            w(line, 2)

    def access(pc, size, write: bool) -> None:
        """The L1D lane at one access site: a one-line L1 hit retires
        inline, a one-line miss goes straight to ``DX``, and a straddle
        (or a closed lane) calls ``A``."""
        kind = "writes" if write else "reads"
        w(f"if DC or (a & 63) > {lit(64 - size)}:")
        w(f"c += A({lit(pc)}, a, {write}, {lit(size)}, c)", 2)
        w("else:")
        w("s = DW(a >> 6)", 2)
        w("if s is None:", 2)
        w(f"c += DX({lit(pc)}, a >> 6, {write}, c)", 3)
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
            w(f"c += {lit(pending)}")
            pending = 0

    def epilogue(op: int, steps: int) -> None:
        if has_c:
            w(f"S.cycles = c + {lit(pending)}" if pending
              else "S.cycles = c")
        elif pending:
            w(f"S.cycles += {lit(pending)}")
        if flags_local:
            w("S.flags = f")
        w(f"S.steps += {lit(steps)}")
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
        w(f"if EP is not None and E.wants_ifetch: FE({lit(lines)}, c)")
        if len(lines) > 2:
            w(f"c += F({lit(lines)}, c)")
        else:
            # The L1I lane: hits add no latency; any miss re-does the
            # whole fetch through F.
            slots = ("s", "t")[:len(lines)]
            for slot, line in zip(slots, lines):
                w(f"{slot} = IW({lit(line)})")
            w(f"if {' or '.join(f'{x} is None' for x in slots)}:")
            w(f"c += F({lit(lines)}, c)", 2)
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
            w(f"a = {_address(lit, base, index, scale, disp)}")
            flush()
            emit(pc, size, 0)
            access(pc, size, False)
            w(f"{reg(dst)} = MG(a, 0)")
            w(f"if P is not None: c += PR(P, {lit(pc)}, a)")
            w(f"if Q is not None: c += PF(Q, {lit(pc)}, a, c)")
        elif op == STORE:
            _, _, pc, src, imm, size, base, index, scale, disp = t
            w(f"a = {_address(lit, base, index, scale, disp)}")
            flush()
            emit(pc, size, 1)
            access(pc, size, True)
            w(f"M[a] = {reg(src) if src is not None else lit(imm)}")
            w(f"if P is not None: c += PR(P, {lit(pc)}, a)")
        elif op == ALU_RI:
            w(f"{reg(t[3])} = {_alu(lit, t[2], t[3], None, t[4])}")
        elif op == ALU_RR:
            w(f"{reg(t[3])} = {_alu(lit, t[2], t[3], t[4], None)}")
        elif op == CMP_RI:
            w(f"f = {reg(t[2])} - {lit(t[3])}")
            flags_local = True
        elif op == CMP_RR:
            w(f"f = {reg(t[2])} - {reg(t[3])}")
            flags_local = True
        elif op == MOV_RI:
            w(f"{reg(t[2])} = {lit(t[3])}")
        elif op == MOV_RR:
            w(f"{reg(t[2])} = {reg(t[3])}")
        elif op == LEA:
            _, _, dst, base, index, scale, disp = t
            if base is None and index is None:
                # One literal: ``(disp) & mask`` would be folded.
                w(f"{reg(dst)} = {lit(disp & _U64_MASK)}")
            else:
                w(f"{reg(dst)} = "
                  f"({_address(lit, base, index, scale, disp)})"
                  f" & {_U64_MASK}")
        elif op == WORK or op == NOP:
            pass
        elif op == JCC:
            _, _, cc, target, fallthrough = t
            epilogue(op, steps)
            flags = "f" if flags_local else "S.flags"
            w(f"return {lit(target)} if {flags} "
              f"{_CC_OPERATORS.get(cc, '>=')} 0 else {lit(fallthrough)}")
            break
        elif op == JMP:
            epilogue(op, steps)
            w(f"return {lit(t[2])}")
            break
        elif op == SWITCH:
            _, _, src, targets = t
            w(f"n = {lit(targets)}[{reg(src)} % {lit(len(targets))}]")
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
            w(f"CS.append({lit(fallthrough)})")
            epilogue(op, steps)
            w(f"return {lit(target)}")
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
            w(f"raise ValueError("
              f"{lit(f'unknown opcode {op} at pc {t[2]:#x}')})")
            break
    else:
        # A block edited after finalization can lack a terminator: run
        # off its end as the reference loop does.
        epilogue(body_ops[-1][0], len(body_ops))
        w("return None")
    return "\n".join(out) + "\n", values


def _hole_slots(text: str, code: CodeType, values: list) -> Tuple[int, ...]:
    """The ``co_consts`` index of each placeholder of a template.

    Raises when a placeholder is not in ``co_consts`` exactly once: the
    compiler folded it into another constant, so no substitution could
    give that block its operands.
    """
    holes = {_hole(n, value): n for n, value in enumerate(values)}
    found: list = [[] for _ in values]
    for slot, const in enumerate(code.co_consts):
        n = holes.get(const)
        if n is not None:
            found[n].append(slot)
    lost = [n for n, slots in enumerate(found) if len(slots) != 1]
    if lost:
        raise RuntimeError(
            f"block template has placeholders {lost} not exactly once "
            f"in co_consts (folded by the compiler?):\n{text}")
    return tuple(slots[0] for slots in found)


def _template(text: str, values: list) -> Tuple[CodeType, Tuple[int, ...]]:
    """The cached ``(code, placeholder slots)`` of a template text,
    compiling it on a miss."""
    entry = _TEMPLATES.get(text)
    if entry is None:
        module = compile(text, "<compiled block>", "exec")
        code = next(const for const in module.co_consts
                    if type(const) is CodeType)
        entry = code, _hole_slots(text, code, values)
        get_telemetry().count("vm.templates_compiled")
        with _TEMPLATE_LOCK:
            if len(_TEMPLATES) >= TEMPLATE_CACHE_LIMIT:
                del _TEMPLATES[next(iter(_TEMPLATES))]
            _TEMPLATES[text] = entry
    return entry


def compile_block(program, label: str, cost_model: CostModel,
                  models_ifetch: bool) -> CodeType:
    """A new code object for block ``label`` of ``program``, named
    after the label and the program.

    Fills the block's shape template with its operands: the template's
    ``co_consts`` with each placeholder replaced by its value.  Every
    call builds; the ``vm.block_compiles`` and ``vm.compile_s``
    telemetry counters count the calls and their seconds.
    """
    start = perf_counter()
    text, values = _block_source(
        *decode_block(program.blocks[label], cost_model, models_ifetch))
    template, slots = _template(text, values)
    consts = list(template.co_consts)
    for slot, value in zip(slots, values):
        consts[slot] = value
    code = template.replace(co_consts=tuple(consts), co_name=label,
                            co_filename=f"<{program.name}>")
    telemetry = get_telemetry()
    telemetry.count("vm.block_compiles")
    telemetry.count("vm.compile_s", perf_counter() - start)
    return code
