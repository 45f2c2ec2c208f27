"""The basic-block interpreter: each block runs as compiled Python.

Executes one basic block at a time against a :class:`MachineState`,
sending every data reference to the memory hierarchy (which returns its
latency) and optionally emitting it into a batched
:class:`repro.stream.RefStream` -- the canonical reference stream every
other analysis (Cachegrind, trace recording, shadow hierarchies...)
consumes.

Like DynamoRIO's code cache, each block is translated once and then
run directly: its first execution compiles it into one straight-line
Python function (:mod:`repro.vm.compiler`, whose code objects are
shared process-wide).  Each interpreter binds that code to its own
globals -- registers, memory, the memory system's ``access``/``fetch``,
the stream's column appends and an :class:`InstrumentationContext` --
built at construction, so hooks installed on the memory system's class
beforehand see every call.  The blocks retire L1 hits inline on the
hierarchy's columns when it allows (the *hit lanes*, bound when a run
starts by :meth:`Interpreter.bind_lanes`), so those hits call neither
``access`` nor ``fetch``.  Nothing in the globals refers back to the
interpreter, so a finished run is freed by reference counting.

The *instrumentation context* carries what a UMI-instrumented trace
changes between blocks: ``profile_cols`` maps instrumented pcs to
columns of the current address-profile row, and ``prefetch_map`` maps
pcs of delinquent loads to injected software-prefetch deltas.  Both are
``None`` during normal execution.  ``last_terminator_op`` is the opcode
that ended the most recently executed block.

:mod:`repro.vm.reference` keeps the tuple-dispatch loop this replaced as
the behavioural contract.
"""

from __future__ import annotations

import builtins
from types import FunctionType
from typing import Callable, Dict, List, Optional

from repro.isa import Program
from repro.isa.instructions import HALT, RET, SWITCH

from .cost_model import DEFAULT_COST_MODEL, CostModel
from .state import MachineState

#: The single source of truth for the dynamic-instruction budget; every
#: execution mode (native, dynamo/umi via ``RuntimeConfig``, Cachegrind,
#: tracing) defaults to this limit.
DEFAULT_MAX_STEPS = 500_000_000

#: Indirect terminators end DynamoRIO-style traces and pay the indirect
#: branch lookup cost in the runtime.
INDIRECT_TERMINATORS = frozenset({SWITCH, RET})


#: The closed instruction lane's probe: it finds no line.
_NO_LINES: Dict[int, int] = {}


class ExecutionLimitExceeded(Exception):
    """The configured dynamic instruction budget was exhausted."""


class InstrumentationContext:
    """Per-interpreter state compiled blocks read and write.

    The UMI runtime sets ``profile_cols``/``profile_row`` on entry to an
    instrumented trace and ``prefetch_map`` on entry to an optimized
    one; blocks read them once on entry.  Every block records its
    terminator's opcode in ``last_terminator_op``.
    """

    __slots__ = ("profile_cols", "profile_row", "prefetch_map",
                 "last_terminator_op")

    def __init__(self) -> None:
        self.profile_cols: Optional[Dict[int, int]] = None
        self.profile_row: Optional[List[Optional[int]]] = None
        self.prefetch_map: Optional[Dict[int, int]] = None
        self.last_terminator_op: int = HALT


# -- the interpreter ------------------------------------------------------------------

class Interpreter:
    """Executes basic blocks of one program against one memory system."""

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
        #: instrumentation context (managed by the UMI runtime).
        self.context = InstrumentationContext()
        # Instruction fetch modelling: only when the memory system has an
        # instruction cache (FlatMemory and bare caches do not).
        self._models_ifetch = bool(getattr(memsys, "models_ifetch", False))
        self._env = self._environment()
        # Compiled block functions, bound lazily on first execution.
        self._functions: Dict[str, Callable[[], Optional[str]]] = {}

    def _environment(self) -> dict:
        """The globals compiled blocks run against.

        Everything except the inline L1 hit lanes is bound here, at
        construction, so class-level hooks installed before the
        interpreter exists see every ``access``/``fetch`` call.  The
        lanes start closed and are bound when a run starts
        (:meth:`bind_lanes`), after every observer is wired.  Nothing
        in it refers back to the interpreter.
        """
        state = self.state
        memsys = self.memsys
        stream = self.stream
        context = self.context
        profiled_op_cost = self.cost_model.profiled_op_cost
        sw_prefetch_issue_cost = self.cost_model.sw_prefetch_issue_cost
        software_prefetch = getattr(memsys, "software_prefetch", None)

        def profile(cols, pc, addr):
            """Record an instrumented reference in the current profile
            row; returns the cycles that costs."""
            col = cols.get(pc)
            if col is None:
                return 0
            context.profile_row[col] = addr
            return profiled_op_cost

        def prefetch(deltas, pc, addr, now):
            """Issue the software prefetch injected after a delinquent
            load; returns the cycles that costs."""
            delta = deltas.get(pc)
            if delta is None:
                return 0
            software_prefetch(addr + delta, now)
            return sw_prefetch_issue_cost

        env = {
            "__builtins__": builtins,
            "S": state, "R": state.regs, "M": state.memory,
            "MG": state.memory.get, "CS": state.call_stack,
            "X": context, "PR": profile, "PF": prefetch,
            "A": memsys.access,
            "F": memsys.fetch if self._models_ifetch else None,
            "E": stream, "EP": None,
            "DC": True, "IW": _NO_LINES.get,
        }
        if stream is not None:
            # The stream's column buffers are stable list objects, so
            # the bound appends stay valid across drains.
            emit_pc = stream.pcs.append
            emit_addr = stream.addrs.append
            emit_size = stream.sizes.append
            emit_kind = stream.kinds.append
            emit_cycle = stream.cycles.append
            pcs = stream.pcs
            limit = stream.batch_size
            drain = stream.drain

            def fetch_events(lines, now):
                """Emit one block's instruction-fetch lines."""
                for line_addr in lines:
                    emit_pc(0)
                    emit_addr(line_addr << 6)
                    emit_size(64)
                    emit_kind(2)
                    emit_cycle(now)
                if len(pcs) >= limit:
                    drain()

            env.update(EP=emit_pc, EA=emit_addr, ES=emit_size,
                       EK=emit_kind, EC=emit_cycle, EL=pcs, LIM=limit,
                       DR=drain, FE=fetch_events)
        return env

    def bind_lanes(self) -> None:
        """Open the inline L1 hit lanes the memory system allows.

        Called when a run starts (:meth:`run_native`,
        :meth:`repro.vm.DynamoSim.run`), after every observer is wired,
        so a TLB attached after construction is seen.  Until then, and
        for a memory system without lanes, both lanes are closed: the
        data lane always calls ``A`` and the instruction lane's probe
        finds nothing, so every fetch calls ``F``.  Calling it again
        re-decides.  The bound block functions share the environment
        dict, so this reaches blocks already bound.
        """
        env = self._env
        env.update(DC=True, IW=_NO_LINES.get)
        hit_lanes = getattr(self.memsys, "hit_lanes", None)
        if hit_lanes is None:
            return
        data, code = hit_lanes()
        if data is not None:
            env.update(zip(("DC", "DW", "DS", "DT", "DM", "DD", "DL", "DX"),
                           data))
        if code is not None:
            env.update(zip(("IW", "IS", "IT", "IM"), code))

    def block_function(self, label: str) -> Callable[[], Optional[str]]:
        """The compiled function of block ``label``.

        Calling it executes the block and returns the next label
        (``None`` when the program halts).
        """
        fn = self._functions.get(label)
        if fn is None:
            # The compiler loads on first execution, so a process that
            # only plans runs never imports it.
            from .compiler import compile_block

            code = compile_block(self.program.blocks[label],
                                 self.cost_model, self._models_ifetch)
            fn = FunctionType(code, self._env, label)
            self._functions[label] = fn
        return fn

    def execute_block(self, label: str) -> Optional[str]:
        """Execute the block named ``label``; return the next label.

        Returns ``None`` when the program halts (``HALT``, or ``RET``
        with an empty call stack).  All cycle costs (instruction base
        cost + memory latency + any software-prefetch issue cost) are
        charged to the machine state.
        """
        return self.block_function(label)()

    def run_native(self, max_steps: int = DEFAULT_MAX_STEPS) -> MachineState:
        """Run the whole program natively (no runtime system overhead)."""
        self.bind_lanes()
        label: Optional[str] = self.program.entry
        state = self.state
        functions = self._functions
        while label is not None:
            fn = functions.get(label)
            if fn is None:
                fn = self.block_function(label)
            label = fn()
            if state.steps > max_steps:
                raise ExecutionLimitExceeded(
                    f"{self.program.name}: exceeded {max_steps} dynamic "
                    f"instructions"
                )
        return state
