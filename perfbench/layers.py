"""Layer tracer: spans around the public entry points of each layer.

The tracer lives entirely in the benchmark.  :meth:`Tracer.install`
replaces a fixed list of functions and methods of the ``repro`` package
with thin wrappers that time every call; :meth:`Tracer.uninstall` puts
the originals back.  Nothing inside ``repro`` knows it is traced.

Each call opens a frame on one stack.  When it returns, its duration is
added to the hook's inclusive time and its duration minus the time of
its child frames to the hook's *self* time, so a layer's self time is
its span time minus the child spans it contains (a memory access that
drains the line stream into a consumer charges the drain to ``stream``
and the consumer to its own layer, not to ``memory``).

Entry points called millions of times per sweep (cache accesses, stream
drains, consumer callbacks, UMI runtime hooks) are *aggregated*: only
their counts and summed times are kept.  Every other call is also kept
as an individual span -- name, start, end, parent span, request id --
in memory, and :meth:`Tracer.write_spans` writes them out at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Hook:
    """One traced entry point: ``module:Qual.name`` -> layer.

    A hook without a module is a block the benchmark times itself
    through :meth:`Tracer.call`.
    """

    name: str                # span name, e.g. "memory.access"
    layer: str               # layer charged with the span's self time
    module: Optional[str]
    qualname: Optional[str]
    aggregate: bool          # hot path: counts and sums, no span records


def _hook(name, layer, module, qualname, aggregate=False):
    return Hook(name, layer, module, qualname, aggregate)


#: Every entry point the traced run wraps, grouped by layer.  Module
#: functions are patched in every ``repro`` module that imported them
#: by name, so ``from repro.serialize import outcome_to_dict`` call
#: sites are traced too.
HOOKS: Tuple[Hook, ...] = (
    # engine: fusion, executor, store
    _hook("engine.run_many", "engine", "repro.engine.engine",
          "ExecutionEngine.run_many"),
    _hook("engine.store_save", "engine", "repro.engine.store",
          "ResultStore.save"),
    _hook("engine.store_load", "engine", "repro.engine.store",
          "ResultStore.load"),
    # workloads: program build
    _hook("workloads.build", "workloads", "repro.workloads.base",
          "WorkloadSpec.build"),
    # serialize
    _hook("serialize.encode", "serialize", "repro.serialize",
          "outcome_to_dict"),
    _hook("serialize.decode", "serialize", "repro.serialize",
          "outcome_from_dict"),
    # vm: interpreter and the DynamoSim runtime (incl. trace builder)
    _hook("vm.run_native", "vm", "repro.vm.interpreter",
          "Interpreter.run_native"),
    _hook("vm.dynamo_run", "vm", "repro.vm.runtime", "DynamoSim.run"),
    # core: UMI runtime and the mini-simulation analyzer
    _hook("core.umi_run", "core", "repro.core.umi", "UMIRuntime.run"),
    _hook("core.run_analyzer", "core", "repro.core.umi",
          "UMIRuntime._run_analyzer"),
    _hook("core.analyze", "core", "repro.core.analyzer",
          "MiniCacheSimulator.analyze", aggregate=True),
    _hook("core.trace_created", "core", "repro.core.umi",
          "_UMIHooks.trace_created", aggregate=True),
    _hook("core.trace_entered", "core", "repro.core.umi",
          "_UMIHooks.trace_entered", aggregate=True),
    _hook("core.trace_exited", "core", "repro.core.umi",
          "_UMIHooks.trace_exited", aggregate=True),
    _hook("core.timer_sample", "core", "repro.core.umi",
          "_UMIHooks.timer_sample", aggregate=True),
    # memory: the timing hierarchy's entry points
    _hook("memory.access", "memory", "repro.memory.hierarchy",
          "MemoryHierarchy.access", aggregate=True),
    _hook("memory.fetch", "memory", "repro.memory.hierarchy",
          "MemoryHierarchy.fetch", aggregate=True),
    _hook("memory.software_prefetch", "memory", "repro.memory.hierarchy",
          "MemoryHierarchy.software_prefetch", aggregate=True),
    # stream: the ref / line hubs
    _hook("stream.ref_drain", "stream", "repro.stream.hub",
          "RefStream.drain", aggregate=True),
    _hook("stream.ref_epoch", "stream", "repro.stream.hub",
          "RefStream.epoch", aggregate=True),
    _hook("stream.ref_finish", "stream", "repro.stream.hub",
          "RefStream.finish", aggregate=True),
    _hook("stream.line_drain", "stream", "repro.stream.hub",
          "LineStream.drain", aggregate=True),
    _hook("stream.line_finish", "stream", "repro.stream.hub",
          "LineStream.finish", aggregate=True),
    # consumers of the streams
    _hook("fullsim.on_batch", "fullsim", "repro.fullsim.cachegrind",
          "CachegrindSimulator.on_batch", aggregate=True),
    _hook("fullsim.finish", "fullsim", "repro.fullsim.cachegrind",
          "CachegrindSimulator.finish", aggregate=True),
    _hook("counters.on_line_batch", "counters", "repro.counters.hwcounters",
          "HardwareCounters.on_line_batch", aggregate=True),
    _hook("consumers.shadow", "consumers", "repro.stream.consumers",
          "ShadowHierarchyConsumer.on_batch", aggregate=True),
    _hook("consumers.tlb", "consumers", "repro.stream.consumers",
          "TLBConsumer.on_batch", aggregate=True),
    _hook("consumers.phase", "consumers", "repro.stream.consumers",
          "PhaseConsumer.on_line_batch", aggregate=True),
    _hook("consumers.phase_finish", "consumers", "repro.stream.consumers",
          "PhaseConsumer.finish", aggregate=True),
    _hook("consumers.profile", "consumers", "repro.stream.consumers",
          "ProfileRecorderConsumer.on_batch", aggregate=True),
    _hook("consumers.profile_epoch", "consumers", "repro.stream.consumers",
          "ProfileRecorderConsumer.on_epoch", aggregate=True),
    _hook("consumers.profile_finish", "consumers", "repro.stream.consumers",
          "ProfileRecorderConsumer.finish", aggregate=True),
    # experiments: table building and rendering
    _hook("experiments.render", "experiments", "repro.stats.tables",
          "Table.render"),
    _hook("experiments.tables", "experiments", None, None),
)

#: Spans that wrap a whole request (or the whole table rendering) and
#: so contain code no hook names: the executor, the run modes of
#: ``repro.runners``, hierarchy and consumer construction, experiment
#: bodies.  Their self time is reported (``engine.overhead_s``,
#: ``experiments.render_s``) but is not *attributed* to a layer, so it
#: lowers ``trace.coverage``.
OUTER_HOOKS = frozenset({"engine.run_many", "experiments.tables"})

#: Layers in report order.
LAYERS = ("workloads", "vm", "memory", "stream", "fullsim", "counters",
          "consumers", "core", "serialize", "engine", "experiments")

#: Classes whose instances the tracer collects, for hit-ratio counts.
_INSTANCE_CLASSES = (
    ("hierarchies", "repro.memory.hierarchy", "MemoryHierarchy"),
    ("mini_sims", "repro.core.analyzer", "MiniCacheSimulator"),
)


def _resolve(module: str, qualname: str):
    """``(owner, attribute, original)`` for a hook target."""
    owner = importlib.import_module(module)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    original = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    return owner, attr, original


class Tracer:
    """Stack-based span tracer with per-hook aggregates.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, hooks: Tuple[Hook, ...] = HOOKS,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.hooks = hooks
        self.clock = clock
        n = len(hooks)
        self.calls = [0] * n
        self.incl_ns = [0] * n
        self.self_ns = [0] * n
        #: Non-empty stream drains (one delivered batch each).
        self.batches = 0
        #: Store loads that returned a payload.
        self.store_hits = 0
        #: Individual span records:
        #: ``(span_id, parent_id, name, request, start_ns, end_ns)``.
        self.spans: List[tuple] = []
        self.request: Optional[str] = None
        self.instances: Dict[str, list] = {k: [] for k, _, _ in
                                           _INSTANCE_CLASSES}
        #: Folded instance counters (see :meth:`fold_instances`).
        self.l1_refs = 0
        self.l1_misses = 0
        self.memo_hits = 0
        self.profiles_analyzed = 0
        self._index = {hook.name: i for i, hook in enumerate(hooks)}
        # Frames: [start_ns, child_ns, span_id]; the root frame
        # collects top-level time and is never popped.
        self._stack: List[list] = [[0, 0, 0]]
        self._next_id = 1
        self._patches: List[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, index: int, fn: Callable) -> Callable:
        """A timing wrapper charging ``fn``'s calls to hook ``index``."""
        stack = self._stack
        clock = self.clock
        calls, incl, self_ns = self.calls, self.incl_ns, self.self_ns
        hook = self.hooks[index]
        spans = self.spans
        counts_batches = hook.name in ("stream.ref_drain",
                                       "stream.line_drain")
        tracer = self

        if hook.aggregate:
            def traced(*args, **kwargs):
                if counts_batches and args and args[0].pcs:
                    tracer.batches += 1
                frame = [clock(), 0, stack[-1][2]]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    dur = clock() - frame[0]
                    calls[index] += 1
                    incl[index] += dur
                    self_ns[index] += dur - frame[1]
                    stack[-1][1] += dur
        else:
            name = hook.name
            counts_hits = name == "engine.store_load"

            def traced(*args, **kwargs):
                span_id = tracer._next_id
                tracer._next_id = span_id + 1
                parent = stack[-1][2]
                frame = [clock(), 0, span_id]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                    if counts_hits and result is not None:
                        tracer.store_hits += 1
                    return result
                finally:
                    stack.pop()
                    end = clock()
                    dur = end - frame[0]
                    calls[index] += 1
                    incl[index] += dur
                    self_ns[index] += dur - frame[1]
                    stack[-1][1] += dur
                    spans.append((span_id, parent, name, tracer.request,
                                  frame[0], end))
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every hook target (idempotent per tracer)."""
        if self._patches:
            return
        for index, hook in enumerate(self.hooks):
            if hook.module is None:
                continue
            owner, attr, original = _resolve(hook.module, hook.qualname)
            wrapper = self.wrap(index, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                # Module function: patch every repro module that bound it.
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("repro") \
                            and getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapper)
        for key, module, cls_name in _INSTANCE_CLASSES:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, "__init__",
                        self._collecting_init(cls.__dict__["__init__"],
                                              self.instances[key]))

    def _collecting_init(self, init: Callable, into: list) -> Callable:
        def collecting(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            into.append(obj)
        return collecting

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def suspended(self):
        """Run the body with the originals back in place."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- spans recorded by the benchmark itself ----------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span of the manual hook ``name``."""
        return self.wrap(self._index[name], fn)(*args, **kwargs)

    def begin_request(self, request: str) -> None:
        self.request = request

    def end_request(self) -> None:
        self.request = None
        self.fold_instances()

    def fold_instances(self) -> None:
        """Add the collected instances' counters, then drop them.

        Called after every request, so the simulators of finished
        requests are not kept alive by the tracer.
        """
        for hierarchy in self.instances["hierarchies"]:
            stats = hierarchy.l1.stats
            self.l1_refs += stats.refs
            self.l1_misses += stats.misses
        for mini in self.instances["mini_sims"]:
            self.memo_hits += mini.memo_hits
            self.profiles_analyzed += mini.profiles_analyzed
        for collected in self.instances.values():
            collected.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Everything :func:`derive` needs, as plain JSON data."""
        return {
            "hooks": {hook.name: {"calls": self.calls[i],
                                  "incl_s": self.incl_ns[i] / 1e9,
                                  "self_s": self.self_ns[i] / 1e9}
                      for i, hook in enumerate(self.hooks)},
            "layers": self.layer_self_s(),
            "attributed_s": sum(self.self_ns[i]
                                for i, hook in enumerate(self.hooks)
                                if hook.name not in OUTER_HOOKS) / 1e9,
            "batches": self.batches, "store_hits": self.store_hits,
            "l1_refs": self.l1_refs, "l1_misses": self.l1_misses,
            "memo_hits": self.memo_hits,
            "profiles_analyzed": self.profiles_analyzed,
        }

    def layer_self_s(self) -> Dict[str, float]:
        """Summed self time per layer, in seconds."""
        out = {layer: 0.0 for layer in LAYERS}
        for i, hook in enumerate(self.hooks):
            out[hook.layer] += self.self_ns[i] / 1e9
        return out

    def write_spans(self, path: str) -> None:
        """Write the span records as JSON lines."""
        with open(path, "w") as handle:
            for span_id, parent, name, request, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "request": request, "start_ns": start, "end_ns": end,
                }) + "\n")


def coverage(summary: Dict, requested_s: float) -> float:
    """Share of the traced request time attributed to a named layer:
    the self time of every hook except :data:`OUTER_HOOKS`."""
    return _ratio(summary["attributed_s"], requested_s)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(summary: Dict) -> Dict[str, float]:
    """Per-layer metric values from one summary.

    Times are seconds per sweep; a layer the workload never enters
    reads 0.
    """
    hooks = summary["hooks"]
    layers = summary["layers"]

    def hook(name, key="self_s"):
        return hooks[name][key]

    memory_calls = sum(hook(f"memory.{n}", "calls")
                       for n in ("access", "fetch", "software_prefetch"))
    loads = hook("engine.store_load", "calls")
    store_s = hook("engine.store_save") + hook("engine.store_load")
    out = {f"{layer}.self_s": layers[layer]
           for layer in ("vm", "memory", "stream", "fullsim", "counters",
                         "consumers", "core")}
    out.update({
        "memory.calls": memory_calls,
        "memory.ns_per_call": _ratio(layers["memory"] * 1e9, memory_calls),
        "sim.l1_hit_ratio": 1.0 - _ratio(summary["l1_misses"],
                                         summary["l1_refs"])
        if summary["l1_refs"] else 0.0,
        "stream.batches": summary["batches"],
        "core.analyze_s": hook("core.analyze", "incl_s"),
        "core.analyze_calls": hook("core.analyze", "calls"),
        "core.memo_hit_ratio": _ratio(summary["memo_hits"],
                                      summary["profiles_analyzed"]),
        "workloads.build_s": layers["workloads"],
        "serialize.encode_s": hook("serialize.encode"),
        "serialize.decode_s": hook("serialize.decode"),
        "engine.store_save_s": hook("engine.store_save"),
        "engine.store_load_s": hook("engine.store_load"),
        "engine.store_hit_ratio": _ratio(summary["store_hits"], loads),
        "engine.overhead_s": layers["engine"] - store_s,
        "experiments.render_s": layers["experiments"],
    })
    return out
