"""The benchmark's workloads, driven through the program's public API.

Every workload is a closed loop with one client: the next request is
sent only when the previous one has returned.

* ``paper-cold`` -- the ``umi-experiments all --scale 0.1`` wavefront
  into a fresh, empty result store; a request is one fusion group
  through :meth:`repro.engine.ExecutionEngine.run_many`; every table is
  rendered at the end.
* ``thrash-cold`` -- the set-aware experiments over the cache-thrashing
  generator family, same request shape.

Imports of ``repro`` happen inside functions: the benchmark must fail
cleanly, not at import, when the program is absent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

from checks import table_text

SCALE = 0.1

#: Experiments that honour ``--set`` (thrash-cold runs only these).
SET_AWARE = ("table3", "table4", "table6", "fig2", "fig3", "fig4",
             "fig5", "fig6", "sets")

#: Thrash instances per target machine for one seed: seed s runs
#: s{16s}..s{16s+15}, so seed 0 is the registered s0..s15 population.
THRASH_PER_MACHINE = 16

#: Default workload seed (the one the manifests were made from).
DEFAULT_SEED = 0


@dataclass
class Plan:
    """What one workload runs, derived from its seed alone."""

    experiments: Tuple[str, ...]
    workloads: Optional[List[str]]      # None: the fixed paper suites
    manifest: str                       # manifest file stem
    checked: bool                       # compare against the manifest?


def plan_for(workload: str, seed: int) -> Plan:
    from repro.experiments.cli import EXPERIMENTS

    if workload == "paper-cold":
        # The paper suite is fixed: every seed runs the same inputs,
        # so every seed is checked against the manifest.
        return Plan(tuple(EXPERIMENTS), None, "paper", checked=True)
    if workload == "thrash-cold":
        return Plan(SET_AWARE, thrash_names(seed), "thrash",
                    checked=seed == DEFAULT_SEED)
    raise ValueError(f"unknown workload {workload!r}")


def thrash_names(seed: int) -> List[str]:
    """The ``gen:thrash`` instances a seed selects (48 per seed)."""
    from repro.workloads.generators import THRASH_MACHINES

    first = seed * THRASH_PER_MACHINE
    return [f"gen:thrash:{machine}:s{first + i}"
            for machine in THRASH_MACHINES
            for i in range(THRASH_PER_MACHINE)]


# -- cold sweeps ------------------------------------------------------------

@dataclass
class Sweep:
    """A planned cold sweep: a fresh engine and its fusion groups."""

    plan: Plan
    cache: Any                       # repro.experiments.common.ResultCache
    groups: List[list]
    specs: int


def prepare(plan: Plan, store_dir: Path) -> Sweep:
    """Set-up: fresh store and engine, resolved and fused wavefront."""
    from repro.engine import plan_groups
    from repro.experiments.cli import EXPERIMENTS
    from repro.experiments.common import ResultCache

    cache = ResultCache(scale=SCALE, store=str(store_dir), strict=False)
    specs = []
    for name in plan.experiments:
        exp = EXPERIMENTS[name]
        if exp.required_runs is None:
            continue
        if exp.takes_workloads and plan.workloads is not None:
            specs.extend(exp.required_runs(cache, workloads=plan.workloads))
        else:
            specs.extend(exp.required_runs(cache))
    unique = list(dict.fromkeys(specs))
    return Sweep(plan, cache, plan_groups(unique), len(unique))


def render_tables(plan: Plan, cache) -> str:
    """Run every experiment of the plan and render its tables."""
    from repro.experiments.cli import EXPERIMENTS
    from repro.stats import Table

    parts = []
    for name in plan.experiments:
        exp = EXPERIMENTS[name]
        kwargs = {}
        if exp.takes_workloads and plan.workloads is not None:
            kwargs["workloads"] = plan.workloads
        result = exp.run(scale=SCALE, cache=cache, **kwargs)
        tables = [result] if isinstance(result, Table) else list(result)
        parts.extend(table.render() for table in tables)
    return table_text("\n".join(parts))


@dataclass
class SweepResult:
    latencies: List[float]          # seconds per request (fusion group)
    sweep_s: float                  # requests + table rendering
    render_s: float                 # table rendering alone
    tables: str
    steps: int                      # simulated VM steps, once per group
    requests: List[list]            # per request: (digest, label, payload)


def run_sweep(sweep: Sweep, tracer=None,
              before: Optional[Callable[[int], None]] = None) -> SweepResult:
    """Send every fusion group through the engine, then render.

    With a tracer, each request carries its group's first spec digest
    as the request id, and rendering runs inside a traced block.
    ``before(index)`` runs ahead of request ``index``, untimed.
    """
    engine = sweep.cache.engine
    latencies = []
    outcomes = []
    clock = time.perf_counter
    start = clock()
    paused = 0.0
    for index, group in enumerate(sweep.groups):
        if before is not None:
            t0 = clock()
            before(index)
            paused += clock() - t0
        if tracer is not None:
            tracer.begin_request(group[0].digest())
        t0 = clock()
        resolved = engine.run_many(group)
        latencies.append(clock() - t0)
        if tracer is not None:
            tracer.end_request()
        outcomes.append(resolved)
    rendered = clock()
    if tracer is not None:
        tables = tracer.call("experiments.tables", render_tables,
                             sweep.plan, sweep.cache)
    else:
        tables = render_tables(sweep.plan, sweep.cache)
    end = clock()
    return SweepResult(latencies, end - start - paused, end - rendered,
                       tables,
                       steps=group_steps(outcomes),
                       requests=request_payloads(sweep))


def group_steps(outcomes) -> int:
    """Simulated steps, counted once per executed group."""
    total = 0
    for resolved in outcomes:
        steps = getattr(resolved[0], "steps", None)
        if steps is not None:
            total += steps
    return total


def request_payloads(sweep: Sweep) -> List[list]:
    """Per request: ``(digest, label, payload-or-None)`` per member."""
    payloads = dict(sweep.cache.engine.payloads())
    failed = sweep.cache.engine.failed_runs()
    return [[(spec.digest(), spec.describe(),
              None if spec in failed else payloads.get(spec))
             for spec in group]
            for group in sweep.groups]
