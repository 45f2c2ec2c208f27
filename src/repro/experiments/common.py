"""Shared infrastructure for the experiment modules.

Experiments share a :class:`ResultCache`, a thin view over the
execution engine (:mod:`repro.engine`): every run request becomes a
declarative :class:`~repro.engine.RunSpec`, resolved through the
engine's in-process memo, an optional persistent result store, and
its executor.  A run needed by several tables/figures
(e.g. the UMI-with-sampling Pentium 4 run feeds Table 4, Table 6 and
Figure 2) therefore happens once per process -- or once *ever*, with a
warm store.

All experiments run against *scaled-down* machine models (see
:mod:`repro.memory.configs`) and workloads whose iteration counts are
multiplied by ``scale``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core import UMIConfig
from repro.engine import (
    ExecutionEngine, ResultStore, RetryPolicy, RunSpec,
)
from repro.isa import Program
from repro.memory import DEFAULT_MACHINE_SCALE, MachineConfig, get_machine
from repro.runners import RunOutcome
from repro.workloads import all_workloads, get_workload

#: Default workload scale for benchmark runs.
DEFAULT_SCALE = 0.5

#: Names of the paper's three benchmark groups, in table order.
GROUP_ORDER = ("CFP2000", "CINT2000", "OLDEN")


def paper_suite_names() -> list:
    """The 32 evaluation benchmarks in the paper's table order."""
    return [spec.name for spec in all_workloads(list(GROUP_ORDER))]


def default_umi_config(
    sampling: bool = True,
    sw_prefetch: bool = False,
    **overrides,
) -> UMIConfig:
    """The prototype's default configuration (Sections 3-5)."""
    return UMIConfig(
        use_sampling=sampling,
        enable_sw_prefetch=sw_prefetch,
        **overrides,
    )


class ResultCache:
    """Spec-building facade over the execution engine.

    Memoizes program/machine builds in-process and delegates every run
    to an :class:`~repro.engine.ExecutionEngine` -- pass ``jobs`` (or
    ``workers``) to pick its worker pool and/or ``store`` (a directory path or
    :class:`~repro.engine.ResultStore`) for cross-process persistence.
    """

    def __init__(self, scale: float = DEFAULT_SCALE,
                 machine_scale: int = DEFAULT_MACHINE_SCALE,
                 engine: Optional[ExecutionEngine] = None,
                 jobs: int = 1,
                 store: Union[ResultStore, str, Path, None] = None,
                 strict: bool = True,
                 retry: Optional[RetryPolicy] = None,
                 workers: Optional[str] = None) -> None:
        self.scale = scale
        self.machine_scale = machine_scale
        if engine is None:
            if isinstance(store, (str, Path)):
                store = ResultStore(store)
            engine = ExecutionEngine(jobs=jobs, store=store,
                                     strict=strict, retry=retry,
                                     workers=workers)
        self.engine = engine
        self._programs: Dict[str, Program] = {}
        self._machines: Dict[str, MachineConfig] = {}

    # -- building ----------------------------------------------------------

    def machine(self, name: str) -> MachineConfig:
        if name not in self._machines:
            self._machines[name] = get_machine(name, scale=self.machine_scale)
        return self._machines[name]

    def program(self, workload_name: str) -> Program:
        if workload_name not in self._programs:
            self._programs[workload_name] = get_workload(
                workload_name,
            ).build(self.scale)
        return self._programs[workload_name]

    # -- specs --------------------------------------------------------------

    def spec_native(self, workload: str, machine: str = "pentium4",
                    hw_prefetch: bool = False,
                    with_cachegrind: bool = False,
                    counter_sample_size: Optional[int] = None,
                    consumers: Sequence[str] = ()) -> RunSpec:
        return RunSpec.native(
            workload, self.scale, machine, self.machine_scale,
            hw_prefetch=hw_prefetch, with_cachegrind=with_cachegrind,
            counter_sample_size=counter_sample_size,
            consumers=tuple(consumers),
        )

    def spec_dynamo(self, workload: str, machine: str = "pentium4",
                    hw_prefetch: bool = False) -> RunSpec:
        return RunSpec.dynamo(
            workload, self.scale, machine, self.machine_scale,
            hw_prefetch=hw_prefetch,
        )

    def spec_umi(self, workload: str, machine: str = "pentium4",
                 sampling: bool = True, sw_prefetch: bool = False,
                 hw_prefetch: bool = False, with_cachegrind: bool = False,
                 consumers: Sequence[str] = (),
                 overrides: Optional[dict] = None) -> RunSpec:
        return RunSpec.umi(
            workload, self.scale, machine, self.machine_scale,
            sampling=sampling, sw_prefetch=sw_prefetch,
            hw_prefetch=hw_prefetch, with_cachegrind=with_cachegrind,
            consumers=tuple(consumers),
            umi_overrides=tuple(sorted((overrides or {}).items())),
        )

    # -- runs ---------------------------------------------------------------

    def run(self, spec: RunSpec) -> RunOutcome:
        return self.engine.run(spec)

    def run_many(self, specs: Sequence[RunSpec]) -> List[RunOutcome]:
        return self.engine.run_many(specs)

    def prefill(self, specs: Sequence[RunSpec]) -> None:
        """Resolve a whole wavefront of specs up front (dedups first)."""
        self.engine.prefill(specs)

    def native(self, workload: str, machine: str = "pentium4",
               hw_prefetch: bool = False,
               with_cachegrind: bool = False,
               counter_sample_size: Optional[int] = None,
               consumers: Sequence[str] = ()) -> RunOutcome:
        return self.engine.run(self.spec_native(
            workload, machine, hw_prefetch=hw_prefetch,
            with_cachegrind=with_cachegrind,
            counter_sample_size=counter_sample_size,
            consumers=consumers,
        ))

    def dynamo(self, workload: str, machine: str = "pentium4",
               hw_prefetch: bool = False) -> RunOutcome:
        return self.engine.run(self.spec_dynamo(
            workload, machine, hw_prefetch=hw_prefetch,
        ))

    def umi(self, workload: str, machine: str = "pentium4",
            sampling: bool = True, sw_prefetch: bool = False,
            hw_prefetch: bool = False,
            with_cachegrind: bool = False,
            consumers: Sequence[str] = (),
            overrides: Optional[dict] = None) -> RunOutcome:
        return self.engine.run(self.spec_umi(
            workload, machine, sampling=sampling, sw_prefetch=sw_prefetch,
            hw_prefetch=hw_prefetch, with_cachegrind=with_cachegrind,
            consumers=consumers, overrides=overrides,
        ))
