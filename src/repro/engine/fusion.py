"""Fusion planning: collapse compatible specs into shared executions.

Specs that agree on every field except the passive observers they
attach -- hardware-counter sampling configuration, a Cachegrind
observer, stream consumers -- denote the same simulated execution, in
every mode.  Observers never perturb it, so one run can serve them
all: :func:`repro.runners.run_fused` executes once and splits
per-member outcomes back out, each stored under its member's digest.

:func:`plan_groups` partitions a wavefront of missing specs into such
groups, program-major: every group of one program (workload and scale)
runs back to back, so a worker builds each program once
(:func:`repro.engine.attempt.cached_program`).  Programs keep their
first-appearance order, groups their first-appearance order within a
program, and members their submission order within a group, so
executors remain deterministic.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple

from repro.runners import OBSERVER_KWARGS

from .spec import RunSpec

#: Every spec field that can change what executes: all of them but the
#: observers.  A field added to :class:`RunSpec` later splits keys by
#: default.
EXECUTION_FIELDS = tuple(f.name for f in dataclasses.fields(RunSpec)
                         if f.name not in OBSERVER_KWARGS)

_execution_identity = attrgetter(*EXECUTION_FIELDS)


def fusion_key(spec: RunSpec) -> Tuple:
    """The execution identity a spec shares with its fusables.

    Only the mode and its execution fields (workload, scale, machine,
    machine scale, sampling, prefetch settings, UMI overrides) shape
    timing; the observer fields never do, in any mode.
    """
    return _execution_identity(spec)


def plan_groups(specs: Sequence[RunSpec]) -> List[List[RunSpec]]:
    """Partition specs into fusion groups, program-major (ordered,
    deterministic, one pass)."""
    by_program: Dict[Tuple[str, float], List[List[RunSpec]]] = {}
    index: Dict[Tuple, List[RunSpec]] = {}
    for spec in specs:
        key = fusion_key(spec)
        group = index.get(key)
        if group is None:
            group = index[key] = [spec]
            by_program.setdefault((spec.workload, spec.scale),
                                  []).append(group)
        else:
            group.append(spec)
    return [group for groups in by_program.values() for group in groups]
