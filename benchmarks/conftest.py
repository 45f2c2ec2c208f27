"""Benchmark-harness fixtures.

Each benchmark regenerates one of the paper's tables or figures at a
configurable workload scale (``UMI_BENCH_SCALE`` env var, default 1.0)
and attaches headline numbers to the pytest-benchmark record via
``extra_info`` so `pytest benchmarks/ --benchmark-only` output doubles
as the reproduction log.

The shared cache rides on the execution engine: set ``UMI_BENCH_JOBS``
to fan independent runs across worker processes and
``UMI_BENCH_STORE`` to a directory to persist results across benchmark
sessions (a warm store skips every previously-executed run).
"""

from __future__ import annotations

import os
from typing import Iterator

import pytest

from repro.experiments import ResultCache

BENCH_SCALE = float(os.environ.get("UMI_BENCH_SCALE", "1.0"))
BENCH_JOBS = int(os.environ.get("UMI_BENCH_JOBS", "1"))
BENCH_STORE = os.environ.get("UMI_BENCH_STORE") or None


@pytest.fixture(scope="session")
def cache() -> Iterator[ResultCache]:
    """One shared run cache for the whole benchmark session; its
    engine (and any worker agents) closes when the session ends."""
    cache = ResultCache(scale=BENCH_SCALE, jobs=BENCH_JOBS,
                        store=BENCH_STORE)
    yield cache
    cache.engine.close()


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE


def record_table(benchmark, table, keys=()):
    """Attach a rendered table and selected values to the benchmark."""
    benchmark.extra_info["table"] = table.render()
    for label, value in keys:
        benchmark.extra_info[label] = value
