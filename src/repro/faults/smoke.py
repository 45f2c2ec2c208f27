"""Chaos smoke test: a small wavefront under an injected fault plan.

CI's resilience gate (``python -m repro.faults.smoke``).  It executes
the same ten-group wavefront twice -- once clean, once under a fault
plan that crashes one workload's worker, tears another's store record,
and makes the ``phase`` consumer throw on its first batch -- and then
asserts the acceptance contract of the resilience layer:

* every *unaffected* run completes and its payload is byte-identical
  to the clean sweep's;
* the crashed workload surfaces as a :class:`~repro.engine.FailedRun`
  after exhausting its retries (visible in ``executor.retries``), and
  is absent from the store so ``--resume`` would re-execute it;
* the consumer-fault run still completes, with the quarantine recorded
  in its ``derived`` summary and counted under ``stream.quarantined``;
* the torn record is invisible to loads, found by ``fsck``, and healed
  by ``fsck(repair=True)``;
* a resumed engine over the same store re-executes *only* the failed
  specs.

Exit status 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from repro.engine import (
    ExecutionEngine, FailedRun, ResultStore, RetryPolicy, RunSpec,
)
from repro.faults import FaultPlan, FaultRule, fault_injection
from repro.telemetry import get_telemetry

#: Smoke wavefront: ten native runs at a tiny scale.
WORKLOADS = (
    "168.wupwise", "171.swim", "172.mgrid", "173.applu", "177.mesa",
    "178.galgel", "179.art", "183.equake", "187.facerec", "188.ammp",
)
SCALE = 0.05
MACHINE_SCALE = 16

CRASH_WORKLOAD = "171.swim"
TORN_WORKLOAD = "172.mgrid"
CONSUMER_WORKLOAD = "179.art"
RETRIES = 2


def _wavefront() -> List[RunSpec]:
    specs = []
    for name in WORKLOADS:
        consumers = ("phase",) if name == CONSUMER_WORKLOAD else ()
        specs.append(RunSpec.native(name, SCALE, "pentium4",
                                    MACHINE_SCALE, consumers=consumers))
    return specs


def _plan() -> FaultPlan:
    return FaultPlan(seed=7, rules=(
        FaultRule(kind="crash", match=CRASH_WORKLOAD, attempts=RETRIES),
        FaultRule(kind="torn_record", match=TORN_WORKLOAD),
        FaultRule(kind="consumer", consumer="phase", batch=1),
    ))


def _run(store_root: Path, jobs: int, faults: bool
         ) -> Dict[RunSpec, dict]:
    """One sweep; returns spec -> payload (outcome or failure)."""
    engine = ExecutionEngine(
        jobs=jobs, store=ResultStore(store_root), strict=False,
        retry=RetryPolicy(max_attempts=RETRIES, sleep=lambda _s: None),
    )
    specs = _wavefront()
    try:
        with fault_injection(_plan() if faults else None):
            resolved = engine.run_many(specs)
    finally:
        engine.close()
    out: Dict[RunSpec, dict] = {}
    for spec, value in zip(specs, resolved):
        out[spec] = (value.to_payload() if isinstance(value, FailedRun)
                     else engine._payloads[spec])
    return out


def main() -> int:
    failures: List[str] = []

    def check(ok: bool, label: str) -> None:
        print(f"  {'ok' if ok else 'FAIL'}: {label}")
        if not ok:
            failures.append(label)

    telemetry = get_telemetry()
    telemetry.reset()
    telemetry.enable()

    with tempfile.TemporaryDirectory() as tmp:
        clean_root = Path(tmp) / "clean"
        chaos_root = Path(tmp) / "chaos"

        print("[chaos-smoke] clean sweep (serial)")
        clean = _run(clean_root, jobs=1, faults=False)

        print("[chaos-smoke] faulted sweep (parallel, jobs=2)")
        chaos = _run(chaos_root, jobs=2, faults=True)

        affected = (CRASH_WORKLOAD, CONSUMER_WORKLOAD)
        unaffected = [s for s in clean if s.workload not in affected]
        identical = sum(
            1 for s in unaffected
            if json.dumps(chaos[s], sort_keys=True)
            == json.dumps(clean[s], sort_keys=True))
        check(identical == len(unaffected),
              f"unaffected runs byte-identical to clean sweep "
              f"({identical}/{len(unaffected)})")

        crashed = [s for s in clean if s.workload == CRASH_WORKLOAD]
        check(len(crashed) == 1
              and chaos[crashed[0]].get("kind") == "failed_run"
              and chaos[crashed[0]]["reason"] == "error"
              and chaos[crashed[0]]["attempts"] == RETRIES,
              f"crashed workload is a FailedRun after {RETRIES} attempts")
        counter = telemetry.registry.counter
        check(counter("executor.retries").value >= RETRIES - 1,
              "retries visible in executor.retries")

        consumer_spec = next(s for s in clean
                             if s.workload == CONSUMER_WORKLOAD)
        derived = chaos[consumer_spec].get("derived", {}).get("phase", {})
        check(chaos[consumer_spec].get("kind") != "failed_run"
              and derived.get("quarantined") is True,
              "consumer-fault run completed with the consumer "
              "quarantined")
        check(counter("stream.quarantined").value >= 1,
              "quarantine counted under stream.quarantined")

        store = ResultStore(chaos_root)
        report = store.fsck()
        torn = [s for s in clean if s.workload == TORN_WORKLOAD]
        check([f"{s.digest()}.json" for s in torn] == report.corrupt,
              "fsck finds exactly the torn record")
        check(not any(store.path_for(s).exists() for s in crashed),
              "failed spec left out of the store (resume re-executes it)")

        repaired = store.fsck(repair=True)
        check(len(repaired.quarantined) == len(report.corrupt)
              and store.fsck().problems == 0,
              "fsck --repair quarantines the damage")

        print("[chaos-smoke] resumed sweep (serial, no faults)")
        before = counter("engine.specs_executed").value
        resumed = _run(chaos_root, jobs=1, faults=False)
        executed = counter("engine.specs_executed").value - before
        check(executed == len(crashed) + len(torn),
              f"resume re-executed only the {len(crashed) + len(torn)} "
              f"missing specs (got {executed})")
        check(all(resumed[s].get("kind") != "failed_run"
                  for s in clean),
              "resumed sweep resolved every spec")

    telemetry.disable()
    if failures:
        print(f"[chaos-smoke] FAILED ({len(failures)} assertion(s))")
        return 1
    print("[chaos-smoke] all resilience assertions hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
