#!/usr/bin/env python3
"""End-to-end sweep benchmark of the UMI reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload thrash-cold --trace 1
    python3 perfbench/run.py --workload paper-cold --update-manifest

Workloads (all serial, one closed-loop client, see NOTES.md):
``paper-cold`` and ``thrash-cold``.  A run always measures one whole
sweep; ``--seconds`` is accepted and ignored.  ``--trace 0`` measures
the end-to-end metrics with no tracing, in host-normalised seconds
(``hostspeed.py``); ``--trace 1`` makes the separate traced run that
yields the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).  Every
output is checked; with the default seed (and always on the paper
suite) every payload is compared against the committed manifest.

Run files go under ``.perfbench/`` at the repository root: the span log
of the last traced run and ``runs.jsonl`` (one record per run with host
facts and the probe).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    check_requests, dump_manifest, error_rate, manifest_entry, sha256,
    tail_percentile, validate_metric_name,
)
from hostspeed import reference_ms, speed_factors  # noqa: E402

WORKLOADS = ("paper-cold", "thrash-cold")

#: name -> unit, in report order.
END_TO_END = {
    "sweep_s": "s", "msteps_per_s": "Msteps/s", "lat_p50_ms": "ms",
    "lat_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER = {
    "vm.self_s": "s", "vm.ns_per_step": "ns",
    "memory.self_s": "s", "memory.calls": "count",
    "memory.ns_per_call": "ns", "sim.l1_hit_ratio": "ratio",
    "stream.self_s": "s", "stream.batches": "count",
    "fullsim.self_s": "s", "counters.self_s": "s",
    "consumers.self_s": "s", "core.self_s": "s",
    "core.analyze_s": "s", "core.analyze_calls": "count",
    "core.memo_hit_ratio": "ratio", "workloads.build_s": "s",
    "serialize.encode_s": "s", "serialize.decode_s": "s",
    "engine.store_save_s": "s", "engine.store_load_s": "s",
    "engine.store_hit_ratio": "ratio", "engine.overhead_s": "s",
    "engine.specs_per_group": "specs/group", "startup.import_s": "s",
    "experiments.render_s": "s", "sim.steps": "count",
    "trace.overhead_ratio": "ratio", "trace.coverage": "ratio",
    "host.probe_ms": "ms",
}

#: Set-up repetitions per untraced run, spread evenly through the
#: sweep (setup_s is their median).
SETUP_REPS = 15
#: Traced run: every Nth request also runs untraced, for the overhead
#: ratio.
OVERHEAD_EVERY = 8


class BenchError(Exception):
    """The benchmark cannot run here (e.g. the program is missing)."""


# -- host facts ---------------------------------------------------------------

def host_probe(reps: int = 5) -> float:
    """Median ms of the reference kernel, which touches no repo code."""
    return statistics.median(reference_ms() for _ in range(reps))


def host_facts() -> Dict[str, object]:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "commit": commit}


def rss_mb() -> float:
    """This process's peak resident set size."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- manifests ----------------------------------------------------------------

def manifest_path(stem: str) -> Path:
    return HERE / "manifests" / f"{stem}.json"


def load_manifest(stem: str) -> dict:
    path = manifest_path(stem)
    if not path.is_file():
        raise BenchError(f"missing manifest {path}; regenerate it with "
                         f"--update-manifest")
    return json.loads(path.read_text())


# -- workloads ----------------------------------------------------------------

def _latency_metrics(latencies: List[float]) -> Dict[str, float]:
    pct, tail, beyond = tail_percentile(latencies)
    return {"lat_p50_ms": statistics.median(latencies) * 1000.0,
            "lat_tail_ms": tail * 1000.0,
            "_tail": f"p{pct} of {len(latencies)} samples "
                     f"({beyond} beyond)"}


def spread_indices(count: int, total: int) -> List[int]:
    """``count`` request indices spread evenly over ``total`` requests."""
    return sorted({i * total // count for i in range(count)})


def setup_once(ctx, rep: int) -> float:
    """Wall time of one fresh set-up process.

    It starts an interpreter, imports the program and plans the
    workload's wavefront into a new store, which is what a user pays
    before the first request.  Work moved into import time or planning
    shows here.
    """
    target = ctx.run_dir / f"setup-{rep}"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", ctx.workload, "--seed", str(ctx.seed),
         "--setup-only", str(target)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up failed: {proc.stderr.strip()[-300:]}")
    shutil.rmtree(target, ignore_errors=True)
    return seconds


def setup_only(ctx, target: Path) -> int:
    """The body of one set-up process (see :func:`setup_once`)."""
    from sweep import plan_for, prepare

    prepare(plan_for(ctx.workload, ctx.seed), target / "store")
    return 0


def _check_cold(result, manifest: Optional[dict]) -> dict:
    failed, first = check_requests(result.requests, manifest)
    tables_ok = manifest is None or \
        sha256(result.tables) == manifest["tables_sha256"]
    if not tables_ok and first is None:
        first = "rendered tables differ from the manifest"
    return {"attempted": len(result.requests), "failed": failed,
            "correct": failed == 0 and tables_ok, "problem": first}


def run_cold(ctx) -> dict:
    from sweep import plan_for, prepare, run_sweep

    plan = plan_for(ctx.workload, ctx.seed)
    manifest = load_manifest(plan.manifest) if plan.checked else None
    sweep = prepare(plan, ctx.run_dir / "store")
    if not ctx.trace:
        # The set-up processes run between requests, spread over the
        # whole sweep, so their median samples the host's speed over
        # the same stretch of time as the sweep.  Before every request
        # the reference kernel is timed once.  Both are untimed in
        # sweep_s and in every latency.
        setup_at = set(spread_indices(SETUP_REPS, len(sweep.groups)))
        setups: List[tuple] = []
        refs: List[float] = []

        def between(index: int) -> None:
            if index in setup_at:
                setups.append((index, setup_once(ctx, len(setups))))
            refs.append(reference_ms())

        result = run_sweep(sweep, before=between)
        out = _check_cold(result, manifest)
        out.update(metrics=normalised_metrics(result, refs, setups),
                   wall=wall_metrics(result, setups),
                   requests=len(sweep.groups), specs=sweep.specs,
                   steps=result.steps)
        return out
    return _trace_cold(ctx, plan, sweep, manifest)


def normalised_metrics(result, refs: List[float],
                       setups: List[tuple]) -> Dict[str, float]:
    """End-to-end metrics in host-normalised seconds.

    Each request's wall time is scaled by the speed factor of the
    reference samples around it (``refs[i]`` was taken just before
    request ``i``); rendering follows the last request and takes its
    factor, and a set-up process before request ``i`` takes request
    ``i``'s.
    """
    factors = speed_factors(refs)
    latencies = [lat * f for lat, f in zip(result.latencies, factors)]
    sweep_s = sum(latencies) + result.render_s * factors[-1]
    return {"sweep_s": sweep_s,
            "msteps_per_s": result.steps / sweep_s / 1e6,
            **_latency_metrics(latencies),
            "peak_rss_mb": rss_mb(),
            "setup_s": statistics.median(s * factors[i] for i, s in setups)}


def wall_metrics(result, setups: List[tuple]) -> Dict[str, float]:
    """The same times as measured, for the report and runs.jsonl."""
    lat = _latency_metrics(result.latencies)
    return {"sweep_s": result.sweep_s, "lat_p50_ms": lat["lat_p50_ms"],
            "lat_tail_ms": lat["lat_tail_ms"],
            "setup_s": statistics.median(s for _, s in setups)}


def _trace_cold(ctx, plan, sweep, manifest) -> dict:
    from layers import Tracer, coverage, derive
    from sweep import prepare, run_sweep

    # Every Nth request also runs untraced, in a scratch engine, just
    # before its traced run, so both see the same host speed.  The
    # first request is skipped: it pays one-off import costs.
    scratch = prepare(plan, ctx.run_dir / "scratch-store")
    sampled = set(range(OVERHEAD_EVERY // 2, len(sweep.groups),
                        OVERHEAD_EVERY))
    untraced = 0.0
    tracer = Tracer()

    def sample(index: int) -> None:
        nonlocal untraced
        if index in sampled:
            with tracer.suspended():
                t0 = time.perf_counter()
                scratch.cache.engine.run_many(scratch.groups[index])
                untraced += time.perf_counter() - t0

    tracer.install()
    try:
        result = run_sweep(sweep, tracer, before=sample)
    finally:
        tracer.uninstall()
    tracer.write_spans(str(ctx.work / f"spans-{ctx.workload}.jsonl"))
    out = _check_cold(result, manifest)
    summary = tracer.summary()
    metrics = derive(summary)
    traced = sum(result.latencies[i] for i in sampled)
    requested = sum(result.latencies) + result.render_s
    metrics.update({
        "vm.ns_per_step": metrics["vm.self_s"] * 1e9 / result.steps,
        "engine.specs_per_group": sweep.specs / len(sweep.groups),
        "startup.import_s": ctx.import_s,
        "sim.steps": result.steps,
        "trace.overhead_ratio": traced / untraced,
        "trace.coverage": coverage(summary, requested),
    })
    out.update(metrics=metrics, requests=len(sweep.groups),
               specs=sweep.specs, steps=result.steps)
    return out


# -- manifest regeneration ----------------------------------------------------

def update_manifest(ctx) -> int:
    from sweep import DEFAULT_SEED, plan_for, prepare, run_sweep

    plan = plan_for(ctx.workload, DEFAULT_SEED)
    sweep = prepare(plan, ctx.run_dir / "store")
    result = run_sweep(sweep)
    problems = [label for request in result.requests
                for _, label, payload in request if payload is None]
    if problems:
        raise BenchError(f"{len(problems)} runs failed (first: "
                         f"{problems[0]}); refusing to write a manifest")
    payloads = {digest: manifest_entry(payload)
                for request in result.requests
                for digest, _, payload in request}
    manifest = {
        "workload": plan.manifest, "seed": DEFAULT_SEED,
        "scale": 0.1, "specs": sweep.specs, "groups": len(sweep.groups),
        "steps": result.steps, "tables_sha256": sha256(result.tables),
        "payloads": payloads,
    }
    path = manifest_path(plan.manifest)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_manifest(manifest))
    print(f"wrote {path.relative_to(ROOT)}: {sweep.specs} specs, "
          f"{len(sweep.groups)} groups, {result.steps} steps")
    return 0


# -- entry point --------------------------------------------------------------

class Context:
    def __init__(self, args, work: Path, run_dir: Optional[Path],
                 import_s: float) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.trace = bool(args.trace)
        self.work = work
        self.run_dir = run_dir
        self.import_s = import_s


def report(ctx, out: dict, facts: dict) -> dict:
    """Print the human-readable report; return the result object."""
    wanted = PER_LAYER if ctx.trace else END_TO_END
    metrics = {name: {"value": out["metrics"][name], "unit": unit}
               for name, unit in wanted.items()}
    for name in metrics:
        validate_metric_name(name)
    rate = error_rate(out["attempted"], out["failed"])
    print(f"{ctx.workload} seed={ctx.seed} trace={int(ctx.trace)}: "
          f"{out['specs']} specs, {out['requests']} requests, "
          f"{out['steps'] / 1e6:.2f} Msteps")
    for name, metric in metrics.items():
        print(f"  {name:24s} {metric['value']:14.6g} {metric['unit']}")
    if "_tail" in out["metrics"]:
        print(f"  {'lat_tail_ms is':24s} {out['metrics']['_tail']}")
    for name, value in out.get("wall", {}).items():
        print(f"  {'wall ' + name:24s} {value:14.6g} (as measured)")
    print(f"  {'error_rate':24s} {rate:14.6g} ratio "
          f"({out['failed']}/{out['attempted']} requests)")
    if out.get("problem"):
        print(f"  first problem: {out['problem']}")
    print(f"  host: {json.dumps(facts, sort_keys=True)}")
    return {"correct": bool(out["correct"]), "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40,
                        help="accepted and ignored: a run always "
                             "measures one whole sweep")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-manifest", action="store_true",
                        help="regenerate the workload's payload manifest "
                             "from a default-seed sweep (review the diff)")
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({ROOT / 'src' / 'repro'}) "
              f"are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench"
    if args.setup_only is not None:
        return setup_only(Context(args, work, None, 0.0),
                          Path(args.setup_only))
    run_dir = work / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    probe_before = host_probe()
    try:
        t0 = time.perf_counter()
        import repro.experiments.cli  # noqa: F401
        import_s = time.perf_counter() - t0
        ctx = Context(args, work, run_dir, import_s)
        if args.update_manifest:
            return update_manifest(ctx)
        out = run_cold(ctx)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    probe_ms = (probe_before + host_probe()) / 2
    out["metrics"]["host.probe_ms"] = probe_ms
    facts = dict(host_facts(), probe_before_ms=round(probe_before, 3),
                 probe_ms=round(probe_ms, 3))
    result = report(ctx, out, facts)
    with open(work / "runs.jsonl", "a") as handle:
        handle.write(json.dumps({"workload": ctx.workload, "seed": ctx.seed,
                                 "trace": int(ctx.trace), "host": facts,
                                 "wall": out.get("wall"), **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
