"""Command-line entry point: regenerate any table or figure.

Usage::

    umi-experiments --list
    umi-experiments table4 --scale 0.5
    umi-experiments all --jobs 4 --store .umi-cache
    umi-experiments all --set all        # every set incl. generated
    umi-experiments sets --set "paper,thrash"
    umi-experiments all --json runs.json
    umi-experiments table1 --telemetry /tmp/t
    umi-experiments telemetry /tmp/t
    umi-experiments bench
    umi-experiments bench --quick --check
    umi-experiments all --store .umi-cache --resume
    umi-experiments all --retries 3 --timeout 600
    umi-experiments store fsck --store .umi-cache --repair
    umi-experiments all --workers 2@0.0.0.0:7777 --store .umi-cache

Every experiment declares its required runs upfront
(``required_runs``), so ``all`` resolves the union of every table's
and figure's specs as one deduplicated wavefront -- fanned across
``--jobs`` worker processes -- before any table is rendered.  With
``--store`` the resolved runs persist on disk and later invocations
(any experiment, any process) reuse them instead of re-executing.

``--telemetry DIR`` (available on every subcommand) enables the
self-observability layer (:mod:`repro.telemetry`) for the invocation
and exports the run's structured events, metrics and summary to
``DIR``; the ``telemetry`` subcommand renders a stored directory's
summary tables (slowest specs, store hit ratio, analyzer time share
per workload).

The ``bench`` subcommand runs the micro-benchmark kernels
(:mod:`repro.bench`) and writes a ``BENCH_kernels.json`` report;
``--check`` compares it against the committed baseline and the kernel
speedup floors, exiting non-zero on regression.

Resilience (see the "Resilience" section of ``docs/ARCHITECTURE.md``):
the CLI runs **non-strict** by default -- a run that keeps failing
after ``--retries`` attempts (or exceeds ``--timeout`` seconds) is
reported and its dependent tables are skipped, while every unaffected
run still completes and persists.  ``--strict`` restores fail-fast.
``--resume`` (with ``--store``) re-plans only the specs without valid
records, which is how a killed or interrupted sweep picks up where it
left off.

Distributed execution (the "Distributed execution" section of
``docs/ARCHITECTURE.md``): ``--workers [N@]HOST:PORT`` turns the
invocation into a lease coordinator -- it listens on ``HOST:PORT``,
waits for ``N`` standalone ``umi-worker`` agents (``umi-worker
--connect HOST:PORT``, any machine that can reach the coordinator),
and leases fusion groups to them instead of forking local processes.
An agent that dies mid-lease is a crash fault: the lease requeues on a
surviving agent through the ordinary ``--retries`` budget, and the
sweep's results are byte-identical to a serial run's.  ``store fsck`` sweeps a store directory for corrupt, stale
or digest-mismatched records; ``--repair`` moves them into
``<store>/quarantine/``.  ``--faults PLAN.json`` installs a
deterministic fault-injection plan (:mod:`repro.faults`) for the whole
invocation -- the chaos-testing hook CI uses.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.engine import DrainInterrupt, ResultStore, RetryPolicy
from repro.faults import fault_injection, load_fault_plan
from repro.stats import Table
from repro.telemetry import (
    get_telemetry, render_telemetry_dir, write_telemetry_dir,
)

from repro.workloads import resolve_set

from . import (
    apps, fig2, prefetch_figs, sensitivity, setreport, table1, table2,
    table3, table4, table5, table6,
)
from .common import DEFAULT_SCALE, ResultCache


def _tables(result) -> List[Table]:
    if isinstance(result, Table):
        return [result]
    return list(result)


@dataclass(frozen=True)
class Experiment:
    """One regenerable artefact: its runner and its spec declaration.

    ``takes_workloads`` experiments accept a ``workloads=`` name list
    (both in ``run`` and ``required_runs``) and therefore honour the
    ``--set`` flag; the rest have a fixed, paper-defined spec shape.
    """

    run: Callable
    required_runs: Optional[Callable] = None
    takes_workloads: bool = False


EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(table1.run, table1.required_runs),
    "table2": Experiment(table2.run, table2.required_runs),
    "table3": Experiment(table3.run, table3.required_runs,
                         takes_workloads=True),
    "table4": Experiment(table4.run, table4.required_runs,
                         takes_workloads=True),
    "table5": Experiment(table5.run, table5.required_runs),
    "table6": Experiment(table6.run, table6.required_runs,
                         takes_workloads=True),
    "fig2": Experiment(fig2.run, fig2.required_runs,
                       takes_workloads=True),
    "fig3": Experiment(prefetch_figs.fig3, prefetch_figs.fig3_runs,
                       takes_workloads=True),
    "fig4": Experiment(prefetch_figs.fig4, prefetch_figs.fig4_runs,
                       takes_workloads=True),
    "fig5": Experiment(prefetch_figs.fig5, prefetch_figs.fig5_runs,
                       takes_workloads=True),
    "fig6": Experiment(prefetch_figs.fig6, prefetch_figs.fig6_runs,
                       takes_workloads=True),
    "sensitivity": Experiment(sensitivity.run, sensitivity.required_runs),
    "apps": Experiment(apps.run, apps.required_runs),
    "sets": Experiment(setreport.run, setreport.required_runs,
                       takes_workloads=True),
}


#: Exit status after the reader of standard output went away: what a
#: process killed by SIGPIPE reports (128 + 13).
EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    """Run one subcommand; a reader that closes early ends it quietly.

    ``umi-experiments ... | head`` closes the pipe after a few lines.
    Every subcommand prints through ``sys.stdout``, so the resulting
    ``BrokenPipeError`` is handled here once: standard output is
    pointed at ``os.devnull`` (so the interpreter's final flush cannot
    raise again) and the exit status is :data:`EXIT_BROKEN_PIPE`.
    """
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


def _main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="umi-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment name (see --list), 'all', 'telemetry', "
             "'bench', or 'store'",
    )
    parser.add_argument(
        "target", nargs="?", default=None,
        help="for the 'telemetry' subcommand: the directory written by "
             "a previous --telemetry run; for 'store': the action "
             "('fsck')",
    )
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="workload iteration scale (default %(default)s)")
    parser.add_argument("--set", dest="set_expr", metavar="EXPR",
                        default=None,
                        help="benchmark-set expression selecting the "
                             "workloads for set-aware experiments (e.g. "
                             "'int', 'paper,thrash', 'all,!pairs'; see "
                             "repro.workloads.sets)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for independent runs "
                             "(default 1 = serial; 0 = all cores)")
    parser.add_argument("--workers", metavar="[N@]HOST:PORT",
                        default=None,
                        help="coordinate the sweep over standalone "
                             "umi-worker agents: listen on HOST:PORT "
                             "and wait for N agents (default 1) "
                             "before leasing runs to them")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="persistent result store directory; runs "
                             "found there are not re-executed")
    parser.add_argument("--no-store", action="store_true",
                        help="ignore --store and keep results in-process "
                             "only")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--bars", action="store_true",
                        help="also render figures as ASCII bar charts")
    parser.add_argument("--markdown", metavar="PATH", default=None,
                        help="also write the tables to a markdown file")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="archive every run behind the tables "
                             "(spec + serialized outcome) to a JSON file")
    parser.add_argument("--telemetry", metavar="DIR", default=None,
                        help="enable the telemetry subsystem and export "
                             "events/metrics/summary to DIR")
    resilience = parser.add_argument_group("resilience")
    resilience.add_argument("--strict", action="store_true",
                            help="abort the whole invocation on the "
                                 "first failed run (default: report "
                                 "failures, skip their tables, keep "
                                 "going)")
    resilience.add_argument("--retries", type=int, default=1,
                            metavar="N",
                            help="attempts per run group before it is "
                                 "declared failed (default %(default)s)")
    resilience.add_argument("--timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="wall-clock deadline per run group; "
                                 "overruns count as failures (and are "
                                 "retried)")
    resilience.add_argument("--resume", action="store_true",
                            help="with --store: continue an earlier "
                                 "(killed or failed) sweep, executing "
                                 "only the specs without valid stored "
                                 "records")
    resilience.add_argument("--faults", metavar="PLAN.json", default=None,
                            help="install a deterministic fault-"
                                 "injection plan (repro.faults) for "
                                 "this invocation")
    resilience.add_argument("--repair", action="store_true",
                            help="for 'store fsck': move damaged "
                                 "records into <store>/quarantine/")
    bench_group = parser.add_argument_group("bench subcommand")
    bench_group.add_argument("--quick", action="store_true",
                             help="smaller kernel inputs and fewer "
                                  "repeats (CI smoke configuration)")
    bench_group.add_argument("--check", action="store_true",
                             help="fail (exit 1) on speedup-floor "
                                  "violations or >20%% median "
                                  "regression vs the baseline")
    bench_group.add_argument("--baseline", metavar="PATH", default=None,
                             help="baseline report for --check "
                                  "(default: the existing --output "
                                  "file, if any)")
    bench_group.add_argument("--output", metavar="PATH",
                             default="BENCH_kernels.json",
                             help="where to write the bench report "
                                  "(default %(default)s)")
    bench_group.add_argument("--kernels", metavar="NAMES", default=None,
                             help="comma-separated kernel subset "
                                  "(default: all)")
    bench_group.add_argument("--warmup", type=int, default=None,
                             metavar="N",
                             help="untimed warmup iterations per kernel")
    bench_group.add_argument("--repeat", type=int, default=None,
                             metavar="N",
                             help="timed iterations per kernel")
    args = parser.parse_args(argv)

    if args.list or args.experiment is None:
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print("  all")
        print("  telemetry DIR  (render a stored --telemetry directory)")
        print("  bench          (micro-benchmark the simulation kernels)")
        print("  store fsck     (check --store health; --repair "
              "quarantines damage)")
        return 0

    if args.experiment == "bench":
        return _run_bench(args, parser)

    if args.experiment == "store":
        return _run_store(args, parser)

    if args.experiment == "telemetry":
        if args.target is None:
            parser.error("telemetry subcommand needs a directory: "
                         "umi-experiments telemetry DIR")
        try:
            print(render_telemetry_dir(args.target))
        except FileNotFoundError as exc:
            parser.error(f"not a telemetry directory: {exc}")
        return 0

    if args.experiment == "all":
        names = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        names = [args.experiment]
    else:
        parser.error(
            f"unknown experiment {args.experiment!r}; use --list"
        )

    workloads = None
    if args.set_expr is not None:
        try:
            workloads = resolve_set(args.set_expr)
        except ValueError as exc:
            parser.error(f"--set: {exc}")
        unaware = [n for n in names if not EXPERIMENTS[n].takes_workloads]
        if len(names) == 1 and unaware:
            parser.error(f"experiment {names[0]!r} has a fixed workload "
                         f"suite and does not honour --set")
        if unaware:
            print(f"[--set applies to set-aware experiments; "
                  f"{', '.join(unaware)} keep their fixed suites]")

    store = None if args.no_store else args.store
    if store is not None and os.path.exists(store) \
            and not os.path.isdir(store):
        parser.error(f"--store {store!r} exists and is not a directory")
    if args.resume and store is None:
        parser.error("--resume needs --store: there is nothing to "
                     "resume from without a persistent result store")
    if args.retries < 1:
        parser.error("--retries must be >= 1")
    if args.timeout is not None and not args.timeout > 0:
        parser.error("--timeout must be > 0 seconds")
    if not args.scale > 0:
        parser.error("--scale must be > 0")
    if args.jobs < 0:
        parser.error("--jobs must be >= 0 (0 = all cores)")
    if args.workers is not None and args.jobs != 1:
        parser.error("--workers and --jobs are mutually exclusive: "
                     "worker agents replace local worker processes")

    fault_plan = None
    if args.faults is not None:
        try:
            fault_plan = load_fault_plan(args.faults)
        except (OSError, ValueError) as exc:
            parser.error(f"--faults {args.faults!r}: {exc}")

    telemetry = get_telemetry()
    if args.telemetry:
        telemetry.reset()
        telemetry.enable()
        telemetry.event("cli.invocation", experiments=names,
                        scale=args.scale, jobs=args.jobs,
                        store=bool(store))
    try:
        with fault_injection(fault_plan):
            code = _run_experiments(args, names, store, workloads)
        if args.telemetry:
            write_telemetry_dir(telemetry, args.telemetry)
            print(f"[telemetry written to {args.telemetry}]")
    finally:
        if args.telemetry:
            telemetry.disable()
    return code


def _run_bench(args, parser) -> int:
    """The ``bench`` subcommand: run kernels, report, check, write."""
    from repro.bench import (
        KERNELS, build_report, compare_reports, load_report,
        render_report, run_kernels, write_report,
    )

    names = None
    if args.kernels:
        names = [n.strip() for n in args.kernels.split(",") if n.strip()]
        unknown = sorted(set(names) - set(KERNELS))
        if unknown:
            parser.error(f"unknown bench kernels: {', '.join(unknown)}; "
                         f"known: {', '.join(KERNELS)}")

    telemetry = get_telemetry()
    if args.telemetry:
        telemetry.reset()
        telemetry.enable()
        telemetry.event("cli.invocation", experiments=["bench"],
                        quick=args.quick, check=args.check)
    try:
        start = time.time()
        results = run_kernels(names, quick=args.quick,
                              warmup=args.warmup, repeat=args.repeat)
        elapsed = time.time() - start
        if args.telemetry:
            write_telemetry_dir(telemetry, args.telemetry)
    finally:
        if args.telemetry:
            telemetry.disable()

    report = build_report(results, quick=args.quick)
    print(render_report(report))
    print(f"[{len(results)} kernels benchmarked in {elapsed:.1f}s]")

    # Resolve the baseline before --output overwrites it.
    baseline = None
    baseline_path = args.baseline
    if baseline_path is None and args.check \
            and os.path.exists(args.output):
        baseline_path = args.output
    if baseline_path is not None:
        try:
            baseline = load_report(baseline_path)
        except FileNotFoundError:
            parser.error(f"--baseline {baseline_path!r} does not exist")
        except ValueError as exc:
            parser.error(str(exc))

    write_report(report, args.output)
    print(f"[report written to {args.output}]")

    if args.check:
        failures = compare_reports(report, baseline)
        if failures:
            print("bench check FAILED:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        against = f" vs {baseline_path}" if baseline is not None else ""
        print(f"[bench check passed{against}]")
    return 0


def _run_store(args, parser) -> int:
    """The ``store`` subcommand: offline store health (``fsck``)."""
    if args.target != "fsck":
        parser.error("unknown store action "
                     f"{args.target!r}; use: umi-experiments store fsck")
    if args.store is None:
        parser.error("store fsck needs --store DIR")
    if not os.path.isdir(args.store):
        # ResultStore would create the directory: a mistyped path must
        # not pass as an empty, healthy store.
        parser.error(f"store fsck: no store directory at {args.store!r}")
    report = ResultStore(args.store).fsck(repair=args.repair)
    print(report.render())
    if report.problems and not args.repair:
        print("[run again with --repair to quarantine the damaged "
              "records]")
        return 1
    return 0


def _run_experiments(args, names: List[str], store,
                     workloads: Optional[List[str]] = None) -> int:
    retry = RetryPolicy(max_attempts=args.retries, timeout=args.timeout)
    try:
        cache = ResultCache(scale=args.scale, jobs=args.jobs,
                            store=store, strict=args.strict,
                            retry=retry, workers=args.workers)
    except ValueError as exc:  # malformed --workers spec
        print(f"error: {exc}", file=sys.stderr)
        return 2
    def _drain(_signum, _frame):
        # Graceful coordinator shutdown: only flips a flag (and the
        # pool's hand-off bit); the wave loop notices at its next
        # pass, stops granting, lets in-flight leases finish, and
        # raises DrainInterrupt -- agents are severed, not shut down,
        # so their rejoin loops find the replacement coordinator.
        cache.engine.executor.request_drain()

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, _drain)
    except ValueError:
        pass  # not the main thread (embedded use): no handler
    try:
        if args.workers:
            pool = cache.engine.executor.pool
            host, port = pool.bind()
            print(f"[coordinator listening on {host}:{port}; waiting "
                  f"for {pool.min_workers} worker agent(s) -- start "
                  f"them with: umi-worker --connect {host}:{port}]")
        return _run_with_cache(args, names, store, workloads, cache)
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        # Idle agents get a clean Shutdown; sockets/listeners close.
        cache.engine.close()


def _worker_banner(cache: ResultCache) -> None:
    """Per-worker breakdown lines after a pooled wavefront."""
    executor = cache.engine.executor
    stats = executor.worker_stats
    kind = executor.pool_kind
    for worker in sorted(stats):
        s = stats[worker]
        liveness = ""
        if (s.get("heartbeats_missed") or s.get("rejoins")
                or s.get("stale")):
            liveness = (f", {s['heartbeats_missed']} missed beats, "
                        f"{s['rejoins']} rejoins, {s['stale']} stale")
        print(f"[worker {kind}:{worker}: {s['specs']} specs in "
              f"{s['leases']} leases, {s['retries']} retries, "
              f"{s['timeouts']} timeouts, {s['lost']} lost{liveness}]")


def _run_with_cache(args, names: List[str], store,
                    workloads: Optional[List[str]],
                    cache: ResultCache) -> int:
    def declared_runs(name: str):
        exp = EXPERIMENTS[name]
        if exp.required_runs is None:
            return None
        if exp.takes_workloads and workloads is not None:
            return exp.required_runs(cache, workloads=workloads)
        return exp.required_runs(cache)

    # One deduplicated wavefront covering every requested experiment,
    # instead of each table looping over its runs serially.
    wavefront = []
    for name in names:
        declared = declared_runs(name)
        if declared is not None:
            wavefront.extend(declared)
    if wavefront:
        if args.resume:
            distinct = set(wavefront)
            done = sum(1 for spec in distinct if spec in cache.engine.store)
            print(f"[resume: {done}/{len(distinct)} specs already "
                  f"stored; re-planning the remaining "
                  f"{len(distinct) - done}]")
        start = time.time()
        try:
            cache.prefill(wavefront)
        except DrainInterrupt:  # before KeyboardInterrupt: a subclass
            report = cache.engine.executor.last_interrupt
            done = (f"{report.completed}/{report.total} groups"
                    if report is not None else "partial progress")
            hint = (f"; restart with --store {store} --resume to "
                    f"finish" if store else "; use --store to make "
                                            "sweeps resumable")
            print(f"\n[drained: {done} completed and "
                  f"checkpointed{hint}]")
            _worker_banner(cache)
            return 143
        except KeyboardInterrupt:
            report = cache.engine.executor.last_interrupt
            done = (f"{report.completed}/{report.total} groups"
                    if report is not None else "partial progress")
            hint = (f"; resume with --store {store} --resume"
                    if store else "; use --store to make sweeps "
                                  "resumable")
            print(f"\n[interrupted: {done} completed and "
                  f"checkpointed{hint}]")
            return 130
        elapsed = time.time() - start
        # All spec-level figures: the executor's runs_executed /
        # runs_failed count fusion *groups*, which would overstate
        # "reused" (and disagree with the per-spec failed list below)
        # whenever a fused group has several members.
        attempted = cache.engine.specs_executed
        failed = len(cache.engine.failed_runs())
        executed = attempted - failed
        reused = len(set(wavefront)) - attempted
        suffix = f", {failed} failed" if failed else ""
        print(f"[wavefront: {executed} runs executed, {reused} reused"
              f"{suffix} in {elapsed:.1f}s]")
        _worker_banner(cache)
        print()

    failed_runs = cache.engine.failed_runs()
    if failed_runs:
        print(f"[{len(failed_runs)} runs failed after retries]")
        for spec, failure in failed_runs.items():
            print(f"  {failure.describe()}")
        resume_hint = (f"umi-experiments {args.experiment} --store "
                       f"{store} --resume" if store else
                       "re-run with --store to make retries cheap")
        print(f"[failed runs are not stored; fix the cause and run: "
              f"{resume_hint}]\n")

    markdown_parts: List[str] = []
    exit_code = 0
    for name in names:
        declared = declared_runs(name)
        if declared is not None and failed_runs:
            required = set(declared)
            broken = sum(1 for spec in required if spec in failed_runs)
            if broken:
                print(f"[{name} skipped: {broken} of its "
                      f"{len(required)} required runs failed]\n")
                exit_code = 1
                continue
        start = time.time()
        exp = EXPERIMENTS[name]
        kwargs = {}
        if exp.takes_workloads and workloads is not None:
            kwargs["workloads"] = workloads
        result = exp.run(scale=args.scale, cache=cache, **kwargs)
        elapsed = time.time() - start
        for tbl in _tables(result):
            print(tbl.render())
            print()
            if args.bars and name.startswith("fig"):
                try:
                    print(tbl.render_bars())
                    print()
                except ValueError:
                    pass
            if args.markdown:
                markdown_parts.append(_to_markdown(tbl))
        print(f"[{name} completed in {elapsed:.1f}s]\n")

    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(
                f"# UMI reproduction results (scale {args.scale})\n\n"
                + "\n\n".join(markdown_parts) + "\n"
            )
        print(f"[markdown written to {args.markdown}]")

    if args.json:
        _archive_runs(cache, args.json)
        print(f"[runs archived to {args.json}]")

    return exit_code


def _archive_runs(cache: ResultCache, path: str) -> None:
    """Write every resolved run (spec + outcome payload) to ``path``.

    Entries are sorted by spec digest so archives from different
    invocations of the same experiments diff cleanly.
    """
    runs = [
        {"digest": spec.digest(), "spec": spec.to_dict(),
         "outcome": payload}
        for spec, payload in cache.engine.payloads()
    ]
    runs.sort(key=lambda entry: entry["digest"])
    with open(path, "w") as handle:
        json.dump({"runs": runs}, handle, indent=2, sort_keys=True)


def _to_markdown(table: Table) -> str:
    """Render one table as GitHub-flavoured markdown."""
    def cell(fmt, value):
        return fmt.format(value) if value is not None else "-"

    lines = [f"## {table.title}", ""]
    lines.append("| " + " | ".join(table.columns) + " |")
    lines.append("|" + "---|" * len(table.columns))
    for row in table.rows:
        lines.append(
            "| " + " | ".join(
                cell(fmt, v) for fmt, v in zip(table.formats, row)
            ) + " |"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
