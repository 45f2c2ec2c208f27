"""Human summaries over exported telemetry.

Turns a registry snapshot + event log into the tables behind
``umi-experiments telemetry DIR`` and ``summary.txt``:

* an overview (specs and fusion groups executed, program builds and
  reuses, references the L1D and L1I served, wall time, the executing
  processes' peak RSS, store hit ratio, analyzer activity, event
  volume);
* the slowest executed specs (from ``executor.spec`` span events);
* per-workload analyzer time share (``span.umi.analyzer`` wall seconds
  against ``span.executor.spec`` wall seconds, per workload label) --
  the reproduction-side view of the paper's Fig. 2 overhead
  decomposition, for the reproduction's own runtime;
* the per-worker execution breakdown (``pool.*`` counters, labelled by
  pool kind and worker id): leases and specs served, retried leases,
  deadline expiries and lost-worker events per worker -- shown only
  when a run actually dispatched through a worker pool.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.stats import Table

#: How many rows the slowest-spec table shows.
TOP_SPECS = 10


def _counter_total(metrics: List[Dict[str, Any]], name: str) -> int:
    return sum(m["value"] for m in metrics
               if m["kind"] == "counter" and m["name"] == name)


def _counters_by_label(metrics: List[Dict[str, Any]], name: str,
                       label: str) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for m in metrics:
        if m["kind"] == "counter" and m["name"] == name \
                and label in m["labels"]:
            key = m["labels"][label]
            out[key] = out.get(key, 0) + m["value"]
    return out


def _timers_by_label(metrics: List[Dict[str, Any]], name: str,
                     label: str) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for m in metrics:
        if m["kind"] == "timer" and m["name"] == name \
                and label in m["labels"]:
            slot = out.setdefault(m["labels"][label],
                                  {"count": 0, "wall_s": 0.0, "cpu_s": 0.0})
            slot["count"] += m["count"]
            slot["wall_s"] += m["wall_s"]
            slot["cpu_s"] += m["cpu_s"]
    return out


def _timer_total(metrics: List[Dict[str, Any]], name: str,
                 field: str) -> float:
    return sum(m[field] for m in metrics
               if m["kind"] == "timer" and m["name"] == name)


def peak_rss_mb(events: List[Dict[str, Any]]) -> Optional[float]:
    """The largest ``maxrss_kib`` any ``executor.spec`` span recorded,
    in MiB, or ``None`` when no span recorded one."""
    peaks = [e["attrs"]["maxrss_kib"] for e in events
             if e.get("type") == "span" and e.get("name") == "executor.spec"
             and "maxrss_kib" in e.get("attrs", {})]
    return max(peaks) / 1024 if peaks else None


def overview_table(metrics: List[Dict[str, Any]],
                   events: List[Dict[str, Any]]) -> Table:
    hits = _counter_total(metrics, "store.hits")
    misses = _counter_total(metrics, "store.misses")
    probes = hits + misses
    table = Table("Telemetry overview", ["metric", "value"],
                  ["{}", "{}"])
    # One ``executor.spec`` span covers a whole fusion group, so specs
    # come from the engine's counter and the spans count executions.
    table.add_row("specs executed",
                  _counter_total(metrics, "engine.specs_executed"))
    table.add_row("fusion groups executed",
                  int(_timer_total(metrics, "span.executor.spec", "count")))
    # Each executing process keeps its last program, so a serial sweep
    # builds each distinct program once and reuses it for the rest.
    table.add_row("program builds",
                  _counter_total(metrics, "workloads.program_builds"))
    table.add_row("program reuses",
                  _counter_total(metrics, "workloads.program_reuses"))
    # Read from the L1D and L1I stats after each execution, so it
    # counts references served inline by compiled blocks too.
    table.add_row("references served",
                  _counter_total(metrics, "memory.refs_served"))
    table.add_row("spec wall seconds",
                  "%.3f" % _timer_total(metrics, "span.executor.spec",
                                        "wall_s"))
    # Spans record KiB and the row shows MiB.  Each process reports
    # its own peak, so with pool workers the row is the largest one.
    peak = peak_rss_mb(events)
    table.add_row("peak RSS (MB)", "-" if peak is None else "%.1f" % peak)
    table.add_row("engine wavefronts",
                  int(_timer_total(metrics, "span.engine.wavefront",
                                   "count")))
    table.add_row("store hits", hits)
    table.add_row("store misses", misses)
    table.add_row("store hit ratio",
                  "%.3f" % (hits / probes) if probes else "-")
    table.add_row("analyzer invocations",
                  _counter_total(metrics, "umi.analyzer_invocations"))
    table.add_row("profiles collected",
                  _counter_total(metrics, "umi.profiles_collected"))
    table.add_row("traces instrumented",
                  _counter_total(metrics, "umi.traces_instrumented"))
    table.add_row("mini-sim flushes",
                  _counter_total(metrics, "umi.mini_sim_flushes"))
    table.add_row("prefetch injections",
                  _counter_total(metrics, "umi.prefetch_injections"))
    table.add_row("events recorded", len(events))
    return table


def slowest_specs_table(events: List[Dict[str, Any]],
                        top: int = TOP_SPECS) -> Table:
    spans = [e for e in events
             if e.get("type") == "span" and e.get("name") == "executor.spec"]
    spans.sort(key=lambda e: (-e["wall_s"], e.get("seq", 0)))
    total = sum(e["wall_s"] for e in spans)
    table = Table(f"Slowest specs (top {top})",
                  ["rank", "spec", "wall s", "cpu s", "share"],
                  ["{}", "{}", "{:.3f}", "{:.3f}", "{:.1%}"])
    for rank, event in enumerate(spans[:top], start=1):
        attrs = event.get("attrs", {})
        table.add_row(rank, attrs.get("spec", "?"), event["wall_s"],
                      event["cpu_s"],
                      event["wall_s"] / total if total else 0.0)
    return table


def analyzer_share_table(metrics: List[Dict[str, Any]]) -> Table:
    spec_time = _timers_by_label(metrics, "span.executor.spec", "workload")
    analyzer_time = _timers_by_label(metrics, "span.umi.analyzer",
                                     "workload")
    invocations = _counters_by_label(metrics, "umi.analyzer_invocations",
                                     "workload")
    table = Table(
        "Analyzer time share per workload",
        ["workload", "spec wall s", "analyzer wall s", "share",
         "invocations"],
        ["{}", "{:.3f}", "{:.3f}", "{:.1%}", "{}"],
    )
    for workload in sorted(spec_time):
        wall = spec_time[workload]["wall_s"]
        analyzer = analyzer_time.get(workload, {}).get("wall_s", 0.0)
        table.add_row(workload, wall, analyzer,
                      analyzer / wall if wall else 0.0,
                      invocations.get(workload, 0))
    return table


def _counters_by_labels(metrics: List[Dict[str, Any]], name: str,
                        labels: tuple) -> Dict[tuple, int]:
    """Counter totals grouped by a tuple of label values."""
    out: Dict[tuple, int] = {}
    for m in metrics:
        if m["kind"] != "counter" or m["name"] != name:
            continue
        if not all(label in m["labels"] for label in labels):
            continue
        key = tuple(m["labels"][label] for label in labels)
        out[key] = out.get(key, 0) + m["value"]
    return out


def workers_table(metrics: List[Dict[str, Any]]) -> Optional[Table]:
    """Per-worker execution breakdown, or ``None`` without pool data.

    Rows come from the coordinator's ``pool.*`` counters, one row per
    ``(pool kind, worker id)``: how many leases and specs the worker
    served, how many of its leases were retry attempts, how many
    expired (deadline) or were lost (the worker died mid-lease or went
    silent), and the liveness tallies -- missed heartbeats, rejoins
    after a partition/sever, and stale results fenced off by the lease
    epoch.
    """
    # Mirrors repro.engine.executor.WORKER_STAT_FIELDS (one labelled
    # ``pool.<stat>`` counter per per-worker tally).
    fields = ("leases", "specs", "retries", "timeouts", "lost",
              "heartbeats_missed", "rejoins", "stale")
    key = ("pool", "worker")
    stats = {stat: _counters_by_labels(metrics, f"pool.{stat}", key)
             for stat in fields}
    workers = sorted(set().union(*(s.keys() for s in stats.values())))
    if not workers:
        return None
    table = Table(
        "Execution per worker",
        ["pool", "worker", "leases", "specs", "retries", "timeouts",
         "lost", "missed beats", "rejoins", "stale"],
        ["{}"] * 10,
    )
    for pool, worker in workers:
        table.add_row(pool, worker,
                      *(stats[stat].get((pool, worker), 0)
                        for stat in fields))
    return table


def summary_tables(metrics: List[Dict[str, Any]],
                   events: List[Dict[str, Any]]) -> List[Table]:
    tables = [overview_table(metrics, events),
              slowest_specs_table(events),
              analyzer_share_table(metrics)]
    per_worker = workers_table(metrics)
    if per_worker is not None:
        tables.append(per_worker)
    return tables


def render_summary(metrics: List[Dict[str, Any]],
                   events: List[Dict[str, Any]]) -> str:
    return "\n\n".join(t.render() for t in summary_tables(metrics, events))


def render_telemetry_dir(directory) -> str:
    """Render the summary for a stored ``--telemetry`` directory."""
    from .export import load_telemetry_dir  # local import: avoids a cycle

    metrics, events = load_telemetry_dir(directory)
    return render_summary(metrics, events)
