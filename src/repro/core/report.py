"""Human-readable introspection reports.

Formats a :class:`repro.core.UMIResult` the way a profiler presents its
output: a run summary, the memory-behaviour verdict, and a ranked
per-instruction table with source locations (block label + index, the
closest thing the virtual ISA has to file:line).
"""

from __future__ import annotations

from typing import List, Optional

from repro.isa import Program

from .umi import UMIResult


def _bar(value: float, width: int = 20) -> str:
    filled = max(0, min(width, round(value * width)))
    return "#" * filled + "." * (width - filled)


def format_report(result: UMIResult, program: Program,
                  top: int = 20) -> str:
    """Render a full introspection report as text."""
    lines: List[str] = []
    title = f"UMI introspection report: {result.program_name}"
    lines.append(title)
    lines.append("=" * len(title))

    # -- run summary -------------------------------------------------------
    rt = result.runtime_stats
    lines.append("")
    lines.append("run summary")
    lines.append(f"  cycles executed        {result.cycles:>14,}")
    lines.append(f"  instructions           {result.steps:>14,}")
    lines.append(f"  traces built           {rt.traces_built:>14,}")
    lines.append(f"  trace cache residency  {rt.trace_residency:>13.1%}")
    lines.append(f"  timer samples          {rt.timer_samples:>14,}")

    # -- profiling summary ---------------------------------------------------
    row = result.profiling_row(program.static_loads(),
                               program.static_stores())
    lines.append("")
    lines.append("profiling")
    lines.append(f"  static memory ops      "
                 f"{row['static_loads'] + row['static_stores']:>14,}")
    lines.append(f"  operations profiled    "
                 f"{row['profiled_operations']:>14,}"
                 f"  ({row['pct_profiled']:.1f}%)")
    lines.append(f"  profiles collected     "
                 f"{row['profiles_collected']:>14,}")
    lines.append(f"  analyzer invocations   "
                 f"{row['analyzer_invocations']:>14,}")

    # -- memory behaviour -------------------------------------------------------
    lines.append("")
    lines.append("memory behaviour")
    lines.append(f"  mini-simulated L2 miss ratio  "
                 f"{result.simulated_miss_ratio:>7.3f}  "
                 f"|{_bar(result.simulated_miss_ratio)}|")
    lines.append(f"  machine-measured L2 miss ratio"
                 f"{result.hardware_l2_miss_ratio:>7.3f}  "
                 f"|{_bar(result.hardware_l2_miss_ratio)}|")

    # -- per-instruction detail ----------------------------------------------------
    ranked = sorted(result.pc_miss_ratios.items(),
                    key=lambda kv: -kv[1])[:top]
    if ranked:
        lines.append("")
        lines.append(f"hottest profiled operations (top {len(ranked)})")
        lines.append("  pc          location            kind   "
                     "miss ratio")
        for pc, ratio in ranked:
            label, idx = program.locate_pc(pc)
            ins = program.instruction_at(pc)
            kind = "load " if ins.is_load() else "store"
            mark = "  DELINQUENT" if pc in result.predicted_delinquent \
                else ""
            lines.append(
                f"  {pc:#010x}  {label + '[' + str(idx) + ']':<18s}  "
                f"{kind}  {ratio:>7.3f} |{_bar(ratio, 12)}|{mark}"
            )

    # -- prefetching --------------------------------------------------------------
    if result.prefetch_stats is not None and result.prefetch_stats.count:
        lines.append("")
        lines.append("injected software prefetches")
        for pc, rec in result.prefetch_stats.injected.items():
            label, idx = program.locate_pc(pc)
            lines.append(
                f"  {pc:#010x}  {label}[{idx}]  stride {rec.stride:+d}B "
                f"x{rec.lookahead} (confidence {rec.confidence:.0%})"
            )
    return "\n".join(lines)


def format_summary_line(result: UMIResult) -> str:
    """A one-line summary, for logs."""
    return (
        f"{result.program_name}: {result.cycles:,} cycles, "
        f"sim-mr {result.simulated_miss_ratio:.3f}, "
        f"hw-mr {result.hardware_l2_miss_ratio:.3f}, "
        f"{len(result.predicted_delinquent)} delinquent, "
        f"{result.umi_stats.profiles_collected} profiles"
    )
