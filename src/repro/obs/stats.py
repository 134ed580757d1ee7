"""Trace-file analysis behind ``repro stats``.

Summarizes a JSONL trace into per-phase aggregates (count, total, mean,
min/max, share of run wall time) plus a coverage check: the superstep
spans of a run should sum, within tolerance, to the run span itself —
if they do not, something is executing outside the instrumented phases.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.obs.trace import PHASE_RUN, PHASE_SUPERSTEP


def summarize(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a decoded event stream into a summary dict."""
    phases: Dict[str, Dict[str, Any]] = {}
    run_seconds = 0.0
    num_runs = 0
    superstep_seconds = 0.0
    num_supersteps = 0
    num_instants = 0
    for event in events:
        etype = event.get("type")
        if etype == "instant":
            num_instants += 1
            continue
        if etype != "span":
            continue
        seconds = event["dur"] / 1e6
        cat = event["cat"]
        agg = phases.get(cat)
        if agg is None:
            agg = phases[cat] = {
                "count": 0, "total_seconds": 0.0,
                "min_seconds": seconds, "max_seconds": seconds,
            }
        agg["count"] += 1
        agg["total_seconds"] += seconds
        agg["min_seconds"] = min(agg["min_seconds"], seconds)
        agg["max_seconds"] = max(agg["max_seconds"], seconds)
        if cat == PHASE_RUN:
            run_seconds += seconds
            num_runs += 1
        elif cat == PHASE_SUPERSTEP:
            superstep_seconds += seconds
            num_supersteps += 1
    for agg in phases.values():
        agg["mean_seconds"] = agg["total_seconds"] / agg["count"]
        if run_seconds > 0:
            agg["share_of_run"] = agg["total_seconds"] / run_seconds
    return {
        "phases": phases,
        "runs": num_runs,
        "run_seconds": run_seconds,
        "supersteps": num_supersteps,
        "superstep_seconds": superstep_seconds,
        # fraction of run wall time covered by superstep spans
        "coverage": (superstep_seconds / run_seconds) if run_seconds else None,
        "instants": num_instants,
    }


def render_summary(summary: Dict[str, Any]) -> str:
    """Format a summary as an aligned text report."""
    lines: List[str] = []
    runs = summary["runs"]
    if runs:
        lines.append(
            f"{runs} run(s), {summary['supersteps']} superstep span(s), "
            f"{summary['run_seconds']:.3f}s total run wall"
        )
        coverage = summary["coverage"]
        if coverage is not None:
            lines.append(
                f"superstep spans cover {coverage:.1%} of run wall time"
            )
    else:
        lines.append("no run spans in trace")
    if summary["instants"]:
        lines.append(f"{summary['instants']} instant event(s)")

    phases = summary["phases"]
    if phases:
        headers = ["phase", "count", "total s", "mean s", "max s", "% run"]
        rows = []
        order = sorted(
            phases, key=lambda c: phases[c]["total_seconds"], reverse=True
        )
        for cat in order:
            agg = phases[cat]
            share = agg.get("share_of_run")
            rows.append([
                cat,
                str(agg["count"]),
                f"{agg['total_seconds']:.4f}",
                f"{agg['mean_seconds']:.6f}",
                f"{agg['max_seconds']:.4f}",
                f"{share:.1%}" if share is not None else "-",
            ])
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows))
            for i in range(len(headers))
        ]
        lines.append("")
        lines.append("  ".join(
            h.ljust(widths[i]) for i, h in enumerate(headers)
        ))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(
                cell.ljust(widths[i]) for i, cell in enumerate(row)
            ))
    return "\n".join(lines)
