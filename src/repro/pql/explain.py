"""EXPLAIN for compiled PQL queries.

Renders everything the compiler derived from a query as text: per-rule
direction and stratum, the join plans with their binding modes, the
semi-join and time-slice annotations, which provenance relations will be
auto-captured online, the history windows, and the evaluation modes the
query is eligible for; verbose, each plan's layer-program ops as well.
Exposed on the CLI as ``python -m repro explain``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.pql.analysis import CompiledQuery, relation_windows
from repro.pql.eval import MODE_ANCHORED, MODE_FREE, MODE_LOCATED
from repro.pql.plan import (
    BIND,
    CHECK_TERM,
    CHECK_VAR,
    CallStep,
    CompareStep,
    CompiledRule,
    RulePlan,
    ScanStep,
)
from repro.pql.vectorized import CopyProgram, layer_program


def _describe_arg(op: str, payload: Any) -> str:
    if op == BIND:
        return f"bind {payload}"
    if op == CHECK_VAR:
        return f"={payload}"
    if op == CHECK_TERM:
        return f"={payload}"
    return "_"


def _describe_step(step: Any, indent: str) -> List[str]:
    if isinstance(step, ScanStep):
        args = ", ".join(_describe_arg(op, p) for op, p in step.arg_ops)
        flags = []
        if step.negated:
            flags.append("anti-join")
        if step.exists:
            flags.append("semi-join")
        if step.remote:
            flags.append("remote, proven complete" if step.complete
                         else "remote")
        if step.time_bound:
            flags.append("superstep-indexed")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        lines = [f"{indent}scan {step.relation}({args}){suffix}"]
        for post in step.post_filters:
            lines.extend(_describe_step(post, indent + "  & "))
        return lines
    if isinstance(step, CompareStep):
        if step.bind_var is not None:
            return [f"{indent}let {step.bind_var} := "
                    f"{step.right if step.bind_from_left else step.left}"]
        return [f"{indent}filter {step.left} {step.op} {step.right}"]
    if isinstance(step, CallStep):
        neg = "not " if step.negated else ""
        args = ", ".join(str(a) for a in step.args)
        return [f"{indent}filter {neg}{step.func}({args})"]
    return [f"{indent}{step!r}"]


def _describe_plan(plan: RulePlan, label: str, program: Any,
                   verbose: bool) -> List[str]:
    kind = "copy" if isinstance(program, CopyProgram) else "layer"
    lines = [f"    {label} plan (prebound: "
             f"{', '.join(plan.prebound) or 'none'}) [{kind} program]:"]
    for step in plan.steps:
        lines.extend(_describe_step(step, "      "))
    if verbose:  # the column ops the evaluator runs for this plan
        lines.append(f"      {kind} program:")
        lines.extend("        " + op for op in program.describe())
    return lines


def explain_rule(crule: CompiledRule, verbose: bool = False) -> str:
    lines = [f"  rule {crule.index}: {crule.rule}"]
    kind = "static (setup)" if crule.is_static else crule.direction
    lines.append(
        f"    stratum {crule.stratum}, {kind}"
        + (", aggregate" if crule.is_aggregate else "")
        + (", hoisted (layered: once, before the layer loop)"
           if crule.hoisted else "")
        + (
            f", anchored on {crule.time_var}"
            if crule.time_var is not None
            else ""
        )
    )
    if crule.remote_relations:
        lines.append(
            f"    remote tables: {', '.join(crule.remote_relations)}"
        )
    if crule.is_static:
        plans = [("setup", crule.free_plan, MODE_FREE)]
    else:
        plans = [("anchored", crule.anchored_plan, MODE_ANCHORED),
                 ("located", crule.located_plan, MODE_LOCATED)]
    # How every runtime evaluates the plan — the online superstep program
    # and the offline drivers alike.
    for label, plan, mode in plans if verbose else plans[:1]:
        lines.extend(_describe_plan(plan, label, layer_program(crule, mode),
                                    verbose))
    return "\n".join(lines)


def explain(
    compiled: CompiledQuery,
    verbose: bool = False,
    timings: "Optional[Dict[int, float]]" = None,
    run_stats: "Optional[Dict[str, Any]]" = None,
) -> str:
    """Render a compiled query's full compilation report.

    ``timings`` maps stratum number → observed evaluation seconds (the
    ``stratum_seconds`` collected by the offline runtimes when tracing is
    on); when given, the report closes with the measured cost of each
    stratum so plan structure and runtime cost read side by side.
    ``run_stats`` is a run's stats dict; when it carries a run's
    evaluator counters (online or offline), the report closes with how
    many layer programs ran.
    """
    lines = [
        f"direction: {compiled.direction}",
        "eligible modes: "
        + ", ".join(
            mode
            for mode, ok in (
                ("online", compiled.online_eligible),
                ("layered", compiled.layered_eligible),
                ("naive", not compiled.uses_stream),
            )
            if ok
        ),
    ]
    if compiled.auto_capture:
        windows = relation_windows(compiled)
        rendered = []
        for relation in sorted(compiled.auto_capture):
            window = windows.get(relation)
            rendered.append(
                f"{relation}"
                + (
                    f" (window {window})"
                    if window is not None
                    else " (full history)"
                )
            )
        lines.append("auto-captured online: " + ", ".join(rendered))
    if compiled.stream_relations:
        lines.append(
            "stream relations: " + ", ".join(sorted(compiled.stream_relations))
        )
    if compiled.remote_relations:
        lines.append(
            "shipped to neighbors: "
            + ", ".join(sorted(compiled.remote_relations))
        )
    lines.append(f"strata: {len([s for s in compiled.strata if s])}"
                 f" + {len(compiled.static_rules)} setup rule(s)")
    for crule in compiled.static_rules:
        lines.append(explain_rule(crule, verbose))
    for stratum in compiled.strata:
        for crule in stratum:
            lines.append(explain_rule(crule, verbose))
    if timings:
        total = sum(timings.values())
        lines.append("observed stratum timings:")
        for stratum_no in sorted(timings):
            seconds = timings[stratum_no]
            share = seconds / total if total else 0.0
            lines.append(
                f"  stratum {stratum_no}: {seconds * 1000:.3f} ms"
                f" ({share:.1%} of evaluation)"
            )
    if run_stats is not None and "rules_vectorized" in run_stats:
        lines.append(
            f"observed evaluator: {run_stats['rules_vectorized']} layer"
            " program run(s)")
    return "\n".join(lines)
