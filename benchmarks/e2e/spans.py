"""The benchmark's own spans: recorded around each call into a layer.

A span is ``name`` (the public function called), ``layer`` (the module
that owns it), start, end, the span that caused it, and the rep it
belongs to.  Spans stay in memory and are written to
``out/trace.<workload>.jsonl`` when the benchmark ends.

Self time is a span's duration minus the part of that interval its child
spans cover (children may overlap — two serve clients in flight — so the
cover is the union of their intervals, clipped to the parent).

The program's own ``repro.obs`` tracer is folded in per call: the obs
events recorded while a benchmark span was open become that span's
children, one synthetic span per obs phase carrying the phase's total
less the phases nested in it.  No ``src/`` change is needed; spans *inside* the program are a
later issue.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

TRACE_SCHEMA = 1
SPAN_KEYS = ("type", "id", "parent", "name", "layer", "rep",
             "start_us", "end_us", "self_us", "synthetic")

#: Which phase each ``repro.obs`` phase runs inside (first one present in
#: the trace wins) — the hierarchy documented in ``repro.obs.trace``, plus
#: the server's request span around its evaluations.
OBS_NESTING = {
    "superstep": ("run",),
    "compute": ("superstep",),
    "message-barrier": ("superstep",),
    "spill": ("superstep",),
    "transport": ("superstep",),
    "checkpoint": ("message-barrier",),
    "provenance-capture": ("compute",),
    "query-eval": ("compute", "serve"),
}


def covered(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, int]:
    """Self microseconds per span id."""
    children: Dict[Any, List[Tuple[int, int]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start_us"], span["end_us"]))
    return {
        span["id"]: (span["end_us"] - span["start_us"]) - covered(
            children.get(span["id"], ()), span["start_us"], span["end_us"])
        for span in spans
    }


class Recorder:
    """In-memory span recorder; a disabled recorder records nothing, so
    the untraced run pays one attribute test per call."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self._stack = threading.local()

    def current(self) -> Optional[int]:
        """Id of this thread's innermost open span (to hand to workers)."""
        return getattr(self._stack, "top", None)

    @contextmanager
    def span(self, name: str, layer: str, rep: Any = None,
             parent: Optional[int] = None, obs: bool = False,
             **attrs: Any) -> Iterator[Optional[Dict[str, Any]]]:
        """Time a call.  ``parent`` defaults to the enclosing span of this
        thread; pass it explicitly from worker threads.  With ``obs`` the
        program's tracer is switched on for the call and folded in."""
        if not self.enabled:
            yield None
            return
        with self._lock:
            span_id = next(self._ids)
        record = {
            "type": "span", "id": span_id,
            "parent": parent if parent is not None else self.current(),
            "name": name, "layer": layer, "rep": rep,
            "synthetic": False, "attrs": attrs,
        }
        previous = self.current()
        self._stack.top = span_id
        tracer = sink = restore = None
        if obs:
            from repro.obs import InMemorySink, Tracer, set_tracer

            sink = InMemorySink()
            tracer = Tracer(sink)
            restore = set_tracer(tracer)
        record["start_us"] = time.perf_counter_ns() // 1000
        try:
            yield record
        finally:
            record["end_us"] = time.perf_counter_ns() // 1000
            self._stack.top = previous
            if tracer is not None:
                from repro.obs import set_tracer

                tracer.close()
                set_tracer(restore)
            self.spans.append(record)
            if sink is not None:
                self.fold_obs(record, sink.events)

    def fold_obs(self, parent: Dict[str, Any],
                 events: List[Dict[str, Any]]) -> None:
        """Attach ``repro.obs.summarize`` phase totals to ``parent`` as
        synthetic child spans, one per phase.

        Phases nest (``OBS_NESTING``), and the per-vertex ones are
        recorded as back-dated sums beside the span they ran inside, so a
        phase's span covers its total minus the totals of the phases
        nested in it: the children then sum to the time the program's own
        spans cover and nothing is counted twice.
        """
        from repro.obs import summarize

        phases = summarize(events)["phases"]
        total_us = {name: int(agg["total_seconds"] * 1e6)
                    for name, agg in phases.items()}
        own_us = dict(total_us)
        for phase, outers in OBS_NESTING.items():
            outer = next((o for o in outers if o in total_us), None)
            if phase in total_us and outer is not None:
                own_us[outer] -= total_us[phase]
        # Laid end to end inside the parent.  Concurrent server threads
        # can sum to more than the parent's wall: then all shrink alike,
        # keeping their shares (``total_us`` keeps the unscaled figure).
        own_us = {phase: max(0, us) for phase, us in own_us.items()}
        room = parent["end_us"] - parent["start_us"]
        scale = min(1.0, room / max(1, sum(own_us.values())))
        cursor = parent["start_us"]
        for phase in sorted(own_us):
            duration = int(own_us[phase] * scale)
            with self._lock:
                span_id = next(self._ids)
            self.spans.append({
                "type": "span", "id": span_id, "parent": parent["id"],
                "name": f"obs:{phase}", "layer": "repro.obs",
                "rep": parent["rep"], "synthetic": True,
                "start_us": cursor, "end_us": cursor + duration,
                "attrs": {"count": phases[phase]["count"],
                          "total_us": total_us[phase]},
            })
            cursor += duration

    def add_child(self, parent: Dict[str, Any], name: str, layer: str,
                  duration_us: int, **attrs: Any) -> None:
        """A synthetic child for a duration reported by the program (the
        serve response's evaluation seconds), laid at the parent's end."""
        if not self.enabled:
            return
        duration_us = min(duration_us, parent["end_us"] - parent["start_us"])
        with self._lock:
            span_id = next(self._ids)
        self.spans.append({
            "type": "span", "id": span_id, "parent": parent["id"],
            "name": name, "layer": layer, "rep": parent["rep"],
            "synthetic": True, "start_us": parent["end_us"] - duration_us,
            "end_us": parent["end_us"], "attrs": attrs,
        })

    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Stamp ``self_us`` on every span."""
        own = self_times(self.spans)
        for span in self.spans:
            span["self_us"] = own[span["id"]]

    def self_by_name(self) -> Dict[str, float]:
        """Self seconds summed per span name."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span["name"]] = out.get(span["name"], 0.0) + span["self_us"] / 1e6
        return out

    def attributed_frac(self) -> float:
        """Share of the traced reps' wall that carries a layer's name.

        Un-named time is the self time of the ``rep`` spans (benchmark
        glue: gc, digests, thread joins) plus the self time of any call
        span that has folded obs children: time inside the program that
        none of its own spans cover.
        """
        wall = sum(s["end_us"] - s["start_us"] for s in self.spans
                   if s["name"] == "rep")
        if not wall:
            return 0.0
        has_obs = {s["parent"] for s in self.spans
                   if s["name"].startswith("obs:")}
        unnamed = sum(s["self_us"] for s in self.spans
                      if s["name"] == "rep" or s["id"] in has_obs)
        return 1.0 - unnamed / wall

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "meta", "schema": TRACE_SCHEMA,
                                 "clock": "perf_counter_ns", "unit": "us",
                                 **meta}, sort_keys=True, default=repr))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True, default=repr))
                fh.write("\n")


def validate_trace(path: str) -> List[str]:
    """Problems found in a trace file written by :meth:`Recorder.write`
    (empty when it validates)."""
    problems: List[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or lines[0].get("type") != "meta":
        return [f"{path}: first line is not the meta record"]
    if lines[0].get("schema") != TRACE_SCHEMA:
        problems.append(f"{path}: unknown schema {lines[0].get('schema')!r}")
    spans = lines[1:]
    by_id = {}
    for span in spans:
        missing = [key for key in SPAN_KEYS if key not in span]
        if missing:
            problems.append(f"span {span.get('id')!r}: missing {missing}")
            continue
        if span["id"] in by_id:
            problems.append(f"span {span['id']}: duplicate id")
        by_id[span["id"]] = span
        if span["end_us"] < span["start_us"]:
            problems.append(f"span {span['id']}: ends before it starts")
        if span["self_us"] < 0:
            problems.append(f"span {span['id']}: negative self time")
    for span in by_id.values():
        parent = span["parent"]
        if parent is None:
            continue
        if parent not in by_id:
            problems.append(f"span {span['id']}: unknown parent {parent}")
        elif not (by_id[parent]["start_us"] <= span["start_us"]
                  and span["end_us"] <= by_id[parent]["end_us"]):
            problems.append(f"span {span['id']}: not inside parent {parent}")
    if not any(span["parent"] is None for span in by_id.values()):
        problems.append(f"{path}: no root span")
    return problems
