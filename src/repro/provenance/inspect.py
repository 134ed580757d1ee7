"""Interactive provenance inspection — the Graft-style zoom-in view.

The paper's related work (Graft, Lipstick) offers visual, per-vertex
debugging; Ariadne's answer is declarative queries, but once a query has
narrowed attention to a handful of vertices, developers still want to *look*
at them. This module renders the provenance neighborhood of a vertex as
text: its value timeline, the messages it exchanged per superstep, and an
ASCII slice of the unfolded provenance graph (Figure 3 as a printout).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.provenance.spill import SLAB_FORMAT
from repro.provenance.store import ProvenanceStore


def value_timeline(store: ProvenanceStore, vertex: Any) -> List[Tuple[int, Any]]:
    """``(superstep, value)`` pairs of one vertex, in superstep order."""
    rows = store.partition("value", vertex)
    return sorted((i, d) for _x, d, i in rows)


def activity(store: ProvenanceStore, vertex: Any) -> List[int]:
    """Supersteps the vertex computed in."""
    return sorted(i for _x, i in store.partition("superstep", vertex))


def messages_at(
    store: ProvenanceStore, vertex: Any, superstep: int
) -> Dict[str, List[Tuple[Any, Any]]]:
    """Messages of one vertex at one superstep: received and sent."""
    received = [
        (y, m)
        for _x, y, m, _i in store.partition_at(
            "receive_message", vertex, superstep
        )
    ]
    sent = [
        (y, m)
        for _x, y, m, _i in store.partition_at(
            "send_message", vertex, superstep
        )
    ]
    return {"received": sorted(received, key=repr),
            "sent": sorted(sorted(sent, key=repr))}


def neighborhood(
    store: ProvenanceStore, vertex: Any, hops: int = 1
) -> Set[Any]:
    """Vertices within ``hops`` message exchanges of ``vertex``."""
    frontier = {vertex}
    seen = {vertex}
    for _ in range(hops):
        nxt: Set[Any] = set()
        for v in frontier:
            for _x, y, _m, _i in store.partition("receive_message", v):
                nxt.add(y)
            for _x, y, _m, _i in store.partition("send_message", v):
                nxt.add(y)
        nxt -= seen
        seen |= nxt
        frontier = nxt
    return seen


def _fmt(value: Any, width: int = 10) -> str:
    if isinstance(value, float):
        text = f"{value:.4g}"
    else:
        text = str(value)
    return text[:width]


def render_vertex(
    store: ProvenanceStore, vertex: Any, max_messages: int = 4
) -> str:
    """One vertex's execution history as a readable text block."""
    lines = [f"vertex {vertex}"]
    timeline = dict(value_timeline(store, vertex))
    for superstep in activity(store, vertex):
        value = timeline.get(superstep, "?")
        parts = [f"  s{superstep:<3} value={_fmt(value)}"]
        exchange = messages_at(store, vertex, superstep)
        if exchange["received"]:
            shown = exchange["received"][:max_messages]
            more = len(exchange["received"]) - len(shown)
            text = ", ".join(f"{y}:{_fmt(m, 7)}" for y, m in shown)
            parts.append(f"recv[{text}{', ...' if more > 0 else ''}]")
        if exchange["sent"]:
            shown = exchange["sent"][:max_messages]
            more = len(exchange["sent"]) - len(shown)
            text = ", ".join(f"{y}:{_fmt(m, 7)}" for y, m in shown)
            parts.append(f"sent[{text}{', ...' if more > 0 else ''}]")
        lines.append("  ".join(parts))
    if len(lines) == 1:
        lines.append("  (no captured activity)")
    return "\n".join(lines)


def render_slice(
    store: ProvenanceStore,
    vertices: List[Any],
    first_superstep: int = 0,
    last_superstep: Optional[int] = None,
) -> str:
    """An ASCII slice of the unfolded provenance graph: one column per
    superstep, one row per vertex; ``*`` marks an execution, ``.`` none."""
    if last_superstep is None:
        last_superstep = store.max_superstep
    supersteps = range(first_superstep, last_superstep + 1)
    width = max((len(str(v)) for v in vertices), default=1)
    header = " " * (width + 2) + " ".join(f"s{i:<3}" for i in supersteps)
    lines = [header]
    for v in vertices:
        active = set(activity(store, v))
        cells = " ".join(
            ("*" if i in active else ".").ljust(4) for i in supersteps
        )
        lines.append(f"{str(v).rjust(width)}  {cells}")
    return "\n".join(lines)


def summarize(store: ProvenanceStore) -> str:
    """One-paragraph overview of a captured store."""
    counts = store.counts()
    lines = [
        f"provenance store: {store.num_rows} facts, "
        f"{store.num_layers} layers, {store.total_bytes()} bytes",
    ]
    for relation in sorted(counts):
        lines.append(
            f"  {relation}: {counts[relation]} rows over "
            f"{len(store.vertices(relation))} vertices"
        )
    return "\n".join(lines)


def summarize_slabs(spill: Any) -> str:
    """Per-slab physical layout of a sealed store directory.

    Reads slab footers only: each slab line shows its on-disk size next
    to the decoded (uncompressed segment) size, and each relation its
    rows, partitions, and per-column lanes
    (``i64``/``f64``/``str``/``pkl``).
    """
    lines = [
        f"sealed store: format={SLAB_FORMAT} "
        f"compression={spill.compression} dir={spill.directory}"
    ]
    # static first, layers in order
    for key in ["static", *spill.sealed_layers()]:
        slab = spill.open_columnar_slab(key)
        info = slab.describe()
        lines.append(
            f"  {os.path.basename(slab.path)}: format={SLAB_FORMAT} "
            f"on_disk={info['on_disk_bytes']} decoded={info['raw_bytes']}"
        )
        for relation in sorted(info["relations"]):
            rel = info["relations"][relation]
            lanes = ",".join(rel["lanes"])
            lines.append(
                f"    {relation}: rows={rel['rows']} "
                f"partitions={rel['partitions']} lanes=[{lanes}] "
                f"decoded={rel['raw_bytes']}"
            )
    return "\n".join(lines)
