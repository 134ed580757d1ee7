"""Edge-list I/O.

The webgraph datasets the paper uses ship as plain edge lists; this module
reads and writes the same format so users can load their own graphs:

* unweighted: one ``u v`` pair per line,
* weighted: ``u v w`` triples.

Lines starting with ``#`` or ``%`` are comments (SNAP / Matrix Market style).
"""

from __future__ import annotations

import os
from typing import IO, Iterator, Tuple, Union

from repro.errors import GraphError
from repro.graph.digraph import DiGraph

PathLike = Union[str, "os.PathLike[str]"]


def _data_lines(fh: IO[str]) -> Iterator[Tuple[int, str]]:
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        yield lineno, line


def read_edge_list(path: PathLike, weighted: bool = False) -> DiGraph:
    """Read a directed graph from a whitespace-separated edge-list file."""
    g = DiGraph()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in _data_lines(fh):
            parts = line.split()
            if weighted:
                if len(parts) < 3:
                    raise GraphError(
                        f"{path}:{lineno}: expected 'u v w', got {line!r}"
                    )
                g.add_edge(int(parts[0]), int(parts[1]), float(parts[2]))
            else:
                if len(parts) < 2:
                    raise GraphError(
                        f"{path}:{lineno}: expected 'u v', got {line!r}"
                    )
                g.add_edge(int(parts[0]), int(parts[1]))
    return g


def write_edge_list(g: DiGraph, path: PathLike, weighted: bool = False) -> None:
    """Write ``g`` as an edge list; with ``weighted`` include edge values."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# |V|={g.num_vertices} |E|={g.num_edges}\n")
        for u, v, value in g.edges():
            if weighted:
                fh.write(f"{u} {v} {value if value is not None else 1.0}\n")
            else:
                fh.write(f"{u} {v}\n")
        # Isolated vertices would otherwise be lost on round-trip.
        for v in g.vertices():
            if g.out_degree(v) == 0 and g.in_degree(v) == 0:
                fh.write(f"# isolated {v}\n")
