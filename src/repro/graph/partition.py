"""The vertex partitioner.

The engine splits the vertex set across N simulated workers exactly like
Giraph does by default: hash partitioning on the vertex id. Messages between
vertices on the same worker are "local"; crossing a partition boundary
counts as simulated network traffic in the engine metrics
(``cross_worker_messages``). There is no other partitioner: the count is
the only thing a partitioning changes (DESIGN.md §7).

Partition assignments must be *stable*: cross-run comparisons of
``cross_worker_messages`` assume the same id always lands on the same
worker.
Python's builtin ``hash`` is salted per process for ``str`` (and anything
containing one), so :class:`HashPartitioner` hashes with ``zlib.crc32`` over
a canonical encoding instead.
"""

from __future__ import annotations

import zlib
from typing import Hashable, List, Sequence

from repro.errors import EngineError


def stable_hash(vertex_id: Hashable) -> int:
    """Process- and run-independent hash of a vertex id.

    Integers (the library's common case) hash to themselves, preserving the
    perfect balance of dense id spaces and the seed engine's assignments.
    Everything else is hashed with ``crc32`` over a canonical UTF-8
    encoding (the string itself for ``str`` ids, ``repr`` for other
    hashables such as tuples of scalars) — deterministic across processes,
    unlike ``hash``, which Python salts per process for strings.
    """
    if isinstance(vertex_id, bool):
        return int(vertex_id)
    if isinstance(vertex_id, int):
        return vertex_id
    if isinstance(vertex_id, str):
        data = vertex_id.encode("utf-8", "surrogatepass")
    elif isinstance(vertex_id, bytes):
        data = vertex_id
    else:
        data = repr(vertex_id).encode("utf-8", "surrogatepass")
    return zlib.crc32(data)


class HashPartitioner:
    """Giraph's default: ``stable_hash(id) mod workers``, mapping a vertex
    id to a worker index in ``[0, num_workers)``.

    Integer ids hash to themselves, so for the dense integer id spaces our
    generators produce this is also perfectly balanced. String ids are
    crc32-hashed, so the assignment is identical in every process and every
    run, which Python's salted ``hash()`` is not.
    """

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise EngineError("need at least one worker")
        self.num_workers = num_workers

    def worker_of(self, vertex_id: Hashable) -> int:
        return stable_hash(vertex_id) % self.num_workers

    def partition(self, vertices: Sequence[Hashable]) -> List[List[Hashable]]:
        """Split ``vertices`` into one list per worker."""
        parts: List[List[Hashable]] = [[] for _ in range(self.num_workers)]
        for v in vertices:
            parts[self.worker_of(v)].append(v)
        return parts
