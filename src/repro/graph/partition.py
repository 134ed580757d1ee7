"""Vertex partitioners.

The engine splits the vertex set across N workers exactly like Giraph does:
by default hash partitioning on the vertex id. Range partitioning is provided
for experiments on locality (messages between vertices on the same worker are
"local"; crossing a partition boundary counts as simulated network traffic
in the engine metrics, ``cross_worker_messages``). The engine picks one by
``EngineConfig.partitioner``.

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


class Partitioner:
    """Maps a vertex id to a worker index in ``[0, num_workers)``."""

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise EngineError("need at least one worker")
        self.num_workers = num_workers

    def worker_of(self, vertex_id: Hashable) -> int:
        raise NotImplementedError

    def partition(self, vertices: Sequence[Hashable]) -> List[List[Hashable]]:
        """Split ``vertices`` into one list per worker."""
        parts: List[List[Hashable]] = [[] for _ in range(self.num_workers)]
        for v in vertices:
            parts[self.worker_of(v)].append(v)
        return parts


class HashPartitioner(Partitioner):
    """Giraph's default: ``stable_hash(id) mod workers``.

    Integer ids hash to themselves, so for the dense integer id spaces our
    generators produce this is also perfectly balanced. String ids are
    crc32-hashed, so the assignment is identical in every process and every
    run, which Python's salted ``hash()`` is not.
    """

    def worker_of(self, vertex_id: Hashable) -> int:
        return stable_hash(vertex_id) % self.num_workers


class RangePartitioner(Partitioner):
    """Contiguous integer ranges; only valid for integer vertex ids."""

    def __init__(self, num_workers: int, num_vertices: int) -> None:
        super().__init__(num_workers)
        if num_vertices < 1:
            raise EngineError("need at least one vertex")
        self.num_vertices = num_vertices
        self._chunk = max(1, (num_vertices + num_workers - 1) // num_workers)

    def worker_of(self, vertex_id: Hashable) -> int:
        if not isinstance(vertex_id, int):
            raise EngineError("RangePartitioner requires integer vertex ids")
        return min(vertex_id // self._chunk, self.num_workers - 1)
