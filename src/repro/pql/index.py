"""Hash indexes for PQL join evaluation.

A *binding pattern* is the tuple of argument positions a scan can prove
bound before it runs (known constants and variables bound by earlier plan
steps). For each pattern a partition is probed with, :class:`RowIndex`
builds — on first use, lazily — a hash map from the key projection of every
row to the rows carrying that key, so a probe replaces a full-partition
scan with one dictionary lookup.

Indexes are *candidate-narrowing only*: the evaluator still runs its full
row match on everything a probe returns, so a probe may return any superset
of the matching rows without affecting results. That is what makes indexed
and scan evaluation byte-identical by construction — the index can only
skip rows whose key projection provably differs from the probe key, never
admit a wrong row.

Maintenance is incremental over an append-only row log: each pattern map
remembers how much of the log it has folded in (``built``), and the next
probe folds exactly the suffix that landed since — the semi-naive delta.
Storage layers whose logs can shrink or reorder (pruned windows, aggregate
groups) must drop or bypass their index instead of patching it.

The sealed columnar reader (:mod:`repro.provenance.columnar`) mirrors
this contract on disk: a slab builds its probe maps from only the
columns a pattern binds, honors the same ``MIN_INDEX_ROWS`` threshold
(returning ``None`` so the evaluator scans small partitions), and keeps
the candidate-narrowing guarantee — which is why indexed evaluation over
an mmap'd store is byte-identical to evaluation over this in-memory
index.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

Row = Tuple[Any, ...]
Pattern = Tuple[int, ...]

#: Shared empty probe result — misses allocate nothing.
EMPTY_ROWS: Tuple[Row, ...] = ()

#: Partitions smaller than this are cheaper to scan than to index: building
#: the first map, hashing the key, and the dict lookup all cost more than
#: matching a handful of rows directly. Storage layers decline to build an
#: index (probe returns ``None`` -> the evaluator scans) until a partition's
#: log reaches this many rows; once built, an index keeps serving probes.
MIN_INDEX_ROWS = 16


class RowIndex:
    """Per-pattern hash maps over one append-only row log.

    One instance serves one partition (or one whole relation, for the
    centralized semi-naive evaluator). Maps are keyed by binding pattern;
    every map is extended lazily up to the log length observed at probe
    time, so rows appended between probes are folded in exactly once.
    """

    __slots__ = ("maps", "built")

    def __init__(self) -> None:
        # pattern -> key -> rows
        self.maps: Dict[Pattern, Dict[Tuple[Any, ...], List[Row]]] = {}
        # pattern -> log prefix length already folded into the map
        self.built: Dict[Pattern, int] = {}

    def probe(
        self, log: List[Row], pattern: Pattern, key: Tuple[Any, ...]
    ) -> Tuple[Row, ...]:
        """Rows whose projection on ``pattern`` equals ``key``.

        ``log`` must be append-only between probes; rows too short for the
        pattern are skipped (they could never match a scan of this arity).
        """
        table = self.maps.get(pattern)
        if table is None:
            table = self.maps[pattern] = {}
            self.built[pattern] = 0
        upto = self.built[pattern]
        size = len(log)
        if upto < size:
            for row in log[upto:size]:
                try:
                    row_key = tuple(row[pos] for pos in pattern)
                except IndexError:
                    continue
                bucket = table.get(row_key)
                if bucket is None:
                    table[row_key] = [row]
                else:
                    bucket.append(row)
            self.built[pattern] = size
        return table.get(key, EMPTY_ROWS)


class FactsIndex:
    """Relation-level indexes for the centralized semi-naive evaluator.

    The semi-naive evaluator keeps facts as plain per-relation sets, which
    have no stable iteration log; the index snapshots a relation's rows
    into a list on the first probe and the evaluator appends every
    subsequent delta through :meth:`extend`. Relations never probed are
    never materialized.
    """

    __slots__ = ("logs", "indexes")

    def __init__(self) -> None:
        self.logs: Dict[str, List[Row]] = {}
        self.indexes: Dict[str, RowIndex] = {}

    def extend(self, relation: str, rows: Any) -> None:
        """Record freshly derived rows; a no-op until the relation's first
        probe snapshots it (the snapshot will include them)."""
        log = self.logs.get(relation)
        if log is not None:
            log.extend(rows)

    def probe(
        self,
        relation: str,
        current_rows: Any,
        pattern: Pattern,
        key: Tuple[Any, ...],
    ) -> "Tuple[Row, ...] | None":
        """Candidates for ``key``, or ``None`` while the relation is still
        below :data:`MIN_INDEX_ROWS` (the caller scans instead)."""
        log = self.logs.get(relation)
        if log is None:
            if len(current_rows) < MIN_INDEX_ROWS:
                return None  # cheaper to scan than to snapshot
            log = self.logs[relation] = list(current_rows)
            self.indexes[relation] = RowIndex()
        return self.indexes[relation].probe(log, pattern, key)
