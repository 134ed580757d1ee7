"""Deterministic serialized-size model.

Tables 3 and 4 of the paper compare the on-disk size of captured provenance
against the input graph. Wall-clock-independent reproduction needs one
consistent byte model applied to both sides; this module defines it:

* ints and floats: 8 bytes (fixed-width binary encoding),
* booleans / None: 1 byte,
* strings / bytes: their length plus a 4-byte length prefix,
* tuples / lists / sets: sum of elements plus a 4-byte count prefix,
* dicts: keys + values plus a 4-byte count prefix,
* numpy arrays: ``nbytes`` plus a small header.

The absolute numbers track what a compact binary serializer (like Giraph's
Writables) would produce far better than ``sys.getsizeof`` (which counts
Python object headers) — and only the *ratios* matter for the reproduction.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

_PREFIX = 4
_SCALAR = 8


def estimate_bytes(value: Any) -> int:
    """Serialized size of ``value`` under the fixed byte model above."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return _SCALAR
    if isinstance(value, (str, bytes)):
        return _PREFIX + len(value)
    if isinstance(value, (tuple, list, set, frozenset)):
        return _PREFIX + sum(estimate_bytes(v) for v in value)
    if isinstance(value, dict):
        return _PREFIX + sum(
            estimate_bytes(k) + estimate_bytes(v) for k, v in value.items()
        )
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:  # numpy arrays and friends
        return _PREFIX + int(nbytes)
    # Unknown object: approximate with its repr (stable and deterministic).
    return _PREFIX + len(repr(value))


def exact_kind(values: Sequence[Any]) -> Optional[type]:
    """The one concrete type of every value in ``values`` — ``None`` when
    they are empty or of mixed types. Exact, so ``bool`` (a subclass of
    ``int``) and numpy scalars never pass for ``int`` / ``float``: the
    test the columnar slab encoder picks a column's lane by."""
    kinds = set(map(type, values))
    return kinds.pop() if len(kinds) == 1 else None


def column_bytes(values: Sequence[Any]) -> int:
    """``sum(estimate_bytes(v) for v in values)``, priced per column.

    Provenance columns are near-homogeneous (every ``value`` fact is
    ``(int, float, int)``), so one :func:`exact_kind` test prices a whole
    column at a constant per value (plus the lengths of a ``str`` /
    ``bytes`` column); a mixed column is priced value by value. A row of
    such columns costs its tuple's count prefix on top, so ``n`` rows cost
    ``row_prefix_bytes(n) + sum(map(column_bytes, columns))``.
    """
    kind = exact_kind(values)
    if kind is int or kind is float:
        return _SCALAR * len(values)
    if kind is str or kind is bytes:
        return _PREFIX * len(values) + sum(map(len, values))
    if kind is bool or kind is type(None):
        return len(values)
    return sum(map(estimate_bytes, values))


def row_prefix_bytes(rows: int) -> int:
    """The count prefixes of ``rows`` row tuples."""
    return _PREFIX * rows


def graph_bytes(graph: Any) -> int:
    """Serialized size of a :class:`~repro.graph.digraph.DiGraph` input:
    one id per vertex plus (source, target, value) per edge."""
    total = _PREFIX + graph.num_vertices * _SCALAR
    for u, v, value in graph.edges():
        total += 2 * _SCALAR + estimate_bytes(value)
    return total
