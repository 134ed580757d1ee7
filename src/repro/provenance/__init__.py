"""Provenance model, compact store, unfolded view and spill management."""

from repro.provenance import inspect
from repro.provenance.graphview import ProvNode, UnfoldedProvenanceGraph, unfold
from repro.provenance.model import (
    AUTO_CAPTURED,
    CORE_SCHEMAS,
    DERIVED,
    PROV,
    STATIC,
    STREAM,
    TOPO_EDGE,
    TOPO_RECEIVE,
    TOPO_SEND,
    RelationSchema,
    SchemaRegistry,
    freeze,
)
from repro.provenance.spill import SLAB_COMPRESSION, SpillManager, rebuild_store
from repro.provenance.store import ProvenanceStore

__all__ = [
    "inspect",
    "SLAB_COMPRESSION",
    "ProvNode",
    "rebuild_store",
    "UnfoldedProvenanceGraph",
    "unfold",
    "AUTO_CAPTURED",
    "CORE_SCHEMAS",
    "DERIVED",
    "PROV",
    "STATIC",
    "STREAM",
    "TOPO_EDGE",
    "TOPO_RECEIVE",
    "TOPO_SEND",
    "RelationSchema",
    "SchemaRegistry",
    "freeze",
    "SpillManager",
    "ProvenanceStore",
]
