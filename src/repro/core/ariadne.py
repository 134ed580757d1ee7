"""The Ariadne facade — the system architecture of Figures 1 and 2.

One :class:`Ariadne` instance manages provenance for one analytic on one
input graph. It exposes the workflows of the paper:

* :meth:`baseline` — run the analytic alone (the overhead reference);
* :meth:`capture` — run the analytic with a declarative capture query
  appended, producing a :class:`~repro.provenance.store.ProvenanceStore`
  (Figure 1a); pass Query 11 for the custom backward-tracing capture;
* :meth:`query_online` — run the analytic with a forward query evaluated in
  lockstep, no capture step at all (Figure 2);
* :meth:`query_offline` — evaluate a query over previously captured
  provenance, layered or naive (Figure 1b);
* :meth:`apt` and :meth:`backward_lineage` — the paper's apt query
  (Query 1) and backward lineage (Queries 10 and 12) on top of those.

The monitoring suite runs query by query through :meth:`query_online`
(``repro monitor``), and a query's compilation report comes from
:func:`repro.pql.explain.explain` (``repro explain``).

The facade also registers the analytic-specific ``udf_diff`` so the same apt
query text works for every analytic (the paper's Section 6.2.2 workflow).

Every workflow runs under the facade's one :class:`EngineConfig`, whose
``max_supersteps`` is the only superstep cap. The facade keeps no run
ledger: the CLI and the server append their own records
(:mod:`repro.obs.ledger`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from repro.analytics.base import Analytic
from repro.core import queries as Q
from repro.engine.config import EngineConfig
from repro.engine.engine import PregelEngine, RunResult
from repro.errors import ReproError
from repro.graph.digraph import DiGraph
from repro.pql.ast import Program
from repro.provenance.store import ProvenanceStore
from repro.runtime.offline import run_layered, run_naive, run_reference
from repro.runtime.online import run_online
from repro.runtime.results import OnlineRunResult, QueryResult

QueryLike = Union[str, Program]


class Ariadne:
    """Provenance capture and querying for one analytic on one graph."""

    def __init__(
        self,
        graph: DiGraph,
        analytic: Analytic,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.graph = graph
        self.analytic = analytic
        self.config = config or EngineConfig()

    # ------------------------------------------------------------------
    def _udfs(
        self, extra: Optional[Dict[str, Callable[..., Any]]] = None
    ) -> Dict[str, Callable[..., Any]]:
        udfs = dict(Q.apt_udfs(self.analytic))
        if extra:
            udfs.update(extra)
        return udfs

    # ------------------------------------------------------------------
    def baseline(self) -> RunResult:
        """Run the unmodified analytic (the Giraph bar in every figure)."""
        engine = PregelEngine(self.graph, config=self.config)
        return engine.run(self.analytic.make_program())

    def query_online(
        self,
        query: QueryLike,
        params: Optional[Dict[str, Any]] = None,
        udfs: Optional[Dict[str, Callable[..., Any]]] = None,
    ) -> OnlineRunResult:
        """Evaluate a forward query online, alongside the analytic."""
        return run_online(
            self.graph,
            self.analytic,
            query,
            params=params,
            udfs=self._udfs(udfs),
            capture=False,
            config=self.config,
        )

    def capture(
        self,
        query: QueryLike = Q.CAPTURE_FULL_QUERY,
        params: Optional[Dict[str, Any]] = None,
        udfs: Optional[Dict[str, Callable[..., Any]]] = None,
        spill_directory: Optional[str] = None,
    ) -> OnlineRunResult:
        """Run the analytic with a capture query; the result carries the
        persisted provenance store (``result.store``).

        With ``spill_directory``, each layer is sealed to disk *during*
        the run, as a zlib ARSC slab, at the barrier that completes it,
        and the manager is returned on ``result.spill``; finish with
        ``result.spill.seal_all()``.
        """
        return run_online(
            self.graph,
            self.analytic,
            query,
            params=params,
            udfs=self._udfs(udfs),
            capture=True,
            config=self.config,
            spill_directory=spill_directory,
        )

    def query_offline(
        self,
        store: ProvenanceStore,
        query: QueryLike,
        mode: str = "layered",
        params: Optional[Dict[str, Any]] = None,
        udfs: Optional[Dict[str, Callable[..., Any]]] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> QueryResult:
        """Evaluate a query over captured provenance.

        ``mode`` is ``'layered'`` (Section 5.1), ``'naive'`` (the
        traditional whole-graph evaluation) or ``'reference'`` (centralized
        oracle, for testing).
        """
        merged = self._udfs(udfs)
        if mode == "layered":
            return run_layered(store, query, self.graph, params, merged)
        if mode == "naive":
            return run_naive(
                store, query, self.graph, params, merged,
                memory_budget_bytes=memory_budget_bytes,
            )
        if mode == "reference":
            return run_reference(store, query, self.graph, params, merged)
        raise ReproError(f"unknown offline mode {mode!r}")

    # ------------------------------------------------------------------
    # paper workflows
    # ------------------------------------------------------------------
    def apt(
        self,
        epsilon: float,
        mode: str = "online",
        store: Optional[ProvenanceStore] = None,
    ) -> Union[OnlineRunResult, QueryResult]:
        """The motivating apt query (Query 1) at threshold ``epsilon``."""
        params = {"eps": epsilon}
        if mode == "online":
            return self.query_online(Q.APT_QUERY, params=params)
        if store is None:
            raise ReproError("offline apt evaluation needs a captured store")
        return self.query_offline(store, Q.APT_QUERY, mode=mode, params=params)

    def backward_lineage(
        self,
        store: ProvenanceStore,
        vertex: Any,
        superstep: int,
        custom: bool = False,
        mode: str = "layered",
    ) -> QueryResult:
        """Backward lineage (Query 10 on full capture, Query 12 on custom)."""
        query = (
            Q.BACKWARD_LINEAGE_CUSTOM_QUERY
            if custom
            else Q.BACKWARD_LINEAGE_FULL_QUERY
        )
        return self.query_offline(
            store, query, mode=mode, params={"alpha": vertex, "sigma": superstep}
        )
