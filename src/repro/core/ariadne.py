"""The Ariadne facade — the system architecture of Figures 1 and 2.

One :class:`Ariadne` instance manages provenance for one analytic on one
input graph. It exposes the three workflows of the paper:

* :meth:`baseline` — run the analytic alone (the overhead reference);
* :meth:`capture` — run the analytic with a declarative capture query
  appended, producing a :class:`~repro.provenance.store.ProvenanceStore`
  (Figure 1a);
* :meth:`query_online` — run the analytic with a forward query evaluated in
  lockstep, no capture step at all (Figure 2);
* :meth:`query_offline` — evaluate a query over previously captured
  provenance, layered or naive (Figure 1b).

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

    def capture_for_backward(self, undirected: bool = False) -> OnlineRunResult:
        """Custom capture for backward tracing (Query 11).

        Use ``undirected=True`` for analytics that broadcast along reverse
        edges (WCC); the symmetric edge relation keeps Query 12's trace
        identical to Query 10's.
        """
        query = (
            Q.CAPTURE_BACKWARD_CUSTOM_UNDIRECTED_QUERY
            if undirected
            else Q.CAPTURE_BACKWARD_CUSTOM_QUERY
        )
        return self.capture(query)

    def monitor(
        self,
        analytic_name: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, OnlineRunResult]:
        """Run the paper's monitoring suite for this analytic online.

        Picks the registered queries (Figure 8/9's Query 4-8) by analytic
        name; returns ``{query_name: result}``. ALS's Query 8 needs an
        ``eps`` parameter (``params={"eps": ...}``).
        """
        name = analytic_name or self.analytic.name.split("(")[0].split("-")[0]
        try:
            suite = Q.MONITORING_QUERIES[name]
        except KeyError:
            raise ReproError(
                f"no registered monitoring queries for analytic {name!r}; "
                f"known: {sorted(Q.MONITORING_QUERIES)}"
            ) from None
        from repro.pql.parser import parse

        results: Dict[str, OnlineRunResult] = {}
        for query_name, text in suite:
            needed = parse(text).parameters()
            query_params = {
                k: v for k, v in (params or {}).items() if k in needed
            } or None
            results[query_name] = self.query_online(text, params=query_params)
        return results

    def explain(
        self,
        query: QueryLike,
        params: Optional[Dict[str, Any]] = None,
        udfs: Optional[Dict[str, Callable[..., Any]]] = None,
        verbose: bool = False,
    ) -> str:
        """The compiler's report for a query (see :mod:`repro.pql.explain`)."""
        from repro.pql.analysis import compile_query
        from repro.pql.explain import explain as explain_compiled
        from repro.pql.parser import parse
        from repro.pql.udf import FunctionRegistry

        program = parse(query) if isinstance(query, str) else query
        if params:
            program = program.bind(**params)
        functions = FunctionRegistry(self._udfs(udfs))
        return explain_compiled(
            compile_query(program, functions=functions), verbose=verbose
        )
