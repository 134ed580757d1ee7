"""Command-line interface: ``python -m repro <command> ...``.

Subcommands mirror the Ariadne workflows:

* ``run``      — run an analytic, print result metrics (the baseline);
* ``monitor``  — run with an online query, print derived-relation counts;
* ``apt``      — run the approximate-optimization query, print the verdict;
* ``capture``  — run with a capture query, seal the store to a directory;
* ``query``    — evaluate a query offline (layered/naive) over a sealed store;
* ``inspect``  — print a vertex's provenance history from a sealed store;
* ``stats``    — summarize, validate or OTLP-export a JSONL trace;
* ``audit``    — list/show/verify/diff run-ledger records;
* ``datasets`` — list the Table 2 dataset registry.

Every workload command accepts ``--trace OUT`` to stream a JSONL span
trace of the run (``repro stats OUT --format otel`` turns it into
OTLP-JSON), plus ``-v``/``--quiet`` to control the ``repro`` logger
hierarchy.

Every workload invocation gets a content-derived run id. ``capture`` and
``query`` always append an audit record to the run ledger in the store
directory (``<store>/ledger.jsonl``); ``run``/``monitor``/``apt`` record
only when ``--ledger DIR`` (or ``$REPRO_LEDGER``) names a ledger. A query
record carries a parent link to the capture run that sealed its store
(read back from the store manifest), so ``repro audit list`` shows the
full capture→query chain and ``repro audit verify`` can recompute every
digest the chain claims.

Examples::

    python -m repro run --analytic pagerank --dataset IN-04
    python -m repro apt --analytic sssp --dataset UK-02 --eps 0.1
    python -m repro capture --analytic sssp --dataset IN-04 --out /tmp/prov \\
        --trace /tmp/capture.jsonl
    python -m repro query --store /tmp/prov --query-file trace.pql \\
        --param alpha=5 --param sigma=12 --mode layered
    python -m repro stats /tmp/capture.jsonl
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.analytics.wcc import WCC
from repro.core import queries as Q
from repro.core.ariadne import Ariadne
from repro.errors import ReproError
from repro.graph.datasets import WEB_DATASET_ORDER, WEB_DATASETS, load_web_dataset
from repro.graph.digraph import DiGraph
from repro.graph.io import read_edge_list
from repro.obs import (
    NULL_TRACER,
    JsonlSink,
    Tracer,
    configure_logging,
    get_logger,
    get_registry,
    read_trace,
    render_summary,
    set_tracer,
    summarize,
    to_otlp_json,
    validate_events,
    validate_otlp,
)
from repro.obs import ledger as obsledger
from repro.provenance.spill import SpillManager, open_store_view, rebuild_store
from repro.runtime.offline import run_layered_from_spill, run_naive_from_spill

logger = get_logger("cli")


def _parse_param(text: str) -> Any:
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _params(pairs: Optional[List[str]]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ReproError(f"--param expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        params[name] = _parse_param(value)
    return params


def _load_graph(args: argparse.Namespace) -> DiGraph:
    weighted = args.analytic == "sssp" or getattr(args, "weighted", False)
    if args.graph:
        return read_edge_list(args.graph, weighted=weighted)
    name = args.dataset or "IN-04"
    return load_web_dataset(name, weighted=weighted)


def _engine_config(args: argparse.Namespace) -> "EngineConfig":
    from repro.engine.config import EngineConfig

    return EngineConfig(num_workers=getattr(args, "num_workers", 4))


def _make_analytic(args: argparse.Namespace):
    name = args.analytic
    epsilon = getattr(args, "approx_eps", None)
    if name == "pagerank":
        return PageRank(num_supersteps=args.supersteps, epsilon=epsilon)
    if name == "sssp":
        return SSSP(source=args.source, epsilon=epsilon or 0.0)
    if name == "wcc":
        return WCC(epsilon=epsilon or 0.0)
    raise ReproError(f"unknown analytic {name!r} (pagerank | sssp | wcc)")


def _query_text(args: argparse.Namespace) -> str:
    if getattr(args, "query_file", None):
        with open(args.query_file, "r", encoding="utf-8") as fh:
            return fh.read()
    name = getattr(args, "query", None)
    if name in Q.NAMED_QUERIES:
        return Q.NAMED_QUERIES[name]
    if name:
        return name  # assume inline PQL source
    raise ReproError("provide --query NAME or --query-file FILE")


def _print_query_result(result: Any) -> None:
    for relation in sorted(result.relations()):
        print(f"  {relation}: {result.count(relation)} rows")


def _metrics_line(metrics: Any) -> str:
    """One-line work summary of a run's :class:`RunMetrics`."""
    return (
        f"metrics:     supersteps={metrics.num_supersteps} "
        f"vertex_executions={metrics.total_active_vertices} "
        f"messages={metrics.total_messages} "
        f"frontier_skip_ratio={metrics.frontier_skip_ratio:.2f}"
    )


# ---------------------------------------------------------------------------
# trace lifecycle
# ---------------------------------------------------------------------------
def _start_trace(args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    """Install a process-wide tracer streaming JSONL to ``--trace OUT``."""
    path = getattr(args, "trace", None)
    if not path:
        return None
    tracer = Tracer(JsonlSink(path, run_id=getattr(args, "run_id", None)),
                    registry=get_registry())
    set_tracer(tracer)
    num_workers = getattr(args, "num_workers", None)
    if num_workers is not None:
        # Stamp the execution configuration into the trace so a recorded
        # run is attributable to its simulated worker setup.
        tracer.event("run-config", "meta", num_workers=num_workers)
    return {"tracer": tracer, "path": path}


def _finish_trace(ctx: Optional[Dict[str, Any]]) -> None:
    if ctx is None:
        return
    ctx["tracer"].close()
    set_tracer(NULL_TRACER)
    print(f"trace (jsonl) written to {ctx['path']}", file=sys.stderr)


# ---------------------------------------------------------------------------
# run-ledger lifecycle
# ---------------------------------------------------------------------------
def _prepare_run_id(args: argparse.Namespace) -> None:
    """Derive the invocation's content-based run id before any work runs,
    so the trace meta line and the store manifest can both carry it."""
    content = {
        key: value for key, value in sorted(vars(args).items())
        if key != "fn" and not callable(value)
    }
    args.run_id = obsledger.new_run_id(
        getattr(args, "command", "?") or "?", content
    )


def _ledger_dir(args: argparse.Namespace,
                default: Optional[str] = None) -> Optional[str]:
    """Resolve which ledger this invocation writes/reads: the ``--ledger``
    flag, then ``$REPRO_LEDGER``, then the command's default (the store
    directory for capture/query, nothing for pure compute commands)."""
    explicit = getattr(args, "ledger", None)
    if explicit:
        return explicit
    env = os.environ.get("REPRO_LEDGER")
    if env:
        return env
    return default


def _trace_pointer(args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    path = getattr(args, "trace", None)
    if not path:
        return None
    return {"path": os.path.abspath(path), "format": "jsonl"}


def _append_run_record(
    args: argparse.Namespace,
    command: str,
    *,
    default_dir: Optional[str] = None,
    config: Optional["EngineConfig"] = None,
    graph: Optional[DiGraph] = None,
    analytic: Optional[str] = None,
    query: Optional[str] = None,
    results: Optional[Dict[str, Any]] = None,
    metrics: Optional[Dict[str, Any]] = None,
    wall_seconds: Optional[float] = None,
    parent_run_id: Optional[str] = None,
) -> Optional[Dict[str, Any]]:
    """Append this invocation's audit record; no-op when no ledger
    resolves (run/monitor/apt without ``--ledger``)."""
    directory = _ledger_dir(args, default_dir)
    if not directory:
        return None
    dataset = None
    if graph is not None:
        source = getattr(args, "graph", None) or getattr(args, "dataset", None)
        dataset = obsledger.dataset_fingerprint(graph, source=source)
    record = obsledger.make_record(
        command,
        run_id=args.run_id,
        parent_run_id=parent_run_id,
        config=config,
        dataset=dataset,
        analytic=analytic,
        query=query,
        results=results,
        metrics=metrics,
        wall_seconds=wall_seconds,
        registry=get_registry(),
        trace=_trace_pointer(args),
    )
    return obsledger.RunLedger(directory).append(record)


def _open_ledger(args: argparse.Namespace) -> obsledger.RunLedger:
    """The ledger an audit command reads: ``--ledger``, then
    ``$REPRO_LEDGER``, then the ``--store`` directory."""
    directory = _ledger_dir(args, getattr(args, "store", None))
    if not directory:
        raise ReproError(
            "no ledger to read: pass --ledger DIR or --store DIR "
            "(or set $REPRO_LEDGER)"
        )
    return obsledger.RunLedger(directory)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    config = _engine_config(args)
    ariadne = Ariadne(graph, _make_analytic(args), config)
    start = time.perf_counter()
    result = ariadne.baseline()
    elapsed = time.perf_counter() - start
    print(f"analytic:    {ariadne.analytic.name}")
    print(f"workers:     {config.num_workers} simulated")
    print(f"graph:       |V|={graph.num_vertices} |E|={graph.num_edges}")
    print(f"supersteps:  {result.num_supersteps} ({result.halt_reason})")
    print(f"messages:    {result.metrics.total_messages}")
    print(_metrics_line(result.metrics))
    print(f"wall:        {elapsed:.3f}s")
    _append_run_record(
        args, "run",
        config=config, graph=graph, analytic=ariadne.analytic.name,
        results={
            "values_sha256": obsledger.digest_values(result.values),
            "supersteps": result.num_supersteps,
            "halt_reason": result.halt_reason,
        },
        metrics=result.metrics.summary(),
        wall_seconds=elapsed,
    )
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    config = _engine_config(args)
    ariadne = Ariadne(graph, _make_analytic(args), config)
    query_text = _query_text(args)
    result = ariadne.query_online(query_text, params=_params(args.param))
    print(f"online run: {result.analytic.num_supersteps} supersteps, "
          f"{result.query.wall_seconds:.3f}s")
    print(_metrics_line(result.analytic.metrics))
    _print_query_result(result.query)
    _append_run_record(
        args, "monitor",
        config=config, graph=graph, analytic=ariadne.analytic.name,
        query=query_text,
        results={
            "values_sha256": obsledger.digest_values(result.analytic.values),
            "supersteps": result.analytic.num_supersteps,
            "halt_reason": result.analytic.halt_reason,
            "query_sha256": obsledger.digest_query_result(result.query),
            "derivations": result.query.derivations,
        },
        metrics=result.analytic.metrics.summary(),
        wall_seconds=result.query.wall_seconds,
    )
    return 0


def cmd_apt(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    config = _engine_config(args)
    ariadne = Ariadne(graph, _make_analytic(args), config)
    result = ariadne.apt(epsilon=args.eps)
    safe = result.query.count("safe")
    unsafe = result.query.count("unsafe")
    _append_run_record(
        args, "apt",
        config=config, graph=graph, analytic=ariadne.analytic.name,
        results={
            "values_sha256": obsledger.digest_values(result.analytic.values),
            "supersteps": result.analytic.num_supersteps,
            "halt_reason": result.analytic.halt_reason,
            "query_sha256": obsledger.digest_query_result(result.query),
            "safe": safe, "unsafe": unsafe, "eps": args.eps,
        },
        metrics=result.analytic.metrics.summary(),
        wall_seconds=result.query.wall_seconds,
    )
    print(f"apt verdict at eps={args.eps}: safe={safe} unsafe={unsafe}")
    if unsafe == 0 and safe:
        print("-> approximation looks SAFE; rerun the analytic with "
              f"--approx-eps {args.eps} to collect the speedup")
    elif safe == 0 and unsafe:
        print("-> approximation is UNSAFE for this analytic")
    else:
        print("-> mixed verdict; inspect the unsafe vertices")
    return 0


def cmd_capture(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    config = _engine_config(args)
    ariadne = Ariadne(graph, _make_analytic(args), config)
    query = _query_text(args) if (args.query or args.query_file) else (
        Q.CAPTURE_FULL_QUERY
    )
    # Each layer is sealed at the barrier that completes it while the
    # analytic runs; seal_all finishes the static slab and any layer the
    # run never completed eagerly.
    result = ariadne.capture(
        query, params=_params(args.param), spill_directory=args.out
    )
    store = result.store
    spill = result.spill
    # Stamp this run's id before sealing so the manifest names the run
    # that produced the store — a later `repro query` reads it back as
    # its ledger parent link.
    spill.run_id = args.run_id
    bytes_sealed = spill.seal_all()
    print(f"captured {store.num_rows} facts over {store.num_layers} layers")
    for relation, count in sorted(store.counts().items()):
        print(f"  {relation}: {count}")
    print(f"sealed {bytes_sealed} bytes to {spill.directory} "
          f"({spill.compression})")
    store_info = obsledger.store_fingerprint(spill)
    store_info["rows"] = store.num_rows
    store_info["layers"] = store.num_layers
    _append_run_record(
        args, "capture",
        default_dir=args.out,
        config=config, graph=graph, analytic=ariadne.analytic.name,
        query=query,
        results={
            "values_sha256": obsledger.digest_values(result.analytic.values),
            "supersteps": result.analytic.num_supersteps,
            "halt_reason": result.analytic.halt_reason,
            "query_sha256": obsledger.digest_query_result(result.query),
            "derivations": result.query.derivations,
            "store": store_info,
        },
        metrics=result.analytic.metrics.summary(),
        wall_seconds=result.query.wall_seconds,
    )
    return 0


def _compile_for_explain(text: str, args: argparse.Namespace) -> Any:
    """``text`` parsed, bound to ``--param``s and compiled against the
    CLI's UDFs (``udf_diff``), for an EXPLAIN report."""
    from repro.pql.analysis import compile_query
    from repro.pql.parser import parse
    from repro.pql.udf import FunctionRegistry

    program = parse(text)
    params = _params(args.param)
    if params:
        program = program.bind(**params)
    funcs = FunctionRegistry({"udf_diff": lambda a, b, e: abs(a - b) < e})
    return compile_query(program, functions=funcs)


def _print_stratum_timings(args: argparse.Namespace,
                           timings: Dict[int, float],
                           run_stats: Optional[Dict[str, Any]] = None,
                           ) -> None:
    """With ``-v``, close the query output with the compilation report
    annotated with the observed per-stratum costs (EXPLAIN + timings)."""
    from repro.pql.explain import explain

    try:
        compiled = _compile_for_explain(_query_text(args), args)
        print(explain(compiled, timings=timings, run_stats=run_stats))
    except ReproError:
        # compilation may need UDFs the CLI doesn't know; still show costs
        total = sum(timings.values()) or 1.0
        print("observed stratum timings:")
        for stratum in sorted(timings):
            seconds = timings[stratum]
            print(f"  stratum {stratum}: {seconds * 1000:.3f} ms "
                  f"({seconds / total:.1%} of evaluation)")


def cmd_query(args: argparse.Namespace) -> int:
    with SpillManager.open(args.store) as spill:
        return _query(args, spill)


def _query(args: argparse.Namespace, spill: SpillManager) -> int:
    graph = _load_graph(args) if (args.graph or args.dataset) else None
    params = _params(args.param)
    query_text = _query_text(args)
    budget = getattr(args, "memory_budget", None)
    driver = (run_layered_from_spill if args.mode == "layered"
              else run_naive_from_spill)
    result = driver(spill, query_text, graph, params,
                    memory_budget_bytes=budget)
    json_output = getattr(args, "json_output", False)
    if json_output:
        from repro.pql.serialize import canonical_json, result_to_dict

        # The "result" subtree is the shared serializer's output — byte-
        # identical to the server's query responses over the same store.
        print(canonical_json({
            "result": result_to_dict(result),
            "run_id": args.run_id,
            "store": os.path.abspath(args.store),
            "wall_seconds": result.wall_seconds,
        }))
    else:
        print(f"{args.mode} evaluation: {result.wall_seconds:.3f}s, "
              f"{result.derivations} derivations")
        _print_query_result(result)
    _append_run_record(
        args, "query",
        default_dir=args.store,
        config=_engine_config(args), graph=graph,
        query=query_text,
        # the store's manifest names the capture run that sealed it — the
        # ledger parent link tying this query to its provenance
        parent_run_id=spill.run_id,
        results={
            "query_sha256": obsledger.digest_query_result(result),
            "derivations": result.derivations,
            "mode": args.mode,
            "store": {"directory": os.path.abspath(args.store)},
        },
        wall_seconds=result.wall_seconds,
    )
    if args.show and not json_output:
        for relation in args.show:
            for row in result.rows(relation)[: args.limit]:
                print(f"  {relation}{row}")
    if getattr(args, "verbosity", 0):
        timings = result.stats.get("stratum_seconds") or {}
        if timings:
            _print_stratum_timings(args, timings, run_stats=result.stats)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the provenance query server over one or more sealed stores."""
    import asyncio

    from repro.serve.app import ReproServer
    from repro.serve.catalog import RunCatalog

    catalog = RunCatalog(data_dir=args.data_dir)
    for directory in args.store or []:
        entry, _created = catalog.register_path(directory)
        logger.info("serve: registered %s as %s", directory, entry.run_id)
    server = ReproServer(
        catalog,
        host=args.host,
        port=args.port,
        default_timeout=args.timeout,
        default_max_rows=args.max_rows,
        default_max_depth=args.max_depth,
        record_queries=not args.no_query_ledger,
    )

    async def _serve() -> None:
        await server.start()
        print(f"serving {len(catalog)} run(s) on "
              f"http://{server.host}:{server.port}", flush=True)
        if args.ready_file:
            # Written under a temporary name and renamed into place, so a
            # poller that sees the file never reads it empty.
            tmp = f"{args.ready_file}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(f"{server.host}:{server.port}\n")
            os.replace(tmp, args.ready_file)
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    from repro.provenance import inspect as pinspect

    logger.info("inspect: opening sealed store %s", args.store)
    with SpillManager.open(args.store) as spill:
        if args.vertex is None:
            # Physical layout first (footers only — nothing is rebuilt for
            # this part), then the logical summary, whose bytes are the
            # size model's (Tables 3/4), not the slabs' payload.
            print(pinspect.summarize_slabs(spill))
            spill.release_slabs()
            print(pinspect.summarize(rebuild_store(spill)))
        else:
            store = rebuild_store(spill)
            vertex = _parse_param(args.vertex)
            print(pinspect.render_vertex(store, vertex))
    return 0


def cmd_store_migrate(args: argparse.Namespace) -> int:
    from repro.provenance.spill import migrate_store

    report = migrate_store(args.dir, run_id=args.run_id)
    spill = report.pop("spill")
    print(f"migrated {len(report['slabs'])} slab(s) in {args.dir} "
          f"to columnar "
          f"({report['bytes_before']} -> {report['bytes_after']} bytes)")
    for name in sorted(report["slabs"]):
        slab = report["slabs"][name]
        print(f"  {name}: {slab['from_format']} -> columnar "
              f"({slab['bytes_before']} -> {slab['bytes_after']} bytes)")
    # The re-stamped manifest names this migration run; the ledger record
    # parent-links it to the original capture so `repro audit verify`
    # resolves the new digests instead of flagging them as drift.
    _append_run_record(
        args, "migrate",
        default_dir=args.dir,
        parent_run_id=report["from_run_id"],
        results={
            "migration": {
                "compression": report["compression"],
                "bytes_before": report["bytes_before"],
                "bytes_after": report["bytes_after"],
                "slabs": report["slabs"],
            },
            "store": obsledger.store_fingerprint(spill),
        },
    )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.provenance.export import export_path

    logger.info("export: opening sealed store %s", args.store)
    with SpillManager.open(args.store) as spill:
        store = open_store_view(spill)
        logger.debug("export: writing %d rows to %s", store.num_rows,
                     args.out)
        written = export_path(store, args.out)
    print(f"exported {written} facts to {args.out}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.pql.explain import explain

    text = _query_text(args)
    logger.info("explain: compiling %d-char query", len(text))
    compiled = _compile_for_explain(text, args)
    logger.debug("explain: %d rules in %d strata",
                 len(compiled.rules), len(compiled.strata))
    print(explain(compiled, verbose=args.verbose))
    return 0


def _print_problems(problems: List[str]) -> bool:
    """Print each schema problem as ``invalid: ...``; true if any."""
    for problem in problems:
        print(f"invalid: {problem}", file=sys.stderr)
    return bool(problems)


def cmd_stats(args: argparse.Namespace) -> int:
    logger.info("stats: reading trace %s", args.trace_file)
    events = read_trace(args.trace_file)
    logger.debug("stats: %d events, format=%s", len(events), args.format)
    # Every output reads the system's event schema: a file that is not
    # such a trace is named invalid here, before any of them reads it.
    if _print_problems(validate_events(events)):
        return 1
    if args.format == "otel":
        # --validate composes: convert, then structurally check the OTLP
        # document (the CI one-liner for the smoke trace's OTel export).
        otlp = to_otlp_json(events)
        if args.validate:
            if _print_problems(validate_otlp(otlp)):
                return 1
            spans = sum(
                len(ss.get("spans", []))
                for rs in otlp["resourceSpans"]
                for ss in rs.get("scopeSpans", [])
            )
            print(f"otel trace OK ({spans} spans)")
            return 0
        text = json.dumps(otlp, indent=1, sort_keys=True)
    elif args.validate:
        print(f"trace OK ({len(events)} events)")
        return 0
    else:
        text = render_summary(summarize(events))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------
def cmd_audit_list(args: argparse.Namespace) -> int:
    ledger = _open_ledger(args)
    records = ledger.records()
    if not records:
        print(f"ledger {ledger.path}: no records")
        return 0
    print(f"{'run id':18} {'command':10} {'parent':18} "
          f"{'analytic':16} {'wall':>9}  started")
    for record in records:
        wall = record.get("wall_seconds")
        print(
            f"{record.get('run_id', '?'):18} "
            f"{record.get('command', '?'):10} "
            f"{record.get('parent_run_id') or '-':18} "
            f"{(record.get('analytic') or '-')[:16]:16} "
            f"{(f'{wall:.3f}s' if wall is not None else '-'):>9}  "
            f"{record.get('started_at', '-')}"
        )
    return 0


def cmd_audit_show(args: argparse.Namespace) -> int:
    record = _open_ledger(args).resolve(args.run)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_audit_verify(args: argparse.Namespace) -> int:
    """Recompute digests against the manifest (and the ledger record, when
    one resolves) and report drift; exit 1 on any problem."""
    store_dir = getattr(args, "store", None)
    ledger_path = _ledger_dir(args, store_dir)
    record = None
    if ledger_path:
        ledger = obsledger.RunLedger(ledger_path)
        if getattr(args, "run", None):
            record = ledger.resolve(args.run)
        else:
            # no explicit run: verify what the store manifest names, else
            # the newest record in the ledger
            from repro.provenance.spill import read_manifest

            manifest = read_manifest(store_dir) if store_dir else None
            sealed_by = manifest.get("run_id") if manifest else None
            if sealed_by:
                try:
                    record = ledger.get(sealed_by)
                except ReproError:
                    record = None
            if record is None:
                record = ledger.latest()
    if record is not None:
        problems = obsledger.verify_record(
            record, ledger, store_directory=store_dir
        )
        subject = (f"run {record['run_id']} ({record.get('command', '?')}) "
                   f"against {ledger.path}")
    elif store_dir:
        problems, _ = obsledger.verify_store(store_dir)
        subject = f"store {store_dir} (manifest only; no ledger record)"
    else:
        raise ReproError("nothing to verify: pass --store DIR and/or "
                         "--ledger DIR [RUN]")
    if problems:
        print(f"audit verify FAILED: {subject}", file=sys.stderr)
        for problem in problems:
            print(f"  drift: {problem}", file=sys.stderr)
        return 1
    print(f"audit verify OK: {subject}")
    return 0


def _flatten(value: Any, prefix: str = "") -> Dict[str, Any]:
    """Flatten nested dicts to dotted paths for record diffing."""
    flat: Dict[str, Any] = {}
    if isinstance(value, dict) and value:
        for key, sub in value.items():
            flat.update(_flatten(sub, f"{prefix}{key}."))
    else:
        flat[prefix[:-1]] = value
    return flat


def cmd_audit_diff(args: argparse.Namespace) -> int:
    ledger = _open_ledger(args)
    a, b = ledger.resolve(args.run_a), ledger.resolve(args.run_b)
    skip = ("run_id", "started_at", "recorded_at", "environment.pid",
            "registry", "wall_seconds", "metrics.wall_seconds")
    flat_a = {k: v for k, v in _flatten(a).items()
              if not k.startswith(skip)}
    flat_b = {k: v for k, v in _flatten(b).items()
              if not k.startswith(skip)}
    differences = 0
    for key in sorted(set(flat_a) | set(flat_b)):
        va, vb = flat_a.get(key, "<absent>"), flat_b.get(key, "<absent>")
        if va != vb:
            differences += 1
            print(f"  {key}: {va!r} -> {vb!r}")
    if differences:
        print(f"{differences} field(s) differ between "
              f"{a['run_id']} and {b['run_id']}")
    else:
        print(f"{a['run_id']} and {b['run_id']} are identical "
              "(modulo timing and identity fields)")
    return 0


def cmd_datasets(_args: argparse.Namespace) -> int:
    print(f"{'name':8} {'paper |V|':>12} {'paper |E|':>13} "
          f"{'avg deg':>8} {'avg diam':>9}")
    for name in WEB_DATASET_ORDER:
        spec = WEB_DATASETS[name]
        print(f"{name:8} {spec.paper_vertices:>12,} {spec.paper_edges:>13,} "
              f"{spec.paper_avg_degree:>8.2f} {spec.paper_avg_diameter:>9.2f}")
    print("ML-20    138,493 users x 26,744 movies, 20M ratings")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------
def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--analytic", default="pagerank",
                        help="pagerank | sssp | wcc")
    parser.add_argument("--dataset", help="Table 2 dataset name (e.g. UK-02)")
    parser.add_argument("--graph", help="edge-list file instead of a dataset")
    parser.add_argument("--weighted", action="store_true",
                        help="edge list has weights")
    parser.add_argument("--supersteps", type=int, default=20,
                        help="PageRank superstep count")
    parser.add_argument("--source", type=int, default=0, help="SSSP source")
    parser.add_argument("--approx-eps", type=float, default=None,
                        help="run the approximate analytic variant")
    parser.add_argument("--num-workers", type=int, default=4,
                        help="simulated worker count: the run stays in one "
                             "process and counts messages between workers "
                             "as network traffic (default: 4)")
    parser.add_argument("--ledger", metavar="DIR",
                        help="append this run's audit record to the ledger "
                             "in DIR (default: $REPRO_LEDGER; capture/query "
                             "default to their store directory)")


def _add_query_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--query", help="named query (query1..query12) or "
                                        "inline PQL")
    parser.add_argument("--query-file", help="file with PQL source")
    parser.add_argument("--param", action="append",
                        help="query parameter name=value (repeatable)")


def _obs_parent() -> argparse.ArgumentParser:
    """Shared logging flags (every subcommand)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("-v", action="count", dest="verbosity", default=0,
                        help="more log output (-v info, -vv debug)")
    parent.add_argument("--quiet", action="store_true",
                        help="errors only")
    return parent


def _trace_parent() -> argparse.ArgumentParser:
    """Shared tracing flags (workload subcommands)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--trace", metavar="OUT",
                        help="record a JSONL span trace of this command "
                             "to OUT (OTLP: repro stats OUT --format otel)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ariadne reproduction: provenance for graph analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    obs = _obs_parent()
    trace = _trace_parent()

    p = sub.add_parser("run", help="run an analytic (baseline)",
                       parents=[obs, trace])
    _add_workload_args(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("monitor", help="run with an online query",
                       parents=[obs, trace])
    _add_workload_args(p)
    _add_query_args(p)
    p.set_defaults(fn=cmd_monitor)

    p = sub.add_parser("apt", help="approximate-optimization verdict",
                       parents=[obs, trace])
    _add_workload_args(p)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(fn=cmd_apt)

    p = sub.add_parser("capture", help="capture provenance to a directory",
                       parents=[obs, trace])
    _add_workload_args(p)
    _add_query_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_capture)

    p = sub.add_parser("query", help="offline query over a sealed store",
                       parents=[obs, trace])
    _add_workload_args(p)
    _add_query_args(p)
    p.add_argument("--store", required=True, help="sealed store directory")
    p.add_argument("--mode", default="layered", choices=("layered", "naive"))
    p.add_argument("--show", action="append",
                   help="print rows of this relation (repeatable)")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--json", action="store_true", dest="json_output",
                   help="print the full result as canonical JSON "
                        "(byte-identical to the serve API's result field)")
    p.add_argument("--memory-budget", type=int, metavar="BYTES",
                   help="fail if evaluation must hold more than BYTES of "
                        "decoded slab data at once: per slab for --mode "
                        "layered (only the columns the plan touches), the "
                        "whole store for --mode naive")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser(
        "serve",
        help="serve sealed stores over HTTP (catalog + PQL endpoints)",
        parents=[obs, trace],
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8844,
                   help="listen port (0 picks a free port; default 8844)")
    p.add_argument("--store", action="append", metavar="DIR",
                   help="sealed store to register at startup (repeatable)")
    p.add_argument("--data-dir", metavar="DIR",
                   help="directory for uploaded stores (default: temp dir)")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="default per-query wall-clock budget in seconds "
                        "(default 30)")
    p.add_argument("--max-rows", type=int,
                   help="default per-query result-row budget")
    p.add_argument("--max-depth", type=int,
                   help="default per-query provenance-layer budget")
    p.add_argument("--no-query-ledger", action="store_true",
                   help="do not append serve-query records to store ledgers")
    p.add_argument("--ready-file", metavar="PATH",
                   help="write host:port here once listening (for scripts)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("inspect", help="inspect a sealed store",
                       parents=[obs])
    p.add_argument("--store", required=True)
    p.add_argument("--vertex", help="vertex id to render (default: summary)")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("store", help="sealed-store maintenance")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    ps = store_sub.add_parser(
        "migrate",
        help="re-encode a sealed store (e.g. one sealed raw by an earlier "
             "release) as zlib columnar ARSC, in place; a store in a "
             "retired slab format is refused",
        parents=[obs],
    )
    ps.add_argument("dir", help="sealed store directory")
    ps.add_argument("--ledger", metavar="DIR",
                    help="append the migration record to the ledger in DIR "
                         "(default: the store directory)")
    ps.set_defaults(fn=cmd_store_migrate, store=None)

    p = sub.add_parser("export", help="export a sealed store as JSON lines",
                       parents=[obs])
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("explain", help="show a query's compilation report",
                       parents=[obs])
    _add_query_args(p)
    p.add_argument("--verbose", action="store_true",
                   help="every binding mode's plan and layer-program ops")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("stats", help="summarize or convert a trace file",
                       parents=[obs])
    p.add_argument("trace_file", help="JSONL trace written by --trace")
    p.add_argument("--format", choices=("text", "otel"),
                   default="text", help="output format (default: text)")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.add_argument("--validate", action="store_true",
                   help="check the trace against the event schema and exit "
                        "(with --format otel: validate the OTLP document)")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("audit", help="run-ledger audit trail")
    audit_sub = p.add_subparsers(dest="audit_command", required=True)

    pa = audit_sub.add_parser("list", help="list ledger records",
                              parents=[obs])
    _add_ledger_ref_args(pa)
    pa.set_defaults(fn=cmd_audit_list)

    pa = audit_sub.add_parser("show", help="print one record as JSON",
                              parents=[obs])
    _add_ledger_ref_args(pa)
    pa.add_argument("run", help="run id, unambiguous prefix, 'latest', or "
                                "'latest:<command>'")
    pa.set_defaults(fn=cmd_audit_show)

    pa = audit_sub.add_parser(
        "verify",
        help="recompute store/result digests and report drift",
        parents=[obs],
    )
    _add_ledger_ref_args(pa)
    pa.add_argument("run", nargs="?",
                    help="record to verify (default: the run the store "
                         "manifest names, else the newest record)")
    pa.set_defaults(fn=cmd_audit_verify)

    pa = audit_sub.add_parser("diff", help="field-level diff of two records",
                              parents=[obs])
    _add_ledger_ref_args(pa)
    pa.add_argument("run_a")
    pa.add_argument("run_b")
    pa.set_defaults(fn=cmd_audit_diff)

    p = sub.add_parser("datasets", help="list the Table 2 registry",
                       parents=[obs])
    p.set_defaults(fn=cmd_datasets)

    return parser


def _add_ledger_ref_args(parser: argparse.ArgumentParser) -> None:
    """Where an audit command finds its ledger."""
    parser.add_argument("--ledger", metavar="DIR",
                        help="ledger directory (default: $REPRO_LEDGER, "
                             "then --store)")
    parser.add_argument("--store", metavar="DIR",
                        help="sealed store directory (its ledger.jsonl and "
                             "manifest.json)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(getattr(args, "verbosity", 0),
                      quiet=getattr(args, "quiet", False))
    _prepare_run_id(args)
    trace_ctx = _start_trace(args)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _finish_trace(trace_ctx)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
