"""The query server: routes, budgets, and obs/ledger wiring.

Request lifecycle for a query::

    read_request ──► resolve entry (catalog, freshness check)
                 ──► build QueryBudget (request overrides, server defaults)
                 ──► offload evaluation to the thread pool
                        · entry.eval_lock serializes per store
                        · prepared-plan cache hit/miss
                        · budget ticks inside the evaluator
                 ──► asyncio.wait_for enforces the wall-clock budget;
                     on expiry (or client disconnect) the budget is
                     cancelled and the worker unwinds cooperatively —
                     no executor thread is left running
                 ──► serialize (full result or stable page), append the
                     serve-query ledger record, meter + trace the request

Evaluation threads never touch the process-wide tracer (its span stack
is single-threaded): when tracing is on, each request evaluates under a
thread-local tracer and the events are grafted into the main trace with
``Tracer.ingest`` afterwards.
"""

from __future__ import annotations

import ast
import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from threading import Lock
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.queries import NAMED_QUERIES
from repro.errors import BudgetExceededError, ReproError
from repro.obs import ledger as obsledger
from repro.obs.log import get_logger
from repro.obs.metrics import SECONDS_BUCKETS, get_registry
from repro.obs.sinks import InMemorySink
from repro.obs.trace import PHASE_SERVE, Tracer, get_tracer, thread_tracing
from repro.pql.budget import QueryBudget
from repro.pql import serialize
from repro.runtime.offline import run_layered, run_naive
from repro.serve.catalog import AdmissionError, CatalogEntry, RunCatalog
from repro.serve.http import (
    DEFAULT_MAX_BODY,
    HttpError,
    Request,
    json_response,
    parse_float,
    parse_int,
    read_request,
    response_bytes,
)

logger = get_logger("serve.app")

DEFAULT_PAGE_LIMIT = 1000
DEFAULT_TIMEOUT_SECONDS = 30.0
#: How long aclose/_reap waits for a cancelled evaluation to unwind
#: before declaring the worker leaked.
DEFAULT_CANCEL_GRACE = 5.0

MODES = ("layered", "naive")


def _status_for_budget(exc: BudgetExceededError) -> int:
    return 408 if exc.kind in ("timeout", "cancelled") else 422


class ReproServer:
    """Asyncio HTTP/1.1 server over a :class:`RunCatalog`."""

    def __init__(self, catalog: Optional[RunCatalog] = None,
                 host: str = "127.0.0.1", port: int = 0, *,
                 default_timeout: Optional[float] = DEFAULT_TIMEOUT_SECONDS,
                 default_max_rows: Optional[int] = None,
                 default_max_depth: Optional[int] = None,
                 max_body: int = DEFAULT_MAX_BODY,
                 eval_workers: int = 4,
                 record_queries: bool = True,
                 cancel_grace: float = DEFAULT_CANCEL_GRACE,
                 registry: Optional[Any] = None) -> None:
        self.catalog = catalog if catalog is not None else RunCatalog()
        self.host = host
        self.port = port
        self.default_timeout = default_timeout
        self.default_max_rows = default_max_rows
        self.default_max_depth = default_max_depth
        self.max_body = max_body
        self.record_queries = record_queries
        self.cancel_grace = cancel_grace
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._executor = ThreadPoolExecutor(
            max_workers=eval_workers, thread_name_prefix="repro-serve-eval")
        self._evals_lock = Lock()
        self._evals_running = 0
        registry = registry if registry is not None else get_registry()
        self.registry = registry
        self._m_requests = registry.counter(
            "repro_serve_requests_total", "requests by endpoint and status",
            labels=("endpoint", "status"))
        self._m_seconds = registry.histogram(
            "repro_serve_request_seconds", "request latency by endpoint",
            labels=("endpoint",), boundaries=SECONDS_BUCKETS)
        self._m_catalog = registry.gauge(
            "repro_serve_catalog_runs", "sealed captures currently open")
        self._m_plan = registry.counter(
            "repro_serve_plan_cache_total", "prepared-plan cache outcomes",
            labels=("outcome",))
        self._m_budget = registry.counter(
            "repro_serve_budget_exceeded_total", "budget overruns by kind",
            labels=("kind",))
        self._m_eval = registry.histogram(
            "repro_serve_query_eval_seconds",
            "query evaluation latency by evaluator path",
            labels=("evaluator",), boundaries=SECONDS_BUCKETS)
        self._m_leaked = registry.counter(
            "repro_serve_evals_leaked_total",
            "cancelled evaluations that failed to unwind within the grace "
            "period")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ReproServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._m_catalog.set(len(self.catalog))
        logger.info("listening on %s:%d (%d run(s) open)",
                    self.host, self.port, len(self.catalog))
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            self._conn_tasks.clear()
        self._executor.shutdown(wait=False, cancel_futures=True)

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def evals_running(self) -> int:
        """Evaluations currently on executor threads (0 when every
        budget overrun / cancellation has fully unwound)."""
        with self._evals_lock:
            return self._evals_running

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader, self.max_body)
                except HttpError as exc:
                    writer.write(json_response(exc.status, exc.body(),
                                               keep_alive=False))
                    await writer.drain()
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                if request is None:
                    return
                response = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    return
        except ConnectionError:
            pass  # peer went away mid-exchange; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutdown; fall through to close the writer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            finally:
                # Only now is nothing left to await: once the task leaves
                # this set, aclose() no longer waits for it.
                if task is not None:
                    self._conn_tasks.discard(task)

    async def _dispatch(self, request: Request) -> bytes:
        started = time.perf_counter()
        endpoint, handler = self._resolve(request)
        status = 500
        content_type = "application/json"
        try:
            status, payload, content_type = await handler(request)
        except HttpError as exc:
            status, payload = exc.status, exc.body()
        except BudgetExceededError as exc:
            status = _status_for_budget(exc)
            self._m_budget.labels(exc.kind).inc()
            payload = exc.to_dict()
            payload["message"] = str(exc)
        except AdmissionError as exc:
            status, payload = 422, {
                "error": "admission_failed",
                "message": str(exc),
                "problems": exc.problems,
            }
        except ReproError as exc:
            status, payload = 400, {
                "error": "query_error",
                "message": str(exc),
                "type": type(exc).__name__,
            }
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - the server must answer
            logger.exception("internal error on %s %s",
                             request.method, request.path)
            status, payload = 500, {
                "error": "internal", "message": repr(exc),
            }
        duration = time.perf_counter() - started
        self._m_requests.labels(endpoint, str(status)).inc()
        self._m_seconds.labels(endpoint).observe(duration)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record(
                "serve-request", PHASE_SERVE, duration,
                endpoint=endpoint, method=request.method, status=status,
            )
        if content_type != "application/json":
            body = payload if isinstance(payload, bytes) \
                else str(payload).encode("utf-8")
            return response_bytes(status, body, content_type,
                                  keep_alive=request.keep_alive)
        return json_response(status, payload, keep_alive=request.keep_alive)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _resolve(self, request: Request
                 ) -> Tuple[str, Callable[[Request], Any]]:
        parts = [part for part in request.path.split("/") if part]
        method = request.method
        if not parts:
            return "/", self._require(method, {"GET": self._handle_index})
        if parts == ["healthz"]:
            return "/healthz", self._require(
                method, {"GET": self._handle_health})
        if parts == ["metrics"]:
            return "/metrics", self._require(
                method, {"GET": self._handle_metrics})
        if parts[0] == "runs":
            if len(parts) == 1:
                return "/runs", self._require(method, {
                    "GET": self._handle_list,
                    "POST": self._handle_register,
                })
            run_id = parts[1]
            if len(parts) == 2:
                return "/runs/{id}", self._require(method, {
                    "GET": lambda req: self._handle_show(req, run_id),
                })
            if len(parts) == 3 and parts[2] == "query":
                return "/runs/{id}/query", self._require(method, {
                    "POST": lambda req: self._handle_query(req, run_id),
                })
            if len(parts) == 4 and parts[2] == "lineage":
                vertex = parts[3]
                return "/runs/{id}/lineage/{vertex}", self._require(method, {
                    "GET": lambda req: self._handle_lineage(
                        req, run_id, vertex),
                })
        return "*", self._handle_not_found

    @staticmethod
    def _require(method: str, handlers: Dict[str, Any]) -> Any:
        handler = handlers.get(method)
        if handler is not None:
            return handler

        async def reject(_request: Request) -> Any:
            raise HttpError(405, "method_not_allowed",
                            f"{method} is not supported here; use "
                            f"{'/'.join(sorted(handlers))}")
        return reject

    @staticmethod
    async def _handle_not_found(request: Request) -> Any:
        raise HttpError(404, "not_found", f"no route for {request.path}")

    # ------------------------------------------------------------------
    # simple endpoints
    # ------------------------------------------------------------------
    async def _handle_index(self, _request: Request) -> Any:
        return 200, {
            "service": "repro-serve",
            "runs": len(self.catalog),
            "endpoints": [
                "GET /runs", "POST /runs", "GET /runs/{id}",
                "POST /runs/{id}/query", "GET /runs/{id}/lineage/{vertex}",
                "GET /metrics", "GET /healthz",
            ],
        }, "application/json"

    async def _handle_health(self, _request: Request) -> Any:
        return 200, {"status": "ok", "runs": len(self.catalog),
                     "evals_running": self.evals_running}, "application/json"

    async def _handle_metrics(self, _request: Request) -> Any:
        text = self.registry.to_prometheus()
        return 200, text.encode("utf-8"), "text/plain; version=0.0.4"

    async def _handle_list(self, _request: Request) -> Any:
        runs = await asyncio.get_running_loop().run_in_executor(
            self._executor, self.catalog.describe)
        return 200, {"runs": runs, "count": len(runs)}, "application/json"

    async def _handle_show(self, _request: Request, run_id: str) -> Any:
        entry = self._entry(run_id)
        doc = await asyncio.get_running_loop().run_in_executor(
            self._executor, entry.describe)
        doc["manifest"] = {
            "run_id": entry.manifest.get("run_id"),
            "slabs": len(entry.manifest.get("slabs", {})),
        }
        return 200, doc, "application/json"

    async def _handle_register(self, request: Request) -> Any:
        loop = asyncio.get_running_loop()
        content_type = request.headers.get("content-type", "")
        if content_type.startswith("application/x-tar"):
            entry, created = await loop.run_in_executor(
                self._executor,
                lambda: self.catalog.register_upload(request.body))
        else:
            body = request.json()
            if not isinstance(body, dict) or not body.get("path"):
                raise HttpError(
                    400, "bad_register",
                    "POST /runs takes {\"path\": \"/sealed/store\"} or an "
                    "application/x-tar body")
            path = body["path"]
            entry, created = await loop.run_in_executor(
                self._executor, lambda: self.catalog.register_path(path))
        self._m_catalog.set(len(self.catalog))
        doc = await loop.run_in_executor(self._executor, entry.describe)
        return (201 if created else 200), {
            "run": doc, "created": created,
        }, "application/json"

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def _entry(self, run_id: str) -> CatalogEntry:
        entry = self.catalog.get(run_id)
        if entry is None:
            raise HttpError(404, "unknown_run",
                            f"run {run_id!r} is not in the catalog",
                            runs=[e.run_id for e in self.catalog.entries()])
        entry.ensure_fresh(verify=self.catalog.verify)
        return entry

    def _make_budget(self, spec: Dict[str, Any]) -> QueryBudget:
        if not isinstance(spec, dict):
            raise HttpError(400, "bad_budget", "budget must be an object")
        unknown = set(spec) - {"max_depth", "max_rows", "timeout_seconds"}
        if unknown:
            raise HttpError(400, "bad_budget",
                            f"unknown budget fields {sorted(unknown)}")

        def pick(name: str, default: Any) -> Any:
            return spec[name] if name in spec else default

        try:
            return QueryBudget(
                max_depth=pick("max_depth", self.default_max_depth),
                max_rows=pick("max_rows", self.default_max_rows),
                timeout_seconds=pick("timeout_seconds", self.default_timeout),
            )
        except (TypeError, ValueError) as exc:
            raise HttpError(400, "bad_budget", str(exc))

    async def _offload(self, fn: Callable[[], Any],
                       budget: QueryBudget) -> Any:
        """Run ``fn`` on the evaluation pool under ``budget``.

        The wall-clock budget is enforced twice over: cooperatively by
        the budget's own deadline inside the evaluator, and externally by
        ``asyncio.wait_for`` here — whichever fires first. On expiry or
        caller cancellation the budget is revoked and the worker is
        awaited (bounded by ``cancel_grace``) so no evaluation outlives
        its request unobserved.
        """
        loop = asyncio.get_running_loop()
        budget.start()
        with self._evals_lock:
            self._evals_running += 1

        def tracked() -> Any:
            try:
                return fn()
            finally:
                with self._evals_lock:
                    self._evals_running -= 1

        future = loop.run_in_executor(self._executor, tracked)
        try:
            if budget.timeout_seconds is not None:
                return await asyncio.wait_for(
                    asyncio.shield(future), budget.timeout_seconds)
            return await future
        except asyncio.TimeoutError:
            budget.cancel()
            await self._reap(future)
            raise BudgetExceededError(
                "timeout", budget.timeout_seconds,
                "wall-clock budget expired before evaluation finished")
        except asyncio.CancelledError:
            budget.cancel()
            try:
                await self._reap(future)
            except BaseException:  # noqa: BLE001 - already unwinding
                pass
            raise

    async def _reap(self, future: "asyncio.Future[Any]") -> None:
        """Wait (bounded) for a cancelled evaluation to unwind; count a
        leak if the worker ignores the revoked budget."""
        try:
            await asyncio.wait_for(asyncio.shield(future), self.cancel_grace)
        except BudgetExceededError:
            pass  # the worker noticed the revocation — clean unwind
        except asyncio.TimeoutError:
            self._m_leaked.inc()
            logger.error("evaluation failed to unwind within %.1fs grace",
                         self.cancel_grace)
        except Exception:  # noqa: BLE001 - reaping must not mask the cause
            pass

    #: Evaluator stats surfaced per query response: the evaluator
    #: (``vectorized``), the layer programs' per-kernel timings and their
    #: usage counters.
    _EVAL_STAT_KEYS = (
        "evaluator", "kernel_seconds", "batched_scans", "batch_rows",
        "rules_vectorized",
    )

    async def _execute_query(self, entry: CatalogEntry, query_text: str,
                             params: Dict[str, Any], mode: str,
                             budget: QueryBudget,
                             limit: Optional[int],
                             cursor: Optional[str]) -> Dict[str, Any]:
        outcome: Dict[str, Any] = {}
        main_tracer = get_tracer()
        worker_tracer: Optional[Tracer] = None
        if main_tracer.enabled:
            worker_tracer = Tracer(InMemorySink())

        def work() -> Any:
            with entry.eval_lock:
                compiled, cache = entry.prepare(query_text, params, mode)
                outcome["plan_cache"] = cache
                runner = run_layered if mode == "layered" else run_naive
                if worker_tracer is None:
                    return runner(entry.store, compiled, budget=budget)
                with thread_tracing(worker_tracer):
                    return runner(entry.store, compiled, budget=budget)

        result = await self._offload(work, budget)
        cache = outcome.get("plan_cache", "miss")
        self._m_plan.labels(cache).inc()
        self._m_eval.labels(result.stats["evaluator"]).observe(
            result.wall_seconds)
        if worker_tracer is not None:
            main_tracer.ingest(worker_tracer.sink.events, None,
                               run=entry.run_id)
        doc: Dict[str, Any] = {
            "run": entry.run_id,
            "mode": result.mode,
            "wall_seconds": result.wall_seconds,
            "derivations": result.derivations,
            "plan_cache": cache,
            "budget": budget.describe(),
            "stats": {
                key: result.stats[key]
                for key in self._EVAL_STAT_KEYS if key in result.stats
            },
        }
        if limit is None and cursor is None:
            doc["result"] = serialize.result_to_dict(result)
        else:
            page_limit = limit if limit is not None else DEFAULT_PAGE_LIMIT
            try:
                doc["page"] = serialize.paginate(result, page_limit, cursor)
            except ValueError as exc:
                status = 409 if "stale" in str(exc) else 400
                raise HttpError(status, "bad_cursor", str(exc))
            doc["result"] = {
                "mode": result.mode,
                "derivations": result.derivations,
                "supersteps": result.supersteps,
                "relations": {
                    rel: {"count": result.count(rel)}
                    for rel in result.relations()
                },
            }
        entry.queries_served += 1
        if self.record_queries:
            self._append_query_record(entry, query_text, result, budget)
        return doc

    def _append_query_record(self, entry: CatalogEntry, query_text: str,
                             result: Any, budget: QueryBudget) -> None:
        """Audit-trail the served query into the store's own ledger,
        parent-linked to the capture run that sealed the store."""
        try:
            run_id = obsledger.new_run_id("serve-query", {
                "store": entry.directory,
                "query_sha256": obsledger.digest_text(query_text),
            })
            record = obsledger.make_record(
                "serve-query",
                run_id=run_id,
                parent_run_id=entry.run_id,
                query=query_text,
                results={
                    "query_sha256": obsledger.digest_query_result(result),
                    "derivations": result.derivations,
                    "mode": result.mode,
                    "budget": budget.describe(),
                    "store": {"directory": entry.directory},
                },
                wall_seconds=result.wall_seconds,
            )
            obsledger.RunLedger(entry.directory).append(record)
        except OSError as exc:
            logger.warning("could not append serve-query ledger record "
                           "to %s: %s", entry.directory, exc)

    async def _handle_query(self, request: Request, run_id: str) -> Any:
        entry = self._entry(run_id)
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "bad_query", "request body must be an "
                            "object")
        query = body.get("query")
        if not isinstance(query, str) or not query.strip():
            raise HttpError(400, "bad_query",
                            "provide \"query\": a named query "
                            "(e.g. \"query10\") or inline PQL source")
        query_text = NAMED_QUERIES.get(query, query)
        params = body.get("params")
        if params is None:
            params = {}
        if not isinstance(params, dict):
            raise HttpError(400, "bad_query", "params must be an object")
        mode = body.get("mode", "layered")
        if mode not in MODES:
            raise HttpError(400, "bad_query",
                            f"mode must be one of {MODES}, got {mode!r}")
        limit = body.get("limit")
        if limit is not None and (not isinstance(limit, int) or limit <= 0):
            raise HttpError(400, "bad_query", "limit must be a positive "
                            "integer")
        cursor = body.get("cursor")
        if cursor is not None and not isinstance(cursor, str):
            raise HttpError(400, "bad_query", "cursor must be a string")
        budget = self._make_budget(body.get("budget") or {})
        doc = await self._execute_query(
            entry, query_text, params, mode, budget, limit, cursor)
        return 200, doc, "application/json"

    async def _handle_lineage(self, request: Request, run_id: str,
                              vertex_text: str) -> Any:
        entry = self._entry(run_id)
        try:
            vertex = ast.literal_eval(vertex_text)
        except (ValueError, SyntaxError):
            vertex = vertex_text
        direction = request.query.get("direction", "backward")
        if direction not in ("backward", "forward"):
            raise HttpError(400, "bad_parameter",
                            "direction must be backward or forward")
        num_layers = entry.store.num_layers
        if "sigma" in request.query:
            sigma = parse_int(request.query["sigma"], "sigma", minimum=0)
        else:
            sigma = max(num_layers - 1, 0)
        query_text = (NAMED_QUERIES["query10"] if direction == "backward"
                      else NAMED_QUERIES["query9"])
        budget_spec: Dict[str, Any] = {}
        if "depth" in request.query:
            budget_spec["max_depth"] = parse_int(
                request.query["depth"], "depth", minimum=1)
        if "timeout" in request.query:
            budget_spec["timeout_seconds"] = parse_float(
                request.query["timeout"], "timeout")
        budget = self._make_budget(budget_spec)
        limit = None
        if "limit" in request.query:
            limit = parse_int(request.query["limit"], "limit", minimum=1)
        cursor = request.query.get("cursor")
        doc = await self._execute_query(
            entry, query_text, {"alpha": vertex, "sigma": sigma},
            "layered", budget, limit, cursor)
        doc.update({"vertex": serialize.jsonable_value(vertex),
                    "direction": direction, "sigma": sigma})
        return 200, doc, "application/json"
