"""The independence service: an asyncio JSON-lines-over-TCP server.

Architecture of one (unsharded) service instance, top to bottom::

    connections (asyncio streams, one task per connection,
                 concurrent per-request dispatch, responses tagged by id)
      -> pair-memo lane                      (analyze of a memoized pair)
      -> MicroBatcher admission queue        (every other analyze)
      -> SchemaRegistry (LRU of per-schema AnalysisEngines)
      -> storage backend (verdict KV: write-through, group commit;
         memory / SQLite / PostgreSQL, picked by the store URL)

plus direct endpoints over the same engines for ``matrix``,
``schedule`` (:class:`~repro.viewmaint.scheduler.IsolationScheduler`
waves), and materialized-view maintenance
(:class:`~repro.viewmaint.cache.ViewCache`) over documents loaded per
connection-independent doc ids.  All engine work that computes a
verdict or writes an engine cache runs on the service's single
analysis worker thread (``analysis_executor``, which the batcher
shares).  The event loop parses, dispatches and writes, and
answers an ``analyze`` whose pair is already in the engine's pair memo
itself: that lane is one read-only memo probe
(:meth:`~repro.analysis.engine.AnalysisEngine.peek_pair`), so a warm
verdict skips admission and the thread hop while the worker
stays the only writer of every engine cache.

With ``shards`` > 1 the admission path changes shape from "one queue,
one thread" to "router + shard pool": :class:`ShardedService` spawns a
pool of worker *processes* (each a complete single-shard service on a
loopback port, see :mod:`.sharding`) and becomes a thin router that
hashes each request's schema digest onto its owning shard::

    clients -> ShardedService (router: resolve ref -> digest,
               shard_for(digest, N), forward over one pipelined
               ShardLink per shard)
      -> shard 0..N-1 (each: its own MicroBatcher + SchemaRegistry
                       partition + AnalysisEngine instances)
      -> one shared storage backend (SQLite WAL with multi-process
         writers, or one PostgreSQL server shared across hosts)

Coalescing still happens per ``(schema, k)`` inside the owning shard --
affinity routing guarantees all traffic for one schema meets in one
admission queue -- while distinct schemas analyze truly in parallel on
separate cores, which is what lifts the single-core throughput cap of
the unsharded service.

``analysis_mode`` selects how ``analyze`` requests are served:

* ``"batched"`` (default) -- memo lane, then the drain-on-idle
  admission queue: coalesced ``analyze_many`` flushes over the
  requested pairs, group-committed store writes;
* ``"engine"`` -- memo lane, then batching disabled, but each request
  still served by the shared per-schema engine (per-request executor
  hand-off and per-verdict commit);
* ``"oneshot"`` -- batching and the engine layer disabled: every
  request pays the full one-shot :func:`repro.analysis.analyze` cost
  (universe + inference tables rebuilt per call).  This is the naive
  stateless request handler the benchmark gate compares against.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..analysis.engine import schema_digest
from ..analysis.independence import analyze as oneshot_analyze
from ..analysis.project import chain_keep_for_queries
from ..docstore.adapter import to_indexed
from ..docstore.pushdown import (
    compile_query_explain,
    serialize_answers,
    step_label,
)
from ..docstore.streamload import load_path, load_xml
from ..schema.dtd import DTD
from ..viewmaint.cache import ViewCache
from ..viewmaint.scheduler import IsolationScheduler
from ..xmldm.generator import generate_document
from ..xmldm.projection import keep_set_for_chains, project
from ..xmldm.serialize import serialize
from ..obs import metrics as obs_metrics
from ..obs.export import render, serve_metrics_http
from ..obs.metrics import REGISTRY, merge_snapshots
from ..obs.plan import (
    current_plan,
    finish_plan,
    start_plan,
)
from ..obs.plan import decision as plan_decision
from ..obs.tracing import (
    SlowRequestLog,
    current_trace,
    finish_trace,
    span,
    start_trace,
)
from ..xquery.ast import ROOT_VAR
from ..xquery.evaluator import evaluate_query
from ..xquery.parser import parse_query
from .batching import MicroBatcher, wire_verdict
from .protocol import (
    BAD_PARAMS,
    ERROR_CODES,
    INTERNAL,
    MAX_LINE_BYTES,
    OPS,
    UNKNOWN_DOC,
    UNKNOWN_OP,
    UNKNOWN_SCHEMA,
    UNKNOWN_VIEW,
    ProtocolError,
    Request,
    decode_request,
    error_response,
    ok_response,
    require,
)
from ..storage import open_store, parse_store_url
from .registry import BUILTIN_SCHEMAS, SchemaRegistry, UnknownSchemaError
from .sharding import (
    DIGEST_RE,
    ShardLink,
    builtin_digest,
    join_shards,
    shard_for,
    spawn_shards,
)

ANALYSIS_MODES = ("batched", "engine", "oneshot")


@dataclass
class ServeConfig:
    """Knobs of one service instance (CLI flags map 1:1).

    ``shards`` selects the serving topology: ``1`` (default) runs the
    classic in-process service; ``N > 1`` runs a router plus ``N``
    worker processes with schema-affinity request routing (see
    :class:`ShardedService`).  ``shard_index`` and ``doc_id_prefix``
    are set by the router on the worker copies of the config -- they
    label a worker's ``/stats`` payload and namespace its document ids
    so the router can route document operations statelessly.

    ``store_path`` is a **store URL** (``memory://``,
    ``sqlite:///path.db``, ``postgresql://host/db`` -- see
    :mod:`repro.storage` and ``docs/STORAGE.md``).  A file or server
    backend persists verdicts and documents together: loaded documents
    are served from its node table after a restart instead of being
    re-parsed, and with ``shards`` every worker shares it.
    ``memory://`` (the default) keeps verdicts per process and
    persists no documents.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    store_path: str = "memory://"
    analysis_mode: str = "batched"
    max_schemas: int = 256
    max_documents: int = 64
    pair_cache_size: int | None = None
    preload: tuple[str, ...] = ()
    shards: int = 1
    shard_index: int | None = None
    doc_id_prefix: str = ""
    #: Requests at least this many milliseconds of wall time are
    #: recorded in the in-memory slow-request ring (surfaced by the
    #: ``metrics`` op) and, with ``slow_log_path``, appended as JSON
    #: lines to the slow log.  0 disables slow-request capture.
    slow_ms: float = 0.0
    slow_log_path: str = ""
    #: Extra HTTP listener answering ``GET /metrics`` with Prometheus
    #: text exposition (0 disables).  In the sharded topology only the
    #: router binds it; workers expose metrics over the wire op.
    metrics_port: int = 0

    def __post_init__(self) -> None:
        if self.analysis_mode not in ANALYSIS_MODES:
            raise ValueError(
                f"analysis_mode must be one of {ANALYSIS_MODES}"
            )
        if self.shards < 1:
            raise ValueError("shards must be >= 1")


@dataclass
class _ServiceStats:
    """Front-door counters shared by the plain service and the router."""

    started: float = field(default_factory=time.perf_counter)
    connections: int = 0
    requests: int = 0
    errors: int = 0
    ops: dict[str, int] = field(default_factory=dict)


class JsonLinesFront:
    """The shared TCP front: line framing, concurrent dispatch, errors.

    Both the unsharded :class:`IndependenceService` and the
    :class:`ShardedService` router serve the same wire surface; this
    base owns everything protocol-shaped -- accepting connections,
    reading one JSON request per line, dispatching requests
    concurrently (responses may be answered out of order; clients match
    on ``id``), mapping exceptions to error responses, and orderly
    shutdown -- while subclasses implement ``_dispatch`` only.
    """

    def __init__(self, host: str, port: int, *, role: str = "service",
                 slow_ms: float = 0.0, slow_log_path: str = "",
                 metrics_port: int = 0):
        self._host = host
        self._port = port
        self.stats = _ServiceStats()
        #: Metric ``role`` label: ``"router"`` on the sharded router,
        #: ``"service"`` on the unsharded service and shard workers.
        self.role = role
        self.slow = SlowRequestLog(slow_ms, slow_log_path)
        self._metrics_port = metrics_port
        self._metrics_server: asyncio.Server | None = None
        self._server: asyncio.Server | None = None
        self._stopping = asyncio.Event()
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=MAX_LINE_BYTES,
        )
        if self._metrics_port:
            self._metrics_server = await serve_metrics_http(
                self._host, self._metrics_port, self._metrics_text
            )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    @property
    def metrics_port(self) -> int:
        """The bound ``/metrics`` HTTP port (0 when not enabled)."""
        if self._metrics_server is None:
            return 0
        return self._metrics_server.sockets[0].getsockname()[1]

    @property
    def port(self) -> int:
        """The bound TCP port (valid once :meth:`start` returned)."""
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    def stop(self) -> None:
        """Request shutdown (what the ``shutdown`` op calls)."""
        self._stopping.set()

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`stop`, then tear everything down."""
        assert self._server is not None, "service not started"
        async with self._server:
            await self._stopping.wait()
        await self.aclose()

    async def aclose(self) -> None:
        """Close the front door, live connections, then backend state."""
        self._stopping.set()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Connections idling in readline never observe _stopping on
        # their own; cancel them so shutdown is prompt and quiet.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        self.slow.close()
        await self._close_backend()

    async def _close_backend(self) -> None:
        """Release subclass-owned resources (overridden)."""

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """One task per client connection: frame lines, spawn dispatch."""
        self.stats.connections += 1
        obs_metrics.CONNECTIONS.labels(role=self.role).inc()
        self._connections.add(asyncio.current_task())
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        try:
            while not self._stopping.is_set():
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Oversized line: the stream cannot be resynced
                    # reliably, so answer and drop the connection.
                    async with write_lock:
                        writer.write(error_response(
                            None, BAD_PARAMS, "request line too long"))
                        await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # Concurrent dispatch: requests on one connection may be
                # answered out of order (clients match on "id"), which
                # lets pipelined analyze calls coalesce in the batcher.
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(asyncio.current_task())
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _serve_line(self, line: bytes, writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock) -> None:
        """Decode, dispatch, and answer one request line.

        Every request is timed into the per-op latency histogram
        (``op`` label clamped to the known op vocabulary so a hostile
        client cannot grow label cardinality) and runs under a
        :class:`~repro.obs.tracing.TraceContext` so downstream layers
        can attach spans.  ``timing: true`` requests get the span
        breakdown attached to the success response; ``explain: true``
        requests additionally run under a
        :class:`~repro.obs.plan.PlanContext` and get the decision plan
        attached (a forwarded shard's plan folds under the router's);
        requests over the ``--slow-ms`` threshold land in the slow
        ring/log, with their plan when one was captured.
        """
        self.stats.requests += 1
        request_id = None
        op_label = "unknown"
        trace = None
        plan = None
        plan_report = None
        error_code = None
        started = time.perf_counter()
        try:
            request = decode_request(line)
            request_id = request.id
            if request.op in _KNOWN_OPS:
                op_label = request.op
            trace = start_trace(request.trace)
            # Slow-request capture wants a plan even when the client did
            # not ask for one, so plans piggyback on the slow threshold.
            if request.explain or self.slow.enabled:
                plan = start_plan()
            result = await self._dispatch(request)
            if result.get("ok") is False:
                # A forwarded shard error: count it like a local one.
                self.stats.errors += 1
                forwarded = (result.get("error") or {}).get("code")
                error_code = forwarded if forwarded in ERROR_CODES \
                    else INTERNAL
            elif request.timing or request.explain:
                result = dict(result)
                if request.timing:
                    result["timing"] = trace.report(
                        inner=result.pop("timing", None)
                    )
                if request.explain and plan is not None:
                    plan_report = plan.report(
                        inner=result.pop("plan", None)
                    )
                    result["plan"] = plan_report
            response = ok_response(request_id, result)
        except ProtocolError as error:
            self.stats.errors += 1
            error_code = error.code
            response = error_response(request_id, error.code, error.message)
        except UnknownSchemaError as error:
            self.stats.errors += 1
            error_code = UNKNOWN_SCHEMA
            response = error_response(
                request_id, UNKNOWN_SCHEMA,
                f"schema not registered: {error.args[0]!r}",
            )
        except Exception as error:  # noqa: BLE001 -- wire boundary
            self.stats.errors += 1
            error_code = INTERNAL
            response = error_response(
                request_id, INTERNAL, f"{type(error).__name__}: {error}"
            )
        finally:
            if trace is not None:
                finish_trace(trace)
            if plan is not None:
                finish_plan(plan)
        elapsed = time.perf_counter() - started
        obs_metrics.REQUEST_SECONDS.labels(
            op=op_label, role=self.role
        ).observe(elapsed)
        if error_code is not None:
            obs_metrics.REQUEST_ERRORS.labels(
                op=op_label, code=error_code, role=self.role
            ).inc()
        if trace is not None and self.slow.enabled:
            if plan is not None and plan_report is None:
                plan_report = plan.report()
            if self.slow.record(op_label, trace, elapsed * 1000.0,
                                ok=error_code is None, plan=plan_report):
                obs_metrics.SLOW_REQUESTS.labels(
                    op=op_label, role=self.role
                ).inc()
        try:
            async with write_lock:
                writer.write(response)
                await writer.drain()
        except ConnectionError:
            pass

    async def _dispatch(self, request: Request) -> dict:
        """Serve one decoded request (implemented by subclasses)."""
        raise NotImplementedError

    # -- metrics surface -----------------------------------------------------

    async def _metrics_snapshot(self) -> dict:
        """The mergeable registry snapshot this front exposes.

        The unsharded service (and every shard worker) exposes its own
        process registry; the sharded router overrides this with the
        fan-out merge across its workers.
        """
        return REGISTRY.snapshot()

    async def _metrics_text(self) -> str:
        """Prometheus text exposition for the HTTP ``/metrics`` listener."""
        return render(await self._metrics_snapshot())


#: Known op names, for clamping the request histogram's ``op`` label.
_KNOWN_OPS = frozenset(OPS)


class IndependenceService(JsonLinesFront):
    """One unsharded service instance: registry + store + batcher + TCP.

    Also the body of every shard worker process in the sharded
    topology (a shard *is* an ordinary single-threaded service, plus a
    ``doc_id_prefix`` so the router can route document ops to it).
    """

    #: op name -> handler method name; the dispatch table is built from
    #: this mapping, and ``tests/docs/test_protocol_doc.py`` diffs its
    #: keys against :data:`repro.serve.protocol.OPS`.
    OP_HANDLERS = {
        "ping": "_op_ping",
        "schema.register": "_op_schema_register",
        "schema.evict": "_op_schema_evict",
        "schema.list": "_op_schema_list",
        "analyze": "_op_analyze",
        "matrix": "_op_matrix",
        "schedule": "_op_schedule",
        "doc.load": "_op_doc_load",
        "doc.query": "_op_doc_query",
        "doc.unload": "_op_doc_unload",
        "view.register": "_op_view_register",
        "view.result": "_op_view_result",
        "update.apply": "_op_update_apply",
        "stats": "_op_stats",
        "metrics": "_op_metrics",
        "shutdown": "_op_shutdown",
    }

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        super().__init__(
            self.config.host, self.config.port,
            role="service",
            slow_ms=self.config.slow_ms,
            slow_log_path=self.config.slow_log_path,
            metrics_port=self.config.metrics_port,
        )
        self._backend = open_store(self.config.store_path)
        self.store = self._backend.verdicts
        self.registry = SchemaRegistry(
            store=self.store,
            max_schemas=self.config.max_schemas,
            pair_cache_size=self.config.pair_cache_size,
        )
        # One worker serializes all engine access; the service owns
        # it, and the batcher flushes on it.
        self.analysis_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-analysis"
        )
        self.batcher = MicroBatcher(
            self.registry, self.analysis_executor,
            enabled=self.config.analysis_mode == "batched",
        )
        # LRU like the schema registry: loaded documents (tree + view
        # materializations) are the service's largest per-tenant state
        # and must not accumulate for its lifetime.
        self._documents: OrderedDict[str, ViewCache] = OrderedDict()
        #: Per-document load accounting (kept vs skipped-by-projection,
        #: provenance), mirrored into ``/stats``.
        self._doc_meta: dict[str, dict] = {}
        # Per-process memory persists nothing a restart could reload.
        self.docstore = (self._backend.documents
                         if self._backend.shared else None)
        self._next_doc = 0
        self.document_evictions = 0
        #: ``doc.query`` answer-path counters (mirrored into
        #: ``/stats``): ``pushed_down`` answered inside the store via
        #: SQL pushdown, ``fallback`` materialized transiently because
        #: the query fell outside the pushdown fragment,
        #: ``materialized`` answered from an already-loaded tree.
        self.doc_queries = {
            "pushed_down": 0, "fallback": 0, "materialized": 0,
        }
        self._ops = {
            op: getattr(self, method)
            for op, method in self.OP_HANDLERS.items()
        }
        for name in self.config.preload:
            self.registry.register_builtin(name)

    # -- lifecycle -----------------------------------------------------------

    async def _close_backend(self) -> None:
        """Drain the admission queue, stop the worker, close the stores."""
        await self.batcher.drain()
        self.analysis_executor.shutdown(wait=True)
        self._backend.close()

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(self, request: Request) -> dict:
        handler = self._ops.get(request.op)
        if handler is None:
            raise ProtocolError(UNKNOWN_OP, f"unknown op {request.op!r}")
        self.stats.ops[request.op] = self.stats.ops.get(request.op, 0) + 1
        return await handler(request.params)

    async def _in_analysis_thread(self, fn, *args):
        """Run engine-touching work on the single analysis worker.

        The caller's context is copied into the worker (executors do
        not propagate contextvars on their own), so engine decisions
        recorded on the thread land on this request's plan.
        """
        loop = asyncio.get_running_loop()
        ctx = contextvars.copy_context()
        return await loop.run_in_executor(
            self.analysis_executor, ctx.run, fn, *args
        )

    # -- ops: basics ---------------------------------------------------------

    async def _op_ping(self, params: dict) -> dict:
        """Liveness probe; carries no state."""
        return {"pong": True}

    async def _op_stats(self, params: dict) -> dict:
        """Service counters: front door, registry, batcher, store."""
        # store.stats() scans the verdicts table; keep that off the
        # event loop so a monitoring poller can't stall live traffic.
        store_stats = await self._in_analysis_thread(self.store.stats)
        if self.docstore is not None:
            docstore_stats = await self._in_analysis_thread(
                self.docstore.stats
            )
            docstore_stats["enabled"] = True
        else:
            docstore_stats = {"enabled": False}
        payload = {
            "uptime_seconds": time.perf_counter() - self.stats.started,
            "analysis_mode": self.config.analysis_mode,
            "shards": 1,
            "connections": self.stats.connections,
            "requests": self.stats.requests,
            "errors": self.stats.errors,
            "ops": dict(self.stats.ops),
            "documents": len(self._documents),
            "document_evictions": self.document_evictions,
            "doc_queries": dict(self.doc_queries),
            "documents_detail": {
                doc: dict(meta) for doc, meta in self._doc_meta.items()
            },
            "docstore": docstore_stats,
            "registry": self.registry.stats(),
            "batcher": self.batcher.stats(),
            "store": store_stats,
        }
        if self.config.shard_index is not None:
            payload["shard_index"] = self.config.shard_index
        return payload

    async def _op_metrics(self, params: dict) -> dict:
        """The observability surface of this process.

        Returns the Prometheus ``text`` exposition, the mergeable
        ``snapshot`` it was rendered from (what the sharded router
        aggregates), and the ``slow`` request ring.
        """
        snapshot = await self._metrics_snapshot()
        return {
            "text": render(snapshot),
            "snapshot": snapshot,
            "slow": self.slow.entries(),
        }

    async def _op_shutdown(self, params: dict) -> dict:
        """Stop serving (the response is written before teardown)."""
        # Respond first; serve_until_stopped tears the service down.
        asyncio.get_running_loop().call_soon(self.stop)
        return {"stopping": True}

    # -- ops: schema registry ------------------------------------------------

    async def _op_schema_register(self, params: dict) -> dict:
        """Register a builtin or ``<!ELEMENT ...>`` schema; returns its
        digest (the canonical schema ref for later requests)."""
        name = params.get("name")
        if name is not None and not isinstance(name, str):
            raise ProtocolError(BAD_PARAMS, 'parameter "name" must be str')
        if "builtin" in params:
            digest = self.registry.register_builtin(
                require(params, "builtin")
            )
        else:
            try:
                digest = self.registry.register_text(
                    require(params, "root"),
                    require(params, "dtd"),
                    name=name,
                )
            except ProtocolError:
                raise
            except Exception as error:
                raise ProtocolError(
                    BAD_PARAMS, f"unparsable DTD: {error}"
                ) from error
        schema = self.registry.schema(digest)
        return {
            "schema": digest,
            "tags": len(schema.alphabet),
            "start": schema.start,
        }

    async def _op_schema_evict(self, params: dict) -> dict:
        """Drop a schema's warm engine (verdicts stay in the store)."""
        return {
            "evicted": self.registry.evict(require(params, "schema"))
        }

    async def _op_schema_list(self, params: dict) -> dict:
        """Describe every registered schema (digest, aliases, size)."""
        return {"schemas": self.registry.describe()}

    # -- ops: analysis -------------------------------------------------------

    @staticmethod
    def _optional_k(params: dict) -> int | None:
        """Validate the optional explicit ``k`` override."""
        k = params.get("k")
        if k is not None and not isinstance(k, int):
            raise ProtocolError(BAD_PARAMS, 'parameter "k" must be int')
        return k

    async def _op_analyze(self, params: dict) -> dict:
        """One independence verdict: from the pair memo when the pair is
        warm, else via the admission queue."""
        schema_ref = require(params, "schema")
        query = require(params, "query")
        update = require(params, "update")
        k = self._optional_k(params)
        if self.config.analysis_mode == "oneshot":
            schema = self.registry.schema(schema_ref)
            plan_decision("batcher", "oneshot", schema=schema_ref)
            report = await self._in_analysis_thread(
                lambda: oneshot_analyze(query, update, schema, k=k,
                                        collect_witnesses=False)
            )
            return wire_verdict(report).as_dict()
        # The memo lane: a memoized pair is answered here on the event
        # loop, without admission or the thread hop.  The
        # probe only reads the memo, so the analysis thread stays the
        # one writer of every engine cache.
        started = time.perf_counter()
        report = self.registry.engine(schema_ref).peek_pair(query, update, k)
        if report is None:
            verdict = await self.batcher.submit(
                schema_ref, query, update, k=k
            )
            return verdict.as_dict()
        trace = current_trace()
        if trace is not None:
            trace.add_span("engine", time.perf_counter() - started)
        plan_decision("batcher", "memo")
        return wire_verdict(report).as_dict()

    async def _op_matrix(self, params: dict) -> dict:
        """A full queries x updates verdict grid in one round trip."""
        engine = self.registry.engine(require(params, "schema"))
        queries = require(params, "queries", list)
        updates = require(params, "updates", list)
        k = self._optional_k(params)
        if not all(isinstance(q, str) for q in queries) or \
                not all(isinstance(u, str) for u in updates):
            raise ProtocolError(
                BAD_PARAMS, "queries/updates must be lists of strings"
            )

        def run():
            with self.store.deferred():
                return engine.analyze_matrix(queries, updates, k=k)

        matrix = await self._in_analysis_thread(run)
        return {
            "independent": [list(row) for row in matrix.verdict_rows()],
            "pairs": matrix.pairs,
            "independent_pairs": matrix.independent_pairs,
            "wall_seconds": matrix.wall_seconds,
        }

    async def _op_schedule(self, params: dict) -> dict:
        """Conflict-free execution waves for a mixed operation batch."""
        schema_ref = require(params, "schema")
        operations = require(params, "operations", list)
        schema = self.registry.schema(schema_ref)
        engine = self.registry.engine(schema_ref)
        scheduler = IsolationScheduler(schema, engine=engine)
        for index, operation in enumerate(operations):
            if not isinstance(operation, dict) or \
                    "name" not in operation or \
                    ("query" in operation) == ("update" in operation):
                raise ProtocolError(
                    BAD_PARAMS,
                    f"operation #{index} needs a name and exactly one "
                    'of "query"/"update"',
                )
            try:
                if "query" in operation:
                    scheduler.add_query(operation["name"],
                                        operation["query"])
                else:
                    scheduler.add_update(operation["name"],
                                         operation["update"])
            except Exception as error:
                raise ProtocolError(
                    BAD_PARAMS,
                    f"operation #{index} does not parse: {error}",
                ) from error
        waves = await self._in_analysis_thread(scheduler.schedule)
        return {"waves": waves}

    # -- ops: view maintenance -----------------------------------------------

    def _document(self, params: dict) -> ViewCache:
        """Resolve the ``doc`` param to a loaded document (LRU touch)."""
        doc_id = require(params, "doc")
        cache = self._documents.get(doc_id)
        if cache is None:
            raise ProtocolError(UNKNOWN_DOC,
                                f"document not loaded: {doc_id!r}")
        self._documents.move_to_end(doc_id)
        return cache

    @staticmethod
    def _validated_project_for(params: dict) -> list[str] | None:
        """The ``project_for`` parameter, shape-checked (every branch
        of ``doc.load`` consumes it, so every branch must reject a
        malformed value with ``bad-params``, not a stack trace)."""
        queries = params.get("project_for")
        if queries is None:
            return None
        if not isinstance(queries, list) or \
                not all(isinstance(q, str) for q in queries):
            raise ProtocolError(
                BAD_PARAMS, '"project_for" must be a list of query strings'
            )
        return queries

    def _projection_keep(self, engine, queries: list[str] | None):
        """The union :class:`ChainKeep` of the ``project_for`` queries.

        Returns None when no projection was requested *or* when some
        query's chain sets are too large to enumerate (the sound
        fallback is loading everything).  Runs chain inference, so it
        must be called on the analysis worker thread.
        """
        if queries is None:
            return None
        try:
            return chain_keep_for_queries(queries, engine=engine)
        except Exception as error:
            raise ProtocolError(
                BAD_PARAMS,
                f"project_for query does not parse: {error}",
            ) from error

    def _fresh_doc_name(self) -> str:
        """An anonymous doc name that cannot clobber an existing one.

        Skips names already loaded in this service or persisted in the
        document store (a client-supplied ``doc: "d1"`` must never be
        silently overwritten by a later anonymous load).  Sharded
        workers scope their anonymous names (``d<shard>x<n>``) so two
        shards sharing one document-store file cannot race each other
        to the same persistence key.
        """
        shard = self.config.shard_index
        stem = "d" if shard is None else f"d{shard}x"
        while True:
            self._next_doc += 1
            name = f"{stem}{self._next_doc}"
            if f"{self.config.doc_id_prefix}{name}" in self._documents:
                continue
            if self.docstore is not None and \
                    self.docstore.describe(name) is not None:
                continue
            return name

    async def _op_doc_load(self, params: dict) -> dict:
        """Load a document; returns its doc id and load accounting.

        Sources, in precedence order: inline ``xml`` text, a
        server-local file ``path`` (both streamed through the indexed
        bulk loader, with projection pushdown when ``project_for``
        names the queries that will run), the persisted node table
        (when ``doc`` names a previously persisted document and no
        source is given -- no re-parse), or schema-driven generation
        (``bytes``/``seed``).  With a document store configured, parsed
        and generated documents persist under their doc id.
        """
        schema_ref = require(params, "schema")
        schema = self.registry.schema(schema_ref)
        engine = self.registry.engine(schema_ref)
        name = params.get("doc")
        if name is not None and (not isinstance(name, str) or not name):
            raise ProtocolError(BAD_PARAMS,
                                'parameter "doc" must be a non-empty str')
        if name is None:
            name = await self._in_analysis_thread(self._fresh_doc_name)
        # The prefix namespaces ids per shard (``s<index>-<name>``) so
        # the sharded router can route later doc ops without shared
        # state; the *persistence* key is the unprefixed name, so a
        # persisted document survives topology changes (affinity
        # routing reloads it on whichever shard now owns its schema).
        doc_id = f"{self.config.doc_id_prefix}{name}"
        meta = {
            "projected": False,
            "from_store": False,
            "subtrees_skipped": 0,
        }
        provenance = "unprojected"
        depth_cap = None
        requested = self._validated_project_for(params)
        if "xml" in params or "path" in params:
            keep = await self._in_analysis_thread(
                self._projection_keep, engine, requested
            )
            meta["projected"] = keep is not None
            provenance = "projected" if keep is not None else "unprojected"
            depth_cap = keep.truncation if keep is not None else None
            if "xml" in params:
                xml = require(params, "xml")
                loader = lambda: load_xml(xml, keep=keep)  # noqa: E731
            else:
                path = require(params, "path")
                loader = lambda: load_path(path, keep=keep)  # noqa: E731

            def run():
                # Off the event loop: documents may be megabytes.
                try:
                    return loader()
                except OSError as error:
                    raise ProtocolError(
                        BAD_PARAMS, f"unreadable document: {error}"
                    ) from error
                except Exception as error:
                    raise ProtocolError(
                        BAD_PARAMS, f"unparsable document: {error}"
                    ) from error

            result = await self._in_analysis_thread(run)
            tree = result.tree
            meta["nodes_seen"] = result.nodes_seen
            meta["subtrees_skipped"] = result.subtrees_skipped
            persist = True
        else:
            reload_request = params.get("doc") is not None and \
                "bytes" not in params and "seed" not in params
            if reload_request and self.docstore is None:
                # Naming a document with no source reads as "reload
                # the persisted copy"; without a document store that
                # would silently generate a random document under the
                # client's name.
                raise ProtocolError(
                    BAD_PARAMS,
                    f"doc {name!r} given without a source, but the "
                    "service has no document store (start it with a "
                    "file or server --store URL); pass xml/path or "
                    "explicit bytes/seed",
                )
            loaded = None
            # Only a reload request consults the store: explicit
            # bytes/seed is a generation request that must not be
            # shadowed by a stale persisted document, and anonymous
            # names were just invented (a lookup would only pollute
            # the miss counter).
            if reload_request and self.docstore is not None:
                # One load() call: a hit re-materializes the node
                # table with a range scan (no re-parse), a miss counts
                # in the docstore miss counter.
                loaded = await self._in_analysis_thread(
                    self.docstore.load, name
                )
            if loaded is None and reload_request:
                # A reload of a name the store does not hold is a
                # client error (likely a typo), not a license to
                # generate and persist a random document under it.
                raise ProtocolError(
                    BAD_PARAMS,
                    f"doc {name!r} is not persisted in the document "
                    "store; pass xml/path or explicit bytes/seed",
                )
            if loaded is not None:
                tree, stored = loaded
                if stored.schema_digest != schema_digest(schema):
                    raise ProtocolError(
                        BAD_PARAMS,
                        f"document {name!r} was persisted under a "
                        "different schema (digest "
                        f"{stored.schema_digest[:12]}...); pass the "
                        "matching schema or reload from a source",
                    )
                # A persisted *projection* only answers the queries it
                # was projected for (Theorem 3.2); a reload asking for
                # queries outside the recorded set must not silently
                # get the narrower tree.
                recorded = stored.meta.get("project_for")
                if stored.meta.get("projected") and \
                        requested is not None and recorded is not None \
                        and not set(requested) <= set(recorded):
                    raise ProtocolError(
                        BAD_PARAMS,
                        f"persisted document {name!r} is projected for "
                        f"{sorted(recorded)}, which does not cover "
                        "project_for; reload it from a source",
                    )
                meta.update(
                    from_store=True,
                    projected=stored.meta.get("projected", False),
                    nodes_seen=stored.nodes_seen,
                    subtrees_skipped=stored.subtrees_skipped,
                )
                provenance = "from_store"
                persist = False
            else:
                target = params.get("bytes", 10_000)
                seed = params.get("seed", 0)
                if not isinstance(target, int) or \
                        not isinstance(seed, int):
                    raise ProtocolError(
                        BAD_PARAMS, '"bytes" and "seed" must be ints'
                    )
                keep = await self._in_analysis_thread(
                    self._projection_keep, engine, requested
                )
                meta["projected"] = keep is not None
                provenance = "generated"
                depth_cap = keep.truncation if keep is not None else None

                def generate():
                    document = generate_document(schema, target,
                                                 seed=seed)
                    if keep is None:
                        return to_indexed(document), document.size()
                    # Generated documents project post-hoc (there is
                    # no parse stream to push the projection into).
                    projected = project(
                        document, keep_set_for_chains(document, keep)
                    )
                    return to_indexed(projected), document.size()

                tree, seen = await self._in_analysis_thread(generate)
                meta["nodes_seen"] = seen
                persist = True
        meta["nodes"] = tree.size()
        if persist and self.docstore is not None:
            with span("store"):
                await self._in_analysis_thread(
                    lambda: self.docstore.save(
                        name, tree, schema_digest(schema),
                        nodes_seen=meta["nodes_seen"],
                        subtrees_skipped=meta["subtrees_skipped"],
                        meta={
                            "projected": meta["projected"],
                            "project_for": requested
                            if meta["projected"] else None,
                        },
                    )
                )
        self._documents[doc_id] = ViewCache(schema, tree, engine=engine)
        # Reloads must count as a fresh touch, or a just-reloaded doc
        # keeps its old LRU position and can be evicted immediately.
        self._documents.move_to_end(doc_id)
        self._doc_meta[doc_id] = meta
        while len(self._documents) > self.config.max_documents:
            evicted, _ = self._documents.popitem(last=False)
            self._doc_meta.pop(evicted, None)
            self.document_evictions += 1
        obs_metrics.DOCUMENTS_LOADED.set(len(self._documents))
        detail = {
            "doc": doc_id,
            "nodes": meta["nodes"],
            "nodes_seen": meta["nodes_seen"],
            "subtrees_skipped": meta["subtrees_skipped"],
            "projected": meta["projected"],
        }
        if depth_cap is not None:
            detail["depth_cap"] = depth_cap
        plan_decision("docstore", provenance, **detail)
        return {"doc": doc_id, **meta}

    async def _op_doc_query(self, params: dict) -> dict:
        """Answer a query over a loaded *or persisted* document.

        The answer path is picked per request and reported back as
        ``mode`` (and counted in the ``doc_queries`` stats section):

        * ``"materialized"`` -- the document is already loaded in this
          service; evaluate on the in-memory tree.
        * ``"pushdown"`` -- the document is only persisted and the
          query compiles into the supported step fragment
          (:func:`repro.docstore.pushdown.compile_query`); the document
          store answers it *inside the database* and answers serialize
          straight from node-row range scans -- the document is never
          materialized.
        * ``"fallback"`` -- persisted only, but the query falls outside
          the fragment; the tree is materialized transiently (not
          admitted to the document LRU) and evaluated in memory.

        A persisted *projection* only answers the queries it was
        projected for (Theorem 3.2): a query outside the recorded
        ``project_for`` set is refused with ``bad-params`` instead of
        being silently answered from the narrower node table.
        """
        schema_ref = require(params, "schema")
        schema = self.registry.schema(schema_ref)
        name = require(params, "doc")
        query_text = require(params, "query")
        limit = params.get("limit")
        if limit is not None and \
                (not isinstance(limit, int) or limit < 0):
            raise ProtocolError(
                BAD_PARAMS, '"limit" must be a non-negative int'
            )
        try:
            query = parse_query(query_text)
        except Exception as error:
            raise ProtocolError(
                BAD_PARAMS, f"query does not parse: {error}"
            ) from error
        doc_id = f"{self.config.doc_id_prefix}{name}"
        cache = self._documents.get(doc_id)
        if cache is not None:
            self._documents.move_to_end(doc_id)
            tree = cache.tree

            def run_materialized():
                locs = evaluate_query(query, tree.store,
                                      {ROOT_VAR: [tree.root]})
                take = locs if limit is None else locs[:limit]
                return locs, [serialize(tree.store, loc)
                              for loc in take]

            t0 = time.perf_counter()
            with span("engine"):
                locs, answers = await self._in_analysis_thread(
                    run_materialized
                )
            obs_metrics.DOC_QUERY_SECONDS.labels(
                mode="materialized"
            ).observe(time.perf_counter() - t0)
            self.doc_queries["materialized"] += 1
            plan_decision("answer", "materialized",
                          doc=doc_id, count=len(locs))
            return {"doc": doc_id, "count": len(locs),
                    "answers": answers, "mode": "materialized",
                    "from_store": False}
        if self.docstore is None:
            raise ProtocolError(
                UNKNOWN_DOC,
                f"document not loaded: {doc_id!r} (and the service "
                "has no document store to answer from)",
            )
        stored = await self._in_analysis_thread(
            self.docstore.describe, name
        )
        if stored is None:
            raise ProtocolError(
                UNKNOWN_DOC,
                f"document not loaded or persisted: {name!r}",
            )
        if stored.schema_digest != schema_digest(schema):
            raise ProtocolError(
                BAD_PARAMS,
                f"document {name!r} was persisted under a different "
                f"schema (digest {stored.schema_digest[:12]}...); "
                "pass the matching schema",
            )
        recorded = stored.meta.get("project_for")
        if stored.meta.get("projected") and recorded is not None \
                and query_text not in set(recorded):
            raise ProtocolError(
                BAD_PARAMS,
                f"persisted document {name!r} is projected for "
                f"{sorted(recorded)}, which does not cover this "
                "query; reload it from a source",
            )
        steps, why = compile_query_explain(query)
        if steps is not None:
            if current_plan() is not None:
                # explain_steps only *compiles* (no table access), so
                # it is safe off the analysis thread.
                explained = self.docstore.explain_steps(name, steps)
                plan_decision(
                    "pushdown", "compiled",
                    steps=[step_label(spec) for spec in steps],
                    **explained,
                )
            else:
                plan_decision("pushdown", "compiled")

            def run_pushdown():
                locs = self.docstore.run_steps(name, steps)
                return locs, serialize_answers(
                    self.docstore, name, locs, limit
                )

            t0 = time.perf_counter()
            with span("store"):
                locs, answers = await self._in_analysis_thread(
                    run_pushdown
                )
            obs_metrics.DOC_QUERY_SECONDS.labels(
                mode="pushdown"
            ).observe(time.perf_counter() - t0)
            self.doc_queries["pushed_down"] += 1
            mode = "pushdown"
        else:
            plan_decision("pushdown", "ineligible", **(why or {}))

            def run_fallback():
                loaded = self.docstore.load(name)
                if loaded is None:
                    raise ProtocolError(
                        UNKNOWN_DOC,
                        f"document not persisted: {name!r}",
                    )
                tree, _ = loaded
                locs = evaluate_query(query, tree.store,
                                      {ROOT_VAR: [tree.root]})
                take = locs if limit is None else locs[:limit]
                return locs, [serialize(tree.store, loc)
                              for loc in take]

            t0 = time.perf_counter()
            with span("engine"):
                locs, answers = await self._in_analysis_thread(
                    run_fallback
                )
            obs_metrics.DOC_QUERY_SECONDS.labels(
                mode="fallback"
            ).observe(time.perf_counter() - t0)
            self.doc_queries["fallback"] += 1
            mode = "fallback"
        plan_decision("answer", mode, doc=doc_id, count=len(locs))
        return {"doc": doc_id, "count": len(locs),
                "answers": answers, "mode": mode, "from_store": True}

    async def _op_doc_unload(self, params: dict) -> dict:
        """Drop a loaded document (idempotent; the persisted node
        table, if any, keeps its copy)."""
        doc_id = require(params, "doc")
        self._doc_meta.pop(doc_id, None)
        unloaded = self._documents.pop(doc_id, None) is not None
        obs_metrics.DOCUMENTS_LOADED.set(len(self._documents))
        return {"unloaded": unloaded}

    async def _op_view_register(self, params: dict) -> dict:
        """Materialize a named view over a loaded document."""
        cache = self._document(params)
        name = require(params, "name")
        query = require(params, "query")

        def run():
            try:
                cache.register(name, query)
            except Exception as error:
                raise ProtocolError(
                    BAD_PARAMS, f"view does not parse: {error}"
                ) from error
            return len(cache.result(name))

        return {"count": await self._in_analysis_thread(run)}

    async def _op_view_result(self, params: dict) -> dict:
        """Current size of a materialized view."""
        cache = self._document(params)
        name = require(params, "name")
        if name not in cache.view_names():
            raise ProtocolError(UNKNOWN_VIEW,
                                f"view not registered: {name!r}")
        return {"count": len(cache.result(name))}

    async def _op_update_apply(self, params: dict) -> dict:
        """Apply an update; refresh only the views it may affect."""
        cache = self._document(params)
        update = require(params, "update")

        def run():
            with self.store.deferred():
                try:
                    return cache.apply(update)
                except ProtocolError:
                    raise
                except Exception as error:
                    raise ProtocolError(
                        BAD_PARAMS, f"update failed: {error}"
                    ) from error

        refreshed = await self._in_analysis_thread(run)
        return {
            "refreshed": refreshed,
            "skipped": len(cache.view_names()) - len(refreshed),
            "skip_ratio": cache.stats.skip_ratio,
        }


class ShardedService(JsonLinesFront):
    """Schema-affinity router over a pool of shard worker processes.

    The router owns no engines: it resolves each request's schema ref
    to a content digest, hashes the digest onto the owning shard
    (:func:`~repro.serve.sharding.shard_for`), and forwards the request
    over that shard's pipelined :class:`~repro.serve.sharding.ShardLink`.
    Verdicts are pure functions of ``(schema digest, k, query,
    update)``, so any topology answers byte-identically -- the shard
    count only decides how many cores analyze concurrently.

    Reference resolution is stateless where possible (a 64-hex ref *is*
    a digest; builtin names digest deterministically) plus a bounded
    alias table mirrored from successful ``schema.register`` calls.
    Document ids carry their shard (``s<index>-d<n>``), so document
    operations route without any router-side document state.
    """

    #: op name -> routing class.  Diffed against
    #: :data:`repro.serve.protocol.OPS` by the protocol-doc test so a
    #: new op cannot silently bypass the router.
    ROUTING = {
        "ping": "local",
        "analyze": "schema",
        "matrix": "schema",
        "schedule": "schema",
        "schema.register": "register",
        "schema.evict": "evict",
        "schema.list": "fanout",
        "doc.load": "schema",
        # doc.query names the *persistence* key (unprefixed), so it
        # routes like doc.load: by schema affinity, landing on the
        # shard that owns (and would have loaded) the document.
        "doc.query": "schema",
        "doc.unload": "doc",
        "view.register": "doc",
        "view.result": "doc",
        "update.apply": "doc",
        "stats": "fanout",
        "metrics": "fanout",
        "shutdown": "local",
    }

    #: Floor for the router's alias and registration-digest tables;
    #: the effective bound scales with the pool's registry capacity
    #: (``max_schemas`` per shard) so the router cannot forget names
    #: its shards still hold.
    MAX_ALIASES = 4096

    def __init__(self, config: ServeConfig):
        super().__init__(
            config.host, config.port,
            role="router",
            slow_ms=config.slow_ms,
            slow_log_path=config.slow_log_path,
            metrics_port=config.metrics_port,
        )
        self.config = config
        self.max_aliases = max(
            self.MAX_ALIASES, config.max_schemas * config.shards
        )
        self._handles: list = []
        self._links: list[ShardLink] = []
        self._shards_closed = False
        # name -> digest, mirrored from successful registrations (and
        # preloads); bounded so hostile clients cannot grow the router.
        self._aliases: OrderedDict[str, str] = OrderedDict()
        # (root, dtd text) digest memo so re-registrations skip the
        # router-side DTD parse.
        self._text_digests: OrderedDict[tuple[str, str], str] = (
            OrderedDict()
        )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Spawn and connect the shard pool, then open the front door."""
        loop = asyncio.get_running_loop()
        self._handles = await loop.run_in_executor(
            None, spawn_shards, self.config, self.config.shards
        )
        try:
            for handle in self._handles:
                link = ShardLink(handle.index, handle.host, handle.port)
                await link.connect()
                self._links.append(link)
            for name in self.config.preload:
                self._remember_alias(name, builtin_digest(name))
            return await super().start()
        except BaseException:
            await self._close_backend()
            raise

    async def _close_backend(self) -> None:
        """Shut down every shard worker and reap the processes."""
        if self._shards_closed:
            return
        self._shards_closed = True
        for link in self._links:
            try:
                await asyncio.wait_for(link.call("shutdown", {}),
                                       timeout=5.0)
            except (TimeoutError, ConnectionError, AssertionError):
                pass
            await link.aclose()
        if self._handles:
            await asyncio.get_running_loop().run_in_executor(
                None, join_shards, self._handles
            )

    # -- routing -------------------------------------------------------------

    def _remember_alias(self, name: str, digest: str) -> None:
        self._aliases[name] = digest
        self._aliases.move_to_end(name)
        while len(self._aliases) > self.max_aliases:
            self._aliases.popitem(last=False)

    def _route_digest(self, ref: str) -> str:
        """Schema ref -> content digest, without asking any shard.

        Raises :class:`UnknownSchemaError` when the ref is neither a
        known alias, a builtin name, nor a literal digest.
        """
        digest, _how = self._route_digest_explain(ref)
        return digest

    def _route_digest_explain(self, ref: str) -> tuple[str, str]:
        """:meth:`_route_digest` plus *how* the ref resolved.

        The second element is the router's plan-decision name:
        ``alias`` (router-side alias table hit), ``builtin`` (named
        builtin schema), or ``digest`` (the ref already was a literal
        content digest).
        """
        digest = self._aliases.get(ref)
        if digest is not None:
            self._aliases.move_to_end(ref)
            return digest, "alias"
        if ref in BUILTIN_SCHEMAS:
            return builtin_digest(ref), "builtin"
        if DIGEST_RE.fullmatch(ref):
            return ref, "digest"
        raise UnknownSchemaError(ref)

    def _link_for_digest(self, digest: str) -> ShardLink:
        return self._links[shard_for(digest, self.config.shards)]

    def _link_for_doc(self, doc_id: str) -> ShardLink:
        """Doc id -> owning shard, parsed from the ``s<index>-`` prefix."""
        if doc_id.startswith("s"):
            index, dash, _ = doc_id[1:].partition("-")
            if dash and index.isdigit() and \
                    int(index) < self.config.shards:
                return self._links[int(index)]
        raise ProtocolError(UNKNOWN_DOC,
                            f"document not loaded: {doc_id!r}")

    @staticmethod
    def _payload(response: dict) -> dict:
        """A forwarded response minus the shard-internal ``id``."""
        return {key: value for key, value in response.items()
                if key != "id"}

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(self, request: Request) -> dict:
        routing = self.ROUTING.get(request.op)
        if routing is None:
            raise ProtocolError(UNKNOWN_OP,
                                f"unknown op {request.op!r}")
        self.stats.ops[request.op] = \
            self.stats.ops.get(request.op, 0) + 1
        params = request.params
        if routing == "local":
            if request.op == "ping":
                return {"pong": True}
            return await self._op_shutdown(params)
        if routing == "schema":
            ref = require(params, "schema")
            digest, how = self._route_digest_explain(ref)
            link = self._link_for_digest(digest)
            plan_decision("router", how, schema=ref, shard=link.index,
                          digest=digest[:12])
            return await self._forward(link, request)
        if routing == "doc":
            link = self._link_for_doc(require(params, "doc"))
            return await self._forward(link, request)
        if routing == "register":
            return await self._op_schema_register(params)
        if routing == "evict":
            return await self._op_schema_evict(params)
        if request.op == "stats":
            return await self._op_stats(params)
        if request.op == "metrics":
            return await self._op_metrics(params)
        return await self._op_schema_list(params)

    async def _forward(self, link: ShardLink, request: Request) -> dict:
        """Forward a routed request to its owning shard.

        When the client asked for tracing (a ``trace`` id or
        ``timing: true``), the envelope fields are propagated so the
        shard joins the same trace and returns its span breakdown (the
        router's ``_serve_line`` then merges it under a ``router``
        span).  ``explain: true`` is propagated the same way, so the
        shard returns its own plan for the router's ``_serve_line`` to
        fold under the router plan.  Untraced, unexplained requests
        forward byte-identically to before.
        """
        obs_metrics.SHARD_ROUTED.labels(shard=str(link.index)).inc()
        params = request.params
        if request.timing or request.trace is not None or request.explain:
            trace = current_trace()
            params = dict(params)
            if trace is not None:
                params["trace"] = trace.trace_id
            if request.timing:
                params["timing"] = True
            if request.explain:
                params["explain"] = True
        with span("router"):
            response = await link.call(request.op, params)
        return self._payload(response)

    # -- ops -----------------------------------------------------------------

    async def _op_shutdown(self, params: dict) -> dict:
        """Stop the router; shards are shut down during teardown."""
        asyncio.get_running_loop().call_soon(self.stop)
        return {"stopping": True}

    async def _op_schema_register(self, params: dict) -> dict:
        """Digest the schema router-side, then register on its owner."""
        name = params.get("name")
        if name is not None and not isinstance(name, str):
            raise ProtocolError(BAD_PARAMS,
                                'parameter "name" must be str')
        if "builtin" in params:
            builtin = require(params, "builtin")
            digest = builtin_digest(builtin)  # raises UnknownSchemaError
        else:
            root = require(params, "root")
            dtd_text = require(params, "dtd")
            digest = self._text_digests.get((root, dtd_text))
            if digest is None:
                try:
                    digest = schema_digest(
                        DTD.from_dtd_text(root, dtd_text)
                    )
                except Exception as error:
                    raise ProtocolError(
                        BAD_PARAMS, f"unparsable DTD: {error}"
                    ) from error
                self._text_digests[(root, dtd_text)] = digest
                while len(self._text_digests) > self.MAX_ALIASES:
                    self._text_digests.popitem(last=False)
        link = self._link_for_digest(digest)
        response = await link.call("schema.register", params)
        if response.get("ok"):
            if "builtin" in params:
                self._remember_alias(params["builtin"], digest)
            if name:
                self._remember_alias(name, digest)
        return self._payload(response)

    async def _op_schema_evict(self, params: dict) -> dict:
        """Evict on the owning shard; unknown refs evict nothing."""
        ref = require(params, "schema")
        try:
            digest = self._route_digest(ref)
        except UnknownSchemaError:
            return {"evicted": False}
        link = self._link_for_digest(digest)
        response = await link.call("schema.evict", params)
        if response.get("ok") and response.get("evicted") and \
                self._aliases.get(ref) == digest:
            del self._aliases[ref]
        return self._payload(response)

    async def _fanout(self, op: str) -> list[dict]:
        """One call per shard, concurrently; raises on any failure."""
        responses = await asyncio.gather(
            *(link.call(op, {}) for link in self._links)
        )
        for link, response in zip(self._links, responses):
            if not response.get("ok"):
                raise ProtocolError(
                    INTERNAL,
                    f"shard {link.index} failed {op!r}: "
                    f"{response.get('error')}",
                )
        return [self._payload(response) for response in responses]

    async def _op_schema_list(self, params: dict) -> dict:
        """Union of every shard's registered schemas."""
        payloads = await self._fanout("schema.list")
        schemas = []
        for shard_payload in payloads:
            schemas.extend(shard_payload["schemas"])
        return {"schemas": schemas}

    @staticmethod
    def _aggregate_docstore(per_shard: list[dict]) -> dict:
        """Aggregate shard document-store counters.

        Per-process counters (hits/misses/saves) sum; table sizes come
        from one shared file, so any shard's snapshot is authoritative
        (take the max to tolerate skew).
        """
        enabled = [p["docstore"] for p in per_shard
                   if p["docstore"].get("enabled")]
        if not enabled:
            return {"enabled": False}
        return {
            "enabled": True,
            "path": enabled[0]["path"],
            "documents": max(p["documents"] for p in enabled),
            "nodes": max(p["nodes"] for p in enabled),
            "hits": sum(p["hits"] for p in enabled),
            "misses": sum(p["misses"] for p in enabled),
            "saves": sum(p["saves"] for p in enabled),
        }

    #: Batcher counters summed across shards in aggregated ``/stats``.
    _BATCHER_SUMMED = ("requests", "batches", "coalesced_requests",
                       "matrix_pairs", "sparse_batches",
                       "fallback_singles")
    #: Registry counters summed across shards.
    _REGISTRY_SUMMED = ("schemas", "registrations", "evictions",
                        "explicit_evictions")

    async def _op_stats(self, params: dict) -> dict:
        """Aggregated service counters plus the raw per-shard payloads.

        Top-level keys mirror the unsharded ``stats`` payload (so
        monitoring and the load generator work unchanged): batcher and
        registry counters are summed across shards, per-engine stats
        merge collision-free (affinity routing puts each digest on
        exactly one shard), and the store verdict count is the shared
        file's.  ``per_shard`` carries each worker's full payload,
        annotated with the router's per-shard routing counter.
        """
        payloads = await self._fanout("stats")
        per_shard = []
        for link, shard_payload in zip(self._links, payloads):
            shard_payload = dict(shard_payload)
            shard_payload.pop("ok", None)
            shard_payload["shard"] = link.index
            shard_payload["routed"] = link.routed
            per_shard.append(shard_payload)
        batcher = {
            "enabled": self.config.analysis_mode == "batched",
            "max_batch_size": max(
                (p["batcher"]["max_batch_size"] for p in per_shard),
                default=0,
            ),
        }
        for key in self._BATCHER_SUMMED:
            batcher[key] = sum(p["batcher"][key] for p in per_shard)
        registry = {
            "max_schemas": self.config.max_schemas,
            "engines": {},
        }
        for key in self._REGISTRY_SUMMED:
            registry[key] = sum(p["registry"][key] for p in per_shard)
        for shard_payload in per_shard:
            registry["engines"].update(
                shard_payload["registry"]["engines"]
            )
        # One shared backend (file or server): every shard reports the
        # same count (take max to tolerate snapshot skew).  Memory
        # stores are private per worker and disjoint under affinity
        # routing, so the true total is the sum.
        verdicts = [p["store"]["verdicts"] for p in per_shard]
        private = parse_store_url(self.config.store_path).kind == "memory"
        return {
            "uptime_seconds": time.perf_counter() - self.stats.started,
            "analysis_mode": self.config.analysis_mode,
            "shards": self.config.shards,
            "connections": self.stats.connections,
            "requests": self.stats.requests,
            "errors": self.stats.errors,
            "ops": dict(self.stats.ops),
            "documents": sum(p["documents"] for p in per_shard),
            "document_evictions": sum(
                p["document_evictions"] for p in per_shard
            ),
            "doc_queries": {
                key: sum(p["doc_queries"][key] for p in per_shard)
                for key in ("pushed_down", "fallback", "materialized")
            },
            # Doc ids are shard-prefixed, so the union is collision-free.
            "documents_detail": {
                doc: meta
                for p in per_shard
                for doc, meta in p["documents_detail"].items()
            },
            "docstore": self._aggregate_docstore(per_shard),
            "registry": registry,
            "batcher": batcher,
            "store": {
                "path": self.config.store_path,
                "verdicts": (sum(verdicts) if private
                             else max(verdicts, default=0)),
            },
            "per_shard": per_shard,
        }

    async def _metrics_snapshot(self) -> dict:
        """Router view: every shard's snapshot merged with the router's.

        Merging sums children with identical label tuples (see
        :func:`repro.obs.metrics.merge_snapshots`); router-side series
        (``role="router"``, ``repro_shard_routed_total``) coexist with
        the summed shard series (``role="service"``).
        """
        payloads = await self._fanout("metrics")
        return merge_snapshots(
            [REGISTRY.snapshot()]
            + [p["snapshot"] for p in payloads]
        )

    async def _op_metrics(self, params: dict) -> dict:
        """Aggregated observability surface of the whole topology.

        ``snapshot`` is the merged router view, ``per_shard`` the raw
        per-worker snapshots it was merged from (index-aligned with the
        shard pool), and ``slow`` the union of every process's slow
        ring, ordered by timestamp.
        """
        payloads = await self._fanout("metrics")
        shard_snapshots = [p["snapshot"] for p in payloads]
        merged = merge_snapshots([REGISTRY.snapshot()] + shard_snapshots)
        slow = self.slow.entries()
        for payload in payloads:
            slow.extend(payload.get("slow", ()))
        slow.sort(key=lambda entry: entry.get("ts", ""))
        return {
            "text": render(merged),
            "snapshot": merged,
            "per_shard": shard_snapshots,
            "slow": slow[-128:],
        }


def make_service(
    config: ServeConfig,
) -> IndependenceService | ShardedService:
    """The service topology ``config`` asks for (``shards`` decides)."""
    if config.shards > 1:
        return ShardedService(config)
    return IndependenceService(config)


async def run_service(config: ServeConfig, ready=None) -> None:
    """Start a service and block until a ``shutdown`` op (CLI body)."""
    service = make_service(config)
    host, port = await service.start()
    if ready is not None:
        ready(service, host, port)
    await service.serve_until_stopped()
