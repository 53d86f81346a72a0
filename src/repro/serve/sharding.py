"""Process-pool shards: the worker side of the sharded serving layer.

The static verdicts of the paper are pure functions of ``(schema
digest, k, query, update)``, which makes the serving layer
embarrassingly shardable *by schema digest*: every request naming one
schema can be answered by whichever worker owns that digest, and two
workers never need to agree on anything beyond the shared persistent
verdict store.  This module provides the pieces the router
(:class:`repro.serve.server.ShardedService`) builds on:

* :func:`shard_for` -- the stable digest -> shard-index hash (a pure
  function of the digest text, identical in every process and across
  restarts, unlike the salted builtin ``hash``);
* :func:`spawn_shards` -- fork a pool of shard worker processes, each
  running a complete single-threaded
  :class:`~repro.serve.server.IndependenceService` (its own engines,
  micro-batching queue, and registry partition) on an ephemeral
  loopback port;
* :class:`ShardLink` -- one multiplexed JSON-lines connection from the
  router to a shard, pipelining concurrent requests by internal id.

Coalescing still happens per ``(schema, k)`` *inside* the owning shard
-- affinity routing guarantees all requests for one schema meet in one
admission queue -- while distinct schemas analyze truly in parallel on
separate cores.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import re
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..analysis.engine import schema_digest
from .protocol import MAX_LINE_BYTES, encode
from .registry import BUILTIN_SCHEMAS, UnknownSchemaError

if TYPE_CHECKING:  # pragma: no cover -- import cycle with server.py
    from .server import ServeConfig

#: How long the router waits for one shard worker to report its bound
#: port (covers interpreter start + ``import repro`` on a loaded box).
SHARD_START_TIMEOUT = 60.0

#: Matches a full schema content digest (SHA-256 hex).
DIGEST_RE = re.compile(r"[0-9a-f]{64}")


def shard_for(digest: str, shards: int) -> int:
    """The shard index owning ``digest`` in a pool of ``shards``.

    A pure function of the digest *text*, so every process (router,
    shard, client, test) computes the same owner and the assignment
    survives restarts.

    >>> shard_for("00ff" * 16, 1)
    0
    >>> 0 <= shard_for("00ff" * 16, 3) < 3
    True
    """
    return int(digest[:16], 16) % shards


_BUILTIN_DIGESTS: dict[str, str] = {}


def builtin_digest(name: str) -> str:
    """Content digest of a builtin schema (cached per process).

    Raises :class:`~repro.serve.registry.UnknownSchemaError` for a name
    outside the builtin catalog, mirroring
    :meth:`SchemaRegistry.register_builtin`.
    """
    digest = _BUILTIN_DIGESTS.get(name)
    if digest is None:
        factory = BUILTIN_SCHEMAS.get(name)
        if factory is None:
            raise UnknownSchemaError(name)
        digest = schema_digest(factory())
        _BUILTIN_DIGESTS[name] = digest
    return digest


# ---------------------------------------------------------------------------
# Shard worker processes
# ---------------------------------------------------------------------------


@dataclass
class ShardHandle:
    """One spawned shard worker: its process and bound address."""

    index: int
    process: multiprocessing.process.BaseProcess
    host: str
    port: int


def _shard_main(config: "ServeConfig", conn) -> None:
    """Entry point of one shard worker process.

    Runs a complete single-shard service and reports the bound
    ``(host, port)`` back through ``conn`` once accepting.  Must stay a
    module-level function: the ``spawn`` start method imports it by
    qualified name in the child.
    """
    import asyncio as aio

    from .server import run_service

    def ready(service, host, port):
        conn.send((host, port))
        conn.close()

    try:
        aio.run(run_service(config, ready=ready))
    except KeyboardInterrupt:  # pragma: no cover -- operator interrupt
        pass


def partition_preload(preload, shards: int) -> list[tuple[str, ...]]:
    """Split the preload list so each builtin lands only on its owner.

    Preloading a schema on a shard that can never receive its traffic
    would waste warm RAM and distort per-shard stats.
    """
    owned: list[list[str]] = [[] for _ in range(shards)]
    for name in preload:
        owned[shard_for(builtin_digest(name), shards)].append(name)
    return [tuple(names) for names in owned]


def spawn_shards(config: "ServeConfig", shards: int) -> list[ShardHandle]:
    """Start ``shards`` worker processes; blocks until all are bound.

    Each worker gets a copy of ``config`` specialized to one shard:
    ephemeral loopback port, ``shards=1`` (a worker is itself an
    ordinary unsharded service), a ``doc_id_prefix`` namespacing its
    document ids (``s<index>-``) so the router can route later document
    operations without any shared state, and only the builtins it owns
    preloaded.  All workers point at the *same* ``store_path``: SQLite
    WAL supports multi-process writers, so shards share one persistent
    verdict store (see the cross-shard warm-start test).

    Uses the ``spawn`` start method -- forking a process that may
    already run an event loop is unsafe -- and marks workers daemonic
    so an abnormal router death cannot leak them.
    """
    context = multiprocessing.get_context("spawn")
    preloads = partition_preload(config.preload, shards)
    started: list[tuple[int, multiprocessing.process.BaseProcess,
                        object]] = []
    try:
        for index in range(shards):
            shard_config = replace(
                config,
                host="127.0.0.1",
                port=0,
                shards=1,
                shard_index=index,
                doc_id_prefix=f"s{index}-",
                preload=preloads[index],
                # Observability is router-fronted: workers expose their
                # registries over the `metrics` wire op (the router
                # merges), so they bind no /metrics listener, and the
                # slow-log file stays single-writer (worker slow
                # requests still reach the router via the ring).
                metrics_port=0,
                slow_log_path="",
            )
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_shard_main,
                args=(shard_config, sender),
                daemon=True,
                name=f"repro-shard-{index}",
            )
            process.start()
            sender.close()
            started.append((index, process, receiver))
        handles = []
        for index, process, receiver in started:
            if not receiver.poll(SHARD_START_TIMEOUT):
                raise RuntimeError(
                    f"shard {index} did not report a port within "
                    f"{SHARD_START_TIMEOUT:.0f}s"
                )
            try:
                host, port = receiver.recv()
            except EOFError:
                raise RuntimeError(
                    f"shard {index} exited during startup "
                    f"(exitcode {process.exitcode})"
                ) from None
            finally:
                receiver.close()
            handles.append(ShardHandle(index=index, process=process,
                                       host=host, port=port))
        return handles
    except BaseException:
        for _, process, _ in started:
            if process.is_alive():
                process.terminate()
        raise


def join_shards(handles: list[ShardHandle], timeout: float = 10.0) -> None:
    """Wait for shard processes to exit; terminate stragglers."""
    for handle in handles:
        handle.process.join(timeout=timeout)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=5.0)


# ---------------------------------------------------------------------------
# Router-side shard connections
# ---------------------------------------------------------------------------


class ShardLink:
    """One multiplexed JSON-lines connection from the router to a shard.

    All router traffic for one shard flows over a single pipelined
    connection: requests are tagged with an internal integer id and the
    responses (which the shard may emit out of order) are matched back
    to their awaiting futures.  Funneling every routed request through
    one connection is deliberate -- it is what lets concurrent client
    requests for one schema meet in the shard's admission queue and
    coalesce, exactly as if they had arrived on one pipelined client
    connection.
    """

    def __init__(self, index: int, host: str, port: int):
        self.index = index
        self.host = host
        self.port = port
        #: Requests forwarded over this link (the router's per-shard
        #: routing counter, surfaced in aggregated ``/stats``).
        self.routed = 0
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._write_lock = asyncio.Lock()
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._read_task: asyncio.Task | None = None
        self._dead = False

    async def connect(self) -> None:
        """Open the connection and start the response dispatcher."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_LINE_BYTES
        )
        self._read_task = asyncio.create_task(self._read_loop())

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = json.loads(line)
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionError, asyncio.CancelledError, ValueError):
            pass
        finally:
            # The link is dead (EOF, cancelled, or an unframeable
            # response, e.g. a shard line overrunning the read limit).
            # Mark it so later call()s fail fast instead of awaiting a
            # future nothing will ever resolve, and fail everything
            # already in flight.
            self._dead = True
            error = ConnectionError(
                f"shard {self.index} connection lost"
            )
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    async def call(self, op: str, params: dict) -> dict:
        """Forward one request; returns the shard's decoded response.

        Raises :class:`ConnectionError` when the link has died -- the
        caller's request is answered with an ``internal`` error rather
        than hanging on a response that can never arrive.
        """
        assert self._writer is not None, "link not connected"
        if self._dead:
            raise ConnectionError(
                f"shard {self.index} connection lost"
            )
        self._next_id += 1
        request_id = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self.routed += 1
        async with self._write_lock:
            self._writer.write(encode({"op": op, "id": request_id,
                                       **params}))
            await self._writer.drain()
        return await future

    async def aclose(self) -> None:
        """Stop the dispatcher and close the connection."""
        if self._read_task is not None:
            self._read_task.cancel()
            try:
                await self._read_task
            except asyncio.CancelledError:
                pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
