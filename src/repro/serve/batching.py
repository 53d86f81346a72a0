"""Micro-batching admission queue for ``analyze`` requests.

Only requests the pair memo cannot answer are admitted: the service
answers a memoized pair on the event loop before it reaches this queue
(:meth:`~repro.analysis.engine.AnalysisEngine.peek_pair`), so
:attr:`MicroBatcher.requests` counts admitted requests, not every
``analyze``.  Concurrent admitted requests for the same
``(schema_digest, k)`` that arrive within a small window (default 2 ms)
are coalesced into one
:meth:`~repro.analysis.engine.AnalysisEngine.analyze_matrix` call over
the batch's distinct queries x distinct updates, executed on a single
analysis worker thread with the verdict store in group-commit mode.
Service throughput then scales with the engine's *amortized* batch
speed -- one executor hand-off, one store commit, and shared chain
inference per flush -- instead of paying per-request latency (executor
round-trip + per-verdict commit) on every call, which is precisely the
serving-layer shape the paper's "analyze every update against every
view" pitch assumes.

The first request of a group opens the window; followers join until the
window closes or the batch hits ``max_batch``, whichever is first.  A
flush failure (e.g. one unparsable expression) degrades that batch to
per-request analysis so only the offending request sees the error.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..analysis.engine import AnalysisEngine, normalize_source
from ..obs.metrics import BATCH_FLUSH_SECONDS, BATCH_QUEUE_WAIT, BATCH_SIZE
from ..obs.plan import (
    PlanContext,
    clip,
    count_decision,
    current_plan,
    using_plan,
)
from ..obs.plan import decision as plan_decision
from ..obs.tracing import TraceContext, current_trace


@dataclass(frozen=True)
class WireVerdict:
    """The response payload of one ``analyze`` call.

    Deliberately excludes timing so verdicts are byte-identical across
    batched, unbatched, memo-served, and store-served execution.
    """

    independent: bool
    k: int
    k_query: int
    k_update: int

    def as_dict(self) -> dict:
        """The JSON-ready ``analyze`` response payload."""
        return {
            "independent": self.independent,
            "k": self.k,
            "k_query": self.k_query,
            "k_update": self.k_update,
        }


@dataclass
class _Group:
    """One open admission window for a ``(digest, k)`` key.

    Each entry is ``(query, update, future, trace, plan, enqueued)``:
    the request's trace context (or None), its plan context (or None),
    and its perf_counter enqueue time so the flush can attribute
    queue-wait and engine spans -- and plan decisions -- per request.
    """

    engine: AnalysisEngine
    k: int | None
    entries: list[
        tuple[str, str, asyncio.Future, TraceContext | None,
              PlanContext | None, float]
    ] = field(default_factory=list)
    full: asyncio.Event = field(default_factory=asyncio.Event)


class MicroBatcher:
    """Coalesces concurrent analyze requests into matrix flushes."""

    def __init__(self, registry, window: float = 0.002,
                 max_batch: int = 512, enabled: bool = True):
        self.registry = registry
        self.window = window
        self.max_batch = max_batch
        self.enabled = enabled
        # One worker serializes all engine access: engine caches are not
        # thread-safe, and chain inference is GIL-bound anyway.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-analysis"
        )
        self._groups: dict[tuple, _Group] = {}
        self._flushes: set[asyncio.Task] = set()
        self.requests = 0
        self.batches = 0
        self.coalesced_requests = 0
        self.max_batch_size = 0
        self.matrix_pairs = 0
        self.sparse_batches = 0
        self.fallback_singles = 0

    # -- public API ----------------------------------------------------------

    async def submit(self, schema_ref: str, query: str, update: str,
                     k: int | None = None) -> WireVerdict:
        """One verdict, via the admission queue (or directly when
        batching is disabled)."""
        self.requests += 1
        engine = self.registry.engine(schema_ref)
        loop = asyncio.get_running_loop()
        trace = current_trace()
        plan = current_plan()
        if not self.enabled:
            # Attaches to the request's own plan: submit runs in the
            # request context, and the context copy carries it onto the
            # analysis thread so engine decisions land there too.
            plan_decision("batcher", "direct")
            ctx = contextvars.copy_context()
            t0 = time.perf_counter()
            verdict = await loop.run_in_executor(
                self._executor, ctx.run, self._analyze_one,
                engine, query, update, k
            )
            if trace is not None:
                trace.add_span("engine", time.perf_counter() - t0)
            return verdict
        key = (engine.digest, k)
        group = self._groups.get(key)
        if group is None:
            group = _Group(engine=engine, k=k)
            self._groups[key] = group
            task = loop.create_task(self._window_flush(key, group))
            self._flushes.add(task)
            task.add_done_callback(self._flushes.discard)
        else:
            self.coalesced_requests += 1
        future: asyncio.Future = loop.create_future()
        group.entries.append(
            (query, update, future, trace, plan, time.perf_counter())
        )
        if len(group.entries) >= self.max_batch:
            # Close the window immediately: removing the group here (not
            # just waking the flush task) is what actually enforces
            # max_batch under a same-cycle burst -- later submits must
            # open a fresh group instead of piling onto this one.
            if self._groups.get(key) is group:
                del self._groups[key]
            group.full.set()
        return await future

    async def drain(self) -> None:
        """Flush every open window (tests, shutdown)."""
        while self._flushes:
            for group in list(self._groups.values()):
                group.full.set()
            tasks = list(self._flushes)
            await asyncio.gather(*tasks, return_exceptions=True)
            self._flushes.difference_update(tasks)

    def close(self) -> None:
        """Stop the analysis worker thread (after :meth:`drain`)."""
        self._executor.shutdown(wait=True)

    def stats(self) -> dict:
        """Admission-queue counters (the ``/stats`` batcher section)."""
        return {
            "enabled": self.enabled,
            "window_seconds": self.window,
            "max_batch": self.max_batch,
            "requests": self.requests,
            "batches": self.batches,
            "coalesced_requests": self.coalesced_requests,
            "max_batch_size": self.max_batch_size,
            "matrix_pairs": self.matrix_pairs,
            "sparse_batches": self.sparse_batches,
            "fallback_singles": self.fallback_singles,
        }

    # -- flush machinery -----------------------------------------------------

    async def _window_flush(self, key: tuple, group: _Group) -> None:
        try:
            await asyncio.wait_for(group.full.wait(), timeout=self.window)
        except TimeoutError:
            pass
        # Close the window: later arrivals open a fresh group.
        if self._groups.get(key) is group:
            del self._groups[key]
        loop = asyncio.get_running_loop()
        entries = group.entries
        self.batches += 1
        flush_id = self.batches
        self.max_batch_size = max(self.max_batch_size, len(entries))
        flush_started = time.perf_counter()
        BATCH_SIZE.observe(len(entries))
        for _, _, _, trace, _, enqueued in entries:
            wait = flush_started - enqueued
            BATCH_QUEUE_WAIT.observe(wait)
            if trace is not None:
                trace.add_span("queue_wait", wait)
        try:
            verdicts, engine_seconds, store_seconds, batch_plan, shape = \
                await loop.run_in_executor(
                    self._executor, self._analyze_batch,
                    group.engine, entries, group.k,
                )
            BATCH_FLUSH_SECONDS.observe(
                time.perf_counter() - flush_started
            )
            # Per-pair engine decisions were recorded on the shared
            # batch plan (the flush runs once); index them by clipped
            # normalized source so each explained entry gets its own
            # pair's verdict-source record copied in.
            engine_records: dict[tuple, dict] = {}
            if batch_plan is not None:
                for record in batch_plan.decisions:
                    detail = record.get("detail") or {}
                    engine_records[(detail.get("query"),
                                    detail.get("update"))] = record
            for (query, update, future, trace, plan, _), verdict \
                    in zip(entries, verdicts):
                if trace is not None:
                    # The flush is shared: every coalesced request
                    # reports the batch's engine/commit time as its own
                    # span (documented in docs/OBSERVABILITY.md).
                    trace.add_span("engine", engine_seconds)
                    if store_seconds > 0.0:
                        trace.add_span("store", store_seconds)
                if plan is None:
                    count_decision("batcher", shape["mode"])
                else:
                    plan_decision(
                        "batcher", shape["mode"], plan,
                        flush=flush_id, requests=len(entries),
                        queries=shape["queries"],
                        updates=shape["updates"], pairs=shape["pairs"],
                    )
                    record = engine_records.get(
                        (clip(normalize_source(query)),
                         clip(normalize_source(update)))
                    )
                    if record is not None:
                        plan.add(record["layer"], record["decision"],
                                 **(record.get("detail") or {}))
                if not future.done():
                    future.set_result(verdict)
        except Exception:
            # Batch-level failure: isolate it per request so only the
            # offending expression's caller sees the error.
            for query, update, future, trace, plan, _ in entries:
                if future.done():
                    continue
                self.fallback_singles += 1
                if plan is None:
                    count_decision("batcher", "fallback")
                else:
                    plan_decision("batcher", "fallback", plan,
                                  flush=flush_id)
                try:
                    t0 = time.perf_counter()
                    verdict = await loop.run_in_executor(
                        self._executor, self._analyze_single,
                        group.engine, query, update, group.k, plan,
                    )
                except Exception as error:
                    future.set_exception(error)
                else:
                    if trace is not None:
                        trace.add_span("engine",
                                       time.perf_counter() - t0)
                    future.set_result(verdict)

    #: A flush uses the full queries x updates matrix only while the
    #: grid is at most this many times the deduplicated request count.
    #: Dense batches (the view-set x update-stream shape the paper
    #: targets) profit from the speculative grid -- the extra verdicts
    #: land in the memo and the store for later requests -- but a batch
    #: of mostly-distinct expressions would otherwise pay O(n^2)
    #: analyses for n answers, so sparse batches run ``analyze_many``
    #: over exactly the requested pairs (same chain amortization, same
    #: group commit).
    MATRIX_DENSITY_LIMIT = 4

    def _analyze_batch(
        self, engine: AnalysisEngine, entries, k: int | None
    ) -> tuple[list[WireVerdict], float, float, PlanContext | None, dict]:
        """Worker-thread body of one flush: one deduplicated batch call
        under a single store commit, then per-entry verdict lookup.

        Returns ``(verdicts, engine_seconds, store_seconds, batch_plan,
        shape)``: the timing split lets the flush attribute analysis
        versus group-commit time to every coalesced request's trace;
        ``batch_plan`` (created only when at least one entry asked for
        an explanation) collects the engine's per-pair verdict-source
        decisions for per-entry attribution; ``shape`` describes the
        flush (``mode``/``queries``/``updates``/``pairs``) for the
        per-entry batcher decision.
        """
        queries = list(dict.fromkeys(entry[0] for entry in entries))
        updates = list(dict.fromkeys(entry[1] for entry in entries))
        pairs = list(dict.fromkeys(
            (entry[0], entry[1]) for entry in entries
        ))
        dense = (len(queries) * len(updates)
                 <= self.MATRIX_DENSITY_LIMIT * len(pairs))
        shape = {
            "mode": "matrix" if dense else "sparse",
            "queries": len(queries),
            "updates": len(updates),
            "pairs": len(pairs),
        }
        batch_plan = PlanContext() if any(
            entry[4] is not None for entry in entries
        ) else None
        store = engine.store

        def run() -> dict[tuple[str, str], WireVerdict]:
            if dense:
                matrix = engine.analyze_matrix(queries, updates, k=k)
                self.matrix_pairs += matrix.pairs
                rows = {query: i for i, query in enumerate(queries)}
                cols = {update: j for j, update in enumerate(updates)}
                return {
                    (query, update): wire_verdict(matrix.verdict(rows[query],
                                                          cols[update]))
                    for query, update in pairs
                }
            self.sparse_batches += 1
            reports = engine.analyze_many(pairs, k=k)
            self.matrix_pairs += len(reports)
            return {
                pair: wire_verdict(report)
                for pair, report in zip(pairs, reports)
            }

        def run_planned() -> dict[tuple[str, str], WireVerdict]:
            if batch_plan is None:
                return run()
            with using_plan(batch_plan):
                return run()

        t0 = time.perf_counter()
        if store is not None:
            with store.deferred():
                verdicts = run_planned()
                engine_seconds = time.perf_counter() - t0
            # deferred() commits on exit: everything past the run is
            # the group-commit cost.
            store_seconds = time.perf_counter() - t0 - engine_seconds
        else:
            verdicts = run_planned()
            engine_seconds = time.perf_counter() - t0
            store_seconds = 0.0
        return (
            [verdicts[(entry[0], entry[1])] for entry in entries],
            engine_seconds,
            store_seconds,
            batch_plan,
            shape,
        )

    def _analyze_one(self, engine: AnalysisEngine, query: str, update: str,
                     k: int | None) -> WireVerdict:
        return wire_verdict(engine.analyze_pair(query, update, k=k,
                                         collect_witnesses=False))

    def _analyze_single(self, engine: AnalysisEngine, query: str,
                        update: str, k: int | None,
                        plan: PlanContext | None) -> WireVerdict:
        """Worker-thread body of one fallback single: install the
        request's own plan (when it has one) so engine decisions attach
        to the right context despite running from the flush task."""
        if plan is None:
            return self._analyze_one(engine, query, update, k)
        with using_plan(plan):
            return self._analyze_one(engine, query, update, k)


def wire_verdict(report) -> WireVerdict:
    """Strip a report/verdict down to the wire fields."""
    return WireVerdict(
        independent=report.independent,
        k=report.k,
        k_query=report.k_query,
        k_update=report.k_update,
    )
