"""Drain-on-idle admission queue for ``analyze`` requests.

Only requests the pair memo cannot answer are admitted: the service
answers a memoized pair on the event loop before it reaches this queue
(:meth:`~repro.analysis.engine.AnalysisEngine.peek_pair`), so
:attr:`MicroBatcher.requests` counts admitted requests, not every
``analyze``.  The first admitted request starts one drain loop.  Each
turn the loop takes everything admitted so far, grouped by
``(schema_digest, k)``, and flushes every group as one
:meth:`~repro.analysis.engine.AnalysisEngine.analyze_many` call over the
group's distinct requested pairs, on the service's single analysis
thread, inside one ``store.deferred()`` group commit.  The next turn
starts as soon as the flush returns, and the loop exits when a turn
finds nothing admitted.

There is no timer: an idle service flushes a request within two event
loop iterations of its admission, and a busy one coalesces whatever
queued behind the running flush -- one executor hand-off, one store
commit, and shared chain inference for all of it.  No pair is computed
that nobody asked for.  A flush failure (e.g. one unparsable
expression) degrades that group to per-request analysis so only the
offending request sees the error.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from concurrent.futures import Executor
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
    """The requests admitted for one ``(digest, k)`` key since the
    drain loop's last turn.

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


class MicroBatcher:
    """Coalesces admitted analyze requests into drain-on-idle flushes.

    ``executor`` is the service's single analysis thread; the service
    owns it (and shuts it down after :meth:`drain`).  One worker
    serializes all engine access: engine caches are not thread-safe,
    and chain inference is GIL-bound anyway.
    """

    def __init__(self, registry, executor: Executor, enabled: bool = True):
        self.registry = registry
        self.enabled = enabled
        self._executor = executor
        self._pending: dict[tuple, _Group] = {}
        self._drainer: asyncio.Task | None = None
        self.requests = 0
        self.batches = 0
        self.coalesced_requests = 0
        self.max_batch_size = 0
        self.matrix_pairs = 0
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
        group = self._pending.get(key)
        if group is None:
            group = self._pending[key] = _Group(engine=engine, k=k)
        future: asyncio.Future = loop.create_future()
        group.entries.append(
            (query, update, future, trace, current_plan(),
             time.perf_counter())
        )
        if self._drainer is None:
            self._drainer = loop.create_task(self._drain())
        return await future

    async def drain(self) -> None:
        """Return once every admitted request is answered (shutdown)."""
        while self._drainer is not None:
            # wait(), not await: a cancelled caller must not cancel the
            # loop that other requests are waiting on.
            await asyncio.wait((self._drainer,))

    def stats(self) -> dict:
        """Admission-queue counters (the ``/stats`` batcher section)."""
        return {
            "enabled": self.enabled,
            "requests": self.requests,
            "batches": self.batches,
            "coalesced_requests": self.coalesced_requests,
            "max_batch_size": self.max_batch_size,
            "matrix_pairs": self.matrix_pairs,
            # Every flush analyzes exactly its requested pairs.
            "sparse_batches": self.batches,
            "fallback_singles": self.fallback_singles,
        }

    # -- flush machinery -----------------------------------------------------

    async def _drain(self) -> None:
        """The drain loop: flush what was admitted until nothing was.

        No await separates the final empty check from clearing
        ``_drainer``, so a request admitted after that check starts a
        fresh loop and none is stranded.
        """
        try:
            while self._pending:
                groups, self._pending = self._pending, {}
                for group in groups.values():
                    await self._flush(group)
        finally:
            self._drainer = None

    async def _flush(self, group: _Group) -> None:
        loop = asyncio.get_running_loop()
        entries = group.entries
        self.batches += 1
        self.coalesced_requests += len(entries) - 1
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
            self.matrix_pairs += shape["pairs"]
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
                    count_decision("batcher", "sparse")
                else:
                    plan_decision(
                        "batcher", "sparse", plan,
                        flush=flush_id, requests=len(entries), **shape,
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

    def _analyze_batch(
        self, engine: AnalysisEngine, entries, k: int | None
    ) -> tuple[list[WireVerdict], float, float, PlanContext | None, dict]:
        """Worker-thread body of one flush: one ``analyze_many`` over
        the distinct requested pairs under a single store commit, then
        per-entry verdict lookup.

        Returns ``(verdicts, engine_seconds, store_seconds, batch_plan,
        shape)``: the timing split lets the flush attribute analysis
        versus group-commit time to every coalesced request's trace;
        ``batch_plan`` (created only when at least one entry asked for
        an explanation) collects the engine's per-pair verdict-source
        decisions for per-entry attribution; ``shape`` counts the
        flush's distinct ``queries``/``updates``/``pairs`` for the
        per-entry batcher decision.
        """
        pairs = list(dict.fromkeys(
            (entry[0], entry[1]) for entry in entries
        ))
        shape = {
            "queries": len({query for query, _ in pairs}),
            "updates": len({update for _, update in pairs}),
            "pairs": len(pairs),
        }
        batch_plan = PlanContext() if any(
            entry[4] is not None for entry in entries
        ) else None
        store = engine.store

        def run() -> dict[tuple[str, str], WireVerdict]:
            reports = engine.analyze_many(pairs, k=k)
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
