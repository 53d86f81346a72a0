"""Drain-on-idle admission queue: coalescing, fallback, counters.

Coalescing is made deterministic by parking the analysis thread on a
``threading.Event``: while it is parked no flush can return, so every
request admitted meanwhile provably queues behind the running flush.
Latency is counted in event-loop iterations, never with a clock.
"""

from __future__ import annotations

import asyncio
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.serve.batching import MicroBatcher, WireVerdict
from repro.serve.registry import SchemaRegistry
from repro.storage.sqlite import SqliteVerdictKV

PAIRS = [
    ("//title", "delete //price"),
    ("//price", "delete //price"),
    ("//author", "delete //editor"),
    ("/bib/book", "delete //price"),
    ("//title", "delete //editor"),
    ("//last", "delete //first"),
]

#: The request whose flush occupies the parked thread while others pile
#: up behind it.
HEAD = ("//editor", "delete //title")


class _AnalysisThread(ThreadPoolExecutor):
    """The single analysis thread, counting hand-offs as they are made
    (on the event loop, so tests can observe when a flush starts)."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.handoffs = 0

    def submit(self, fn, /, *args, **kwargs):
        self.handoffs += 1
        return super().submit(fn, *args, **kwargs)


@contextmanager
def _analysis_thread():
    executor = _AnalysisThread()
    try:
        yield executor
    finally:
        executor.shutdown(wait=True)


def _counting_registry(store=None) -> tuple[SchemaRegistry, dict]:
    """A registry whose bib engine records every batch call it serves:
    ``calls["many"]`` the pair lists, ``calls["matrix"]`` the grids."""
    registry = SchemaRegistry(store=store)
    engine = registry.engine("bib")
    calls: dict[str, list] = {"many": [], "matrix": []}
    many, matrix = engine.analyze_many, engine.analyze_matrix

    def counting_many(pairs, **kwargs):
        pairs = list(pairs)
        calls["many"].append(pairs)
        return many(pairs, **kwargs)

    def counting_matrix(queries, updates, **kwargs):
        queries, updates = list(queries), list(updates)
        calls["matrix"].append((queries, updates))
        return matrix(queries, updates, **kwargs)

    engine.analyze_many = counting_many
    engine.analyze_matrix = counting_matrix
    return registry, calls


async def _iterations_until(predicate, limit: int = 10) -> int:
    """Event-loop iterations until ``predicate()`` holds (at most
    ``limit``; the caller asserts on the count)."""
    iterations = 0
    while not predicate() and iterations < limit:
        await asyncio.sleep(0)
        iterations += 1
    return iterations


async def _pile_up(batcher: MicroBatcher, executor: _AnalysisThread,
                   requests) -> list[WireVerdict]:
    """Answer ``HEAD`` and then ``requests``, which provably queued
    behind ``HEAD``'s flush.

    The analysis thread is parked before ``HEAD`` is admitted, so its
    flush cannot return; each request of ``requests`` (``(query,
    update)`` or ``(query, update, k)``) is admitted in its own
    event-loop iteration, and only then is the thread released.
    Returns the verdicts, ``HEAD``'s first.
    """
    release = threading.Event()
    executor.submit(release.wait, 30)
    try:
        handoffs = executor.handoffs
        head = asyncio.ensure_future(batcher.submit("bib", *HEAD))
        assert await _iterations_until(
            lambda: executor.handoffs > handoffs) <= 2
        tasks = []
        for request in requests:
            tasks.append(asyncio.ensure_future(
                batcher.submit("bib", *request)
            ))
            await asyncio.sleep(0)
        assert not head.done()
        assert not any(task.done() for task in tasks)
    finally:
        release.set()
    return await asyncio.wait_for(asyncio.gather(head, *tasks), 10)


def _assert_engine_verdicts(pairs, verdicts) -> None:
    engine = _counting_registry()[0].engine("bib")
    for (query, update), verdict in zip(pairs, verdicts):
        report = engine.analyze_pair(query, update,
                                     collect_witnesses=False)
        assert verdict.independent == report.independent
        assert (verdict.k, verdict.k_query, verdict.k_update) == \
            (report.k, report.k_query, report.k_update)


class TestCoalescing:
    def test_concurrent_requests_one_matrix_call(self):
        """Requests queued behind a flush cost one engine call: an
        ``analyze_many`` over their pairs, never an ``analyze_matrix``
        grid (the name predates exact-pair flushes)."""
        async def run():
            registry, calls = _counting_registry()
            with _analysis_thread() as executor:
                batcher = MicroBatcher(registry, executor)
                verdicts = await _pile_up(batcher, executor, PAIRS)
            return verdicts, calls, batcher

        verdicts, calls, batcher = asyncio.run(run())
        # HEAD's flush, then everything that queued behind it as one.
        assert batcher.batches == 2
        assert batcher.requests == len(PAIRS) + 1
        assert batcher.coalesced_requests == len(PAIRS) - 1
        assert batcher.max_batch_size == len(PAIRS)
        assert calls["many"] == [[HEAD], PAIRS]
        assert calls["matrix"] == []
        _assert_engine_verdicts([HEAD] + PAIRS, verdicts)

    def test_flush_analyzes_exactly_the_distinct_requested_pairs(self):
        requests = PAIRS + PAIRS[:2] + PAIRS[3:4]

        async def run():
            registry, calls = _counting_registry()
            with _analysis_thread() as executor:
                batcher = MicroBatcher(registry, executor)
                verdicts = await _pile_up(batcher, executor, requests)
            return verdicts, calls, batcher

        verdicts, calls, batcher = asyncio.run(run())
        assert calls["many"] == [[HEAD], PAIRS]
        assert calls["matrix"] == []
        assert batcher.matrix_pairs == 1 + len(PAIRS)
        assert batcher.coalesced_requests == len(requests) - 1
        # Duplicates share one analysis and get the same answer.
        _assert_engine_verdicts([HEAD] + requests, verdicts)

    def test_sequential_requests_do_not_coalesce(self):
        async def run():
            registry, calls = _counting_registry()
            with _analysis_thread() as executor:
                batcher = MicroBatcher(registry, executor)
                for query, update in PAIRS[:3]:
                    await batcher.submit("bib", query, update)
            return calls, batcher

        calls, batcher = asyncio.run(run())
        assert calls["many"] == [[pair] for pair in PAIRS[:3]]
        assert batcher.batches == 3
        assert batcher.coalesced_requests == 0

    def test_distinct_k_groups_flush_separately(self):
        async def run():
            registry, calls = _counting_registry()
            with _analysis_thread() as executor:
                batcher = MicroBatcher(registry, executor)
                verdicts = await _pile_up(batcher, executor, [
                    ("//title", "delete //price"),
                    ("//title", "delete //price", 5),
                ])
            return verdicts, calls, batcher

        verdicts, calls, batcher = asyncio.run(run())
        # One drain turn took both, but each (digest, k) flushes alone.
        assert batcher.batches == 3
        assert batcher.coalesced_requests == 0
        assert calls["many"] == [[HEAD], [PAIRS[0]], [PAIRS[0]]]
        assert verdicts[2].k == 5

    def test_sparse_batch_skips_the_cross_product(self, tmp_path):
        # Five requests pairing five distinct queries with five distinct
        # updates diagonally: a grid would be 25 analyses for 5 answers,
        # so the flush analyzes exactly the requested pairs.
        tags = ["title", "price", "author", "editor", "last"]
        sparse_pairs = [
            (f"//{tag}", f"delete //{other}")
            for tag, other in zip(tags, tags[1:] + tags[:1])
        ]

        async def run():
            store = SqliteVerdictKV(str(tmp_path / "verdicts.sqlite"))
            registry, calls = _counting_registry(store=store)
            with _analysis_thread() as executor:
                batcher = MicroBatcher(registry, executor)
                verdicts = await _pile_up(batcher, executor, sparse_pairs)
            count = store.count()
            store.close()
            return verdicts, calls, batcher, count

        verdicts, calls, batcher, count = asyncio.run(run())
        assert calls["matrix"] == [], "a flush never builds a grid"
        assert calls["many"][-1] == sparse_pairs
        assert batcher.stats()["sparse_batches"] == batcher.batches == 2
        assert count == 1 + len(sparse_pairs)  # only requested pairs
        _assert_engine_verdicts([HEAD] + sparse_pairs, verdicts)

    def test_group_commit_wraps_flush(self, tmp_path):
        async def run():
            store = SqliteVerdictKV(str(tmp_path / "verdicts.sqlite"))
            scopes = []
            deferred = store.deferred

            def counting_deferred():
                scopes.append("deferred")
                return deferred()

            store.deferred = counting_deferred
            registry, calls = _counting_registry(store=store)
            with _analysis_thread() as executor:
                batcher = MicroBatcher(registry, executor)
                await _pile_up(batcher, executor, PAIRS)
            count = store.count()
            store.close()
            return scopes, count, calls

        scopes, count, calls = asyncio.run(run())
        # One group-commit scope per flush: HEAD's, then the batch's.
        assert scopes == ["deferred", "deferred"]
        assert calls["many"] == [[HEAD], PAIRS]
        assert count == 1 + len(PAIRS)

    def test_idle_batcher_flushes_within_two_loop_iterations(self):
        async def run():
            registry, calls = _counting_registry()
            with _analysis_thread() as executor:
                batcher = MicroBatcher(registry, executor)
                task = asyncio.ensure_future(
                    batcher.submit("bib", *PAIRS[0])
                )
                iterations = await _iterations_until(
                    lambda: executor.handoffs > 0
                )
                verdict = await asyncio.wait_for(task, 10)
            return iterations, verdict, calls

        iterations, verdict, calls = asyncio.run(run())
        # One iteration runs submit, the next runs the drain loop,
        # which hands the flush to the thread at once: no timer.
        assert iterations <= 2
        assert calls["many"] == [[PAIRS[0]]]
        _assert_engine_verdicts(PAIRS[:1], [verdict])

    def test_no_request_is_stranded_by_a_drain_loop_going_idle(self):
        clients, per_client, loose = 10, 30, 200
        total = clients * per_client + loose
        rng = random.Random(20)

        async def run():
            registry, _ = _counting_registry()
            with _analysis_thread() as executor:
                batcher = MicroBatcher(registry, executor)

                def submit(index: int):
                    query, update = PAIRS[index % len(PAIRS)]
                    return batcher.submit("bib", query, update,
                                          (None, 4)[index % 2])

                async def client(first: int) -> list[WireVerdict]:
                    # A closed loop: each request is admitted in the
                    # very step that receives the previous answer, just
                    # as the drain loop that answered it goes idle.
                    for _ in range(rng.choice((0, 1, 3))):
                        await asyncio.sleep(0)
                    return [await submit(index)
                            for index in range(first, first + per_client)]

                chained = [asyncio.ensure_future(client(c * per_client))
                           for c in range(clients)]
                tasks: list[asyncio.Task] = []
                all_submitted = asyncio.Event()

                def submit_task(index: int) -> asyncio.Task:
                    task = asyncio.ensure_future(submit(index))
                    tasks.append(task)
                    if len(tasks) == loose:
                        all_submitted.set()
                    return task

                index = clients * per_client
                while index < total:
                    task = submit_task(index)
                    index += 1
                    if index < total and rng.random() < 0.3:
                        # Admitted from a done-callback of an earlier
                        # request.
                        task.add_done_callback(
                            lambda _, at=index: submit_task(at)
                        )
                        index += 1
                    for _ in range(rng.choice((0, 0, 1, 2, 5))):
                        await asyncio.sleep(0)
                await asyncio.wait_for(all_submitted.wait(), 10)
                answers = await asyncio.wait_for(
                    asyncio.gather(*chained, *tasks), 10
                )
            verdicts = [verdict for answer in answers[:clients]
                        for verdict in answer] + answers[clients:]
            return verdicts, batcher

        verdicts, batcher = asyncio.run(run())
        assert len(verdicts) == total
        assert all(isinstance(v, WireVerdict) for v in verdicts)
        assert batcher.requests == total
        assert batcher.batches + batcher.coalesced_requests == total
        assert batcher.fallback_singles == 0

    def test_drain_returns_after_every_admitted_request_is_answered(self):
        async def run():
            registry, _ = _counting_registry()
            with _analysis_thread() as executor:
                batcher = MicroBatcher(registry, executor)
                release = threading.Event()
                executor.submit(release.wait, 30)
                try:
                    tasks = []
                    for query, update in PAIRS:
                        tasks.append(asyncio.ensure_future(
                            batcher.submit("bib", query, update)
                        ))
                        await asyncio.sleep(0)
                    drained = asyncio.ensure_future(batcher.drain())
                    await _iterations_until(lambda: False, limit=5)
                    assert not drained.done()
                finally:
                    release.set()
                await asyncio.wait_for(drained, 10)
                answered = [task.done() for task in tasks]
            return answered, batcher

        answered, batcher = asyncio.run(run())
        assert all(answered)
        assert batcher.batches + batcher.coalesced_requests == len(PAIRS)


class TestFallback:
    def test_bad_expression_only_fails_its_own_request(self):
        async def run():
            registry, _ = _counting_registry()
            with _analysis_thread() as executor:
                batcher = MicroBatcher(registry, executor)
                results = await asyncio.gather(
                    batcher.submit("bib", "//title", "delete //price"),
                    batcher.submit("bib", "///", "delete //price"),
                    return_exceptions=True,
                )
            return results, batcher

        results, batcher = asyncio.run(run())
        good, bad = results
        assert good.independent is not None
        assert isinstance(bad, Exception)
        assert batcher.fallback_singles >= 1

    def test_disabled_batcher_serves_directly(self):
        async def run():
            registry, calls = _counting_registry()
            with _analysis_thread() as executor:
                batcher = MicroBatcher(registry, executor, enabled=False)
                verdicts = await asyncio.gather(*(
                    batcher.submit("bib", query, update)
                    for query, update in PAIRS
                ))
            return verdicts, calls, batcher

        verdicts, calls, batcher = asyncio.run(run())
        assert calls == {"many": [], "matrix": []}   # no batch path
        assert batcher.batches == 0
        assert len(verdicts) == len(PAIRS)

    def test_stats_shape(self):
        registry, _ = _counting_registry()
        with _analysis_thread() as executor:
            stats = MicroBatcher(registry, executor).stats()
        assert stats == {
            "enabled": True, "requests": 0, "batches": 0,
            "coalesced_requests": 0, "max_batch_size": 0,
            "matrix_pairs": 0, "sparse_batches": 0, "fallback_singles": 0,
        }


@pytest.mark.parametrize("query,update", PAIRS[:2])
def test_wire_verdict_round_trip(query, update):
    async def run():
        registry, _ = _counting_registry()
        with _analysis_thread() as executor:
            return await MicroBatcher(registry, executor).submit(
                "bib", query, update
            )

    verdict = asyncio.run(run())
    payload = verdict.as_dict()
    assert set(payload) == {"independent", "k", "k_query", "k_update"}
