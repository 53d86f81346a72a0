"""Micro-batching admission queue: coalescing, fallback, counters."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.batching import MicroBatcher
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


def _counting_registry(store=None) -> tuple[SchemaRegistry, list]:
    """A registry whose bib engine counts its analyze_matrix calls."""
    registry = SchemaRegistry(store=store)
    engine = registry.engine("bib")
    calls: list[tuple[int, int]] = []
    original = engine.analyze_matrix

    def counting(queries, updates, **kwargs):
        queries = list(queries)
        updates = list(updates)
        calls.append((len(queries), len(updates)))
        return original(queries, updates, **kwargs)

    engine.analyze_matrix = counting
    return registry, calls


class TestCoalescing:
    def test_concurrent_requests_one_matrix_call(self):
        async def run():
            registry, calls = _counting_registry()
            batcher = MicroBatcher(registry, window=0.05)
            try:
                verdicts = await asyncio.gather(*(
                    batcher.submit("bib", query, update)
                    for query, update in PAIRS
                ))
            finally:
                batcher.close()
            return verdicts, calls, batcher

        verdicts, calls, batcher = asyncio.run(run())
        assert len(calls) == 1, "N concurrent requests must coalesce"
        assert batcher.batches == 1
        assert batcher.coalesced_requests == len(PAIRS) - 1
        assert batcher.requests == len(PAIRS)
        # The flush deduplicates: 5 distinct queries x 3 distinct updates.
        assert calls[0] == (5, 3)
        # Verdicts equal the engine's own per-pair answers.
        engine = _counting_registry()[0].engine("bib")
        for (query, update), verdict in zip(PAIRS, verdicts):
            report = engine.analyze_pair(query, update,
                                         collect_witnesses=False)
            assert verdict.independent == report.independent
            assert (verdict.k, verdict.k_query, verdict.k_update) == \
                (report.k, report.k_query, report.k_update)

    def test_sequential_requests_do_not_coalesce(self):
        async def run():
            registry, calls = _counting_registry()
            batcher = MicroBatcher(registry, window=0.002)
            try:
                for query, update in PAIRS[:3]:
                    await batcher.submit("bib", query, update)
            finally:
                batcher.close()
            return calls, batcher

        calls, batcher = asyncio.run(run())
        assert len(calls) == 3
        assert batcher.coalesced_requests == 0

    def test_distinct_k_groups_flush_separately(self):
        async def run():
            registry, calls = _counting_registry()
            batcher = MicroBatcher(registry, window=0.05)
            try:
                await asyncio.gather(
                    batcher.submit("bib", "//title", "delete //price"),
                    batcher.submit("bib", "//title", "delete //price",
                                   k=5),
                )
            finally:
                batcher.close()
            return calls, batcher

        calls, batcher = asyncio.run(run())
        assert len(calls) == 2
        assert batcher.coalesced_requests == 0

    def test_max_batch_enforced_under_a_burst(self):
        # A same-cycle burst beyond max_batch must split into several
        # batches: a full group closes its window to later submits.
        burst = [(f"//{tag}", "delete //price")
                 for tag in ("title", "price", "author", "editor",
                             "last", "first")] + PAIRS[:4]

        async def run():
            registry, _ = _counting_registry()
            batcher = MicroBatcher(registry, window=0.05, max_batch=3)
            try:
                await asyncio.gather(*(
                    batcher.submit("bib", query, update)
                    for query, update in burst
                ))
            finally:
                batcher.close()
            return batcher

        batcher = asyncio.run(run())
        assert batcher.max_batch_size <= 3
        assert batcher.batches >= -(-len(burst) // 3)

    def test_max_batch_flushes_early(self):
        async def run():
            registry, calls = _counting_registry()
            # Window far beyond the test timeout: only the size bound
            # can trigger the flush.
            batcher = MicroBatcher(registry, window=30.0, max_batch=3)
            try:
                await asyncio.wait_for(asyncio.gather(*(
                    batcher.submit("bib", query, update)
                    for query, update in PAIRS[:3]
                )), timeout=10)
            finally:
                batcher.close()
            return calls

        calls = asyncio.run(run())
        assert len(calls) == 1

    def test_sparse_batch_skips_the_cross_product(self, tmp_path):
        # Five requests pairing five distinct queries with five distinct
        # updates diagonally: the full grid would be 25 analyses for 5
        # answers (> MATRIX_DENSITY_LIMIT x), so the flush must analyze
        # exactly the requested pairs instead.
        tags = ["title", "price", "author", "editor", "last"]
        sparse_pairs = [
            (f"//{tag}", f"delete //{other}")
            for tag, other in zip(tags, tags[1:] + tags[:1])
        ]

        async def run():
            store = SqliteVerdictKV(str(tmp_path / "verdicts.sqlite"))
            registry, calls = _counting_registry(store=store)
            batcher = MicroBatcher(registry, window=0.05)
            try:
                verdicts = await asyncio.gather(*(
                    batcher.submit("bib", query, update)
                    for query, update in sparse_pairs
                ))
            finally:
                batcher.close()
            count = store.count()
            store.close()
            return verdicts, calls, batcher, count

        verdicts, calls, batcher, count = asyncio.run(run())
        assert calls == [], "sparse batch must not call analyze_matrix"
        assert batcher.batches == 1
        assert batcher.sparse_batches == 1
        assert count == len(sparse_pairs)   # only requested pairs stored
        engine = _counting_registry()[0].engine("bib")
        for (query, update), verdict in zip(sparse_pairs, verdicts):
            report = engine.analyze_pair(query, update,
                                         collect_witnesses=False)
            assert verdict.independent == report.independent

    def test_group_commit_wraps_flush(self, tmp_path):
        async def run():
            store = SqliteVerdictKV(str(tmp_path / "verdicts.sqlite"))
            registry, calls = _counting_registry(store=store)
            batcher = MicroBatcher(registry, window=0.05)
            try:
                await asyncio.gather(*(
                    batcher.submit("bib", query, update)
                    for query, update in PAIRS
                ))
            finally:
                batcher.close()
            count = store.count()
            store.close()
            return count, calls

        count, calls = asyncio.run(run())
        assert calls == [(5, 3)]
        assert count == 15  # the whole deduplicated grid persisted


class TestFallback:
    def test_bad_expression_only_fails_its_own_request(self):
        async def run():
            registry, _ = _counting_registry()
            batcher = MicroBatcher(registry, window=0.05)
            try:
                results = await asyncio.gather(
                    batcher.submit("bib", "//title", "delete //price"),
                    batcher.submit("bib", "///", "delete //price"),
                    return_exceptions=True,
                )
            finally:
                batcher.close()
            return results, batcher

        results, batcher = asyncio.run(run())
        good, bad = results
        assert good.independent is not None
        assert isinstance(bad, Exception)
        assert batcher.fallback_singles >= 1

    def test_disabled_batcher_serves_directly(self):
        async def run():
            registry, calls = _counting_registry()
            batcher = MicroBatcher(registry, enabled=False)
            try:
                verdicts = await asyncio.gather(*(
                    batcher.submit("bib", query, update)
                    for query, update in PAIRS
                ))
            finally:
                batcher.close()
            return verdicts, calls, batcher

        verdicts, calls, batcher = asyncio.run(run())
        assert calls == []          # no matrix path at all
        assert batcher.batches == 0
        assert len(verdicts) == len(PAIRS)

    def test_stats_shape(self):
        registry, _ = _counting_registry()
        batcher = MicroBatcher(registry, window=0.01, max_batch=7)
        stats = batcher.stats()
        batcher.close()
        assert stats["enabled"] is True
        assert stats["max_batch"] == 7
        assert stats["requests"] == 0


@pytest.mark.parametrize("query,update", PAIRS[:2])
def test_wire_verdict_round_trip(query, update):
    async def run():
        registry, _ = _counting_registry()
        batcher = MicroBatcher(registry, window=0.001)
        try:
            return await batcher.submit("bib", query, update)
        finally:
            batcher.close()

    verdict = asyncio.run(run())
    payload = verdict.as_dict()
    assert set(payload) == {"independent", "k", "k_query", "k_update"}
