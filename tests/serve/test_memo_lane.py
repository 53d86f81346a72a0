"""The memo lane: warm ``analyze`` verdicts answered before admission.

A pair already in the engine's pair memo is answered on the event loop
(``IndependenceService._op_analyze`` via ``AnalysisEngine.peek_pair``);
every other ``analyze`` goes through the admission queue as before.
These tests pin that the lane does not wait for the analysis thread,
answers byte-identically to the admitted path under exactly the memo's
key, stays out of ``oneshot`` mode, and that the counters it shares
with the analysis thread lose no update.
"""

from __future__ import annotations

import asyncio
import functools
import json
import sys
import threading

from repro.analysis.engine import AnalysisEngine
from repro.obs.metrics import PLAN_DECISIONS_TOTAL
from repro.schema import bib_dtd
from repro.serve.protocol import MAX_LINE_BYTES, encode

from .util import ServiceClient, running_service

WARM = dict(schema="bib", query="//title", update="delete //price")
COLD = dict(schema="bib", query="//author", update="delete //editor")


def _oracle(query: str, update: str, k: int | None = None) -> dict:
    """The verdict fields perfbench's golden oracle compares."""
    report = AnalysisEngine(bib_dtd()).analyze_pair(
        query, update, k=k, collect_witnesses=False
    )
    return {"independent": report.independent, "k": report.k,
            "k_query": report.k_query, "k_update": report.k_update}


async def _analyze_line(reader, writer, **params) -> bytes:
    """One ``analyze`` with id 1; the response line exactly as sent."""
    writer.write(encode({"op": "analyze", "id": 1, **params}))
    await writer.drain()
    return await reader.readline()


def _verdict(line: bytes) -> dict:
    response = json.loads(line)
    assert response["ok"], response
    return {key: response[key]
            for key in ("independent", "k", "k_query", "k_update")}


def test_warm_pair_is_answered_while_the_analysis_thread_is_busy():
    async def run():
        async with running_service(preload=("bib",)) as (service, host,
                                                         port):
            async with ServiceClient(host, port) as warm_client, \
                    ServiceClient(host, port) as cold_client:
                assert (await warm_client.call("analyze", **WARM))["ok"]
                release = threading.Event()
                blocker = service.analysis_executor.submit(
                    release.wait, 30
                )
                try:
                    warm = await asyncio.wait_for(
                        warm_client.call("analyze", **WARM), timeout=10
                    )
                    assert not blocker.done()
                    cold = asyncio.create_task(
                        cold_client.call("analyze", **COLD)
                    )
                    await asyncio.sleep(0.3)
                    # The never-seen pair is admitted and waits for the
                    # one analysis thread.
                    assert not cold.done()
                finally:
                    release.set()
                assert await asyncio.wait_for(
                    asyncio.wrap_future(blocker), timeout=10
                ) is True
                cold = await asyncio.wait_for(cold, timeout=10)
        return warm, cold

    warm, cold = asyncio.run(run())
    assert warm["ok"] and cold["ok"], (warm, cold)
    assert warm["independent"] == _oracle(WARM["query"],
                                          WARM["update"])["independent"]


def test_lane_answers_are_byte_identical_to_admitted_answers():
    async def run():
        async with running_service(preload=("bib",)) as (service, host,
                                                         port):
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_LINE_BYTES
            )
            call = functools.partial(_analyze_line, reader, writer)
            try:
                def admitted() -> int:
                    return service.batcher.requests

                lines = {}
                for name, extra in (("absent", {}), ("explicit", {"k": 3})):
                    before = admitted()
                    first = await call(**WARM, **extra)
                    assert admitted() == before + 1, name
                    second = await call(**WARM, **extra)
                    assert admitted() == before + 1, f"{name}: not the lane"
                    lines[name] = (first, second)

                # Only memoized at k=3: an absent k is admitted.
                before = admitted()
                cold_k3 = await call(**COLD, k=3)
                cold_absent = await call(**COLD)
                assert admitted() == before + 2
                # ...and the reverse: only memoized with k absent.
                other = dict(schema="bib", query="/bib/book",
                             update="delete //price")
                other_absent = await call(**other)
                other_k3 = await call(**other, k=3)
                assert admitted() == before + 4

                # Whitespace variants of a warmed pair ride the lane.
                spaced = await call(schema="bib", query="  //title ",
                                    update="delete    //price")
                assert admitted() == before + 4
            finally:
                writer.close()
                await writer.wait_closed()
        return (lines, cold_k3, cold_absent, other_absent, other_k3,
                spaced)

    lines, cold_k3, cold_absent, other_absent, other_k3, spaced = \
        asyncio.run(run())
    for name, k in (("absent", None), ("explicit", 3)):
        first, second = lines[name]
        assert first == second, name
        assert _verdict(second) == _oracle(WARM["query"], WARM["update"],
                                           k)
    assert lines["absent"][0] != lines["explicit"][0]
    assert spaced == lines["absent"][0]
    assert _verdict(cold_k3) == _oracle(COLD["query"], COLD["update"], 3)
    assert _verdict(cold_absent) == _oracle(COLD["query"], COLD["update"])
    assert _verdict(other_absent) == _oracle("/bib/book", "delete //price")
    assert _verdict(other_k3) == _oracle("/bib/book", "delete //price", 3)


def test_oneshot_mode_never_takes_the_lane():
    async def run():
        async with running_service(
            preload=("bib",), analysis_mode="oneshot",
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                return [await client.call("analyze", explain=True, **WARM)
                        for _ in range(2)]

    for response in asyncio.run(run()):
        batchers = [d["decision"] for d in response["plan"]["decisions"]
                    if d["layer"] == "batcher"]
        assert batchers == ["oneshot"], response["plan"]


def test_memo_hits_from_the_loop_and_the_worker_are_all_counted():
    """The lane and the analysis thread bump one hit counter and one
    plan-decision counter; neither may lose an increment."""
    engine = AnalysisEngine(bib_dtd())
    pairs = [("//title", "delete //price"), ("//author", "delete //editor"),
             ("/bib/book", "delete //price")]
    for query, update in pairs:
        engine.analyze_pair(query, update, collect_witnesses=False)
    ticks = PLAN_DECISIONS_TOTAL.labels(layer="engine", decision="pair_memo")
    hits_before, ticks_before = engine.stats.pair_hits, ticks.value
    rounds, peekers = 300, 3

    def analysis_thread():
        for _ in range(rounds):
            for query, update in pairs:
                engine.analyze_pair(query, update, collect_witnesses=False)

    def lane():
        for _ in range(rounds):
            for query, update in pairs:
                assert engine.peek_pair(query, update) is not None

    threads = [threading.Thread(target=analysis_thread)] + [
        threading.Thread(target=lane) for _ in range(peekers)
    ]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    expected = (1 + peekers) * rounds * len(pairs)
    assert engine.stats.pair_hits - hits_before == expected
    assert ticks.value - ticks_before == expected
