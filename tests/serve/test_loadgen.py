"""Loadgen-side observability: percentile math and the scrape/trace
report sections.

``_percentile`` is pinned against hand-computed linear-interpolation
values (the R-7 / numpy-default definition) on a known small sample --
the old nearest-rank version returned 2 for the median of [1,2,3,4].
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.loadgen import LoadgenConfig, _percentile, run_loadgen

from .util import running_service


def test_percentile_interpolates_between_order_statistics():
    sample = [1.0, 2.0, 3.0, 4.0]
    assert _percentile(sample, 0.0) == 1.0
    assert _percentile(sample, 0.5) == pytest.approx(2.5)
    assert _percentile(sample, 0.25) == pytest.approx(1.75)
    assert _percentile(sample, 0.75) == pytest.approx(3.25)
    assert _percentile(sample, 1.0) == 4.0
    # Odd length: the median is the middle order statistic exactly.
    assert _percentile([1.0, 10.0, 100.0], 0.5) == 10.0
    # p90 of 10 values: rank 8.1 -> 0.9 of the way from v[8] to v[9].
    decade = [float(i) for i in range(10)]
    assert _percentile(decade, 0.9) == pytest.approx(8.1)
    assert _percentile([], 0.5) == 0.0
    assert _percentile([7.0], 0.99) == 7.0


def test_report_gains_scrape_timing_and_doc_sections():
    async def run():
        async with running_service(preload=("xmark",)) as (_, host, port):
            plain = await run_loadgen(LoadgenConfig(
                host=host, port=port, schema="xmark", source="bench",
                n_queries=3, n_updates=3, clients=2, requests=12,
            ))
            observed = await run_loadgen(LoadgenConfig(
                host=host, port=port, schema="xmark", source="bench",
                n_queries=3, n_updates=3, clients=2, requests=12,
                scrape_metrics=True, timing_sample=2, doc_queries=2,
            ))
        return plain, observed

    plain, observed = asyncio.run(run())
    # The default report shape is unchanged (bench gates parse it).
    for key in ("server_metrics", "span_breakdown", "doc_query"):
        assert key not in plain
    assert plain["errors"] == 0

    assert observed["errors"] == 0, observed["error_samples"]
    server = observed["server_metrics"]
    assert server["role"] == "service"
    assert server["counts_match"] is True
    analyze = server["per_op"]["analyze"]
    assert analyze["count"] == 12
    assert 0.0 < analyze["p50_ms"] <= analyze["p99_ms"]
    assert server["per_op"]["doc.query"]["count"] == 4

    breakdown = observed["span_breakdown"]
    # The first run warmed every pair, so the sampled analyze requests
    # were answered from the pair memo: engine, but no queue_wait.
    assert {"engine", "total"} <= set(breakdown["analyze"])
    assert "engine" in breakdown["doc.query"]
    assert breakdown["analyze"]["engine"]["count"] > 0

    doc = observed["doc_query"]
    assert doc["completed"] == 4
    assert doc["latency_ms"]["p50"] > 0.0
