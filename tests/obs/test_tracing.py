"""Trace-context lifecycle, span attribution, and the slow-request log."""

from __future__ import annotations

import json

from repro.obs.tracing import (
    SPAN_NAMES,
    SlowRequestLog,
    TraceContext,
    current_trace,
    finish_trace,
    span,
    start_trace,
)


def test_start_and_finish_install_the_current_trace():
    assert current_trace() is None
    trace = start_trace("abc123")
    assert current_trace() is trace
    assert trace.trace_id == "abc123"
    finish_trace(trace)
    assert current_trace() is None


def test_generated_trace_ids_are_unique():
    a, b = TraceContext(), TraceContext()
    assert a.trace_id != b.trace_id


def test_trace_id_is_drawn_on_first_read_only(monkeypatch):
    import repro.obs.tracing as tracing

    drawn = []
    real_uuid4 = tracing.uuid.uuid4

    def counting_uuid4():
        drawn.append(1)
        return real_uuid4()

    monkeypatch.setattr(tracing.uuid, "uuid4", counting_uuid4)
    trace = start_trace()
    try:
        with span("engine"):
            pass
        assert drawn == []
        first = trace.trace_id
        assert drawn == [1]
        assert trace.report()["trace"] == first
        assert drawn == [1]
    finally:
        finish_trace(trace)
    assert TraceContext("client-id").trace_id == "client-id"
    assert drawn == [1]


def test_module_level_span_attaches_to_current_trace():
    trace = start_trace()
    try:
        with span("engine"):
            pass
        with span("store"):
            pass
    finally:
        finish_trace(trace)
    names = [name for name, _ in trace.spans]
    assert names == ["engine", "store"]
    assert all(seconds >= 0.0 for _, seconds in trace.spans)


def test_span_is_a_noop_without_a_trace():
    with span("engine") as trace:
        assert trace is None


def test_report_merges_an_inner_shard_report():
    trace = TraceContext("router1")
    trace.add_span("router", 0.004)
    inner = {"trace": "w", "total_ms": 3.0,
             "spans": [{"name": "engine", "ms": 2.0}]}
    report = trace.report(inner=inner)
    assert report["trace"] == "router1"
    names = [entry["name"] for entry in report["spans"]]
    assert names == ["router", "shard", "engine"]
    by_name = {entry["name"]: entry["ms"] for entry in report["spans"]}
    assert by_name["shard"] == 3.0
    assert set(names) <= set(SPAN_NAMES)


def test_slow_log_threshold_ring_and_file(tmp_path):
    path = tmp_path / "slow.jsonl"
    log = SlowRequestLog(threshold_ms=5.0, path=str(path), capacity=2)
    fast = TraceContext("fast")
    assert log.record("analyze", fast, 1.0, ok=True) is None
    traces = [TraceContext(f"t{i}") for i in range(3)]
    for i, trace in enumerate(traces):
        trace.add_span("engine", 0.006)
        assert log.record("analyze", trace, 6.0 + i, ok=True)
    log.close()
    # The ring keeps only the most recent `capacity` entries...
    assert [entry["trace"] for entry in log.entries()] == ["t1", "t2"]
    entry = log.entries()[-1]
    assert entry["op"] == "analyze"
    assert entry["spans"]["engine"] == 6.0
    assert entry["ok"] is True
    # ... while the file kept every crossing as one JSON line each.
    lines = [json.loads(line) for line in
             path.read_text().strip().splitlines()]
    assert [line["trace"] for line in lines] == ["t0", "t1", "t2"]


def test_slow_log_disabled_by_default(tmp_path):
    log = SlowRequestLog()
    assert not log.enabled
    trace = TraceContext()
    assert log.record("analyze", trace, 1e6, ok=False) is None
    assert log.entries() == []


def test_slow_log_appends_across_restart(tmp_path):
    path = tmp_path / "slow.jsonl"

    def crossing(log, trace_id):
        trace = TraceContext(trace_id)
        assert log.record("analyze", trace, 10.0, ok=True)

    first = SlowRequestLog(threshold_ms=1.0, path=str(path))
    crossing(first, "before")
    first.close()
    # A restarted service reopens the same file in append mode: the
    # earlier session's crossings must survive.
    second = SlowRequestLog(threshold_ms=1.0, path=str(path))
    crossing(second, "after")
    second.close()
    lines = [json.loads(line) for line in
             path.read_text().strip().splitlines()]
    assert [line["trace"] for line in lines] == ["before", "after"]


def test_slow_log_close_is_idempotent(tmp_path):
    log = SlowRequestLog(threshold_ms=1.0,
                         path=str(tmp_path / "slow.jsonl"))
    trace = TraceContext("t")
    assert log.record("analyze", trace, 5.0, ok=True)
    log.close()
    log.close()  # a second close must not raise
    # Closing without ever recording (file never opened) is fine too.
    SlowRequestLog(threshold_ms=1.0,
                   path=str(tmp_path / "never.jsonl")).close()


def test_slow_ring_evicts_oldest_first():
    log = SlowRequestLog(threshold_ms=1.0, capacity=3)
    for i in range(5):
        assert log.record("analyze", TraceContext(f"t{i}"), 5.0, ok=True)
    # FIFO eviction: the ring holds the 3 most recent crossings, oldest
    # first within the window.
    assert [entry["trace"] for entry in log.entries()] == \
        ["t2", "t3", "t4"]


def test_slow_entries_carry_the_plan_when_given():
    log = SlowRequestLog(threshold_ms=1.0)
    plan = {"decisions": [{"layer": "answer", "decision": "pushdown"}],
            "total_ms": 5.0}
    assert log.record("doc.query", TraceContext("p"), 5.0, ok=True,
                      plan=plan)
    assert log.record("doc.query", TraceContext("q"), 5.0, ok=True)
    with_plan, without = log.entries()
    assert with_plan["plan"] == plan
    assert "plan" not in without
