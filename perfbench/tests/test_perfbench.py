"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

A short mode runs every workload end to end, untraced and traced, and
checks that each named metric comes out with its unit.  Injection tests
show that a wrong verdict or a wrong answer fails the run.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import metrics, run, wire, workloads  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

SHORT_SECONDS = "1.5"


def bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_metric_tables():
    spec = bench()
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    for entry in spec["end_to_end"]:
        unit, better = metrics.END_TO_END[entry["name"]]
        assert (entry["unit"], entry["better"]) == (unit, better)
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        unit, better, _ = metrics.PER_LAYER[entry["name"]]
        assert (entry["unit"], entry["better"]) == (unit, better)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_emits_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", SHORT_SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name][0]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][name]["value"] > 0
                   for name in metrics.END_TO_END)


def test_without_the_program_the_run_fails(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "perfbench").mkdir(parents=True)
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            (bare / "perfbench" / name).write_bytes(
                open(os.path.join(ROOT, "perfbench", name), "rb").read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def _run_in_process(factory, name: str, tmp_path) -> workloads.Outcome:
    """One short untraced run with a substituted workload class."""
    ctx = workloads.RunContext(work=str(tmp_path), seed=5,
                               seconds=1.5, trace=False, connections=2)
    shim = SimpleNamespace(Outcome=workloads.Outcome,
                           AnalyzeWorkload=factory, DocsWorkload=factory)
    args = SimpleNamespace(workload=name)
    outcome, _ = asyncio.run(run.run(args, ctx, shim, wire))
    return outcome


def test_a_wrong_golden_verdict_fails_the_run(tmp_path):
    class Flipped(workloads.AnalyzeWorkload):
        def __init__(self, name, ctx):
            super().__init__(name, ctx)
            for key, verdict in self.expected.items():
                self.expected[key] = [1 - verdict[0]] + verdict[1:]

    outcome = _run_in_process(Flipped, "analyze-warm", tmp_path)
    assert any("golden" in problem for problem in outcome.problems)


def test_a_wrong_document_answer_fails_the_run(tmp_path):
    class OtherDocument(workloads.DocsWorkload):
        def check(self, phases, views):
            # The server holds the real document; the replay reads
            # another one, so the answers can no longer agree.
            real, self.resident_xml = self.resident_xml, self.pushdown_xml
            try:
                return super().check(phases, views)
            finally:
                self.resident_xml = real

    outcome = _run_in_process(OtherDocument, "docs-mixed", tmp_path)
    assert any("answers" in problem or "view counts" in problem
               for problem in outcome.problems)


def test_replay_repeats_after_the_first_cycle():
    replay = workloads.Replay(workloads._xml(*workloads.RESIDENT_DOC))
    period = len(workloads.UPDATE_CYCLE)
    first = replay.view_counts(period + 3)
    assert replay._periodic is None
    assert replay.view_counts(5 * period + 3) == first
    assert replay._periodic is True


def test_self_time_subtracts_children():
    tracer = Tracer()
    parent = tracer.add("client.analyze", 0.0, 10.0)
    tracer.add("a", 1.0, 4.0, parent)
    tracer.add("b", 3.0, 6.0, parent)
    tracer.add("outside", 9.0, 12.0, parent)
    assert tracer.self_times()[parent] == pytest.approx(10.0 - 5.0 - 1.0)


def test_server_timing_is_laid_out_under_the_client_span():
    tracer = Tracer()
    client = tracer.add_request("analyze", "r1", 0.0, 0.010, {
        "total_ms": 6.0,
        "spans": [{"name": "router", "ms": 5.0},
                  {"name": "shard", "ms": 4.0},
                  {"name": "queue_wait", "ms": 2.0},
                  {"name": "engine", "ms": 1.0}],
    })
    own = {span.name: seconds for span, seconds
           in zip(tracer.spans, tracer.self_times())}
    assert own["client.analyze"] == pytest.approx(0.004)
    assert own["server"] == pytest.approx(0.001)
    assert own["router"] == pytest.approx(0.001)
    assert own["shard"] == pytest.approx(0.001)
    assert tracer.spans[client].request == "r1"
