"""Out-of-process benchmark of the independence service.

    python3 perfbench/run.py --workload analyze-warm --seed 1 \
        --seconds 12 --trace 0

Starts ``python -m repro serve`` from this checkout's ``src`` tree as a
separate process and drives it from this single-threaded asyncio
process.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
sends ``timing: true`` and reports the per-layer ledger.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Run metadata, the
per-op counts and (traced) the spans go to ``.perfbench/results/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("analyze-warm", "analyze-cold", "docs-mixed", "analyze-sharded")
#: Server instances per untraced run.  Each is set up and measured for
#: a third of ``--seconds``; a metric is the median over them, a latency
#: quantile is taken over all their samples.
SETUPS = 3
#: A run gives up (and fails) after this long.
RUN_LIMIT_S = 170.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


async def run(args, ctx, workloads, wire):
    """Set up ``SETUPS`` server instances (one when traced), measure a
    ``1 / SETUPS`` share of ``--seconds`` on each, and merge them."""
    if args.workload == "docs-mixed":
        workload = workloads.DocsWorkload(ctx)
    else:
        workload = workloads.AnalyzeWorkload(args.workload, ctx)
    # A traced run measures one instance for the same share of time, so
    # its phases match the untraced ones.
    instances = 1 if ctx.trace else SETUPS
    seconds = ctx.seconds / SETUPS
    setup_times: list[float] = []
    outcomes = []
    log = os.path.join(ctx.work, "server.log")
    for _ in range(instances):
        server = wire.ServerProcess(ROOT, workload.server_args(), log)
        conns = []
        try:
            started = time.perf_counter()
            await server.start()
            for _ in range(ctx.connections):
                conns.append(await wire.Connection.open(server.host,
                                                        server.port))
            problems = await workload.setup(conns[0])
            setup_times.append(time.perf_counter() - started)
            outcome = await workload.measure(server, conns, seconds)
            outcome.problems[:0] = problems
            outcomes.append(outcome)
        finally:
            for conn in conns:
                await conn.close()
            await server.stop()
    merged = workloads.Outcome.merge(outcomes)
    if not ctx.trace:
        merged.metrics["setup_s"] = statistics.median(setup_times)
    return merged, setup_times


def finite(value: float) -> float:
    if math.isnan(value):
        return 0.0
    return value if math.isfinite(value) else 1e12


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import metrics, wire, workloads

    results = os.path.join(ROOT, ".perfbench", "results")
    work = os.path.join(ROOT, ".perfbench",
                        f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    cores = len(os.sched_getaffinity(0))
    ctx = workloads.RunContext(work=work, seed=args.seed,
                               seconds=args.seconds, trace=bool(args.trace),
                               connections=min(2, cores))
    try:
        outcome, setup_times = asyncio.run(asyncio.wait_for(
            run(args, ctx, workloads, wire), RUN_LIMIT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = metrics.PER_LAYER if ctx.trace else metrics.END_TO_END
    values = {name: finite(float(outcome.metrics.get(name, 0.0)))
              for name in names}
    attempted = sum(op["attempted"] for op in outcome.ops.values())
    completed = sum(op["completed"] for op in outcome.ops.values())
    stem = os.path.join(results,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cores": cores, "connections": ctx.connections,
        "python": platform.python_version(), "commit": git_commit(),
        "ops": outcome.ops, "setup_s": setup_times,
        "problems": outcome.problems,
        "metrics": {name: finite(float(value))
                    for name, value in outcome.metrics.items()},
    }
    with open(stem + ".json", "w") as handle:
        json.dump(meta, handle, indent=1, sort_keys=True)
    if ctx.trace:
        ctx.tracer.dump(stem + "-spans.jsonl")
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"ops": outcome.ops, "cores": cores}))
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": {name: {"value": value, "unit": names[name][0]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
