"""Cold chain inference on XMark -- the gate for chains as bitsets.

The 800 XMark cold pairs of ``perfbench/golden/analyze.json`` (read only)
run on a fresh engine whose universes for every ``k`` the pool uses are
built first, as the service's set-up does, so the measured time is chain
inference plus the Definition 4.1 checks.  Every verdict must equal its
golden verdict.

The reference is the type-based system of Benedikt & Cheney [6] that
Figure 3a compares against (:func:`repro.analysis.baseline.baseline_analyze`)
on the same pre-parsed pairs: chain analysis must cost at most
``MAX_RATIO`` times as much.  On a 2-core x86 machine (Python 3.11),
chains as frozensets of ``((depth, symbol), (depth, symbol))`` tuples
read 10.9x and bitsets over the numbered universe 2.4-2.7x.  The test
also prints ms/pair, the per-pair p90, the growth in objects the cyclic
collector tracks, and the time of one full collection.
"""

import gc
import json
import os
import time

from repro.analysis.baseline import baseline_analyze
from repro.analysis.engine import AnalysisEngine
from repro.schema import xmark_dtd
from repro.xquery.parser import parse_query
from repro.xupdate.parser import parse_update

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "golden", "analyze.json")

#: Chain analysis may cost at most this many times the type baseline.
MAX_RATIO = 5.0


def _load():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    pairs = [(parse_query(query), parse_update(update), verdict)
             for query, update, verdict in golden["cold"]["xmark"]["pairs"]]
    return pairs, golden["max_k"]


PAIRS, MAX_K = _load()
SCHEMA = xmark_dtd()


def _chain_pass():
    """One cold pass: per-pair seconds, verdicts, tracked-object growth."""
    engine = AnalysisEngine(SCHEMA)
    for k in range(1, MAX_K + 1):
        engine.state(k)
    tracked = len(gc.get_objects())
    seconds, verdicts = [], []
    for query, update, _ in PAIRS:
        started = time.perf_counter()
        report = engine.analyze_pair(query, update, collect_witnesses=False)
        seconds.append(time.perf_counter() - started)
        verdicts.append([int(report.independent), report.k,
                         report.k_query, report.k_update])
    growth = len(gc.get_objects()) - tracked
    return seconds, verdicts, growth, engine


def _baseline_pass() -> float:
    started = time.perf_counter()
    for query, update, _ in PAIRS:
        baseline_analyze(query, update, SCHEMA)
    return time.perf_counter() - started


def test_cold_xmark_inference_within_five_x_of_type_baseline():
    seconds, verdicts, growth, engine = _chain_pass()
    assert verdicts == [verdict for _, _, verdict in PAIRS], (
        "cold XMark verdicts must equal perfbench/golden/analyze.json"
    )
    chain_seconds = sum(seconds)
    # Best of two on both sides: each pass gets the same noise protection.
    chain_seconds = min(chain_seconds, sum(_chain_pass()[0]))
    baseline_seconds = min(_baseline_pass(), _baseline_pass())

    started = time.perf_counter()
    gc.collect()
    full_collection_ms = (time.perf_counter() - started) * 1e3
    del engine

    ordered = sorted(seconds)
    ratio = chain_seconds / baseline_seconds
    print(f"\nchain {chain_seconds / len(PAIRS) * 1e3:.3f} ms/pair "
          f"(p90 {ordered[int(0.9 * len(ordered))] * 1e3:.3f} ms), "
          f"type baseline {baseline_seconds / len(PAIRS) * 1e3:.3f} "
          f"ms/pair, ratio {ratio:.1f}x; tracked objects +{growth}, "
          f"one full collection {full_collection_ms:.0f} ms")
    assert ratio <= MAX_RATIO, (
        f"cold chain analysis costs {ratio:.2f}x the type baseline, "
        f"above the {MAX_RATIO}x gate"
    )
