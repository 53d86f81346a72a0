"""Regenerate ``golden/analyze.json``: the analyze workloads' inputs and
their golden verdicts.

    PYTHONPATH=src python3 perfbench/make_golden.py

The file fixes every schema, expression and verdict the analyze
workloads use, so a run depends on nothing but the wire service: the
expressions are drawn once here with the testkit generators, and the
verdicts come from an in-process :class:`AnalysisEngine`.  A run's seed
only chooses which pairs it sends and in what order.

Cold pools keep a pair only when a fresh engine decides it within
``COLD_PAIR_LIMIT_MS``: a handful of XMark expressions cost 30-50 ms
each, and a tail made of a few such outliers would move with the run's
seed more than with the code.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.analysis.engine import AnalysisEngine  # noqa: E402
from repro.bench.updates import ALL_UPDATES  # noqa: E402
from repro.bench.views import ALL_VIEWS  # noqa: E402
from repro.schema.catalog import xmark_dtd  # noqa: E402
from repro.serve.loadgen import dtd_text, generated_schema  # noqa: E402
from repro.testkit.exprgen import random_query, random_update  # noqa: E402

GENERATED = (11, 12, 13)
COLD_SCHEMAS = ("xmark",) + tuple(f"gen:{seed}" for seed in GENERATED)
COLD_PAIRS = 800
COLD_PAIR_LIMIT_MS = 8.0
WARM_SIZE = 20
#: The highest pair multiplicity the cold set-up pre-builds universes for.
MAX_K = 16


def verdict(engine: AnalysisEngine, query: str, update: str) -> list:
    report = engine.analyze_pair(query, update, collect_witnesses=False)
    return [int(report.independent), report.k, report.k_query,
            report.k_update]


def grid(dtd, queries: list[str], updates: list[str]) -> list[list]:
    engine = AnalysisEngine(dtd)
    return [[verdict(engine, q, u) for u in updates] for q in queries]


def cold_pool(ref: str, dtd) -> dict:
    """``COLD_PAIRS`` pairs of never-repeated expressions, plus one
    warm-up pair used only during set-up."""
    rng = random.Random(f"perfbench-cold/{ref}")
    engine = AnalysisEngine(dtd)
    for k in range(1, MAX_K + 1):
        engine.state(k)
    seen: set[str] = set()
    pairs = []
    while len(pairs) < COLD_PAIRS + 1:
        query = random_query(rng, dtd, max_depth=2)
        update = random_update(rng, dtd, max_depth=2)
        if query in seen or update in seen:
            continue
        seen.update((query, update))
        started = time.perf_counter()
        result = verdict(engine, query, update)
        if (time.perf_counter() - started) * 1e3 > COLD_PAIR_LIMIT_MS \
                or result[1] > MAX_K:
            continue
        pairs.append([query, update, result])
    warmup = pairs.pop()
    return {"pairs": pairs, "warmup": warmup[:2]}


def main() -> None:
    schemas = {}
    dtds = {"xmark": xmark_dtd()}
    for seed in GENERATED:
        spec = generated_schema(seed)
        schemas[f"gen:{seed}"] = {"root": spec.start, "dtd": dtd_text(spec)}
        dtds[f"gen:{seed}"] = spec.to_dtd()

    queries = list(ALL_VIEWS.values())[:WARM_SIZE]
    updates = list(ALL_UPDATES.values())[:WARM_SIZE]
    warm = {"xmark": {"queries": queries, "updates": updates,
                      "verdicts": grid(dtds["xmark"], queries, updates)}}
    rng = random.Random("perfbench-warm/gen:11")
    gen_queries = list(dict.fromkeys(
        random_query(rng, dtds["gen:11"], max_depth=2) for _ in range(40)
    ))[:WARM_SIZE]
    gen_updates = list(dict.fromkeys(
        random_update(rng, dtds["gen:11"], max_depth=2) for _ in range(40)
    ))[:WARM_SIZE]
    warm["gen:11"] = {
        "queries": gen_queries, "updates": gen_updates,
        "verdicts": grid(dtds["gen:11"], gen_queries, gen_updates),
    }
    cold = {ref: cold_pool(ref, dtds[ref]) for ref in COLD_SCHEMAS}
    golden = {"schemas": schemas, "max_k": MAX_K, "warm": warm,
              "cold": cold}
    path = os.path.join(HERE, "golden", "analyze.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        handle.write(dump(golden) + "\n")
    print(f"wrote {path}")


def dump(value, depth: int = 0) -> str:
    """JSON with one line per pair or grid row, so diffs stay readable."""
    pad = " " * depth
    if isinstance(value, dict):
        items = [f'{pad} {json.dumps(key)}: {dump(value[key], depth + 1)}'
                 for key in sorted(value)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, list) and value and isinstance(value[0], list):
        rows = [f"{pad} {json.dumps(row)}" for row in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    return json.dumps(value)


if __name__ == "__main__":
    main()
