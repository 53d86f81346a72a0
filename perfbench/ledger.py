"""Per-layer figures read from the server's own surfaces.

Two sources: the ``timing: true`` span breakdown of every traced
request (laid out by :class:`~perfbench.trace.Tracer`), and ``stats`` /
``metrics`` snapshots taken before and after the traced phases, whose
differences count what each layer did in between.
"""

from __future__ import annotations

import json
import statistics

from .trace import Tracer

#: The analyze-warm ledger must close: the medians of wire, front,
#: queue wait, engine and commit time add up to the client-observed
#: median within this share of it.
LEDGER_BOUND = 0.10


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def span_ledger(tracer: Tracer, op: str) -> dict:
    """Medians of each layer's time over the traced ``op`` requests."""
    kids = tracer.children()
    own = tracer.self_times()
    parts: dict[str, list[float]] = {
        "client": [], "wire": [], "server": [], "queue_wait": [],
        "engine": [], "store": [], "router": [], "shard": [],
    }
    for index, span in enumerate(tracer.spans):
        if span.name != f"client.{op}":
            continue
        servers = [k for k in kids.get(index, ())
                   if tracer.spans[k].name == "server"]
        if not servers:
            continue
        server = servers[0]
        parts["client"].append(span.seconds)
        parts["wire"].append(span.seconds - tracer.spans[server].seconds)
        parts["server"].append(own[server])
        found = {name: 0.0 for name in
                 ("queue_wait", "engine", "store", "router", "shard")}
        stack = list(kids.get(server, ()))
        while stack:
            child = stack.pop()
            name = tracer.spans[child].name
            if name in ("router", "shard"):
                found[name] += own[child]
            elif name in found:
                found[name] += tracer.spans[child].seconds
            stack.extend(kids.get(child, ()))
        for name, seconds in found.items():
            parts[name].append(seconds)
    medians = {name: _median_ms(values) for name, values in parts.items()}
    explained = sum(medians[name] for name in
                    ("wire", "server", "queue_wait", "engine", "store",
                     "router", "shard"))
    client = medians["client"]
    medians["unexplained_frac"] = (abs(client - explained) / client
                                   if client else 0.0)
    medians["samples"] = len(parts["client"])
    return medians


def _engines_total(stats: dict) -> dict:
    total: dict[str, float] = {}
    for engine in stats.get("registry", {}).get("engines", {}).values():
        for key, value in engine.items():
            if not key.endswith("_ratio"):
                total[key] = total.get(key, 0) + value
    return total


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def stats_delta(before: dict, after: dict) -> dict:
    """Batcher, engine, sharding and docstore counters moved between two
    ``stats`` snapshots."""
    def moved(section: str, key: str) -> float:
        return after.get(section, {}).get(key, 0) - \
            before.get(section, {}).get(key, 0)

    requests = moved("batcher", "requests")
    batches = moved("batcher", "batches")
    e0, e1 = _engines_total(before), _engines_total(after)
    engine = {key: e1.get(key, 0) - e0.get(key, 0) for key in e1}
    pair_total = engine.get("pair_hits", 0) + engine.get("pair_misses", 0)
    chain_hits = engine.get("query_hits", 0) + engine.get("update_hits", 0)
    chain_total = chain_hits + engine.get("query_misses", 0) \
        + engine.get("update_misses", 0)
    store_total = engine.get("store_hits", 0) + engine.get("store_misses", 0)
    routed_before = {shard["shard"]: shard.get("routed", 0)
                     for shard in before.get("per_shard", ())}
    routed = [shard.get("routed", 0) - routed_before.get(shard["shard"], 0)
              for shard in after.get("per_shard", ())]
    queries = {key: moved("doc_queries", key)
               for key in ("pushed_down", "fallback", "materialized")}
    return {
        "batching.batch_size": _frac(requests, batches),
        "batching.coalesced_frac": _frac(
            moved("batcher", "coalesced_requests"), requests),
        "batching.useful_pair_frac": _frac(
            requests, moved("batcher", "matrix_pairs")),
        "batching.sparse_frac": _frac(
            moved("batcher", "sparse_batches"), batches),
        "engine.pair_hit_frac": _frac(engine.get("pair_hits", 0),
                                      pair_total),
        "engine.chain_hit_frac": _frac(chain_hits, chain_total),
        "engine.store_hit_frac": _frac(engine.get("store_hits", 0),
                                       store_total),
        "engine.universes_built": engine.get("universes_built", 0),
        "engine.evictions": engine.get("pair_evictions", 0)
        + engine.get("expr_evictions", 0),
        "sharding.routed_skew": (max(routed) / statistics.mean(routed)
                                 if routed and sum(routed) else 0.0),
        "docstore.pushdown_frac": _frac(queries["pushed_down"],
                                        sum(queries.values())),
    }


def _family_children(snapshot: dict, family: str) -> dict:
    return snapshot.get("families", {}).get(family, {}).get("children", {})


def _histogram_delta(before: dict, after: dict, family: str,
                     labels: tuple = ()) -> tuple[float, int]:
    """``(sum, count)`` a histogram child gained between snapshots."""
    key = json.dumps(list(labels))
    now = _family_children(after, family).get(key)
    then = _family_children(before, family).get(key)
    if now is None:
        return 0.0, 0
    total, count = now["sum"], now["count"]
    if then is not None:
        total -= then["sum"]
        count -= then["count"]
    return total, count


def _mean_ms(before: dict, after: dict, family: str,
             labels: tuple = ()) -> float:
    total, count = _histogram_delta(before, after, family, labels)
    return total * 1e3 / count if count else 0.0


def metrics_delta(before: dict, after: dict) -> dict:
    """Histogram means (ms) the registry gained between two snapshots."""
    universe_s, _ = _histogram_delta(
        before, after, "repro_engine_universe_build_seconds")
    return {
        "batching.flush_ms": _mean_ms(before, after,
                                      "repro_batch_flush_seconds"),
        "engine.universe_build_ms": universe_s * 1e3,
        "storage.save_ms": _mean_ms(before, after, "repro_store_op_seconds",
                                    ("save",)),
        "storage.run_steps_ms": _mean_ms(before, after,
                                         "repro_store_op_seconds",
                                         ("run_steps",)),
    }
