"""In-process timings of each layer's public functions.

The traced run calls the program's own functions on the workload's own
inputs, inside the benchmark process, under benchmark spans.  Each probe
returns medians over many calls (milliseconds unless the name says
otherwise).  Nothing here talks to the server.
"""

from __future__ import annotations

import statistics
import time

from repro.analysis.engine import AnalysisEngine
from repro.analysis.project import chain_keep_for_queries
from repro.docstore.pushdown import serialize_answers
from repro.docstore.streamload import load_xml
from repro.serve.protocol import decode_request, ok_response
from repro.storage import open_store
from repro.viewmaint.cache import ViewCache
from repro.xquery.ast import ROOT_VAR
from repro.xquery.evaluator import evaluate_query
from repro.xquery.parser import parse_query
from repro.xupdate.evaluator import apply_update
from repro.xupdate.parser import parse_update

from .trace import Tracer


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _repeat(fn, arg, reps: int) -> float:
    """Median seconds of one ``fn(arg)`` call over ``reps`` calls."""
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def protocol(tracer: Tracer, lines: list[bytes],
             results: list[dict]) -> dict:
    """``decode_request`` / ``ok_response`` on the run's own traffic."""
    with tracer.span("probe.protocol"):
        decode = [_repeat(decode_request, line, 20) for line in lines]
        encode = [_repeat(lambda r: ok_response("r1", r), result, 20)
                  for result in results]
    return {
        "protocol.decode_us": statistics.median(decode) * 1e6
        if decode else 0.0,
        "protocol.encode_us": statistics.median(encode) * 1e6
        if encode else 0.0,
    }


def inference(tracer: Tracer, dtd, pairs: list[tuple[str, str, int]]) -> dict:
    """Chain inference and the conflict check on a fresh engine.

    ``pairs`` carry their effective multiplicity ``k``; the first call
    for each expression infers its chains, the following
    ``analyze_pair`` then only checks the chains against each other.
    """
    engine = AnalysisEngine(dtd)
    query_s, update_s, pair_s, chains, ks = [], [], [], [], []
    with tracer.span("probe.infer"):
        for query, update, k in pairs:
            with tracer.span("infer.query_chains") as index:
                found = engine.query_chains(query, k)
            query_s.append(tracer.spans[index].seconds)
            chains.append(len(found.returns) + len(found.used)
                          + len(found.elements))
            with tracer.span("infer.update_chains") as index:
                chains.append(len(engine.update_chains(update, k)))
            update_s.append(tracer.spans[index].seconds)
            with tracer.span("independence.analyze_pair") as index:
                report = engine.analyze_pair(query, update,
                                             collect_witnesses=False)
            pair_s.append(tracer.spans[index].seconds)
            ks.append(report.k)
    return {
        "infer.query_ms": _median_ms(query_s),
        "infer.update_ms": _median_ms(update_s),
        "infer.chains_per_expr": statistics.mean(chains) if chains else 0.0,
        "independence.pair_ms": _median_ms(pair_s),
        "kbound.k": statistics.mean(ks) if ks else 0.0,
    }


def documents(tracer: Tracer, dtd, xml: str, queries: list[str],
              updates: list[str], project_for: list[str],
              limit: int = 10) -> dict:
    """Loader, store, evaluator, update and view-maintenance probes."""
    parsed_queries = [parse_query(q) for q in queries]
    parsed_updates = [parse_update(u) for u in updates]
    with tracer.span("probe.docstore"):
        load_s = []
        for _ in range(3):
            with tracer.span("docstore.load_xml") as index:
                tree = load_xml(xml).tree
            load_s.append(tracer.spans[index].seconds)
        engine = AnalysisEngine(dtd)
        keep = chain_keep_for_queries(project_for, engine=engine)
        with tracer.span("docstore.load_xml.projected"):
            projected = load_xml(xml, keep=keep)
        kept = projected.tree.size() / max(1, projected.nodes_seen)
        serialize_s = []
        stored = tree.size()
        with open_store("memory://") as backend:
            backend.documents.save("probe", tree, engine.digest)
            for query in parsed_queries:
                # Constructed answers live only in memory, not the store.
                locs = [loc for loc in evaluate_query(
                    query, tree.store, {ROOT_VAR: [tree.root]})
                    if loc < stored]
                with tracer.span("docstore.serialize_answers") as index:
                    serialize_answers(backend.documents, "probe", locs,
                                      limit)
                serialize_s.append(tracer.spans[index].seconds)
    with tracer.span("probe.xquery"):
        eval_s = []
        for query in parsed_queries:
            with tracer.span("xquery.evaluate_query") as index:
                evaluate_query(query, tree.store, {ROOT_VAR: [tree.root]})
            eval_s.append(tracer.spans[index].seconds)
    with tracer.span("probe.xupdate"):
        apply_s = []
        for update in parsed_updates:
            copy = load_xml(xml).tree
            with tracer.span("xupdate.apply_update") as index:
                try:
                    apply_update(update, copy.store, {ROOT_VAR: [copy.root]})
                except ValueError:
                    pass  # a dynamic update error changes nothing
            apply_s.append(tracer.spans[index].seconds)
    with tracer.span("probe.viewmaint"):
        cache = ViewCache(dtd, load_xml(xml).tree,
                          engine=AnalysisEngine(dtd))
        for number, query in enumerate(parsed_queries):
            cache.register(f"v{number}", query)
        cache.stats.refresh_seconds = 0.0
        for update in parsed_updates:
            try:
                cache.apply(update)
            except ValueError:
                pass
        stats = cache.stats
    return {
        "docstore.load_ms": _median_ms(load_s),
        "docstore.kept_frac": kept,
        "docstore.serialize_ms": _median_ms(serialize_s),
        "xquery.eval_ms": _median_ms(eval_s),
        "xupdate.apply_ms": _median_ms(apply_s),
        "viewmaint.refresh_ms": stats.refresh_seconds * 1e3
        / max(1, stats.refreshes_done),
        "viewmaint.verdict_ms": stats.analysis_seconds * 1e3
        / max(1, stats.updates_applied),
    }
