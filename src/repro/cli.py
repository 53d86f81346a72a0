"""Command-line interface for the independence analyzer.

Subcommands::

    python -m repro analyze  --dtd schema.dtd --root site \\
        --query '//title' --update 'delete //price' [--explain] [--types]
    python -m repro validate --dtd schema.dtd --root site document.xml
    python -m repro generate --dtd schema.dtd --root site --bytes 10000 \\
        [--seed 7] [--out doc.xml]
    python -m repro infer-dtd doc1.xml doc2.xml ...
    python -m repro load document.xml --builtin xmark \\
        [--project '//title' ...] [--store sqlite:///docs.db --doc ID]
    python -m repro query '//title' --store sqlite:///docs.db --doc ID \\
        [--limit N]
    python -m repro explain '//title' --store sqlite:///docs.db --doc ID
    python -m repro metrics HOST:PORT | http://HOST:PORT/metrics [--raw]
    python -m repro bench fig3a|fig3b|fig3c|fig3d|all
    python -m repro docstore-bench [--bytes N] [--seed S] \\
        [--json BENCH_docstore.json]
    python -m repro bench-batch [--queries N] [--updates N] \\
        [--processes N]
    python -m repro fuzz [--count N] [--seed S] [--max-tags N] \\
        [--json report.json] [--corpus-dir DIR]
    python -m repro serve [--port P] [--store URL] [--shards N] \\
        [--mode batched|engine|oneshot] [--max-documents N] \\
        [--preload xmark ...]
    python -m repro loadgen [--port P] [--clients N] [--requests N] \\
        [--schema xmark --schema gen:11 ...] [--source bench|exprgen] \\
        [--shards N] [--expect-coalescing] [--json report.json]
    python -m repro serve-bench [--shards N] [--json BENCH_serve.json]

``--dtd`` accepts a file of ``<!ELEMENT ...>`` declarations; the built-in
schemas are available as ``--builtin xmark|bib|paper-doc|paper-d1``.
Flag defaults for ``serve`` and ``loadgen`` are read from
:class:`repro.serve.ServeConfig` / :class:`repro.serve.LoadgenConfig`,
so ``--help`` cannot drift from the code (pinned by the argparse smoke
tests in ``tests/test_cli.py``).
"""

from __future__ import annotations

import argparse
import sys

from .analysis.baseline import baseline_analyze
from .analysis.explain import explain
from .analysis.independence import analyze
from .schema.catalog import (
    bib_dtd,
    paper_d1_dtd,
    paper_doc_dtd,
    xmark_dtd,
)
from .schema.dtd import DTD
from .schema.infer import infer_dtd
from .serve.loadgen import LoadgenConfig
from .serve.server import ANALYSIS_MODES, ServeConfig
from .storage import open_store, parse_store_url
from .xmldm.generator import generate_document
from .xmldm.parse import parse_xml
from .xmldm.serialize import serialize
from .xmldm.validate import ValidationError, validate

_BUILTINS = {
    "xmark": xmark_dtd,
    "bib": bib_dtd,
    "paper-doc": paper_doc_dtd,
    "paper-d1": paper_d1_dtd,
}


def _load_schema(args: argparse.Namespace) -> DTD:
    if getattr(args, "builtin", None):
        return _BUILTINS[args.builtin]()
    if not getattr(args, "dtd", None):
        raise SystemExit("error: pass --dtd FILE or --builtin NAME")
    with open(args.dtd, encoding="utf-8") as handle:
        text = handle.read()
    if not args.root:
        raise SystemExit("error: --root is required with --dtd")
    return DTD.from_dtd_text(args.root, text)


def _add_schema_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dtd", help="file of <!ELEMENT ...> declarations")
    parser.add_argument("--root", help="start symbol for --dtd")
    parser.add_argument("--builtin", choices=sorted(_BUILTINS),
                        help="use a built-in schema")


def _store_url(value: str) -> str:
    """``--store`` type: a valid store URL, returned unchanged (a bad
    one exits with status 2 and names its URL spelling)."""
    try:
        parse_store_url(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def _cmd_analyze(args: argparse.Namespace) -> int:
    schema = _load_schema(args)
    report = analyze(args.query, args.update, schema, k=args.k)
    if args.explain:
        print(explain(args.query, args.update, schema, report), end="")
    else:
        print(report)
    if args.types:
        baseline = baseline_analyze(args.query, args.update, schema)
        verdict = "independent" if baseline.independent else "dependent"
        overlap = f" (overlap: {sorted(baseline.overlap)})" \
            if baseline.overlap else ""
        print(f"type baseline [6]: {verdict}{overlap}")
    return 0 if report.independent else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    schema = _load_schema(args)
    with open(args.document, encoding="utf-8") as handle:
        tree = parse_xml(handle.read())
    try:
        validate(tree, schema)
    except ValidationError as error:
        print(f"INVALID: {error}")
        return 1
    print(f"valid ({tree.size()} nodes)")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    schema = _load_schema(args)
    tree = generate_document(schema, args.bytes, seed=args.seed)
    text = serialize(tree.store, tree.root, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out} ({tree.size()} nodes)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_infer_dtd(args: argparse.Namespace) -> int:
    corpus = []
    for path in args.documents:
        with open(path, encoding="utf-8") as handle:
            corpus.append(parse_xml(handle.read()))
    from .schema.regex import Epsilon

    dtd = infer_dtd(corpus)
    for tag in sorted(dtd.rules):
        model = dtd.rules[tag]
        rendered = "EMPTY" if isinstance(model, Epsilon) else str(model)
        print(f"<!ELEMENT {tag} {rendered}>")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    import time

    from .analysis.project import chain_keep_for_queries
    from .docstore.streamload import load_path

    schema = _load_schema(args)
    keep = None
    if args.project:
        keep = chain_keep_for_queries(args.project, schema)
        if keep is None:
            print("warning: inferred chains too large to enumerate; "
                  "loading unprojected")
    started = time.perf_counter()
    result = load_path(args.document, keep=keep)
    seconds = time.perf_counter() - started
    print(f"loaded {args.document}: kept {result.nodes_kept:,}/"
          f"{result.nodes_seen:,} nodes ({result.kept_ratio:.1%}), "
          f"skipped {result.subtrees_skipped:,} subtrees, "
          f"{seconds * 1e3:.1f} ms"
          + (" [projected]" if keep is not None else ""))
    if args.store:
        from .analysis.engine import schema_digest

        doc_id = args.doc or args.document
        with open_store(args.store) as backend:
            rows = backend.documents.save(
                doc_id, result.tree, schema_digest(schema),
                nodes_seen=result.nodes_seen,
                subtrees_skipped=result.subtrees_skipped,
                # Same meta shape as the server's doc.load persistence:
                # recording project_for lets a later served reload
                # check that its queries are covered by the projection.
                meta={
                    "projected": keep is not None,
                    "project_for": list(args.project)
                    if keep is not None else None,
                },
            )
        print(f"persisted {rows:,} node rows as {doc_id!r} "
              f"in {args.store}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """Answer a query on a *persisted* document, pushdown-first.

    Eligible queries run as SQL inside the store (no materialization:
    answers serialize straight from node-row range scans); queries
    outside the fragment fall back to materialize-then-evaluate.
    Answers print one per line on stdout; the mode/count summary goes
    to stderr so stdout stays pipeable.
    """
    from .docstore.pushdown import compile_query, serialize_answers
    from .xquery.parser import parse_query

    try:
        query = parse_query(args.query)
    except Exception as error:
        raise SystemExit(f"error: query does not parse: {error}") \
            from error
    with open_store(args.store) as backend:
        documents = backend.documents
        stored = documents.describe(args.doc)
        if stored is None:
            raise SystemExit(
                f"error: document {args.doc!r} is not persisted in "
                f"{args.store}"
            )
        # A persisted projection only answers the queries it was
        # projected for (same refusal the served doc.query op makes).
        recorded = stored.meta.get("project_for")
        if stored.meta.get("projected") and recorded is not None \
                and args.query not in set(recorded):
            raise SystemExit(
                f"error: document {args.doc!r} is projected for "
                f"{sorted(recorded)}, which does not cover this "
                "query; reload it from a source"
            )
        steps = compile_query(query)
        if steps is not None:
            locs = documents.run_steps(args.doc, steps)
            answers = serialize_answers(documents, args.doc, locs,
                                        args.limit)
            mode = "pushdown"
        else:
            from .xquery.ast import ROOT_VAR
            from .xquery.evaluator import evaluate_query

            tree, _ = documents.load(args.doc)
            locs = evaluate_query(query, tree.store,
                                  {ROOT_VAR: [tree.root]})
            take = locs if args.limit is None else locs[:args.limit]
            answers = [serialize(tree.store, loc) for loc in take]
            mode = "fallback"
    for answer in answers:
        print(answer)
    print(f"{len(locs)} answers ({mode}) from {args.doc!r}",
          file=sys.stderr)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Explain how a query over a persisted document would run.

    Builds the same :class:`~repro.obs.plan.PlanContext` the serving
    pipeline builds for ``doc.query`` -- pushdown compilation (the
    step chain and the exact parameterized SQL, or the ineligibility
    reason) plus the answer path -- without a serve loop, and renders
    it as an indented tree.  The query *is* answered (so the plan
    carries the real answer count), but answers are not printed; use
    ``repro query`` for those.
    """
    from .docstore.pushdown import compile_query_explain, step_label
    from .obs.plan import PlanContext, decision, render_plan
    from .xquery.parser import parse_query

    try:
        query = parse_query(args.query)
    except Exception as error:
        raise SystemExit(f"error: query does not parse: {error}") \
            from error
    plan = PlanContext()
    with open_store(args.store) as backend:
        documents = backend.documents
        stored = documents.describe(args.doc)
        if stored is None:
            raise SystemExit(
                f"error: document {args.doc!r} is not persisted in "
                f"{args.store}"
            )
        recorded = stored.meta.get("project_for")
        if stored.meta.get("projected") and recorded is not None \
                and args.query not in set(recorded):
            raise SystemExit(
                f"error: document {args.doc!r} is projected for "
                f"{sorted(recorded)}, which does not cover this "
                "query; reload it from a source"
            )
        steps, why = compile_query_explain(query)
        if steps is not None:
            explained = documents.explain_steps(args.doc, steps)
            decision("pushdown", "compiled", plan,
                     steps=[step_label(spec) for spec in steps],
                     **explained)
            locs = documents.run_steps(args.doc, steps)
            mode = "pushdown"
        else:
            from .xquery.ast import ROOT_VAR
            from .xquery.evaluator import evaluate_query

            decision("pushdown", "ineligible", plan, **(why or {}))
            tree, _ = documents.load(args.doc)
            locs = evaluate_query(query, tree.store,
                                  {ROOT_VAR: [tree.root]})
            mode = "fallback"
        decision("answer", mode, plan, doc=args.doc, count=len(locs))
    print(render_plan(plan.report()))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """One-shot scrape of a running service's metrics.

    ``HOST:PORT`` scrapes the wire ``metrics`` op over one JSON-lines
    connection; an ``http(s)://`` address fetches the Prometheus
    ``/metrics`` exposition instead (``/metrics`` is appended when the
    URL has no path).  Both shapes summarize identically: counters and
    gauges print their value, histograms their count and estimated
    p50/p99, sorted by series name.  ``--raw`` prints the exposition
    text verbatim instead.
    """
    import json as json_module

    from .obs.export import parse_exposition, render
    from .obs.metrics import histogram_quantile

    address = args.address
    if address.startswith(("http://", "https://")):
        from urllib.error import URLError
        from urllib.parse import urlsplit
        from urllib.request import urlopen

        if not urlsplit(address).path:
            address += "/metrics"
        try:
            with urlopen(address, timeout=args.timeout) as response:
                text = response.read().decode("utf-8")
        except (URLError, OSError) as error:
            raise SystemExit(f"error: scrape failed: {error}") from error
        snapshot = parse_exposition(text)
    else:
        import asyncio

        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise SystemExit(
                "error: address must be HOST:PORT or http(s)://..."
            )

        async def scrape():
            reader, writer = await asyncio.open_connection(
                host, int(port)
            )
            try:
                writer.write(json_module.dumps(
                    {"op": "metrics", "id": 1}
                ).encode("utf-8") + b"\n")
                await writer.drain()
                line = await reader.readline()
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:
                    pass
            return json_module.loads(line)

        try:
            response = asyncio.run(
                asyncio.wait_for(scrape(), timeout=args.timeout)
            )
        except (ConnectionError, OSError, TimeoutError) as error:
            raise SystemExit(f"error: scrape failed: {error}") from error
        if not response.get("ok"):
            raise SystemExit(f"error: metrics op failed: {response}")
        snapshot = response["snapshot"]
        text = response.get("text") or render(snapshot)
    if args.raw:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return 0
    rows = []
    for name, family in sorted(snapshot.get("families", {}).items()):
        labelnames = list(family.get("labels", []))
        for key, child in sorted(family.get("children", {}).items()):
            values = json_module.loads(key)
            labels = ",".join(
                f"{n}={v}" for n, v in zip(labelnames, values)
            )
            series = f"{name}{{{labels}}}" if labels else name
            if family.get("kind") == "histogram":
                rows.append((
                    series,
                    f"count={child['count']}",
                    f"p50={histogram_quantile(child, 0.5):.6g}",
                    f"p99={histogram_quantile(child, 0.99):.6g}",
                ))
            else:
                value = child.get("value", 0)
                rows.append((series, f"value={value:g}", "", ""))
    if not rows:
        print("(no metrics)")
        return 0
    width = max(len(row[0]) for row in rows)
    for row in rows:
        tail = "  ".join(part for part in row[1:] if part)
        print(f"{row[0]:<{width}}  {tail}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench.harness import main as harness_main

    return harness_main([args.experiment])


def _cmd_bench_batch(args: argparse.Namespace) -> int:
    from .bench.batch import run_bench_batch

    results = run_bench_batch(
        n_queries=args.queries,
        n_updates=args.updates,
        processes=args.processes,
    )
    return 0 if results["verdicts_equal"] else 1


def _cmd_docstore_bench(args: argparse.Namespace) -> int:
    from .bench.docstore_bench import (
        append_trajectory_point,
        run_docstore_bench,
    )

    results = run_docstore_bench(
        target_bytes=args.bytes, seed=args.seed, repeats=args.repeats
    )
    if args.json:
        append_trajectory_point(args.json, results)
        print(f"appended trajectory point to {args.json}")
    return 0 if results["answers_identical"] else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json as json_module

    from .testkit.fuzz import FuzzConfig, run_fuzz

    if args.queries < 1 or args.updates < 1:
        raise SystemExit("error: --queries and --updates must be >= 1")
    if not 1 <= args.min_tags <= args.max_tags:
        raise SystemExit("error: need 1 <= --min-tags <= --max-tags")
    config = FuzzConfig(
        count=args.count,
        seed=args.seed,
        queries_per_schema=args.queries,
        updates_per_schema=args.updates,
        min_tags=args.min_tags,
        max_tags=args.max_tags,
        recursion_probability=args.recursion,
        expr_depth=args.depth,
        corpus_docs=args.docs,
        corpus_bytes=args.doc_bytes,
        processes=args.processes,
        shrink_budget=args.shrink_budget,
        corpus_dir=args.corpus_dir,
    )
    report = run_fuzz(config, progress=args.progress)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(report.to_json(), handle, indent=2,
                             sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 1 if report.counterexamples else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.server import run_service

    config = ServeConfig(
        host=args.host,
        port=args.port,
        store_path=args.store,
        analysis_mode=args.mode,
        max_schemas=args.max_schemas,
        max_documents=args.max_documents,
        pair_cache_size=args.pair_cache,
        preload=tuple(args.preload),
        shards=args.shards,
        slow_ms=args.slow_ms,
        slow_log_path=args.slow_log or "",
        metrics_port=args.metrics_port,
    )

    def ready(service, host, port):
        metrics = (f", metrics=:{service.metrics_port}"
                   if service.metrics_port else "")
        print(f"repro serve: listening on {host}:{port} "
              f"(mode={config.analysis_mode}, shards={config.shards}, "
              f"store={config.store_path}{metrics})",
              flush=True)

    try:
        asyncio.run(run_service(config, ready=ready))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as json_module

    from .serve.loadgen import run_loadgen_sync

    kwargs = {}
    if args.schema:
        kwargs["schema"] = tuple(args.schema)
    # Omitting the kwarg keeps LoadgenConfig the single source of
    # truth for the default workload schema.
    report = run_loadgen_sync(LoadgenConfig(
        host=args.host,
        port=args.port,
        source=args.source,
        n_queries=args.queries,
        n_updates=args.updates,
        clients=args.clients,
        requests=args.requests,
        seed=args.seed,
        scrape_metrics=args.scrape_metrics,
        timing_sample=args.timing_sample,
        doc_queries=args.doc_queries,
        **kwargs,
    ))
    service = report["service"]
    print(f"loadgen: {report['completed']}/{report['workload']['requests']}"
          f" ok, {report['errors']} errors, "
          f"{report['throughput_rps']:.0f} req/s, "
          f"p50 {report['latency_ms']['p50']:.2f} ms, "
          f"p99 {report['latency_ms']['p99']:.2f} ms, "
          f"{service['batches']} batches "
          f"({service['coalesced_requests']} coalesced, "
          f"{service['shards']} shard(s))")
    server = report.get("server_metrics")
    if server is not None:
        analyze = server["per_op"].get("analyze", {})
        print(f"server ({server['role']}): analyze count "
              f"{analyze.get('count', 0)}, "
              f"p50 {analyze.get('p50_ms', 0.0):.2f} ms, "
              f"p99 {analyze.get('p99_ms', 0.0):.2f} ms, "
              f"counts_match={server['counts_match']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if report["errors"]:
        return 1
    if server is not None and not server["counts_match"]:
        print("error: --scrape-metrics, but the server's analyze "
              "histogram count does not match the requests sent "
              f"({analyze.get('count', 0)} vs "
              f"{report['workload']['requests']})")
        return 1
    if args.expect_coalescing and (
            not service["batches"] or not service["coalesced_requests"]):
        # batches alone is not enough: 600 one-entry batches would mean
        # the admission queue coalesced nothing.
        print("error: --expect-coalescing, but no requests coalesced "
              f"({service['batches']} batches, "
              f"{service['coalesced_requests']} coalesced)")
        return 1
    if args.shards is not None:
        if service["shards"] != args.shards:
            print(f"error: --shards {args.shards}, but the service "
                  f"reports {service['shards']} shard(s)")
            return 1
        routing = service["shard_routing"] or {}
        busy = sum(1 for routed in routing.values() if routed > 0)
        if args.shards > 1 and busy < 2:
            print("error: --shards expects analyze traffic to spread, "
                  f"but only {busy} shard(s) received requests "
                  f"({routing})")
            return 1
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from .bench.serve_bench import append_trajectory_point, run_serve_bench

    results = run_serve_bench(
        workload={"requests": args.requests, "clients": args.clients},
        shards=args.shards,
        store=args.store,
    )
    ok = results["verdicts_identical"] and \
        results.get("sharding", {}).get("verdicts_identical", True)
    if args.json:
        append_trajectory_point(args.json, results)
        print(f"appended trajectory point to {args.json}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Type-based XML query-update independence "
                    "(Bidoit, Colazzo, Ulliana, VLDB 2012)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze_cmd = commands.add_parser(
        "analyze", help="statically decide independence of a pair"
    )
    _add_schema_options(analyze_cmd)
    analyze_cmd.add_argument("--query", required=True)
    analyze_cmd.add_argument("--update", required=True)
    analyze_cmd.add_argument("--k", type=int, default=None,
                             help="override the derived multiplicity")
    analyze_cmd.add_argument("--explain", action="store_true",
                             help="print the chain-level explanation")
    analyze_cmd.add_argument("--types", action="store_true",
                             help="also run the type baseline [6]")
    analyze_cmd.set_defaults(func=_cmd_analyze)

    validate_cmd = commands.add_parser(
        "validate", help="validate a document against a DTD"
    )
    _add_schema_options(validate_cmd)
    validate_cmd.add_argument("document")
    validate_cmd.set_defaults(func=_cmd_validate)

    generate_cmd = commands.add_parser(
        "generate", help="generate a random valid document"
    )
    _add_schema_options(generate_cmd)
    generate_cmd.add_argument("--bytes", type=int, default=10_000)
    generate_cmd.add_argument("--seed", type=int, default=0)
    generate_cmd.add_argument("--out")
    generate_cmd.set_defaults(func=_cmd_generate)

    infer_cmd = commands.add_parser(
        "infer-dtd", help="infer a DTD from example documents"
    )
    infer_cmd.add_argument("documents", nargs="+")
    infer_cmd.set_defaults(func=_cmd_infer_dtd)

    load_cmd = commands.add_parser(
        "load",
        help="stream a document into the indexed store, optionally "
             "projected onto the chains of the queries that will run",
    )
    _add_schema_options(load_cmd)
    load_cmd.add_argument("document", help="XML file to load")
    load_cmd.add_argument("--project", action="append", default=[],
                          help="query whose inferred chains drive "
                               "projection pushdown (repeatable; the "
                               "union of chains is kept)")
    load_cmd.add_argument("--store", default=None, type=_store_url,
                          help="persist the node table into this store "
                               "URL (memory://, sqlite:///docs.db, "
                               "postgresql://host/db; see "
                               "docs/STORAGE.md)")
    load_cmd.add_argument("--doc",
                          help="document id in the store (default: "
                               "the file path)")
    load_cmd.set_defaults(func=_cmd_load)

    query_cmd = commands.add_parser(
        "query",
        help="answer a query on a persisted document, pushed down as "
             "SQL when it fits the step fragment (no materialization)",
    )
    query_cmd.add_argument("query", help="query text, e.g. '//title'")
    query_cmd.add_argument("--store", required=True, type=_store_url,
                           help="store URL holding the persisted node "
                                "table")
    query_cmd.add_argument("--doc", required=True,
                           help="document id in the store")
    query_cmd.add_argument("--limit", type=int, default=None,
                           help="serialize at most N answers (the "
                                "count still reflects all of them)")
    query_cmd.set_defaults(func=_cmd_query)

    explain_cmd = commands.add_parser(
        "explain",
        help="explain how a query over a persisted document would "
             "run: the compiled pushdown chain and its SQL, or the "
             "ineligibility reason, plus the answer path",
    )
    explain_cmd.add_argument("query", help="query text, e.g. '//title'")
    explain_cmd.add_argument("--store", required=True, type=_store_url,
                             help="store URL holding the persisted "
                                  "node table")
    explain_cmd.add_argument("--doc", required=True,
                             help="document id in the store")
    explain_cmd.set_defaults(func=_cmd_explain)

    metrics_cmd = commands.add_parser(
        "metrics",
        help="one-shot scrape of a running service's metrics "
             "(HOST:PORT wire op, or an http(s):// /metrics URL)",
    )
    metrics_cmd.add_argument("address",
                             help="HOST:PORT for the wire metrics op, "
                                  "or http(s)://... for the HTTP "
                                  "exposition listener")
    metrics_cmd.add_argument("--raw", action="store_true",
                             help="print the Prometheus exposition "
                                  "text verbatim instead of the "
                                  "summary table")
    metrics_cmd.add_argument("--timeout", type=float, default=5.0,
                             help="scrape timeout, seconds")
    metrics_cmd.set_defaults(func=_cmd_metrics)

    bench_cmd = commands.add_parser(
        "bench", help="regenerate a Figure 3 panel"
    )
    bench_cmd.add_argument(
        "experiment", choices=["fig3a", "fig3b", "fig3c", "fig3d", "all"]
    )
    bench_cmd.set_defaults(func=_cmd_bench)

    batch_cmd = commands.add_parser(
        "bench-batch",
        help="amortized batch-engine analysis time vs one-shot analyze()",
    )
    batch_cmd.add_argument("--queries", type=int, default=10,
                           help="number of XMark benchmark views")
    batch_cmd.add_argument("--updates", type=int, default=10,
                           help="number of XMark benchmark updates")
    batch_cmd.add_argument("--processes", type=int, default=None,
                           help="also time a process-pool fan-out")
    batch_cmd.set_defaults(func=_cmd_bench_batch)

    docstore_bench_cmd = commands.add_parser(
        "docstore-bench",
        help="docstore acceptance numbers: dict store vs indexed vs "
             "indexed+projected on a generated ~100k-node document",
    )
    docstore_bench_cmd.add_argument(
        "--bytes", type=int, default=4_500_000,
        help="generator byte budget (~100k parsed nodes)")
    docstore_bench_cmd.add_argument("--seed", type=int, default=7)
    docstore_bench_cmd.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per query (median reported)")
    docstore_bench_cmd.add_argument(
        "--json",
        help="append a trajectory point to this file "
             "(BENCH_docstore.json)")
    docstore_bench_cmd.set_defaults(func=_cmd_docstore_bench)

    fuzz_cmd = commands.add_parser(
        "fuzz",
        help="differential fuzz: static vs baseline vs dynamic "
             "independence on random (schema, query, update) scenarios",
    )
    fuzz_cmd.add_argument("--count", type=int, default=500,
                          help="query x update pairs to examine")
    fuzz_cmd.add_argument("--seed", type=int, default=0,
                          help="campaign seed (fully deterministic)")
    fuzz_cmd.add_argument("--queries", type=int, default=4,
                          help="queries per generated schema")
    fuzz_cmd.add_argument("--updates", type=int, default=4,
                          help="updates per generated schema")
    fuzz_cmd.add_argument("--min-tags", type=int, default=3,
                          help="minimum schema alphabet size")
    fuzz_cmd.add_argument("--max-tags", type=int, default=7,
                          help="maximum schema alphabet size")
    fuzz_cmd.add_argument("--recursion", type=float, default=0.4,
                          help="probability a schema is recursive")
    fuzz_cmd.add_argument("--depth", type=int, default=2,
                          help="expression nesting depth")
    fuzz_cmd.add_argument("--docs", type=int, default=4,
                          help="corpus documents per scenario")
    fuzz_cmd.add_argument("--doc-bytes", type=int, default=700,
                          help="target bytes per corpus document")
    fuzz_cmd.add_argument("--processes", type=int, default=None,
                          help="fan the static matrix over a process pool")
    fuzz_cmd.add_argument("--shrink-budget", type=int, default=250,
                          help="differential re-checks per shrink")
    fuzz_cmd.add_argument("--json", help="write the JSON report here")
    fuzz_cmd.add_argument("--corpus-dir",
                          help="save shrunk counterexamples here "
                               "(e.g. tests/corpus)")
    fuzz_cmd.add_argument("--progress", action="store_true",
                          help="print progress every 10 scenarios")
    fuzz_cmd.set_defaults(func=_cmd_fuzz)

    # Serve/loadgen defaults come straight from the config dataclasses,
    # so the CLI surface cannot drift from the code (and the epilogs
    # below always quote the real values).  Pinned by the argparse
    # smoke tests in tests/test_cli.py.
    serve_defaults = ServeConfig()
    serve_cmd = commands.add_parser(
        "serve",
        help="run the concurrent independence service (JSON lines/TCP)",
        epilog="defaults: "
               f"max-schemas {serve_defaults.max_schemas}, "
               f"max-documents {serve_defaults.max_documents}, "
               f"shards {serve_defaults.shards}, store "
               f"{serve_defaults.store_path} (ephemeral). "
               "Wire reference: docs/PROTOCOL.md; architecture: "
               "docs/ARCHITECTURE.md; store URLs: docs/STORAGE.md.",
    )
    serve_cmd.add_argument("--host", default=serve_defaults.host)
    serve_cmd.add_argument("--port", type=int,
                           default=serve_defaults.port,
                           help="TCP port (0 picks a free one)")
    serve_cmd.add_argument("--store", default=serve_defaults.store_path,
                           type=_store_url,
                           help="store URL (memory://, "
                                "sqlite:///path.db, "
                                "postgresql://host/db); a file or "
                                "server persists verdicts AND "
                                "documents in one backend, shared by "
                                "all shards (default: in-memory "
                                "verdicts, no documents; see "
                                "docs/STORAGE.md)")
    serve_cmd.add_argument("--mode", default=serve_defaults.analysis_mode,
                           choices=list(ANALYSIS_MODES),
                           help="analyze path: coalescing admission "
                                "queue (default), shared engine "
                                "without batching, or "
                                "stateless one-shot")
    serve_cmd.add_argument("--max-schemas", type=int,
                           default=serve_defaults.max_schemas,
                           help="LRU bound on registered schemas")
    serve_cmd.add_argument("--max-documents", type=int,
                           default=serve_defaults.max_documents,
                           help="LRU bound on loaded documents "
                                f"(default {serve_defaults.max_documents};"
                                " overflow evicts oldest)")
    serve_cmd.add_argument("--pair-cache", type=int,
                           default=serve_defaults.pair_cache_size,
                           help="per-engine pair-memo LRU bound")
    serve_cmd.add_argument("--shards", type=int,
                           default=serve_defaults.shards,
                           help="worker processes; requests route to "
                                "shards by schema-digest affinity "
                                "(1 = classic in-process service)")
    serve_cmd.add_argument("--preload", nargs="*", default=["xmark"],
                           help="builtin schemas to register at startup")
    serve_cmd.add_argument("--slow-ms", type=float,
                           default=serve_defaults.slow_ms,
                           help="record requests slower than this many "
                                "ms in the slow-request ring (0 = off); "
                                "see docs/OBSERVABILITY.md")
    serve_cmd.add_argument("--slow-log", default=None,
                           help="append slow requests as JSON lines to "
                                "this file (requires --slow-ms)")
    serve_cmd.add_argument("--metrics-port", type=int,
                           default=serve_defaults.metrics_port,
                           help="also serve Prometheus GET /metrics on "
                                "this HTTP port (0 = wire op only)")
    serve_cmd.set_defaults(func=_cmd_serve)

    loadgen_defaults = LoadgenConfig()
    loadgen_cmd = commands.add_parser(
        "loadgen",
        help="closed-loop load generator against a running service",
        epilog="defaults: "
               f"{loadgen_defaults.clients} clients, "
               f"{loadgen_defaults.requests} requests, "
               f"{loadgen_defaults.n_queries}x"
               f"{loadgen_defaults.n_updates} pools, schema "
               f"{loadgen_defaults.schema} ({loadgen_defaults.source}). "
               "Repeat --schema (builtins or gen:<seed>) for a "
               "multi-schema workload that exercises a sharded service.",
    )
    loadgen_cmd.add_argument("--host", default=loadgen_defaults.host)
    loadgen_cmd.add_argument("--port", type=int,
                             default=loadgen_defaults.port)
    loadgen_cmd.add_argument("--schema", action="append",
                             help="schema ref sent with requests; repeat "
                                  "for a multi-schema workload "
                                  "(builtin name or gen:<seed>; "
                                  f"default {loadgen_defaults.schema})")
    loadgen_cmd.add_argument("--source", default=loadgen_defaults.source,
                             choices=["bench", "exprgen"],
                             help="workload pool: paper benchmark "
                                  "views/updates (xmark only; other "
                                  "schemas fall back to exprgen) or "
                                  "schema-aware random expressions")
    loadgen_cmd.add_argument("--queries", type=int,
                             default=loadgen_defaults.n_queries,
                             help="query pool size per schema")
    loadgen_cmd.add_argument("--updates", type=int,
                             default=loadgen_defaults.n_updates,
                             help="update pool size per schema")
    loadgen_cmd.add_argument("--clients", type=int,
                             default=loadgen_defaults.clients,
                             help="concurrent closed-loop connections")
    loadgen_cmd.add_argument("--requests", type=int,
                             default=loadgen_defaults.requests,
                             help="total requests across all clients")
    loadgen_cmd.add_argument("--seed", type=int,
                             default=loadgen_defaults.seed)
    loadgen_cmd.add_argument("--json", help="write the full report here")
    loadgen_cmd.add_argument("--expect-coalescing", action="store_true",
                             help="fail unless the admission queue "
                                  "actually coalesced requests: both "
                                  "batches > 0 and coalesced_requests "
                                  "> 0 after the run (CI smoke)")
    loadgen_cmd.add_argument("--shards", type=int, default=None,
                             help="fail unless the service reports this "
                                  "many shards and (for > 1) analyze "
                                  "traffic reached at least two of them")
    loadgen_cmd.add_argument("--scrape-metrics", action="store_true",
                             help="scrape the metrics op before/after "
                                  "the run, cross-check server-side "
                                  "histogram counts against the client "
                                  "request count, and report server "
                                  "percentiles")
    loadgen_cmd.add_argument("--timing-sample", type=int,
                             default=loadgen_defaults.timing_sample,
                             help="request a per-layer timing breakdown "
                                  "on every Nth request (0 = never)")
    loadgen_cmd.add_argument("--doc-queries", type=int,
                             default=loadgen_defaults.doc_queries,
                             help="extra doc.query requests per client "
                                  "against a shared generated document")
    loadgen_cmd.set_defaults(func=_cmd_loadgen)

    serve_bench_cmd = commands.add_parser(
        "serve-bench",
        help="serving acceptance numbers: batched vs unbatched modes, "
             "plus the sharded vs single-shard comparison",
    )
    serve_bench_cmd.add_argument("--requests", type=int, default=1200,
                                 help="requests per mode")
    serve_bench_cmd.add_argument("--clients", type=int, default=32)
    serve_bench_cmd.add_argument("--shards", type=int, default=2,
                                 help="shard count for the sharding "
                                      "comparison (<= 1 skips it)")
    serve_bench_cmd.add_argument("--store", default=None, type=_store_url,
                                 help="store URL to bench against "
                                      "(default: throwaway SQLite "
                                      "files per leg)")
    serve_bench_cmd.add_argument("--json",
                                 help="append a trajectory point to "
                                      "this file (BENCH_serve.json)")
    serve_bench_cmd.set_defaults(func=_cmd_serve_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
