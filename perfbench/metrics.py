"""Every metric the benchmark reports: unit, direction, and for each
per-layer metric the end-to-end metric and workload it should move.

``BENCHMARK.json`` lists the same names; ``tests/test_perfbench.py``
keeps the two in step.
"""

from __future__ import annotations

#: name -> (unit, better).  Reported with ``--trace 0`` on every
#: workload.  On the analyze workloads ``p50_ms``/``p90_ms`` are the
#: open-loop ``analyze`` latency and ``ops_per_s`` the closed-loop
#: ``analyze`` rate; on docs-mixed they are the ``doc.query`` latency and
#: all document operations per second.  The tail is p90, not p99: on
#: analyze-cold the p99 is set by the few full garbage collections of a
#: run (quartile spread 0.5 over ten seeds), on analyze-sharded by
#: scheduling of three processes on two cores (0.22).  The p99 is still
#: written to each run's results file.
END_TO_END = {
    "p50_ms": ("ms", "lower"),
    "p90_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "server_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}

#: name -> (unit, better, what it should move).  Reported with
#: ``--trace 1`` on every workload; a layer a workload's requests never
#: cross reads 0 there.
PER_LAYER = {
    "protocol.decode_us": ("us", "lower", "ops_per_s, p50_ms on analyze-warm"),
    "protocol.encode_us": ("us", "lower", "ops_per_s, p50_ms on analyze-warm"),
    "protocol.response_bytes": ("bytes", "lower",
                                "ops_per_s, p50_ms on analyze-warm"),
    "server.self_ms": ("ms", "lower", "p50_ms on analyze-warm"),
    "server.wire_ms": ("ms", "lower", "p50_ms on analyze-warm"),
    "batching.queue_wait_ms": ("ms", "lower",
                               "p50_ms on analyze-warm; ops_per_s on "
                               "analyze-cold"),
    "batching.flush_ms": ("ms", "lower", "p50_ms on analyze-warm; "
                          "ops_per_s on analyze-cold"),
    "batching.batch_size": ("count", "higher", "ops_per_s on analyze-cold"),
    "batching.coalesced_frac": ("ratio", "higher",
                                "ops_per_s on analyze-cold"),
    "batching.useful_pair_frac": ("ratio", "higher",
                                  "ops_per_s on analyze-cold"),
    "batching.sparse_frac": ("ratio", "higher", "ops_per_s on analyze-cold"),
    "sharding.router_ms": ("ms", "lower", "p50_ms on analyze-sharded"),
    "sharding.routed_skew": ("ratio", "lower", "p50_ms on analyze-sharded"),
    "engine.ms": ("ms", "lower", "ops_per_s, p90_ms on analyze-cold; "
                  "setup_s"),
    "engine.pair_hit_frac": ("ratio", "higher",
                             "ops_per_s, p90_ms on analyze-cold"),
    "engine.chain_hit_frac": ("ratio", "higher",
                              "ops_per_s, p90_ms on analyze-cold"),
    "engine.store_hit_frac": ("ratio", "higher",
                              "ops_per_s, p90_ms on analyze-cold"),
    "engine.universes_built": ("count", "lower", "p90_ms on analyze-cold; "
                               "setup_s"),
    "engine.universe_build_ms": ("ms", "lower", "p90_ms on analyze-cold; "
                                 "setup_s"),
    "engine.evictions": ("count", "lower", "ops_per_s on analyze-cold"),
    "infer.query_ms": ("ms", "lower", "ops_per_s, p90_ms on analyze-cold"),
    "infer.update_ms": ("ms", "lower", "ops_per_s, p90_ms on analyze-cold"),
    "infer.chains_per_expr": ("count", "lower",
                              "ops_per_s, p90_ms on analyze-cold"),
    "independence.pair_ms": ("ms", "lower",
                             "ops_per_s, p90_ms on analyze-cold"),
    "kbound.k": ("count", "lower", "ops_per_s, p90_ms on analyze-cold"),
    "storage.commit_ms": ("ms", "lower", "ops_per_s on analyze-cold"),
    "storage.save_ms": ("ms", "lower", "ops_per_s on docs-mixed"),
    "storage.run_steps_ms": ("ms", "lower", "p50_ms on docs-mixed"),
    "docstore.load_ms": ("ms", "lower", "ops_per_s on docs-mixed"),
    "docstore.kept_frac": ("ratio", "lower", "ops_per_s on docs-mixed"),
    "docstore.pushdown_frac": ("ratio", "higher", "p50_ms on docs-mixed"),
    "docstore.serialize_ms": ("ms", "lower", "p50_ms on docs-mixed"),
    "xquery.eval_ms": ("ms", "lower", "p50_ms on docs-mixed"),
    "xupdate.apply_ms": ("ms", "lower", "ops_per_s on docs-mixed"),
    "viewmaint.skip_frac": ("ratio", "higher", "ops_per_s on docs-mixed"),
    "viewmaint.refresh_ms": ("ms", "lower", "ops_per_s on docs-mixed"),
    "viewmaint.verdict_ms": ("ms", "lower", "ops_per_s on docs-mixed"),
    "docs.update_apply_p50_ms": ("ms", "lower", "ops_per_s on docs-mixed"),
    "docs.update_apply_p90_ms": ("ms", "lower", "ops_per_s on docs-mixed"),
    "docs.doc_load_p50_ms": ("ms", "lower", "ops_per_s on docs-mixed"),
    "obs.trace_overhead_frac": ("ratio", "lower", "validity of every "
                                "workload"),
    "loadgen.late_p99_ms": ("ms", "lower", "validity of every workload"),
    "ledger.client_ms": ("ms", "lower", "p50_ms on every workload"),
    "ledger.unexplained_frac": ("ratio", "lower", "validity of the ledger"),
}
