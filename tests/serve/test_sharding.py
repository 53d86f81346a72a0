"""Sharded serving: affinity routing, cross-shard state, warm starts.

The end-to-end tests here spawn real shard worker processes (the
``spawn`` start method pays an interpreter + import per worker), so
workloads are kept tiny; throughput claims live in
``benchmarks/test_serve_gate.py``, not here.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.loadgen import (
    LoadgenConfig,
    dtd_text,
    generated_schema,
    run_loadgen,
)
from repro.serve.protocol import OPS, UNKNOWN_DOC, ProtocolError
from repro.serve.registry import BUILTIN_SCHEMAS, UnknownSchemaError
from repro.serve.server import ServeConfig, ShardedService
from repro.serve.sharding import (
    builtin_digest,
    partition_preload,
    shard_for,
)

from .util import ServiceClient, running_service

#: Chosen so xmark (shard 0 of 2) and the generated schema (shard 1 of
#: 2) exercise both shards; pinned by test_workload_schemas_spread.
GEN_REF = "gen:11"

PAIRS = [
    ("//title", "delete //price"),
    ("//price", "delete //price"),
    ("/site/people/person/name", "delete //bidder"),
]


def _gen_register_params() -> dict:
    spec = generated_schema(int(GEN_REF.split(":")[1]))
    return {"root": spec.start, "dtd": dtd_text(spec), "name": GEN_REF}


class TestRoutingPrimitives:
    def test_shard_for_is_stable_and_in_range(self):
        digest = builtin_digest("xmark")
        assert shard_for(digest, 1) == 0
        for shards in (2, 3, 7):
            index = shard_for(digest, shards)
            assert 0 <= index < shards
            assert index == shard_for(digest, shards)  # deterministic

    def test_builtin_digests_distinct(self):
        digests = {builtin_digest(name) for name in BUILTIN_SCHEMAS}
        assert len(digests) == len(BUILTIN_SCHEMAS)

    def test_builtin_digest_unknown_name(self):
        with pytest.raises(UnknownSchemaError):
            builtin_digest("nope")

    def test_partition_preload_assigns_owners_only(self):
        names = tuple(BUILTIN_SCHEMAS)
        partitions = partition_preload(names, 3)
        assert sum(len(part) for part in partitions) == len(names)
        for index, part in enumerate(partitions):
            for name in part:
                assert shard_for(builtin_digest(name), 3) == index

    def test_routing_table_covers_every_op(self):
        assert set(ShardedService.ROUTING) == set(OPS)

    def test_route_digest_resolution(self):
        router = ShardedService(ServeConfig(port=0, shards=2))
        assert router._route_digest("xmark") == builtin_digest("xmark")
        literal = "ab" * 32
        assert router._route_digest(literal) == literal
        router._remember_alias("tenant", literal)
        assert router._route_digest("tenant") == literal
        with pytest.raises(UnknownSchemaError):
            router._route_digest("unregistered")

    def test_doc_routing_rejects_foreign_ids(self):
        router = ShardedService(ServeConfig(port=0, shards=2))
        for doc_id in ("d1", "s9-d1", "sX-d1", "shard", ""):
            with pytest.raises(ProtocolError) as err:
                router._link_for_doc(doc_id)
            assert err.value.code == UNKNOWN_DOC


class TestShardLinkFailure:
    def test_dead_link_fails_fast_instead_of_hanging(self):
        """After the shard side of a link dies, in-flight calls get a
        ConnectionError and *later* calls fail immediately -- they must
        never await a response that can no longer arrive."""
        from repro.serve.sharding import ShardLink

        async def run():
            connections = []

            async def handler(reader, writer):
                connections.append(writer)
                await reader.readline()  # swallow one request...
                writer.close()           # ...then die without answering

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            link = ShardLink(0, "127.0.0.1", port)
            await link.connect()
            try:
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(link.call("ping", {}),
                                           timeout=5)
                with pytest.raises(ConnectionError):
                    # Fail-fast path: no request is even written.
                    await asyncio.wait_for(link.call("ping", {}),
                                           timeout=5)
            finally:
                await link.aclose()
                server.close()
                await server.wait_closed()

        asyncio.run(run())


class TestShardedServiceEndToEnd:
    def test_verdicts_byte_identical_with_unsharded(self):
        """Topology may change speed, never answers."""

        async def run(shards: int):
            async with running_service(
                shards=shards, preload=("xmark",)
            ) as (_, host, port):
                async with ServiceClient(host, port) as client:
                    responses = []
                    for query, update in PAIRS:
                        response = await client.call(
                            "analyze", schema="xmark",
                            query=query, update=update,
                        )
                        responses.append({
                            key: value for key, value in response.items()
                            if key != "id"
                        })
                    return responses

        assert asyncio.run(run(1)) == asyncio.run(run(2))

    def test_workload_schemas_spread_across_shards(self):
        """xmark and the generated schema land on different shards, and
        traffic for each shows up only in its owner's counters."""

        async def run():
            async with running_service(
                shards=2, preload=("xmark",)
            ) as (_, host, port):
                async with ServiceClient(host, port) as client:
                    register = await client.call(
                        "schema.register", **_gen_register_params()
                    )
                    assert register["ok"], register
                    for ref in ("xmark", GEN_REF):
                        response = await client.call(
                            "analyze", schema=ref,
                            query="//*", update="delete //*",
                        )
                        assert response["ok"], response
                    stats = await client.call("stats")
                    listing = await client.call("schema.list")
                    return register, stats, listing

        register, stats, listing = asyncio.run(run())
        assert stats["shards"] == 2
        assert len(stats["per_shard"]) == 2
        routed = {entry["shard"]: entry["routed"]
                  for entry in stats["per_shard"]}
        assert all(count > 0 for count in routed.values()), routed
        # Affinity: each digest's engine exists on exactly one shard.
        gen_digest = register["schema"]
        owners = {
            digest: entry["shard"]
            for entry in stats["per_shard"]
            for digest in entry["registry"]["engines"]
        }
        assert owners[gen_digest] != owners[builtin_digest("xmark")]
        # schema.list is the union of both shards' registries.
        digests = {row["digest"] for row in listing["schemas"]}
        assert {gen_digest, builtin_digest("xmark")} <= digests
        # Aggregated batcher counters cover traffic from both shards,
        # under exactly the keys a worker reports.
        assert stats["batcher"]["requests"] >= 2
        for shard in stats["per_shard"]:
            assert set(shard["batcher"]) == set(stats["batcher"])

    def test_doc_ops_route_by_id_prefix(self):
        async def run():
            async with running_service(
                shards=2, preload=("xmark",)
            ) as (_, host, port):
                async with ServiceClient(host, port) as client:
                    await client.call("schema.register",
                                      **_gen_register_params())
                    docs = {}
                    for ref in ("xmark", GEN_REF):
                        loaded = await client.call(
                            "doc.load", schema=ref, bytes=800, seed=1
                        )
                        assert loaded["ok"], loaded
                        docs[ref] = loaded["doc"]
                    view = await client.call(
                        "view.register", doc=docs["xmark"],
                        name="titles", query="//title",
                    )
                    missing = await client.call("view.result",
                                                doc="s0-d99", name="x")
                    unloaded = await client.call("doc.unload",
                                                 doc=docs[GEN_REF])
                    return docs, view, missing, unloaded

        docs, view, missing, unloaded = asyncio.run(run())
        # Ids carry their owning shard: xmark lives on shard 0, the
        # generated schema on shard 1 (same hash the router uses).
        assert docs["xmark"].startswith("s0-")
        assert docs[GEN_REF].startswith("s1-")
        assert view["ok"]
        assert not missing["ok"]
        assert missing["error"]["code"] == "unknown-doc"
        assert unloaded["ok"] and unloaded["unloaded"]

    def test_schema_evict_routes_and_reports(self):
        async def run():
            async with running_service(
                shards=2, preload=("xmark",)
            ) as (_, host, port):
                async with ServiceClient(host, port) as client:
                    await client.call("schema.register",
                                      **_gen_register_params())
                    evicted = await client.call("schema.evict",
                                                schema=GEN_REF)
                    again = await client.call("schema.evict",
                                              schema=GEN_REF)
                    unknown = await client.call("schema.evict",
                                                schema="never-was")
                    return evicted, again, unknown

        evicted, again, unknown = asyncio.run(run())
        assert evicted["ok"] and evicted["evicted"]
        assert again["ok"] and not again["evicted"]
        assert unknown["ok"] and not unknown["evicted"]

    def test_protocol_error_contract_via_router(self):
        async def run():
            async with running_service(
                shards=2, preload=("xmark",)
            ) as (_, host, port):
                async with ServiceClient(host, port) as client:
                    unknown_op = await client.call("no.such.op")
                    unknown_schema = await client.call(
                        "analyze", schema="ghost",
                        query="//a", update="delete //b",
                    )
                    bad_params = await client.call(
                        "analyze", schema="xmark", query="//a"
                    )
                    # The connection survives all three errors.
                    pong = await client.call("ping")
                    return unknown_op, unknown_schema, bad_params, pong

        unknown_op, unknown_schema, bad_params, pong = asyncio.run(run())
        assert unknown_op["error"]["code"] == "unknown-op"
        assert unknown_schema["error"]["code"] == "unknown-schema"
        assert bad_params["error"]["code"] == "bad-params"
        assert pong["ok"] and pong["pong"]

    def test_cross_shard_warm_start(self, tmp_path):
        """Verdicts computed by shard processes serve a different
        topology from the shared store without rebuilding universes."""
        store = f"sqlite:///{tmp_path / 'verdicts.sqlite'}"
        spec_params = _gen_register_params()

        async def sharded_run():
            async with running_service(
                shards=2, store_path=store, preload=("xmark",)
            ) as (_, host, port):
                async with ServiceClient(host, port) as client:
                    await client.call("schema.register", **spec_params)
                    for ref in ("xmark", GEN_REF):
                        for query, update in PAIRS:
                            response = await client.call(
                                "analyze", schema=ref,
                                query=query, update=update,
                            )
                            assert response["ok"], response
                    stats = await client.call("stats")
                    return stats["store"]["verdicts"]

        async def replay_unsharded():
            async with running_service(
                store_path=store, preload=("xmark",)
            ) as (_, host, port):
                async with ServiceClient(host, port) as client:
                    await client.call("schema.register", **spec_params)
                    for ref in ("xmark", GEN_REF):
                        for query, update in PAIRS:
                            response = await client.call(
                                "analyze", schema=ref,
                                query=query, update=update,
                            )
                            assert response["ok"], response
                    return await client.call("stats")

        verdicts = asyncio.run(sharded_run())
        assert verdicts > 0
        stats = asyncio.run(replay_unsharded())
        engines = stats["registry"]["engines"].values()
        assert sum(engine["store_hits"] for engine in engines) \
            == 2 * len(PAIRS)
        # The warm-start property: store hits never build universes.
        assert all(engine["universes_built"] == 0 for engine in engines)

    def test_loadgen_multischema_run(self, tmp_path):
        """The two-schema loadgen workload drives a sharded service
        with zero errors and traffic on both shards."""
        store = f"sqlite:///{tmp_path / 'verdicts.sqlite'}"

        async def run():
            async with running_service(
                shards=2, store_path=store, preload=("xmark",)
            ) as (_, host, port):
                return await run_loadgen(LoadgenConfig(
                    host=host, port=port,
                    schema=("xmark", GEN_REF), source="bench",
                    n_queries=3, n_updates=3,
                    clients=4, requests=40, seed=5,
                ))

        report = asyncio.run(run())
        assert report["errors"] == 0, report["error_samples"]
        assert report["completed"] == 40
        assert report["service"]["shards"] == 2
        routing = report["service"]["shard_routing"]
        assert sum(1 for count in routing.values() if count > 0) == 2
        assert report["workload"]["schemas"] == ["xmark", GEN_REF]
