"""Concurrent independence service: the serving layer over the engine.

``repro.serve`` turns the per-schema batch analysis engine into a
long-running, multi-tenant network service: a JSON-lines-over-TCP
asyncio server (:mod:`.server`) whose ``analyze`` endpoint answers
memoized pairs straight from the pair memo and funnels the rest
through a drain-on-idle admission queue (:mod:`.batching`) into
coalesced ``analyze_many`` calls, with every
verdict written through to the backend its store URL names
(:mod:`repro.storage`) and schemas hosted in an LRU-bounded registry
(:mod:`.registry`).

With ``shards > 1`` the service becomes a schema-affinity **router**
over a pool of shard worker processes (:mod:`.sharding`): each shard
owns a partition of the schema space (its own engines, admission
queue, and registry), all shards share one persistent verdict store,
and distinct schemas analyze truly in parallel on separate cores.

:mod:`.loadgen` is the closed-loop traffic generator used by the
benchmark gate and the CI smoke job.  See ``docs/ARCHITECTURE.md`` for
the layer map and ``docs/PROTOCOL.md`` for the wire reference.
"""

from .batching import MicroBatcher, WireVerdict
from .loadgen import (
    LoadgenConfig,
    dtd_text,
    generated_schema,
    run_loadgen,
    run_loadgen_sync,
    workload_pool,
    workload_pools,
)
from .protocol import ERROR_CODES, OPS, ProtocolError, decode_request, encode
from .registry import BUILTIN_SCHEMAS, SchemaRegistry, UnknownSchemaError
from .server import (
    ANALYSIS_MODES,
    IndependenceService,
    ServeConfig,
    ShardedService,
    make_service,
    run_service,
)
from .sharding import ShardLink, builtin_digest, shard_for

__all__ = [
    "ANALYSIS_MODES",
    "BUILTIN_SCHEMAS",
    "ERROR_CODES",
    "IndependenceService",
    "LoadgenConfig",
    "MicroBatcher",
    "OPS",
    "ProtocolError",
    "SchemaRegistry",
    "ServeConfig",
    "ShardLink",
    "ShardedService",
    "UnknownSchemaError",
    "WireVerdict",
    "builtin_digest",
    "decode_request",
    "dtd_text",
    "encode",
    "generated_schema",
    "make_service",
    "run_loadgen",
    "run_loadgen_sync",
    "run_service",
    "shard_for",
    "workload_pool",
    "workload_pools",
]
