"""The four workloads: inputs from the seed, set-up, measured phases.

Every workload generates its inputs in this process from ``--seed`` and
sends only those inputs to the service.  A workload object is used for
one run: :meth:`setup` runs once per server instance, :meth:`measure`
once on the last instance, :meth:`check` afterwards (outside any timed
region).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import statistics
from dataclasses import dataclass, field

from repro.analysis.dynamic import differs_on
from repro.schema.catalog import xmark_dtd
from repro.schema.dtd import DTD
from repro.testkit.differential import is_pure_delete, schema_preserving_on
from repro.xmldm.generator import generate_document
from repro.xmldm.parse import parse_xml
from repro.xmldm.serialize import serialize
from repro.xquery.ast import ROOT_VAR
from repro.xquery.evaluator import evaluate_query
from repro.xquery.parser import parse_query
from repro.xupdate.evaluator import apply_update
from repro.xupdate.parser import parse_update

from . import ledger, probes
from .loadgen import PhaseResult, closed_loop, open_loop, quantile
from .trace import Tracer
from .wire import Connection, ServerProcess, dumps

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "analyze.json")

#: An open-loop run is invalid when the generator itself sent this late.
LATE_P99_LIMIT_MS = 10.0
#: Pairs per run whose "independent" verdict is re-checked dynamically.
DYNAMIC_SAMPLE = 24


@dataclass
class RunContext:
    work: str
    seed: int
    seconds: float
    trace: bool
    connections: int
    tracer: Tracer = field(default_factory=Tracer)


@dataclass
class Outcome:
    """What one measured run produced, before it becomes JSON."""

    metrics: dict[str, float] = field(default_factory=dict)
    ops: dict[str, dict[str, int]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    #: Latencies (ms) of the requests ``p50_ms``/``p90_ms`` describe.
    latencies: list[float] = field(default_factory=list)

    @classmethod
    def merge(cls, outcomes: list["Outcome"]) -> "Outcome":
        """Median of each metric over the instances, except the latency
        quantiles, which come from all instances' samples together (a
        tail estimate needs the samples, not three small tails)."""
        merged = cls()
        for name in outcomes[0].metrics:
            merged.metrics[name] = statistics.median(
                outcome.metrics[name] for outcome in outcomes)
        for outcome in outcomes:
            merged.latencies.extend(outcome.latencies)
        for name, q in (("p50_ms", 0.50), ("p90_ms", 0.90),
                        ("p99_ms", 0.99)):
            if merged.latencies:
                merged.metrics[name] = quantile(merged.latencies, q)
        for outcome in outcomes:
            merged.problems.extend(outcome.problems)
            for op, counts in outcome.ops.items():
                entry = merged.ops.setdefault(op, {"attempted": 0,
                                                   "completed": 0})
                entry["attempted"] += counts["attempted"]
                entry["completed"] += counts["completed"]
        return merged

    def count(self, result: PhaseResult) -> None:
        for sample in result.samples:
            entry = self.ops.setdefault(sample.payload["op"],
                                        {"attempted": 0, "completed": 0})
            entry["attempted"] += 1
            entry["completed"] += int(sample.ok)


def load_golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


def _dtd(golden: dict, ref: str) -> DTD:
    if ref == "xmark":
        return xmark_dtd()
    entry = golden["schemas"][ref]
    return DTD.from_dtd_text(entry["root"], entry["dtd"])


async def _snapshot(conn: Connection) -> tuple[dict, dict]:
    stats = await conn.checked({"op": "stats"})
    metrics = await conn.checked({"op": "metrics"})
    return stats, metrics["snapshot"]


def _latencies_ms(result: PhaseResult, op: str | None = None) -> list[float]:
    return [sample.latency * 1e3 for sample in result.samples
            if op is None or sample.payload["op"] == op]


def _trace_phase(tracer: Tracer, result: PhaseResult) -> None:
    for sample in result.samples:
        if sample.ok:
            tracer.add_request(sample.payload["op"], sample.payload["id"],
                               sample.due, sample.done,
                               sample.response.get("timing"))


def _protocol_probe(tracer: Tracer, result: PhaseResult) -> dict:
    """Time the wire codec on a sample of this run's own traffic."""
    rng = random.Random(0)
    samples = [s for s in result.samples if s.ok]
    chosen = rng.sample(samples, min(50, len(samples)))
    lines = [dumps({k: v for k, v in s.payload.items() if k != "timing"})
             for s in chosen]
    results = [{k: v for k, v in s.response.items()
                if k not in ("id", "ok", "timing")} for s in chosen]
    figures = probes.protocol(tracer, lines, results)
    figures["protocol.response_bytes"] = (
        statistics.mean(s.nbytes for s in samples) if samples else 0.0)
    return figures


class AnalyzeWorkload:
    """analyze-warm, analyze-cold and analyze-sharded."""

    def __init__(self, name: str, ctx: RunContext):
        self.name = name
        self.ctx = ctx
        self.golden = load_golden()
        self.rng = random.Random(f"{ctx.seed}/{name}")
        self.expected: dict[tuple[str, str, str], list] = {}
        if name == "analyze-cold":
            self.refs = list(self.golden["cold"])
            for ref in self.refs:
                for q, u, v in self.golden["cold"][ref]["pairs"]:
                    self.expected[(ref, q, u)] = v
            self.stream: list[tuple[str, str, str]] = []
            self.cursor = 0
            # A third of the capacity of a slow hour on a shared 2-core
            # machine: at 250/s the open loop queued whenever the
            # machine slowed, and p50 moved with it.
            self.rate, self.inflight = 100.0, 4
        else:
            sharded = name == "analyze-sharded"
            self.refs = ["xmark", "gen:11"] if sharded else ["xmark"]
            for ref in self.refs:
                pool = self.golden["warm"][ref]
                for i, q in enumerate(pool["queries"]):
                    for j, u in enumerate(pool["updates"]):
                        self.expected[(ref, q, u)] = pool["verdicts"][i][j]
            # Three server processes share the cores on the sharded run.
            self.rate, self.inflight = (600.0 if sharded else 1000.0), 8
        self.instance = 0

    # -- inputs ----------------------------------------------------------

    def _cold_stream(self, opening: int) -> list[tuple[str, str, str]]:
        """The cold request stream of one server instance.

        The open-loop phase gets the first ``opening`` pairs of the pools
        and the closed loop the rest, so every run does the same work;
        the seed shuffles the order within each part.  Schemas take
        turns, so every stretch carries the same mix of cheap and costly
        schemas.
        """
        per = -(-opening // len(self.refs))
        stream = []
        for part in (slice(0, per), slice(per, None)):
            turns = []
            for ref in self.refs:
                pairs = [(ref, q, u) for q, u, _ in
                         self.golden["cold"][ref]["pairs"][part]]
                self.rng.shuffle(pairs)
                turns.append(pairs)
            stream.extend(pair for turn in zip(*turns) for pair in turn)
        return stream

    def next_pair(self) -> tuple[str, str, str]:
        if self.name == "analyze-cold":
            pair = self.stream[self.cursor % len(self.stream)]
            self.cursor += 1
            return pair
        ref = self.refs[self.rng.randrange(len(self.refs))]
        pool = self.golden["warm"][ref]
        return (ref, self.rng.choice(pool["queries"]),
                self.rng.choice(pool["updates"]))

    def request(self, timing: bool):
        def make(_index: int) -> dict:
            ref, query, update = self.next_pair()
            payload = {"op": "analyze", "schema": ref, "query": query,
                       "update": update}
            if timing:
                payload["timing"] = True
            return payload
        return make

    # -- server ----------------------------------------------------------

    def server_args(self) -> list[str]:
        self.instance += 1
        if self.name == "analyze-sharded":
            return ["--shards", "2"]
        if self.name == "analyze-cold":
            path = os.path.join(self.ctx.work, f"cold-{self.instance}.db")
            return ["--store", f"sqlite:///{path}"]
        return []

    async def setup(self, conn: Connection) -> list[str]:
        """Register schemas, then warm memos (warm/sharded) or build the
        schema universes (cold).  Returns verdict mismatches."""
        problems = []
        self.cursor = 0
        for ref in self.refs:
            if ref.startswith("gen:"):
                entry = self.golden["schemas"][ref]
                await conn.checked({"op": "schema.register", "name": ref,
                                    "root": entry["root"],
                                    "dtd": entry["dtd"]})
        if self.name == "analyze-cold":
            for ref in self.refs:
                query, update = self.golden["cold"][ref]["warmup"]
                for k in range(1, self.golden["max_k"] + 1):
                    await conn.checked({"op": "analyze", "schema": ref,
                                        "query": query, "update": update,
                                        "k": k})
            return problems
        for ref in self.refs:
            pool = self.golden["warm"][ref]
            response = await conn.checked({
                "op": "matrix", "schema": ref,
                "queries": pool["queries"], "updates": pool["updates"],
            })
            got = [[bool(v) for v in row] for row in response["independent"]]
            want = [[bool(v[0]) for v in row] for row in pool["verdicts"]]
            if got != want:
                problems.append(f"{ref}: matrix verdicts differ from golden")
        return problems

    # -- measurement -----------------------------------------------------

    async def measure(self, server: ServerProcess, conns: list[Connection],
                      seconds: float) -> Outcome:
        ctx = self.ctx
        out = Outcome()
        half = seconds / 2
        if self.name == "analyze-cold":
            opening = self.rate * (half / 2 if ctx.trace else half)
            self.stream = self._cold_stream(int(opening) * (1 + ctx.trace))
        phases: list[PhaseResult] = []
        if not ctx.trace:
            opened = await open_loop(conns, self.request(False), self.rate,
                                     half)
            # Peak memory after a fixed amount of work, not a timed one.
            rss = server.peak_rss_mb()
            closed = await closed_loop(conns, self.request(False),
                                       self.inflight, half)
            phases = [opened, closed]
            out.latencies = _latencies_ms(opened)
            out.metrics = {"ops_per_s": closed.completed / closed.seconds,
                           "server_rss_mb": rss}
        else:
            plain = await open_loop(conns, self.request(False), self.rate,
                                    half / 2)
            stats0, metrics0 = await _snapshot(conns[0])
            traced = await open_loop(conns, self.request(True), self.rate,
                                     half / 2)
            closed = await closed_loop(conns, self.request(True),
                                       self.inflight, half)
            stats1, metrics1 = await _snapshot(conns[0])
            phases = [plain, traced, closed]
            out.metrics = self._ledger(plain, traced, closed, stats0, stats1,
                                       metrics0, metrics1)
        late = [sample.late * 1e3 for sample in phases[0].samples]
        late_p99 = quantile(late, 0.99)
        if late_p99 > LATE_P99_LIMIT_MS:
            out.problems.append(
                f"generator fell behind: late p99 {late_p99:.1f} ms")
        if ctx.trace:
            out.metrics["loadgen.late_p99_ms"] = late_p99
            unexplained = out.metrics["ledger.unexplained_frac"]
            if self.name == "analyze-warm" and \
                    unexplained > ledger.LEDGER_BOUND:
                out.problems.append(
                    f"ledger leaves {unexplained:.0%} of the client "
                    f"median unexplained")
        for phase in phases:
            out.count(phase)
        out.problems.extend(self.check(phases))
        return out

    def _ledger(self, plain, traced, closed, stats0, stats1, metrics0,
                metrics1) -> dict:
        tracer = self.ctx.tracer
        _trace_phase(tracer, traced)
        _trace_phase(tracer, closed)
        spans = ledger.span_ledger(tracer, "analyze")
        figures = {
            "server.wire_ms": spans["wire"],
            "server.self_ms": spans["server"],
            "batching.queue_wait_ms": spans["queue_wait"],
            "engine.ms": spans["engine"],
            "storage.commit_ms": spans["store"],
            "sharding.router_ms": spans["router"],
            "ledger.client_ms": spans["client"],
            "ledger.unexplained_frac": spans["unexplained_frac"],
        }
        plain_p50 = quantile(_latencies_ms(plain), 0.5)
        traced_p50 = quantile(_latencies_ms(traced), 0.5)
        figures["obs.trace_overhead_frac"] = (traced_p50 - plain_p50) \
            / plain_p50
        figures.update(ledger.stats_delta(stats0, stats1))
        figures.update(ledger.metrics_delta(metrics0, metrics1))
        figures.update(_protocol_probe(tracer, closed))
        main = self.refs[0]
        sample = self.rng.sample(
            [key for key in self.expected if key[0] == main], 40)
        figures.update(probes.inference(
            tracer, _dtd(self.golden, main),
            [(q, u, self.expected[(ref, q, u)][1]) for ref, q, u in sample]))
        figures.update(self._document_probes(main))
        return figures

    def _document_probes(self, ref: str) -> dict:
        """The document layers on this workload's own schema and
        expressions, over a small generated document."""
        dtd = _dtd(self.golden, ref)
        tree = generate_document(dtd, 20_000, seed=self.ctx.seed)
        keys = [key for key in self.expected if key[0] == ref]
        chosen = self.rng.sample(keys, 8)
        return probes.documents(
            self.ctx.tracer, dtd, serialize(tree.store, tree.root),
            [q for _, q, _ in chosen], [u for _, _, u in chosen],
            [chosen[0][1]])

    # -- correctness -----------------------------------------------------

    def check(self, phases: list[PhaseResult]) -> list[str]:
        """Golden verdicts for every answer, then a dynamic re-check of a
        sample of pairs the service called independent."""
        problems = []
        independent = set()
        for phase in phases:
            for sample in phase.samples:
                if not sample.ok:
                    problems.append(f"request failed: {sample.response}")
                    continue
                p = sample.payload
                key = (p["schema"], p["query"], p["update"])
                want = self.expected[key]
                got = sample.response
                if [int(got["independent"]), got["k"], got["k_query"],
                        got["k_update"]] != want:
                    problems.append(f"verdict {got} != golden {want} "
                                    f"for {key}")
                elif got["independent"]:
                    independent.add(key)
        # The soundness theorem covers schema-preserving executions (and
        # pure deletes); an update that breaks validity, such as an
        # insert beside the root element, is outside it and skipped.
        candidates = sorted(independent)
        random.Random(self.ctx.seed).shuffle(candidates)
        documents, checked = {}, 0
        for ref, query, update in candidates:
            if checked == DYNAMIC_SAMPLE:
                break
            if ref not in documents:
                dtd = _dtd(self.golden, ref)
                documents[ref] = (dtd, generate_document(
                    dtd, 3_000, seed=self.ctx.seed))
            dtd, tree = documents[ref]
            parsed = parse_update(update)
            if not (is_pure_delete(parsed)
                    or schema_preserving_on(parsed, tree, dtd)):
                continue
            checked += 1
            if differs_on(parse_query(query), parsed, tree):
                problems.append(f"called independent but the answer "
                                f"changed: {(ref, query, update)}")
        return problems[:20]


# ---------------------------------------------------------------------------
# docs-mixed
# ---------------------------------------------------------------------------

#: Views kept on the resident document; each refreshes in a few ms.
VIEWS = {
    "people": "/site/people/person/name",
    "increases": "/site/open_auctions/open_auction/bidder/increase",
    "current": ("for $a in /site/open_auctions/open_auction return "
                "if ($a/bidder/increase) then $a/current else ()"),
    "prices": "/site/closed_auctions/closed_auction/price",
    "items": "/site/regions//item",
    "texts": "(/site//description, /site//annotation, /site//emailaddress)",
    "nohome": ("for $p in /site/people/person return "
               "if (not($p/homepage)) then $p/name else ()"),
    "initial": "/site/open_auctions/open_auction/initial",
    "interests": "/site/people/person/profile/interest",
    "payments": "/site/regions/*/item/payment",
}

#: One update cycle.  Every insert is undone by a delete and every
#: rename by its reverse later in the cycle, so from the second cycle on
#: the document passes through the same states again and its size stays
#: steady.
UPDATE_CYCLE = [
    "for $x in /site/people/person/profile return "
    "insert <interest/> as first into $x",
    "for $x in /site/open_auctions/open_auction return "
    "insert <bidder><date>d</date><time>t</time><personref/>"
    "<increase>i</increase></bidder> into $x",
    "for $x in //bold return rename $x as emph",
    "for $x in /site/closed_auctions/closed_auction/price return "
    "replace $x with <price>0</price>",
    "delete /site/people/person/profile/interest",
    "delete /site/open_auctions/open_auction/bidder",
    "for $x in //emph return rename $x as bold",
    "for $x in /site/regions/*/item/payment return "
    "replace $x with <payment>cash</payment>",
]

#: ``doc.query`` on the resident (updated) document: materialized.
RESIDENT_QUERIES = [
    "/site/people/person/name",
    "/site/people/person/profile/interest",
    "/site/open_auctions/open_auction/bidder/increase",
    "/site/closed_auctions/closed_auction/price",
    "//bold",
]

#: ``doc.query`` on the persisted projection: pushdown.  Every query is
#: in the document's ``project_for`` list, so the projection covers it.
PUSHDOWN_QUERIES = [
    "/site/people/person/name",
    "//emailaddress",
    "/site/regions//item/name",
    "/site/closed_auctions/closed_auction/price",
    "/site/open_auctions/open_auction/initial",
]

#: What freshly loaded documents are projected for.
FRESH_PROJECT = ["/site/people/person/name", "//emailaddress"]

#: Generator seeds and byte targets of the documents.  They are the same
#: in every run: XMark documents of one byte size still differ in shape
#: (how many auctions, people, text runs), and across seeds that moved
#: every figure of this workload far more than run-to-run noise did.
RESIDENT_DOC = (1, 100_000)
PUSHDOWN_DOC = (2, 100_000)
FRESH_DOCS = [(3 + i, 15_000) for i in range(4)]
LIMIT = 10
#: One lane's repeating step list: ``M`` a materialized read of the
#: lane's resident document, ``P`` a pushdown read of the persisted
#: projection, ``L``/``X`` a projected load of a fresh document and its
#: unload.  Reads are two thirds materialized, one third pushdown.
STEPS = "UMMPMMPUMMPMMPLX"
#: Lanes share each connection; a lane has one request in flight, so its
#: own operations reach the server in order.
LANES_PER_CONNECTION = 2
#: Update cycles each lane runs before the timed session, so timing
#: starts on the repeating document states.
WARMUP_CYCLES = 2


def _xml(seed: int, size: int) -> str:
    tree = generate_document(xmark_dtd(), size, seed=seed)
    return serialize(tree.store, tree.root)


class Lane:
    """A closed-loop session over its own resident document, in a fixed
    step order; the seed rotates which query each read step picks."""

    def __init__(self, index: int, seed: int, fresh_xml: list[str]):
        self.index = index
        self.fresh_xml = fresh_xml
        self.doc = f"main{index}"
        rng = random.Random(f"{seed}/docs/{index}")
        self.resident = rng.randrange(len(RESIDENT_QUERIES))
        self.pushdown = rng.randrange(len(PUSHDOWN_QUERIES))
        self.step = 0
        self.updates = 0
        self.loads = 0
        #: ``(payload, updates applied before it)`` per resident-doc op.
        self.log: list[tuple[dict, int]] = []

    def make(self, timing: bool):
        def make(_index: int) -> dict:
            kind = STEPS[self.step % len(STEPS)]
            self.step += 1
            if kind == "U":
                payload = {"op": "update.apply", "doc": self.doc,
                           "update": UPDATE_CYCLE[self.updates
                                                  % len(UPDATE_CYCLE)]}
                self.log.append((payload, self.updates))
                self.updates += 1
            elif kind == "M":
                self.resident += 1
                payload = {"op": "doc.query", "schema": "xmark",
                           "doc": self.doc, "limit": LIMIT,
                           "query": RESIDENT_QUERIES[
                               self.resident % len(RESIDENT_QUERIES)]}
                self.log.append((payload, self.updates))
            elif kind == "P":
                self.pushdown += 1
                payload = {"op": "doc.query", "schema": "xmark",
                           "doc": "pd", "limit": LIMIT,
                           "query": PUSHDOWN_QUERIES[
                               self.pushdown % len(PUSHDOWN_QUERIES)]}
            elif kind == "L":
                self.loads += 1
                payload = {"op": "doc.load", "schema": "xmark",
                           "doc": f"fresh{self.index}-{self.loads}",
                           "project_for": FRESH_PROJECT,
                           "xml": self.fresh_xml[self.loads
                                                 % len(self.fresh_xml)]}
            else:
                payload = {"op": "doc.unload",
                           "doc": f"fresh{self.index}-{self.loads}"}
            if timing:
                payload["timing"] = True
            return payload
        return make


class DocsWorkload:
    """docs-mixed: updates and reads on resident documents beside
    pushdown reads and projected loads on persisted ones.

    Each :class:`Lane` has one request in flight, so its operations
    reach the server in a known order and the replay can check every
    answer.
    """

    name = "docs-mixed"

    def __init__(self, ctx: RunContext):
        self.ctx = ctx
        self.rng = random.Random(f"{ctx.seed}/docs")
        self.resident_xml = _xml(*RESIDENT_DOC)
        self.pushdown_xml = _xml(*PUSHDOWN_DOC)
        self.fresh_xml = [_xml(*doc) for doc in FRESH_DOCS]
        self.instance = 0
        self.lanes: list[Lane] = []

    def server_args(self) -> list[str]:
        self.instance += 1
        path = os.path.join(self.ctx.work, f"docs-{self.instance}.db")
        return ["--store", f"sqlite:///{path}"]

    async def setup(self, conn: Connection) -> list[str]:
        self.lanes = [Lane(index, self.ctx.seed, self.fresh_xml)
                      for index in range(LANES_PER_CONNECTION
                                         * self.ctx.connections)]
        for lane in self.lanes:
            await conn.checked({"op": "doc.load", "schema": "xmark",
                                "doc": lane.doc, "xml": self.resident_xml})
            for name, query in VIEWS.items():
                await conn.checked({"op": "view.register", "doc": lane.doc,
                                    "name": name, "query": query})
        await conn.checked({"op": "doc.load", "schema": "xmark",
                            "doc": "pd", "xml": self.pushdown_xml,
                            "project_for": PUSHDOWN_QUERIES})
        await conn.checked({"op": "doc.unload", "doc": "pd"})
        return []

    # -- the session -----------------------------------------------------

    async def _session(self, conns: list[Connection], seconds: float,
                       timing: bool, count: int | None = None
                       ) -> list[PhaseResult]:
        """Every lane on its own connection for ``seconds`` (or until it
        has sent ``count`` operations)."""
        return list(await asyncio.gather(*(
            closed_loop([conns[index % len(conns)]], lane.make(timing), 1,
                        seconds, count)
            for index, lane in enumerate(self.lanes))))

    async def measure(self, server: ServerProcess, conns: list[Connection],
                      seconds: float) -> Outcome:
        ctx = self.ctx
        out = Outcome()
        warmup = await self._session(
            conns, math.inf, False,
            count=WARMUP_CYCLES * len(UPDATE_CYCLE) * len(STEPS))
        # Peak memory after a fixed amount of work, not a timed one.
        rss = server.peak_rss_mb()
        if not ctx.trace:
            phases = await self._session(conns, seconds, False)
            out.latencies = [x for phase in phases
                             for x in _latencies_ms(phase, "doc.query")]
            out.metrics = {
                "ops_per_s": sum(p.completed / p.seconds for p in phases),
                "server_rss_mb": rss,
            }
        else:
            plain = await self._session(conns, seconds / 2, False)
            stats0, metrics0 = await _snapshot(conns[0])
            traced = await self._session(conns, seconds / 2, True)
            stats1, metrics1 = await _snapshot(conns[0])
            phases = plain + traced
            out.metrics = self._ledger(plain, traced, stats0, stats1,
                                       metrics0, metrics1)
        views = {}
        for lane in self.lanes:
            for name in VIEWS:
                response = await conns[0].checked(
                    {"op": "view.result", "doc": lane.doc, "name": name})
                views[(lane.doc, name)] = response["count"]
        for phase in warmup + phases:
            out.count(phase)
        out.problems.extend(self.check(warmup + phases, views))
        return out
    def _ledger(self, plain, traced, stats0, stats1, metrics0,
                metrics1) -> dict:
        tracer = self.ctx.tracer

        def lat(phases, op):
            return [x for p in phases for x in _latencies_ms(p, op)]

        for phase in traced:
            _trace_phase(tracer, phase)
        spans = ledger.span_ledger(tracer, "doc.query")
        figures = {
            "server.wire_ms": spans["wire"],
            "server.self_ms": spans["server"],
            "batching.queue_wait_ms": spans["queue_wait"],
            "engine.ms": spans["engine"],
            "storage.commit_ms": 0.0,
            "sharding.router_ms": spans["router"],
            "ledger.client_ms": spans["client"],
            "ledger.unexplained_frac": spans["unexplained_frac"],
            "docs.update_apply_p50_ms": quantile(lat(plain, "update.apply"),
                                                 0.5),
            "docs.update_apply_p90_ms": quantile(lat(plain, "update.apply"),
                                                 0.9),
            "docs.doc_load_p50_ms": quantile(lat(plain, "doc.load"), 0.5),
            "loadgen.late_p99_ms": 0.0,
        }
        plain_p50 = quantile(lat(plain, "doc.query"), 0.5)
        figures["obs.trace_overhead_frac"] = (
            quantile(lat(traced, "doc.query"), 0.5) - plain_p50) / plain_p50
        applied = [s.response for p in plain + traced for s in p.samples
                   if s.ok and s.payload["op"] == "update.apply"]
        skipped = sum(r["skipped"] for r in applied)
        figures["viewmaint.skip_frac"] = skipped / max(
            1, skipped + sum(len(r["refreshed"]) for r in applied))
        figures.update(ledger.stats_delta(stats0, stats1))
        figures.update(ledger.metrics_delta(metrics0, metrics1))
        figures.update(_protocol_probe(tracer, traced[0]))
        dtd = xmark_dtd()
        golden = load_golden()["warm"]["xmark"]
        pairs = [(q, u, golden["verdicts"][i][j][1])
                 for i, q in enumerate(golden["queries"])
                 for j, u in enumerate(golden["updates"])]
        figures.update(probes.inference(tracer, dtd,
                                        self.rng.sample(pairs, 40)))
        document = probes.documents(
            tracer, dtd, self.resident_xml, list(VIEWS.values()),
            UPDATE_CYCLE, FRESH_PROJECT)
        # The served loads' own kept share replaces the in-process one.
        loads = [s.response for p in plain + traced for s in p.samples
                 if s.ok and s.payload["op"] == "doc.load"]
        if loads:
            document["docstore.kept_frac"] = statistics.mean(
                r["nodes"] / r["nodes_seen"] for r in loads)
        figures.update(document)
        return figures

    # -- correctness -----------------------------------------------------

    def check(self, phases: list[PhaseResult], views: dict) -> list[str]:
        """Replay each lane's resident document on a dict-store copy
        parsed from the same bytes and compare every answer."""
        problems = []
        for phase in phases:
            for sample in phase.samples:
                if not sample.ok:
                    problems.append(f"request failed: {sample.response}")
        reference = Replay(self.resident_xml)
        by_payload = {id(s.payload): s for p in phases for s in p.samples}
        for lane in self.lanes:
            for payload, before in lane.log:
                sample = by_payload.get(id(payload))
                if sample is None or not sample.ok:
                    continue
                got = sample.response
                if payload["op"] == "update.apply":
                    stale = reference.changed_views(before) \
                        - set(got["refreshed"])
                    if stale:
                        problems.append(
                            f"{lane.doc}: update {before} skipped views "
                            f"whose answer changed: {sorted(stale)}")
                    continue
                want = reference.answers(before, payload["query"])
                if (got["count"], got["answers"]) != want:
                    problems.append(
                        f"{lane.doc}: {payload['query']!r} after {before} "
                        f"updates: {got['count']} answers, want {want[0]}")
            final = reference.view_counts(lane.updates)
            served = {name: views[(lane.doc, name)] for name in VIEWS}
            if served != final:
                problems.append(f"{lane.doc}: view counts {served} != "
                                f"replay {final}")
        pushdown = Replay(self.pushdown_xml)
        for phase in phases:
            for sample in phase.samples:
                payload = sample.payload
                if not sample.ok:
                    continue
                if payload["op"] == "doc.query" and payload["doc"] == "pd":
                    got = sample.response
                    want = pushdown.answers(0, payload["query"])
                    if got["mode"] != "pushdown" or \
                            (got["count"], got["answers"]) != want:
                        problems.append(f"pushdown {payload['query']!r}: "
                                        f"{got['count']} answers "
                                        f"({got['mode']}), want {want[0]}")
                elif payload["op"] == "doc.load":
                    got = sample.response
                    if not got["projected"] or \
                            not 0 < got["nodes"] <= got["nodes_seen"]:
                        problems.append(f"doc.load {got}")
        return problems[:20]


class Replay:
    """The reference: the same XML bytes in the dict store, the same
    updates applied in the same order, evaluated by the reference
    evaluator.

    The update cycle returns the document to the same states from its
    second pass on, so only the first two passes are computed; the
    replay checks that claim before relying on it.
    """

    def __init__(self, xml: str):
        self.states = [parse_xml(xml)]
        self.period = len(UPDATE_CYCLE)
        self._answers: dict[tuple[int, str], tuple] = {}
        self._views: dict[int, dict[str, list[str]]] = {}
        self._periodic: bool | None = None

    def _state(self, updates: int):
        if updates >= 2 * self.period:
            if self._periodic is None:
                self._tree(2 * self.period)
                first = self.states[self.period]
                second = self.states[2 * self.period]
                self._periodic = serialize(first.store, first.root) == \
                    serialize(second.store, second.root)
            if self._periodic:
                updates = self.period + (updates - self.period) % self.period
        return self._tree(updates)

    def _tree(self, updates: int):
        while len(self.states) <= updates:
            tree = self.states[-1].clone()
            update = parse_update(UPDATE_CYCLE[(len(self.states) - 1)
                                               % self.period])
            apply_update(update, tree.store, {ROOT_VAR: [tree.root]})
            self.states.append(tree)
        return self.states[updates]

    def _run(self, tree, query: str) -> list[str]:
        locs = evaluate_query(parse_query(query), tree.store,
                              {ROOT_VAR: [tree.root]})
        return [serialize(tree.store, loc) for loc in locs]

    def answers(self, updates: int, query: str) -> tuple[int, list[str]]:
        tree = self._state(updates)
        key = (id(tree), query)
        if key not in self._answers:
            found = self._run(tree, query)
            self._answers[key] = (len(found), found[:LIMIT])
        return self._answers[key]

    def _view_results(self, updates: int) -> dict[str, list[str]]:
        tree = self._state(updates)
        if id(tree) not in self._views:
            self._views[id(tree)] = {name: self._run(tree, query)
                                     for name, query in VIEWS.items()}
        return self._views[id(tree)]

    def changed_views(self, before: int) -> set[str]:
        """Views whose answer the ``before``-th update changed."""
        old, new = self._view_results(before), self._view_results(before + 1)
        return {name for name in VIEWS if old[name] != new[name]}

    def view_counts(self, updates: int) -> dict[str, int]:
        return {name: len(found)
                for name, found in self._view_results(updates).items()}
