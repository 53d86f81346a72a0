"""Batch independence engine: one schema compilation, many verdicts.

The paper's promise is that the static analysis is cheap enough to run
ahead of *every* update against *every* materialized view.  The one-shot
:func:`~repro.analysis.independence.analyze` entry point re-derives the
k-indexed universe, the chain DAG, and both inference tables on each
call; :class:`AnalysisEngine` amortizes all of that across a workload:

* the leveled universe and the query/update inference tables are built
  once per ``(schema_digest, k)`` and cached on the engine;
* parsed ASTs, multiplicities, and inferred chain sets are cached per
  normalized source text (or per structurally-equal AST node), so a view
  analyzed against a thousand updates pays its inference cost once;
* whole-pair verdicts are memoized, so repeated update *shapes* (the
  common case in an update stream) are O(dict lookup);
* :meth:`AnalysisEngine.analyze_matrix` can fan a query x update grid
  out over a :mod:`concurrent.futures` process pool in chunked work
  units, each worker holding its own engine rebuilt from the schema's
  canonical spec.

:func:`engine_for` is a process-wide registry keyed by schema digest so
independent subsystems (view cache, scheduler, CLI) share one engine per
schema; a changed schema yields a changed digest and therefore a fresh
engine -- stale caches cannot leak across schema versions.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from ..obs.metrics import (
    ENGINE_INFERENCE_SECONDS,
    ENGINE_STORE_SECONDS,
    ENGINE_UNIVERSE_SECONDS,
)
from ..obs.plan import clip, current_plan
from ..obs.plan import decision as plan_decision
from ..schema.dtd import DTD
from ..schema.edtd import EDTD
from ..xquery.ast import ROOT_VAR, Query
from ..xquery.parser import parse_query
from ..xupdate.ast import Update
from ..xupdate.parser import parse_update
from .cdag import Universe
from .independence import (
    Conflict,
    IndependenceReport,
    RecursionStructure,
    check_conflicts,
    depth_cap_from,
    recursion_structure,
)
from .infer_query import QueryChains, QueryInference
from .infer_update import UpdateInference
from .kbound import multiplicity

Schema = DTD | EDTD


# ---------------------------------------------------------------------------
# Canonical schema identity
# ---------------------------------------------------------------------------


def schema_spec(schema: Schema) -> tuple:
    """A canonical, hashable description of a schema's content.

    Content models are rendered via the regex nodes' structural
    ``repr`` (dataclass reprs are injective and total, unlike the
    surface syntax, which cannot express some nested epsilons).  The
    spec is the digest input; process-pool workers receive the schema
    itself, which pickles since every AST/regex node carries slot-aware
    ``__getstate__``/``__setstate__``.
    """
    if isinstance(schema, EDTD):
        core = schema.core
        labeling = tuple(
            (t, schema.label_of(t)) for t in sorted(core.alphabet)
        )
        return ("edtd", core.start,
                tuple(sorted(
                    (tag, repr(model))
                    for tag, model in core.rules.items()
                )),
                labeling)
    return ("dtd", schema.start,
            tuple(sorted(
                (tag, repr(model))
                for tag, model in schema.rules.items()
            )))


def schema_digest(schema: Schema) -> str:
    """Content hash identifying a schema across instances and processes."""
    return hashlib.sha256(repr(schema_spec(schema)).encode()).hexdigest()


def normalize_source(text: str) -> str:
    """Whitespace-insensitive cache key for surface query/update text.

    Whitespace inside string literals is significant (two queries
    differing only inside quotes are different expressions), so only
    runs of whitespace *outside* quotes collapse to one space.

    >>> normalize_source("delete   //price")
    'delete //price'
    >>> normalize_source('//a[text()  =  "x  y"]')
    '//a[text() = "x  y"]'
    """
    out: list[str] = []
    quote: str | None = None
    pending_space = False
    for ch in text:
        if quote is not None:
            out.append(ch)
            if ch == quote:
                quote = None
        elif ch in "\"'":
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(ch)
            quote = ch
        elif ch.isspace():
            pending_space = True
        else:
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(ch)
    return "".join(out)


# ---------------------------------------------------------------------------
# Results and accounting
# ---------------------------------------------------------------------------


@dataclass
class EngineStats:
    """Cache accounting for one engine (hits are amortization wins).

    ``pair_hits``/``pair_misses``/``pair_evictions`` track the bounded
    in-memory verdict memo; the ``store_*`` counters track the optional
    persistent verdict store (see :meth:`AnalysisEngine.attach_store`),
    whose hits skip chain inference entirely.
    """

    universes_built: int = 0
    query_hits: int = 0
    query_misses: int = 0
    update_hits: int = 0
    update_misses: int = 0
    pair_hits: int = 0
    pair_misses: int = 0
    pair_evictions: int = 0
    expr_evictions: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0

    @property
    def chain_hit_ratio(self) -> float:
        """Fraction of chain-inference lookups served from cache."""
        hits = self.query_hits + self.update_hits
        total = hits + self.query_misses + self.update_misses
        return hits / total if total else 0.0

    @property
    def pair_hit_ratio(self) -> float:
        """Fraction of pair verdicts served from the in-memory memo."""
        total = self.pair_hits + self.pair_misses
        return self.pair_hits / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-ready snapshot (the ``/stats`` endpoint payload)."""
        return {
            "universes_built": self.universes_built,
            "query_hits": self.query_hits,
            "query_misses": self.query_misses,
            "update_hits": self.update_hits,
            "update_misses": self.update_misses,
            "pair_hits": self.pair_hits,
            "pair_misses": self.pair_misses,
            "pair_evictions": self.pair_evictions,
            "expr_evictions": self.expr_evictions,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "store_writes": self.store_writes,
            "chain_hit_ratio": self.chain_hit_ratio,
            "pair_hit_ratio": self.pair_hit_ratio,
        }


@dataclass(frozen=True)
class PairVerdict:
    """Slim per-pair outcome used by matrix results (picklable, chain-free)."""

    independent: bool
    k: int
    k_query: int
    k_update: int
    analysis_seconds: float


@dataclass(frozen=True)
class MatrixResult:
    """Verdict grid of ``analyze_matrix``: rows are queries, columns updates."""

    grid: tuple[tuple[PairVerdict, ...], ...]
    wall_seconds: float
    processes: int = 1

    @property
    def shape(self) -> tuple[int, int]:
        """The grid's ``(rows, columns)`` = ``(queries, updates)``."""
        return (len(self.grid), len(self.grid[0]) if self.grid else 0)

    @property
    def pairs(self) -> int:
        """Total number of analyzed ``(query, update)`` pairs."""
        rows, cols = self.shape
        return rows * cols

    @property
    def independent_pairs(self) -> int:
        """How many pairs the analysis proved independent."""
        return sum(v.independent for row in self.grid for v in row)

    @property
    def amortized_seconds(self) -> float:
        """Wall-clock cost per pair (the paper-facing headline number)."""
        return self.wall_seconds / self.pairs if self.pairs else 0.0

    def verdict(self, row: int, col: int) -> PairVerdict:
        """The slim verdict for ``queries[row]`` vs ``updates[col]``."""
        return self.grid[row][col]

    def independent(self, row: int, col: int) -> bool:
        """Shorthand: is ``queries[row]`` independent of ``updates[col]``?"""
        return self.grid[row][col].independent

    def verdict_rows(self) -> tuple[tuple[bool, ...], ...]:
        """Plain boolean grid (row-major, queries x updates)."""
        return tuple(
            tuple(v.independent for v in row) for row in self.grid
        )


def _slim(report: IndependenceReport) -> PairVerdict:
    return PairVerdict(
        independent=report.independent,
        k=report.k,
        k_query=report.k_query,
        k_update=report.k_update,
        analysis_seconds=report.analysis_seconds,
    )


# ---------------------------------------------------------------------------
# Bounded caches
# ---------------------------------------------------------------------------


class _BoundedCache(OrderedDict):
    """A dict with LRU eviction: ``get`` touches, insertion over the
    bound evicts the least-recently-used entry.

    Every per-expression cache on a long-lived engine uses this --
    a service exposed to arbitrary client expressions must not let any
    of its memo tables grow without limit (the same rationale as the
    pair-verdict memo's bound)."""

    def __init__(self, bound: int, stats: EngineStats):
        super().__init__()
        self._bound = bound
        self._stats = stats

    def get(self, key, default=None):
        if key in self:
            self.move_to_end(key)
            return self[key]
        return default

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        if len(self) > self._bound:
            self.popitem(last=False)
            self._stats.expr_evictions += 1


# ---------------------------------------------------------------------------
# Per-k inference state
# ---------------------------------------------------------------------------


class _KState:
    """The compiled analysis state for one depth cap: the leveled
    universe plus both memoizing inference tables, whose
    sub-expression memos are ``memo()`` caches.

    Distinct ``k`` values whose depth caps coincide (every ``k`` on a
    non-recursive schema) share one state, so their chain inferences and
    memo tables are pooled."""

    def __init__(self, universe: Universe, memo):
        self.universe = universe
        self.depth_cap = universe.depth_cap
        self.queries = QueryInference(universe, memo=memo())
        self.updates = UpdateInference(self.queries, memo=memo())


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class AnalysisEngine:
    """Reusable, cached analysis state for one schema.

    ``default_k`` (second positional argument, kept from the historical
    ``AnalysisEngine(schema, k)`` signature) merely pre-selects which
    per-k state :attr:`universe` / :attr:`queries` / :attr:`updates`
    expose; all analysis entry points derive or accept ``k`` per pair
    and lazily build the matching state.
    """

    #: Default bound on memoized pair verdicts: a long-lived per-schema
    #: engine (see :func:`engine_for`) must not grow without limit
    #: under a stream of distinct pairs; least-recently-used verdicts
    #: are evicted (counted in ``stats.pair_evictions``) and simply
    #: recomputed from the (much smaller, per-expression) chain caches
    #: on the next request.  Override per instance with the
    #: ``pair_cache_size`` constructor argument.
    PAIR_CACHE_SIZE = 65_536

    #: Default bound for each per-expression cache (parsed ASTs,
    #: multiplicities, digests, inferred chain sets, and each depth
    #: cap's query and update sub-expression memos).  Distinct
    #: expressions a service accepts over the wire are unbounded in
    #: number, so these memos need eviction just like the pair memo;
    #: evictions only cost recomputation on a later reappearance.
    EXPR_CACHE_SIZE = 65_536

    def __init__(self, schema: Schema, default_k: int | None = None,
                 pair_cache_size: int | None = None,
                 expr_cache_size: int | None = None):
        self.schema = schema
        self.default_k = default_k
        self.pair_cache_size = (
            pair_cache_size if pair_cache_size is not None
            else self.PAIR_CACHE_SIZE
        )
        if self.pair_cache_size < 1:
            raise ValueError("pair_cache_size must be >= 1")
        self.expr_cache_size = (
            expr_cache_size if expr_cache_size is not None
            else self.EXPR_CACHE_SIZE
        )
        if self.expr_cache_size < 1:
            raise ValueError("expr_cache_size must be >= 1")
        self.stats = EngineStats()
        # pair_hits is the one counter two threads bump: a service's
        # event loop via peek_pair, its analysis thread via analyze_pair.
        self._hits_lock = threading.Lock()
        self._store = None
        self._digest: str | None = None
        self._recursion: RecursionStructure | None = None
        self._states: dict[int, _KState] = {}
        self._states_by_cap: dict[int, _KState] = {}
        self._parsed_queries = self._bounded()
        self._parsed_updates = self._bounded()
        self._query_k = self._bounded()
        self._update_k = self._bounded()
        self._expr_digests = self._bounded()
        self._query_chains = self._bounded()
        self._update_chains = self._bounded()
        self._pair_cache: OrderedDict[tuple, IndependenceReport] = (
            OrderedDict()
        )
        if default_k is not None:
            self.state(default_k)

    def _bounded(self) -> _BoundedCache:
        return _BoundedCache(self.expr_cache_size, self.stats)

    # -- identity ------------------------------------------------------------

    @property
    def digest(self) -> str:
        """Content hash of the schema (computed on first use)."""
        if self._digest is None:
            self._digest = schema_digest(self.schema)
        return self._digest

    def matches(self, schema: Schema) -> bool:
        """Is this engine's cache valid for ``schema``?"""
        return schema is self.schema or self.digest == schema_digest(schema)

    # -- persistent verdict store ---------------------------------------------

    def attach_store(self, store) -> None:
        """Back the pair memo with a persistent verdict store.

        ``store`` is either a whole
        :class:`repro.storage.StorageBackend` (its ``verdicts`` facet
        is attached) or any verdict KV providing
        ``get(schema_digest, k, query_digest, update_digest) ->
        PairVerdict | None`` and ``put(schema_digest, k, query_digest,
        update_digest, verdict)`` (see
        :class:`repro.storage.base.VerdictKV`).  Once attached, a
        witness-free :meth:`analyze_pair` miss consults the store
        *before* chain inference -- a store hit therefore never builds
        the universe or the inference tables, which is what makes a
        restarted service warm-start from disk -- and every freshly
        computed verdict is written through.
        """
        verdicts = getattr(store, "verdicts", None)
        if verdicts is not None and not callable(
                getattr(store, "get", None)):
            store = verdicts
        self._store = store

    @property
    def store(self):
        """The attached persistent verdict store, if any."""
        return self._store

    def _expression_digest(self, key: object) -> str:
        """Stable digest of an interned expression cache key.

        Text expressions hash their whitespace-normalized source;
        AST-keyed expressions hash the structural ``repr`` (injective
        for the frozen dataclass node types, see :func:`schema_spec`).
        """
        digest = self._expr_digests.get(key)
        if digest is None:
            text = key if isinstance(key, str) else repr(key)
            digest = hashlib.sha256(text.encode()).hexdigest()
            self._expr_digests[key] = digest
        return digest

    # -- per-k state ---------------------------------------------------------

    def state(self, k: int) -> _KState:
        """The compiled ``(universe, inference tables)`` for ``k``.

        States are shared by depth cap: the universe (and hence every
        inference) depends on ``k`` only through the cap, which
        saturates immediately on non-recursive schemas.
        """
        state = self._states.get(k)
        if state is None:
            if self._recursion is None:
                self._recursion = recursion_structure(self.schema)
            cap = depth_cap_from(self._recursion, k)
            state = self._states_by_cap.get(cap)
            if state is None:
                build_started = time.perf_counter()
                state = _KState(Universe(self.schema, cap), self._bounded)
                ENGINE_UNIVERSE_SECONDS.observe(
                    time.perf_counter() - build_started
                )
                self._states_by_cap[cap] = state
                self.stats.universes_built += 1
            self._states[k] = state
        return state

    def _default_state(self) -> _KState:
        if self.default_k is None:
            raise ValueError(
                "engine has no default k; use state(k) or pass k explicitly"
            )
        return self.state(self.default_k)

    @property
    def universe(self):
        """The leveled chain universe of the ``default_k`` state."""
        return self._default_state().universe

    @property
    def queries(self) -> QueryInference:
        """The query inference table of the ``default_k`` state."""
        return self._default_state().queries

    @property
    def updates(self) -> UpdateInference:
        """The update inference table of the ``default_k`` state."""
        return self._default_state().updates

    # -- expression interning ------------------------------------------------

    def _query(self, query: Query | str) -> tuple[object, Query]:
        """Cache key + parsed AST for a query given as text or AST."""
        if isinstance(query, str):
            key = normalize_source(query)
            ast = self._parsed_queries.get(key)
            if ast is None:
                ast = parse_query(query)
                self._parsed_queries[key] = ast
            return key, ast
        return query, query

    def _update(self, update: Update | str) -> tuple[object, Update]:
        if isinstance(update, str):
            key = normalize_source(update)
            ast = self._parsed_updates.get(key)
            if ast is None:
                ast = parse_update(update)
                self._parsed_updates[key] = ast
            return key, ast
        return update, update

    def query_multiplicity(self, query: Query | str) -> int:
        """Cached ``k_q`` (Table 3)."""
        key, ast = self._query(query)
        k = self._query_k.get(key)
        if k is None:
            k = multiplicity(ast)
            self._query_k[key] = k
        return k

    def update_multiplicity(self, update: Update | str) -> int:
        """Cached ``k_u`` (Table 3)."""
        key, ast = self._update(update)
        k = self._update_k.get(key)
        if k is None:
            k = multiplicity(ast)
            self._update_k[key] = k
        return k

    # -- cached chain inference ----------------------------------------------

    def query_chains(self, query: Query | str, k: int) -> QueryChains:
        """Inferred ``(r; v; e)`` for the root judgment, cached per
        ``(query, depth cap)``."""
        key, ast = self._query(query)
        state = self.state(k)
        cache_key = (key, state.depth_cap)
        chains = self._query_chains.get(cache_key)
        if chains is None:
            self.stats.query_misses += 1
            infer_started = time.perf_counter()
            chains = state.queries.infer_root(ast, ROOT_VAR)
            ENGINE_INFERENCE_SECONDS.labels(kind="query").observe(
                time.perf_counter() - infer_started
            )
            self._query_chains[cache_key] = chains
        else:
            self.stats.query_hits += 1
        return chains

    def update_chains(self, update: Update | str, k: int) -> tuple:
        """Inferred update chain families, cached per ``(update, depth
        cap)``."""
        key, ast = self._update(update)
        state = self.state(k)
        cache_key = (key, state.depth_cap)
        chains = self._update_chains.get(cache_key)
        if chains is None:
            self.stats.update_misses += 1
            infer_started = time.perf_counter()
            chains = state.updates.infer_root(ast, ROOT_VAR)
            ENGINE_INFERENCE_SECONDS.labels(kind="update").observe(
                time.perf_counter() - infer_started
            )
            self._update_chains[cache_key] = chains
        else:
            self.stats.update_hits += 1
        return chains

    # -- analysis entry points -----------------------------------------------

    def analyze_pair(
        self,
        query: Query | str,
        update: Update | str,
        k: int | None = None,
        collect_witnesses: bool = True,
    ) -> IndependenceReport:
        """One verdict, served from or added to the engine's caches.

        Lookup order: in-memory pair memo, then (witness-free calls
        only) the attached persistent store, then a full chain-inference
        computation whose result is written through to both.  A
        store-served report carries the verdict and multiplicities but
        no chains or conflict witnesses.
        """
        query_key, _ = self._query(query)
        update_key, _ = self._update(update)
        cache_key = (query_key, update_key, k, collect_witnesses)
        cached = self._pair_cache.get(cache_key)
        if cached is not None:
            with self._hits_lock:
                self.stats.pair_hits += 1
            self._pair_cache.move_to_end(cache_key)
            self._plan_pair("pair_memo", query_key, update_key)
            return cached
        self.stats.pair_misses += 1

        started = time.perf_counter()
        k_query = self.query_multiplicity(query)
        k_update = self.update_multiplicity(update)
        pair_k = k if k is not None else max(1, k_query + k_update)

        store_key = None
        if self._store is not None and not collect_witnesses:
            # Keyed by the *effective* k: an explicit ``k`` equal to the
            # derived multiplicity yields the same verdict, so the two
            # requests share one row.
            store_key = (self.digest, pair_k,
                         self._expression_digest(query_key),
                         self._expression_digest(update_key))
            lookup_started = time.perf_counter()
            stored = self._store.get(*store_key)
            ENGINE_STORE_SECONDS.labels(
                outcome="hit" if stored is not None else "miss"
            ).observe(time.perf_counter() - lookup_started)
            if stored is not None:
                self.stats.store_hits += 1
                # Parity with a computed witness-free report, which
                # carries exactly one witness-less Conflict when
                # dependent: consumers branching on ``report.conflicts``
                # must see the same truthiness regardless of store
                # warmth (the original conflict kind is not persisted).
                conflicts = () if stored.independent else (
                    Conflict("stored", ()),
                )
                report = IndependenceReport(
                    independent=stored.independent,
                    k=pair_k,
                    k_query=stored.k_query,
                    k_update=stored.k_update,
                    conflicts=conflicts,
                    analysis_seconds=time.perf_counter() - started,
                )
                self._memoize(cache_key, report)
                self._plan_pair("store", query_key, update_key)
                return report
            self.stats.store_misses += 1

        universes_before = self.stats.universes_built
        query_chains = self.query_chains(query, pair_k)
        update_chains = self.update_chains(update, pair_k)
        conflicts = check_conflicts(query_chains, update_chains,
                                    collect_witnesses)
        self._plan_pair(
            "computed", query_key, update_key,
            universe="built"
            if self.stats.universes_built > universes_before else "hit",
        )
        report = IndependenceReport(
            independent=not conflicts,
            k=pair_k,
            k_query=k_query,
            k_update=k_update,
            conflicts=tuple(conflicts),
            analysis_seconds=time.perf_counter() - started,
            query_chains=query_chains,
            update_chains=update_chains,
        )
        if store_key is not None:
            self._store.put(*store_key, _slim(report))
            self.stats.store_writes += 1
        self._memoize(cache_key, report)
        return report

    def peek_pair(self, query: str, update: str,
                  k: int | None = None) -> IndependenceReport | None:
        """The memoized witness-free report for a pair, or ``None``.

        Probes the pair memo under exactly the key a witness-free
        :meth:`analyze_pair` call uses, and nothing else: it does not
        parse, read the verdict store, build a universe, or insert,
        evict or reorder memo entries.  That makes it safe to call from
        another thread than the one running :meth:`analyze_pair` (the
        service's event loop, while the analysis thread computes): one
        ``dict`` read is atomic under the GIL, and every cache keeps a
        single writer.  A hit counts in ``stats.pair_hits`` and records
        the ``engine/pair_memo`` plan decision, like any memo hit.
        """
        query_key = normalize_source(query)
        update_key = normalize_source(update)
        report = self._pair_cache.get((query_key, update_key, k, False))
        if report is not None:
            with self._hits_lock:
                self.stats.pair_hits += 1
            self._plan_pair("pair_memo", query_key, update_key)
        return report

    def _memoize(self, cache_key: tuple, report: IndependenceReport) -> None:
        self._pair_cache[cache_key] = report
        if len(self._pair_cache) > self.pair_cache_size:
            self._pair_cache.popitem(last=False)
            self.stats.pair_evictions += 1

    def _plan_pair(self, source: str, query_key, update_key,
                   **extra) -> None:
        """Record one per-pair verdict-source plan decision.

        The bounded ``repro_plan_decisions_total`` counter always
        ticks; the record itself (with clipped expression labels the
        batcher matches against its entries) is built only when a
        :class:`~repro.obs.plan.PlanContext` is installed, so the hot
        unexplained path pays one counter increment and nothing else.
        """
        plan = current_plan()
        if plan is None:
            plan_decision("engine", source)
            return
        plan_decision(
            "engine", source, plan,
            query=clip(query_key if isinstance(query_key, str)
                       else repr(query_key)),
            update=clip(update_key if isinstance(update_key, str)
                        else repr(update_key)),
            **extra,
        )

    def analyze_many(
        self,
        pairs,
        k: int | None = None,
        collect_witnesses: bool = False,
    ) -> list[IndependenceReport]:
        """Verdicts for an iterable of ``(query, update)`` pairs."""
        return [
            self.analyze_pair(query, update, k=k,
                              collect_witnesses=collect_witnesses)
            for query, update in pairs
        ]

    def analyze_matrix(
        self,
        queries,
        updates,
        k: int | None = None,
        processes: int | None = None,
        chunk_size: int | None = None,
    ) -> MatrixResult:
        """Verdict grid for every query x update combination.

        With ``processes`` > 1 the grid is fanned out over a process
        pool in chunked work units; each worker rebuilds the engine once
        from the schema's canonical spec and amortizes across its
        chunks.  Sequential mode shares this engine's caches and is the
        right choice whenever the grid is small or the engine is warm.
        """
        queries = list(queries)
        updates = list(updates)
        started = time.perf_counter()
        if processes is not None and processes > 1 and queries and updates:
            grid = self._matrix_parallel(queries, updates, k,
                                         processes, chunk_size)
            used = processes
        else:
            used = 1
            grid = [
                [
                    _slim(self.analyze_pair(query, update, k=k,
                                            collect_witnesses=False))
                    for update in updates
                ]
                for query in queries
            ]
        return MatrixResult(
            grid=tuple(tuple(row) for row in grid),
            wall_seconds=time.perf_counter() - started,
            processes=used,
        )

    def _matrix_parallel(self, queries, updates, k, processes,
                         chunk_size) -> list[list[PairVerdict]]:
        work = [
            (i, j, queries[i], updates[j], k)
            for i in range(len(queries))
            for j in range(len(updates))
        ]
        if chunk_size is None:
            # ~4 chunks per worker balances skew against dispatch cost.
            chunk_size = max(1, -(-len(work) // (processes * 4)))
        chunks = [
            work[offset:offset + chunk_size]
            for offset in range(0, len(work), chunk_size)
        ]
        grid: list[list[PairVerdict | None]] = [
            [None] * len(updates) for _ in queries
        ]
        with ProcessPoolExecutor(
            max_workers=min(processes, len(chunks)),
            initializer=_pool_init,
            initargs=(self.schema,),
        ) as pool:
            for chunk_result in pool.map(_pool_run_chunk, chunks):
                for i, j, verdict in chunk_result:
                    grid[i][j] = verdict
        return grid  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Process-pool workers
# ---------------------------------------------------------------------------

_WORKER_ENGINE: AnalysisEngine | None = None


def _pool_init(schema: Schema) -> None:
    """Build the worker-local engine once per pool worker (the schema
    arrives pickled via the pool's initargs)."""
    global _WORKER_ENGINE
    _WORKER_ENGINE = AnalysisEngine(schema)


def _pool_run_chunk(chunk) -> list[tuple[int, int, PairVerdict]]:
    """Analyze one chunk of ``(row, col, query, update, k)`` work units."""
    engine = _WORKER_ENGINE
    assert engine is not None, "worker used before initialization"
    return [
        (i, j, _slim(engine.analyze_pair(query, update, k=k,
                                         collect_witnesses=False)))
        for i, j, query, update, k in chunk
    ]


# ---------------------------------------------------------------------------
# Shared per-schema registry
# ---------------------------------------------------------------------------

_SHARED_ENGINES: dict[str, AnalysisEngine] = {}


def engine_for(schema: Schema) -> AnalysisEngine:
    """The process-wide shared engine for ``schema`` (keyed by digest).

    Two structurally equal schema instances map to the same engine; any
    change to the schema changes the digest and yields a fresh engine,
    so cached chains can never serve a stale schema version.
    """
    digest = schema_digest(schema)
    engine = _SHARED_ENGINES.get(digest)
    if engine is None:
        engine = AnalysisEngine(schema)
        _SHARED_ENGINES[digest] = engine
    return engine


def clear_shared_engines() -> None:
    """Drop the shared registry (tests and long-lived servers)."""
    _SHARED_ENGINES.clear()
