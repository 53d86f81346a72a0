"""The batch analysis engine: caching, digests, and matrix semantics."""

import random

import pytest

from repro.analysis.engine import (
    AnalysisEngine,
    clear_shared_engines,
    engine_for,
    normalize_source,
    schema_digest,
    schema_spec,
)
from repro.analysis.independence import analyze
from repro.schema import DTD, bib_dtd, paper_doc_dtd, xmark_dtd
from repro.testkit.exprgen import random_query, random_update

#: The paper's Section 2 examples over the Figure 1 DTD
#: ``{doc <- (a|b)*, a <- c, b <- c}``: q0/q1/q2 against u1/u2.
SECTION2_QUERIES = [
    "//a//c",                                   # q0-style downward path
    "/doc/a/c",                                 # q1
    "for $x in /doc/a return <r>{$x/c}</r>",    # q2-style construction
    "//b",
    "//c/parent::node()",
]
SECTION2_UPDATES = [
    "delete //b//c",                            # u1
    "delete /doc/b",
    "for $x in //a return insert <c/> into $x",
    "delete //a",
]


class TestCacheAccounting:
    def test_pair_cache_hits(self, bib):
        engine = AnalysisEngine(bib)
        first = engine.analyze_pair("//title", "delete //price")
        assert engine.stats.pair_misses == 1
        assert engine.stats.pair_hits == 0
        second = engine.analyze_pair("//title", "delete //price")
        assert engine.stats.pair_hits == 1
        assert second is first

    def test_chain_caches_shared_across_pairs(self, bib):
        engine = AnalysisEngine(bib)
        updates = ["delete //price", "delete //author", "delete //editor"]
        for update in updates:
            engine.analyze_pair("//title", update)
        # One query inference total; each later pair hits the cache (the
        # bib schema is non-recursive, so every k shares one state).
        assert engine.stats.query_misses == 1
        assert engine.stats.query_hits == len(updates) - 1
        assert engine.stats.update_misses == len(updates)
        assert engine.stats.universes_built == 1

    def test_normalized_text_shares_one_parse(self, bib):
        engine = AnalysisEngine(bib)
        engine.analyze_pair("//title", "delete //price")
        engine.analyze_pair("  //title  ", "delete    //price")
        assert engine.stats.pair_hits == 1
        assert normalize_source(" delete   //a ") == "delete //a"

    def test_normalization_preserves_string_literals(self):
        # Whitespace inside quotes is significant: these are different
        # expressions and must not alias to one cache entry.
        assert normalize_source('if (//a) then "x  y" else ()') \
            != normalize_source('if (//a) then "x y" else ()')
        assert normalize_source("'a  b'") != normalize_source("'a b'")

    def test_witness_and_witnessless_reports_cached_separately(self, bib):
        engine = AnalysisEngine(bib)
        with_witness = engine.analyze_pair("//title", "delete //title")
        without = engine.analyze_pair("//title", "delete //title",
                                      collect_witnesses=False)
        assert not with_witness.independent
        assert not without.independent
        assert with_witness.conflicts[0].witness


class TestSchemaDigest:
    def test_equal_schemas_equal_digest(self):
        first = DTD.from_dict("doc", {"doc": "(a | b)*", "a": "c",
                                      "b": "c", "c": "EMPTY"})
        second = DTD.from_dict("doc", {"doc": "(a | b)*", "a": "c",
                                       "b": "c", "c": "EMPTY"})
        assert first is not second
        assert schema_digest(first) == schema_digest(second)

    def test_changed_schema_changes_digest(self):
        base = DTD.from_dict("doc", {"doc": "(a | b)*", "a": "c",
                                     "b": "c", "c": "EMPTY"})
        changed = DTD.from_dict("doc", {"doc": "(a | b)*", "a": "c*",
                                        "b": "c", "c": "EMPTY"})
        assert schema_digest(base) != schema_digest(changed)

    def test_schema_pickles_for_workers(self):
        # The process pool ships the schema itself; digest must survive.
        import pickle

        for schema in (paper_doc_dtd(), bib_dtd(), xmark_dtd()):
            rebuilt = pickle.loads(pickle.dumps(schema))
            assert rebuilt == schema
            assert schema_spec(rebuilt) == schema_spec(schema)
            assert schema_digest(rebuilt) == schema_digest(schema)

    def test_changed_schema_invalidates_engine(self):
        base = DTD.from_dict("doc", {"doc": "(a | b)*", "a": "c",
                                     "b": "c", "c": "EMPTY"})
        changed = DTD.from_dict("doc", {"doc": "(a | b)*", "a": "EMPTY",
                                        "b": "c", "c": "EMPTY"})
        engine = AnalysisEngine(base)
        assert engine.matches(base)
        assert not engine.matches(changed)
        # analyze() must not serve the stale engine for the new schema:
        # under `changed`, a has no c child, so //a//c is unsatisfiable
        # and the pair becomes independent.
        assert not analyze("//a//c", "delete //a//c", base,
                           engine=engine).independent
        assert analyze("//a//c", "delete //a//c", changed,
                       engine=engine).independent

    def test_engine_for_registry_is_per_digest(self):
        clear_shared_engines()
        try:
            first = DTD.from_dict("doc", {"doc": "a*", "a": "EMPTY"})
            twin = DTD.from_dict("doc", {"doc": "a*", "a": "EMPTY"})
            other = DTD.from_dict("doc", {"doc": "a+", "a": "EMPTY"})
            assert engine_for(first) is engine_for(twin)
            assert engine_for(first) is not engine_for(other)
        finally:
            clear_shared_engines()


class TestMatrixSemantics:
    def test_matrix_equals_sequential_one_shot_on_section2(self, doc_dtd):
        expected = [
            [analyze(q, u, doc_dtd, collect_witnesses=False).independent
             for u in SECTION2_UPDATES]
            for q in SECTION2_QUERIES
        ]
        matrix = AnalysisEngine(doc_dtd).analyze_matrix(
            SECTION2_QUERIES, SECTION2_UPDATES
        )
        assert matrix.shape == (len(SECTION2_QUERIES),
                                len(SECTION2_UPDATES))
        assert [list(row) for row in matrix.verdict_rows()] == expected

    def test_matrix_parallel_equals_sequential(self, doc_dtd):
        sequential = AnalysisEngine(doc_dtd).analyze_matrix(
            SECTION2_QUERIES, SECTION2_UPDATES
        )
        pooled = AnalysisEngine(doc_dtd).analyze_matrix(
            SECTION2_QUERIES, SECTION2_UPDATES, processes=2
        )
        assert pooled.processes == 2
        assert pooled.verdict_rows() == sequential.verdict_rows()

    def test_matrix_parallel_accepts_ast_work_units(self, doc_dtd):
        # Work units are pickled to pool workers; parsed ASTs (slotted
        # frozen dataclasses) must survive the trip like strings do.
        from repro.xquery.parser import parse_query
        from repro.xupdate.parser import parse_update

        queries = [parse_query(q) for q in SECTION2_QUERIES]
        updates = [parse_update(u) for u in SECTION2_UPDATES]
        sequential = AnalysisEngine(doc_dtd).analyze_matrix(
            queries, updates
        )
        pooled = AnalysisEngine(doc_dtd).analyze_matrix(
            queries, updates, processes=2
        )
        assert pooled.verdict_rows() == sequential.verdict_rows()

    def test_matrix_parallel_chunk_size_extremes(self, doc_dtd):
        expected = AnalysisEngine(doc_dtd).analyze_matrix(
            SECTION2_QUERIES, SECTION2_UPDATES
        ).verdict_rows()
        # One pair per dispatch, and one chunk holding the whole grid.
        for chunk_size in (1, len(SECTION2_QUERIES)
                           * len(SECTION2_UPDATES) + 5):
            pooled = AnalysisEngine(doc_dtd).analyze_matrix(
                SECTION2_QUERIES, SECTION2_UPDATES, processes=2,
                chunk_size=chunk_size,
            )
            assert pooled.verdict_rows() == expected

    def test_matrix_parallel_k_override_reaches_workers(self, doc_dtd):
        pooled = AnalysisEngine(doc_dtd).analyze_matrix(
            ["//a//c"], ["delete //b//c"], k=4, processes=2
        )
        assert pooled.verdict(0, 0).k == 4

    def test_matrix_parallel_on_generated_schemas(self):
        # The pool path must work for arbitrary (picklable) schemas,
        # not just the curated catalog: fan three testkit-generated
        # DTDs out and compare with the warm sequential engine.
        import random

        from repro.testkit.dtdgen import SchemaGenerator
        from repro.testkit.exprgen import QueryGenerator, UpdateGenerator

        rng = random.Random("engine-pool")
        for _ in range(3):
            dtd = SchemaGenerator(rng, max_tags=5).generate().to_dtd()
            queries = [QueryGenerator(rng, dtd).generate()
                       for _ in range(3)]
            updates = [UpdateGenerator(rng, dtd).generate()
                       for _ in range(3)]
            engine = AnalysisEngine(dtd)
            sequential = engine.analyze_matrix(queries, updates)
            pooled = engine.analyze_matrix(queries, updates, processes=2)
            assert pooled.verdict_rows() == sequential.verdict_rows()

    def test_matrix_k_override(self, doc_dtd):
        matrix = AnalysisEngine(doc_dtd).analyze_matrix(
            ["//a//c"], ["delete //b//c"], k=4
        )
        assert matrix.verdict(0, 0).k == 4

    def test_empty_matrix(self, doc_dtd):
        matrix = AnalysisEngine(doc_dtd).analyze_matrix([], [])
        assert matrix.pairs == 0
        assert matrix.amortized_seconds == 0.0

    def test_analyze_many_matches_analyze(self, bib):
        engine = AnalysisEngine(bib)
        pairs = [("//title", "delete //price"),
                 ("//price", "delete //price")]
        reports = engine.analyze_many(pairs)
        for (query, update), report in zip(pairs, reports):
            assert report.independent == analyze(
                query, update, bib).independent


class TestPairMemoBound:
    PAIRS = [("//title", "delete //price"),
             ("//price", "delete //price"),
             ("//author", "delete //editor"),
             ("//last", "delete //first")]

    def test_lru_eviction_counts_and_bounds(self, bib):
        engine = AnalysisEngine(bib, pair_cache_size=2)
        for query, update in self.PAIRS:
            engine.analyze_pair(query, update, collect_witnesses=False)
        assert len(engine._pair_cache) == 2
        assert engine.stats.pair_evictions == len(self.PAIRS) - 2

    def test_eviction_is_least_recently_used(self, bib):
        engine = AnalysisEngine(bib, pair_cache_size=2)
        first, second, third = self.PAIRS[:3]
        engine.analyze_pair(*first, collect_witnesses=False)
        engine.analyze_pair(*second, collect_witnesses=False)
        engine.analyze_pair(*first, collect_witnesses=False)   # touch
        engine.analyze_pair(*third, collect_witnesses=False)   # evicts 2nd
        hits = engine.stats.pair_hits
        engine.analyze_pair(*first, collect_witnesses=False)
        assert engine.stats.pair_hits == hits + 1
        engine.analyze_pair(*second, collect_witnesses=False)
        assert engine.stats.pair_hits == hits + 1  # second was evicted

    def test_evicted_verdicts_recompute_identically(self, bib):
        engine = AnalysisEngine(bib, pair_cache_size=1)
        before = [
            engine.analyze_pair(q, u, collect_witnesses=False).independent
            for q, u in self.PAIRS
        ]
        after = [
            engine.analyze_pair(q, u, collect_witnesses=False).independent
            for q, u in self.PAIRS
        ]
        assert before == after
        assert engine.stats.pair_evictions > 0

    def test_pair_cache_size_validation(self, bib):
        with pytest.raises(ValueError):
            AnalysisEngine(bib, pair_cache_size=0)

    def test_default_bound_unchanged(self, bib):
        engine = AnalysisEngine(bib)
        assert engine.pair_cache_size == AnalysisEngine.PAIR_CACHE_SIZE
        assert engine.expr_cache_size == AnalysisEngine.EXPR_CACHE_SIZE

    def test_expression_caches_are_bounded_too(self, bib):
        # A service accepts arbitrarily many distinct expressions: the
        # per-expression memos must evict, and evicted expressions must
        # recompute to the same verdicts.
        engine = AnalysisEngine(bib, pair_cache_size=1, expr_cache_size=2)
        before = [
            engine.analyze_pair(q, u, collect_witnesses=False).independent
            for q, u in self.PAIRS
        ]
        assert engine.stats.expr_evictions > 0
        assert len(engine._parsed_queries) <= 2
        assert len(engine._query_chains) <= 2
        after = [
            engine.analyze_pair(q, u, collect_witnesses=False).independent
            for q, u in self.PAIRS
        ]
        assert before == after

    def test_expr_cache_size_validation(self, bib):
        with pytest.raises(ValueError):
            AnalysisEngine(bib, expr_cache_size=0)

    def test_inference_memos_are_bounded(self, xmark):
        # The (AST, Gamma) sub-expression memos sit below the chain
        # caches; they obey the same bound, count their evictions, and
        # an eviction only costs recomputation.
        rng = random.Random("inference-memo-bound")
        pairs = [(random_query(rng, xmark), random_update(rng, xmark))
                 for _ in range(40)]
        bounded = AnalysisEngine(xmark, expr_cache_size=8)
        unbounded = AnalysisEngine(xmark)

        def verdict(engine, query, update):
            report = engine.analyze_pair(query, update,
                                         collect_witnesses=False)
            return (report.independent, report.k, report.k_query,
                    report.k_update)

        for query, update in pairs:
            assert verdict(bounded, query, update) == verdict(
                unbounded, query, update)
        for state in bounded._states_by_cap.values():
            assert len(state.queries._memo) <= 8
            assert len(state.updates._memo) <= 8
        assert bounded.stats.expr_evictions > 0
        assert unbounded.stats.expr_evictions == 0
        assert max(len(state.queries._memo)
                   for state in unbounded._states_by_cap.values()) > 8


class _CountingStore:
    """A verdict KV that only counts how often it is read."""

    def __init__(self):
        self.gets = 0

    def get(self, *key):
        self.gets += 1
        return None


class TestPeekPair:
    """``peek_pair`` reads the pair memo and does nothing else."""

    def test_hit_returns_the_memoized_report(self, bib):
        engine = AnalysisEngine(bib)
        report = engine.analyze_pair("//title", "delete //price",
                                     collect_witnesses=False)
        hits = engine.stats.pair_hits
        assert engine.peek_pair("//title", "delete //price") is report
        assert engine.peek_pair("  //title ", "delete   //price") is report
        assert engine.stats.pair_hits == hits + 2

    def test_miss_parses_nothing_and_reads_no_store(self, bib):
        engine = AnalysisEngine(bib)
        store = _CountingStore()
        engine.attach_store(store)
        # Unparsable text is just another missing key.
        assert engine.peek_pair("//title[", "delete //price") is None
        assert engine.peek_pair("//title", "delete //price") is None
        assert store.gets == 0
        assert len(engine._parsed_queries) == 0
        assert engine.stats.universes_built == 0
        assert engine.stats.pair_misses == 0
        assert len(engine._pair_cache) == 0

    def test_key_is_exactly_the_witness_free_analyze_pair_key(self, bib):
        engine = AnalysisEngine(bib)
        engine.analyze_pair("//title", "delete //price", k=3,
                            collect_witnesses=False)
        engine.analyze_pair("//author", "delete //price",
                            collect_witnesses=True)
        assert engine.peek_pair("//title", "delete //price") is None
        assert engine.peek_pair("//title", "delete //price", k=3) \
            is not None
        assert engine.peek_pair("//author", "delete //price") is None

    def test_leaves_the_lru_order_alone(self, bib):
        engine = AnalysisEngine(bib)
        first, second = TestPairMemoBound.PAIRS[:2]
        engine.analyze_pair(*first, collect_witnesses=False)
        engine.analyze_pair(*second, collect_witnesses=False)
        order = list(engine._pair_cache)
        assert engine.peek_pair(*first) is not None
        assert list(engine._pair_cache) == order


class TestEngineStats:
    def test_as_dict_is_json_ready(self, bib):
        import json

        engine = AnalysisEngine(bib)
        engine.analyze_pair("//title", "delete //price",
                            collect_witnesses=False)
        payload = engine.stats.as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["pair_misses"] == 1
        assert payload["pair_evictions"] == 0
        assert payload["store_hits"] == 0
        assert 0.0 <= payload["pair_hit_ratio"] <= 1.0


class TestBackwardsCompat:
    def test_legacy_signature_and_attributes(self, bib):
        engine = AnalysisEngine(bib, 4)
        assert engine.default_k == 4
        assert engine.universe.depth_cap >= 1
        chains = engine.queries.infer_root(
            engine._query("//title")[1], "$doc"
        )
        assert chains.returns

    def test_default_state_requires_k(self, bib):
        engine = AnalysisEngine(bib)
        with pytest.raises(ValueError):
            _ = engine.universe

    def test_independence_module_getattr_rejects_unknown(self):
        import repro.analysis.independence as independence

        with pytest.raises(AttributeError):
            _ = independence.no_such_name
