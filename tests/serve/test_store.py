"""Persistent verdict store: round-trips, restarts, and warm-starts."""

from __future__ import annotations

from repro.analysis.engine import AnalysisEngine, PairVerdict
from repro.storage.sqlite import SqliteVerdictKV


def _verdict(independent: bool = True) -> PairVerdict:
    return PairVerdict(independent=independent, k=3, k_query=1,
                       k_update=2, analysis_seconds=0.123)


class TestRoundTrip:
    def test_get_returns_none_on_miss(self):
        with SqliteVerdictKV() as store:
            assert store.get("d", 1, "q", "u") is None

    def test_put_then_get(self):
        with SqliteVerdictKV() as store:
            store.put("d", 3, "q", "u", _verdict())
            verdict = store.get("d", 3, "q", "u")
            assert verdict.independent is True
            assert (verdict.k, verdict.k_query, verdict.k_update) == (3, 1, 2)
            # Timing is not persisted: stored verdicts are free.
            assert verdict.analysis_seconds == 0.0

    def test_key_is_four_dimensional(self):
        with SqliteVerdictKV() as store:
            store.put("d", 3, "q", "u", _verdict(True))
            store.put("d", 4, "q", "u", _verdict(False))
            store.put("e", 3, "q", "u", _verdict(False))
            assert store.get("d", 3, "q", "u").independent
            assert not store.get("d", 4, "q", "u").independent
            assert not store.get("e", 3, "q", "u").independent
            assert store.get("d", 3, "q", "other") is None

    def test_count_and_stats(self):
        with SqliteVerdictKV() as store:
            store.put("d", 3, "q", "u", _verdict())
            store.put("d", 3, "q2", "u", _verdict())
            store.put("e", 3, "q", "u", _verdict())
            assert store.count() == 3
            assert store.count("d") == 2
            assert store.stats()["verdicts"] == 3

    def test_deferred_commits_once_and_nests(self, tmp_path):
        path = str(tmp_path / "verdicts.sqlite")
        with SqliteVerdictKV(path) as store:
            with store.deferred():
                with store.deferred():
                    store.put("d", 3, "q", "u", _verdict())
                store.put("d", 3, "q2", "u", _verdict())
            assert store.count() == 2


class TestPersistence:
    def test_rows_survive_reopen(self, tmp_path):
        path = str(tmp_path / "verdicts.sqlite")
        with SqliteVerdictKV(path) as store:
            store.put("d", 3, "q", "u", _verdict(False))
        with SqliteVerdictKV(path) as reopened:
            verdict = reopened.get("d", 3, "q", "u")
            assert verdict is not None
            assert not verdict.independent

    def test_close_is_idempotent(self, tmp_path):
        store = SqliteVerdictKV(str(tmp_path / "verdicts.sqlite"))
        store.close()
        store.close()


class TestEngineWarmStart:
    """The acceptance-criteria property: after a restart, a cold engine
    attached to the surviving store serves already-seen pairs without
    re-deriving inference tables (no universe is ever built)."""

    PAIRS = [
        ("//title", "delete //price"),
        ("//price", "delete //price"),
        ("/bib/book/author", "delete //editor"),
    ]

    def test_cold_engine_serves_from_store_without_universes(
            self, bib, tmp_path):
        path = str(tmp_path / "verdicts.sqlite")
        with SqliteVerdictKV(path) as store:
            warm = AnalysisEngine(bib)
            warm.attach_store(store)
            expected = [
                warm.analyze_pair(q, u, collect_witnesses=False).independent
                for q, u in self.PAIRS
            ]
            assert warm.stats.store_writes == len(self.PAIRS)
            assert warm.stats.universes_built >= 1

        # "Restart": a brand-new engine, a reopened store file.
        with SqliteVerdictKV(path) as store:
            cold = AnalysisEngine(bib)
            cold.attach_store(store)
            served = [
                cold.analyze_pair(q, u, collect_witnesses=False).independent
                for q, u in self.PAIRS
            ]
            assert served == expected
            assert cold.stats.store_hits == len(self.PAIRS)
            assert cold.stats.universes_built == 0
            assert cold.stats.query_misses == 0
            assert cold.stats.update_misses == 0

    def test_store_hit_respects_explicit_k(self, bib, tmp_path):
        path = str(tmp_path / "verdicts.sqlite")
        with SqliteVerdictKV(path) as store:
            warm = AnalysisEngine(bib)
            warm.attach_store(store)
            derived = warm.analyze_pair("//title", "delete //price",
                                        collect_witnesses=False)
            # An explicit k equal to the derived one shares the row...
            cold = AnalysisEngine(bib)
            cold.attach_store(store)
            same = cold.analyze_pair("//title", "delete //price",
                                     k=derived.k, collect_witnesses=False)
            assert cold.stats.store_hits == 1
            assert same.independent == derived.independent
            # ...while a different k is a distinct verdict row.
            cold.analyze_pair("//title", "delete //price",
                              k=derived.k + 1, collect_witnesses=False)
            assert cold.stats.store_misses == 1

    def test_store_served_dependent_reports_keep_a_conflict_marker(
            self, bib):
        # A computed witness-free dependent report carries exactly one
        # witness-less Conflict; a store-served one must agree in
        # truthiness so `if report.conflicts:` consumers behave the
        # same on a warm restart.
        store = SqliteVerdictKV()
        warm = AnalysisEngine(bib)
        warm.attach_store(store)
        computed = warm.analyze_pair("//title", "delete //title",
                                     collect_witnesses=False)
        assert not computed.independent and computed.conflicts
        cold = AnalysisEngine(bib)
        cold.attach_store(store)
        served = cold.analyze_pair("//title", "delete //title",
                                   collect_witnesses=False)
        assert cold.stats.store_hits == 1
        assert not served.independent
        assert bool(served.conflicts) == bool(computed.conflicts)
        # Independent verdicts stay conflict-free either way.
        warm.analyze_pair("//title", "delete //price",
                          collect_witnesses=False)
        clean = cold.analyze_pair("//title", "delete //price",
                                  collect_witnesses=False)
        assert clean.independent and not clean.conflicts

    def test_witness_requests_bypass_the_store(self, bib):
        store = SqliteVerdictKV()
        engine = AnalysisEngine(bib)
        engine.attach_store(store)
        engine.analyze_pair("//title", "delete //title")
        assert engine.stats.store_hits == 0
        assert engine.stats.store_misses == 0
        assert store.count() == 0

    def test_store_backed_verdicts_match_fresh_engine(self, bib):
        store = SqliteVerdictKV()
        first = AnalysisEngine(bib)
        first.attach_store(store)
        second = AnalysisEngine(bib)  # no store: ground truth
        for query, update in self.PAIRS:
            a = first.analyze_pair(query, update, collect_witnesses=False)
            b = second.analyze_pair(query, update, collect_witnesses=False)
            assert (a.independent, a.k, a.k_query, a.k_update) == \
                (b.independent, b.k, b.k_query, b.k_update)
