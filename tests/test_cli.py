"""CLI subcommands (exercised in-process)."""

import pytest

from repro.cli import main


class TestAnalyze:
    def test_independent_pair_exit_zero(self, capsys):
        code = main([
            "analyze", "--builtin", "paper-doc",
            "--query", "//a//c", "--update", "delete //b//c",
        ])
        assert code == 0
        assert "independent" in capsys.readouterr().out

    def test_dependent_pair_exit_one(self, capsys):
        code = main([
            "analyze", "--builtin", "paper-doc",
            "--query", "//a//c", "--update", "delete //a//c",
        ])
        assert code == 1

    def test_explain_output(self, capsys):
        main([
            "analyze", "--builtin", "paper-doc", "--explain",
            "--query", "//a//c", "--update", "delete //b//c",
        ])
        out = capsys.readouterr().out
        assert "INDEPENDENT" in out
        assert "doc.a.c" in out
        assert "doc.b.c" in out

    def test_types_flag(self, capsys):
        main([
            "analyze", "--builtin", "paper-doc", "--types",
            "--query", "//a//c", "--update", "delete //b//c",
        ])
        out = capsys.readouterr().out
        assert "type baseline" in out
        assert "dependent" in out

    def test_k_override(self, capsys):
        code = main([
            "analyze", "--builtin", "paper-d1", "--k", "4",
            "--query", "/descendant::b",
            "--update", "delete /descendant::c",
        ])
        assert code == 1

    def test_missing_schema_errors(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--query", "//a", "--update", "delete //b"])


class TestFileCommands:
    @pytest.fixture()
    def dtd_file(self, tmp_path):
        path = tmp_path / "schema.dtd"
        path.write_text(
            "<!ELEMENT doc (a | b)*>\n<!ELEMENT a (c)>\n"
            "<!ELEMENT b (c)>\n<!ELEMENT c EMPTY>\n"
        )
        return str(path)

    def test_generate_and_validate(self, dtd_file, tmp_path, capsys):
        out_file = str(tmp_path / "doc.xml")
        code = main([
            "generate", "--dtd", dtd_file, "--root", "doc",
            "--bytes", "400", "--seed", "3", "--out", out_file,
        ])
        assert code == 0
        code = main(["validate", "--dtd", dtd_file, "--root", "doc",
                     out_file])
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_rejects_invalid(self, dtd_file, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<doc><a/></doc>")  # a requires a c child
        code = main(["validate", "--dtd", dtd_file, "--root", "doc",
                     str(bad)])
        assert code == 1
        assert "INVALID" in capsys.readouterr().out

    def test_infer_dtd(self, tmp_path, capsys):
        doc = tmp_path / "d.xml"
        doc.write_text("<doc><a><c/></a><b><c/></b></doc>")
        code = main(["infer-dtd", str(doc)])
        assert code == 0
        out = capsys.readouterr().out
        assert "<!ELEMENT doc" in out
        assert "<!ELEMENT c EMPTY>" in out

    def test_dtd_file_analysis(self, dtd_file, capsys):
        code = main([
            "analyze", "--dtd", dtd_file, "--root", "doc",
            "--query", "//a//c", "--update", "delete //b//c",
        ])
        assert code == 0


class TestFuzz:
    def test_small_campaign_exit_zero_and_json(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main([
            "fuzz", "--count", "16", "--seed", "0",
            "--queries", "2", "--updates", "2",
            "--docs", "2", "--doc-bytes", "300",
            "--json", str(report_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fuzz campaign" in out
        assert "precision vs oracle" in out

        import json

        data = json.loads(report_path.read_text(encoding="utf-8"))
        assert data["pairs"] >= 16
        assert data["violations"]["soundness"] == 0

    def test_corpus_dir_stays_empty_without_violations(self, tmp_path,
                                                       capsys):
        corpus = tmp_path / "corpus"
        code = main([
            "fuzz", "--count", "8", "--seed", "3",
            "--queries", "2", "--updates", "2",
            "--docs", "2", "--doc-bytes", "300",
            "--corpus-dir", str(corpus),
        ])
        assert code == 0
        assert not list(corpus.glob("*.json")) if corpus.exists() else True


class TestExplainModule:
    def test_explain_dependent(self):
        from repro.analysis.explain import explain
        from repro.schema import paper_doc_dtd

        text = explain("//a//c", "delete //a//c", paper_doc_dtd())
        assert "DEPENDENT" in text
        assert "return-update" in text

    def test_explain_multiplicity(self):
        from repro.analysis.explain import explain_multiplicity
        from repro.schema import paper_d1_dtd
        from repro.xquery.parser import parse_query

        text = explain_multiplicity(
            parse_query("/descendant::b"), paper_d1_dtd()
        )
        assert "k = 1" in text
        assert "1 recursive" in text

    def test_explain_handles_huge_chain_sets(self):
        from repro.analysis.explain import explain
        from repro.bench.rbench import recursive_schema

        text = explain("/descendant::node()",
                       "delete /descendant::node()",
                       recursive_schema(5))
        assert "DEPENDENT" in text


class TestWitnessDeterminism:
    """``--explain`` witnesses are the shortest, lexicographically least
    prefix chains: the same under every hash seed."""

    QUERY = "//item//text()"
    UPDATE = "delete //description//text()"

    def _explain(self, hash_seed: str) -> str:
        import os
        import subprocess
        import sys

        import repro

        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.path.dirname(
                       os.path.dirname(repro.__file__)))
        result = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", "--builtin",
             "xmark", "--query", self.QUERY, "--update", self.UPDATE,
             "--explain"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1, result.stderr
        return "\n".join(line for line in result.stdout.splitlines()
                         if "analysis time" not in line)

    @staticmethod
    def _on_path(component, chain) -> bool:
        """Is ``chain`` a root-to-node path of ``component``?"""
        universe = component.universe
        nodes = [(depth, symbol) for depth, symbol in enumerate(chain)]
        edges = universe.edges_of(component.edges)
        return universe.node(component.root) == nodes[0] and all(
            step in edges for step in zip(nodes, nodes[1:])
        )

    def test_same_witness_under_two_hash_seeds(self):
        from repro.analysis import analyze
        from repro.schema import xmark_dtd

        first, second = self._explain("1"), self._explain("2")
        assert first == second
        witnesses = {line.split(" via ")[1] for line in first.splitlines()
                     if " via " in line}
        assert witnesses == {"site.regions.africa.item.description.text.#S"}

        report = analyze(self.QUERY, self.UPDATE, xmark_dtd())
        witness = tuple(witnesses.pop().split("."))
        last = (len(witness) - 1, witness[-1])
        assert any(self._on_path(c, witness)
                   and last in c.universe.nodes_of(c.ends)
                   for c in report.query_chains.returns)
        assert any(self._on_path(u.full, witness)
                   and last in u.full.universe.nodes_of(u.full.nodes)
                   for u in report.update_chains)


class TestParserMatchesConfigs:
    """Argparse smoke tests: the CLI surface cannot drift from the
    serve/loadgen config dataclasses or from its own help text."""

    def test_serve_defaults_match_serveconfig(self):
        from repro.cli import build_parser
        from repro.serve.server import ServeConfig

        args = build_parser().parse_args(["serve"])
        config = ServeConfig()
        assert args.host == config.host
        assert args.port == config.port
        assert args.store == config.store_path
        assert args.mode == config.analysis_mode
        assert args.max_schemas == config.max_schemas
        assert args.max_documents == config.max_documents
        assert args.pair_cache == config.pair_cache_size
        assert args.shards == config.shards

    def test_loadgen_defaults_match_loadgenconfig(self):
        from repro.cli import build_parser
        from repro.serve.loadgen import LoadgenConfig

        args = build_parser().parse_args(["loadgen"])
        config = LoadgenConfig()
        assert args.host == config.host
        assert args.port == config.port
        # --schema unset falls through to LoadgenConfig's own default
        # (the CLI never hardcodes a schema name).
        assert args.schema is None
        assert args.source == config.source
        assert args.queries == config.n_queries
        assert args.updates == config.n_updates
        assert args.clients == config.clients
        assert args.requests == config.requests
        assert args.seed == config.seed
        assert args.shards is None

    def test_serve_help_quotes_real_defaults(self):
        """The epilog and flag help must carry the live default values
        (the PR 3 -> PR 4 drift this guards against)."""
        from repro.cli import build_parser
        from repro.serve.server import ServeConfig

        parser = build_parser()
        serve_parser = parser._subparsers._group_actions[0] \
            .choices["serve"]
        text = serve_parser.format_help()
        config = ServeConfig()
        assert f"max-documents {config.max_documents}" in text
        assert f"max-schemas {config.max_schemas}" in text
        assert f"shards {config.shards}" in text
        # Admission has no timer: no window or max-batch knob to quote.
        assert "window" not in text and "max-batch" not in text
        assert "docs/PROTOCOL.md" in text

    def test_loadgen_expect_coalescing_semantics_documented(self):
        """--expect-coalescing requires coalesced_requests > 0, not
        just batches > 0; the help text must say so."""
        from repro.cli import build_parser

        loadgen_parser = build_parser()._subparsers \
            ._group_actions[0].choices["loadgen"]
        text = loadgen_parser.format_help()
        assert "coalesced_requests" in text
        assert "batches > 0" in text

    def test_loadgen_schema_repeatable(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["loadgen", "--schema", "xmark", "--schema", "gen:11"]
        )
        assert args.schema == ["xmark", "gen:11"]

    @pytest.mark.parametrize("argv", [
        ["serve", "--window", "2"],
        ["serve", "--max-batch", "16"],
        ["serve-bench", "--window", "2"],
    ])
    def test_removed_window_flags_exit_two(self, argv, capsys):
        """Admission drains on idle: the window knobs are gone, and
        passing one is a usage error, not a silent no-op."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments" in err

    def test_serve_bench_shard_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve-bench", "--shards", "3"])
        assert args.shards == 3
        assert build_parser().parse_args(["serve-bench"]).shards == 2


class TestLoadCommand:
    """`repro load`: streaming (projected) loads from the CLI."""

    @pytest.fixture()
    def xmark_file(self, tmp_path):
        from repro.schema import xmark_dtd
        from repro.xmldm import generate_document, serialize

        tree = generate_document(xmark_dtd(), 60_000, seed=9)
        path = tmp_path / "doc.xml"
        path.write_text(serialize(tree.store, tree.root))
        return str(path)

    def test_full_load_reports_counts(self, xmark_file, capsys):
        code = main(["load", xmark_file, "--builtin", "xmark"])
        assert code == 0
        out = capsys.readouterr().out
        assert "kept" in out and "100.0%" in out

    def test_projected_load_keeps_fewer(self, xmark_file, capsys):
        code = main([
            "load", xmark_file, "--builtin", "xmark",
            "--project", "//emailaddress",
            "--project", "/site/people/person/name",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[projected]" in out
        assert "skipped" in out

    def test_load_persists_into_docstore(self, xmark_file, tmp_path,
                                         capsys):
        from repro.storage.sqlite import SqliteDocumentStore

        db = str(tmp_path / "docs.sqlite")
        code = main([
            "load", xmark_file, "--builtin", "xmark",
            "--project", "//emailaddress",
            "--store", f"sqlite:///{db}", "--doc", "cli-doc",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "persisted" in out and f"sqlite:///{db}" in out
        with SqliteDocumentStore(db) as documents:
            stored = documents.describe("cli-doc")
            assert stored is not None
            # Same meta shape as the server's persistence, so a served
            # reload can check projection coverage.
            assert stored.meta == {
                "projected": True,
                "project_for": ["//emailaddress"],
            }
            loaded, _ = documents.load("cli-doc")
            assert loaded.size() == stored.nodes

    def test_docstore_bench_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["docstore-bench"])
        assert args.bytes == 4_500_000
        assert args.seed == 7
        assert args.repeats == 3


class TestExplainCommand:
    """`repro explain`: plan rendering over a persisted document,
    without a serve loop."""

    @pytest.fixture()
    def store_url(self, tmp_path):
        xml = tmp_path / "bib.xml"
        xml.write_text(
            "<bib><book><title>a</title><author>x</author></book>"
            "<book><title>b</title></book></bib>"
        )
        url = f"sqlite:///{tmp_path / 'docs.sqlite'}"
        assert main(["load", str(xml), "--builtin", "bib",
                     "--store", url, "--doc", "d"]) == 0
        return url

    def test_pushdown_plan_carries_steps_and_sql(self, store_url,
                                                 capsys):
        assert main(["explain", "//title",
                     "--store", store_url, "--doc", "d"]) == 0
        out = capsys.readouterr().out
        assert "pushdown: compiled" in out
        assert "descendant-child::name(title)" in out
        assert "SELECT" in out
        assert "answer: pushdown" in out
        assert "count = 2" in out

    def test_ineligible_query_falls_back_with_a_reason(self, store_url,
                                                       capsys):
        assert main(["explain", "for $x in //title return <t>n</t>",
                     "--store", store_url, "--doc", "d"]) == 0
        out = capsys.readouterr().out
        assert "pushdown: ineligible" in out
        assert "reason = non-step-source" in out
        assert "answer: fallback" in out

    def test_missing_document_errors(self, store_url):
        with pytest.raises(SystemExit, match="not persisted"):
            main(["explain", "//title", "--store", store_url,
                  "--doc", "nope"])

    def test_unparsable_query_errors(self, store_url):
        with pytest.raises(SystemExit, match="does not parse"):
            main(["explain", "((", "--store", store_url, "--doc", "d"])


class TestMetricsCommand:
    """`repro metrics`: flag surface and address validation (the live
    scrape paths are covered in tests/serve/test_observability.py)."""

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["metrics", "127.0.0.1:7700"])
        assert args.timeout == 5.0
        assert args.raw is False

    def test_malformed_address_errors(self):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["metrics", "not-an-address"])


class TestStoreURLs:
    """``--store`` takes store URLs only: a plain path or an unknown
    scheme is a usage error naming the URL spelling, and a valid URL
    reaches the config unchanged."""

    @pytest.fixture()
    def serve_stub(self, monkeypatch):
        """Stub the blocking serve loop so `main(["serve", ...])`
        returns after flag resolution; yields the captured configs."""
        import asyncio

        configs = []

        async def run_service(config, ready=None):
            configs.append(config)

        monkeypatch.setattr("repro.serve.server.run_service",
                            run_service)
        monkeypatch.setattr(asyncio, "run",
                            lambda coro: asyncio.new_event_loop()
                            .run_until_complete(coro))
        return configs

    def test_serve_plain_store_path_exits_two(self, serve_stub, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--store", "verdicts.db"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "'sqlite:///verdicts.db'" in err
        assert "docs/STORAGE.md" in err
        assert serve_stub == []

    def test_serve_store_url_never_warns(self, serve_stub):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main([
                "serve", "--store", "sqlite:///verdicts.db",
            ]) == 0
        assert serve_stub[0].store_path == "sqlite:///verdicts.db"

    @pytest.mark.parametrize("argv", [
        ["serve", "--store", "redis://x"],
        ["load", "doc.xml", "--store", "docs.db"],
        ["query", "//a", "--store", "docs.db", "--doc", "d"],
        ["explain", "//a", "--store", "docs.db", "--doc", "d"],
        ["serve-bench", "--store", "docs.db"],
    ])
    def test_every_store_flag_validates(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "argument --store" in err
