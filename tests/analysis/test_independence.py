"""Systematic independence verdicts across operators, axes and schemas."""

from repro.analysis.engine import AnalysisEngine
from repro.analysis.independence import (
    analyze,
    depth_cap_for,
    is_independent,
)


class TestDeleteVerdicts:
    def test_disjoint_subtrees(self, bib):
        assert is_independent("//title", "delete //price", bib)

    def test_same_path_dependent(self, bib):
        assert not is_independent("//title", "delete //title", bib)

    def test_delete_ancestor_dependent(self, bib):
        assert not is_independent("//title", "delete //book", bib)

    def test_delete_root_dependent_for_everything(self, bib):
        assert not is_independent("//title", "delete /bib", bib)

    def test_delete_descendant_of_return_dependent(self, bib):
        assert not is_independent("//author", "delete //author/last", bib)

    def test_sibling_paths_independent(self, bib):
        assert is_independent("//author/last", "delete //author/first",
                              bib)


class TestInsertVerdicts:
    def test_insert_into_returned_node_dependent(self, bib):
        u = "for $x in //book return insert <author/> into $x"
        assert not is_independent("//book", u, bib)

    def test_insert_same_tag_dependent(self, bib):
        u = "for $x in //book return insert <author/> into $x"
        assert not is_independent("//author", u, bib)

    def test_insert_nested_content_detected(self, bib):
        u = ("for $x in //book return insert "
             "<author><last>E</last></author> into $x")
        assert not is_independent("//author/last", u, bib)

    def test_insert_before_sibling_independent(self, bib):
        u = "for $x in //title return insert <author/> after $x"
        assert is_independent("//title", u, bib)

    def test_insert_existing_data(self):
        """Inserting existing nodes (schema-legal position)."""
        from repro.schema import DTD

        dtd = DTD.from_dict(
            "doc", {"doc": "(a | b)*", "a": "c?", "b": "(c | a)*",
                    "c": "EMPTY"},
        )
        u = "for $x in /doc/b return insert /doc/a into $x"
        # a (and its c content) lands below b: //b//c is affected.
        assert not is_independent("//b//c", u, dtd)
        # But queries over a subtrees are untouched (copy semantics).
        assert is_independent("/doc/a/c", u, dtd)

    def test_schema_violating_insert_is_out_of_scope(self, doc_dtd):
        """Section 4's documented limitation: the analysis assumes updates
        preserve the schema.  Inserting ``a`` below ``b`` violates
        ``d(b) = c``, creates the fresh chain doc.b.a.c outside Cd, and is
        therefore (soundly w.r.t. the paper's assumption, but not w.r.t.
        arbitrary updates) reported independent of //b//c."""
        u = "for $x in /doc/b return insert /doc/a into $x"
        assert is_independent("//b//c", u, doc_dtd)


class TestRenameVerdicts:
    def test_rename_away_dependent(self, doc_dtd):
        u = "for $x in /doc/b return rename $x as a"
        assert not is_independent("//b", u, doc_dtd)

    def test_rename_into_query_tag_dependent(self, doc_dtd):
        u = "for $x in /doc/b return rename $x as a"
        assert not is_independent("//a", u, doc_dtd)

    def test_rename_descendants_affected(self, doc_dtd):
        u = "for $x in /doc/b return rename $x as a"
        assert not is_independent("//a//c", u, doc_dtd)
        assert not is_independent("//b//c", u, doc_dtd)

    def test_rename_elsewhere_independent(self, bib):
        u = "for $x in //author/first return rename $x as last"
        assert is_independent("//title", u, bib)


class TestReplaceVerdicts:
    def test_replace_target_dependent(self, bib):
        u = "for $x in //price return replace $x with <price>0</price>"
        assert not is_independent("//price", u, bib)

    def test_replace_other_field_independent(self, bib):
        u = "for $x in //price return replace $x with <price>0</price>"
        assert is_independent("//title", u, bib)

    def test_replace_introducing_query_tag(self, bib):
        u = "for $x in //price return replace $x with <title/>"
        assert not is_independent("//title", u, bib)


class TestUpwardAxes:
    def test_parent_query_vs_child_delete(self, bib):
        q = "//last/parent::author"
        assert not is_independent(q, "delete //author", bib)
        # Deleting last itself changes the *used* node set... last is the
        # navigation source: deleting it changes which authors are found.
        assert not is_independent(q, "delete //last", bib)

    def test_parent_query_vs_sibling_delete(self, bib):
        q = "//last/parent::author"
        # first is below the returned author: part of the result subtree.
        assert not is_independent(q, "delete //author/first", bib)

    def test_ancestor_query_independent_of_other_branch(self, doc_dtd):
        q = "//c/ancestor::a"
        assert not is_independent(q, "delete //a//c", doc_dtd)
        # b's subtree never contributes an ancestor::a chain...
        # but deleting b.c does not touch a chains:
        assert is_independent("/doc/a/c/ancestor::a", "delete /doc/b/c",
                              doc_dtd)


class TestSiblingAxes:
    def test_following_sibling_order_precision(self):
        """Over a <- (b, c): c follows b, so a query on b's following
        siblings depends on c updates but a query on c's following
        siblings (none) does not depend on b updates."""
        from repro.schema import DTD

        dtd = DTD.from_dict(
            "a", {"a": "(b, c)", "b": "EMPTY", "c": "EMPTY"}
        )
        q_after_b = "/a/b/following-sibling::node()"
        q_after_c = "/a/c/following-sibling::node()"
        assert not is_independent(q_after_b, "delete /a/c", dtd)
        assert is_independent(q_after_c, "delete /a/b", dtd)


class TestEngineReuse:
    def test_engine_caches_across_pairs(self, bib):
        engine = AnalysisEngine(bib, 4)
        r1 = analyze("//title", "delete //price", bib, k=4, engine=engine)
        r2 = analyze("//title", "delete //author", bib, k=4, engine=engine)
        assert r1.independent and r2.independent

    def test_report_str(self, bib):
        report = analyze("//title", "delete //price", bib)
        assert "independent" in str(report)
        assert "k=" in str(report)


class TestDepthCap:
    def test_non_recursive_cap_is_height(self, bib):
        # bib height: bib.book.author.last.#S = 5 symbols.
        assert depth_cap_for(bib, 1) == 5
        # k does not matter for non-recursive schemas.
        assert depth_cap_for(bib, 10) == 5

    def test_fully_recursive_cap_scales_with_k(self):
        from repro.bench.rbench import recursive_schema

        dn = recursive_schema(4)
        assert depth_cap_for(dn, 2) == 2 * 4 + 1

    def test_xmark_cap_far_below_naive(self, xmark):
        naive = 6 * len(xmark.alphabet)
        assert depth_cap_for(xmark, 6) < naive / 4
