"""Step inference AC/TC over components, against explicit chain sets."""

import pytest

from repro.analysis.cdag import (
    Universe,
    child_step,
    descendant_step,
    make_component,
    singleton_component,
)
from repro.analysis.steps import (
    productive_ends,
    step_on_component,
)
from repro.xquery.ast import (
    Axis,
    NameTest,
    NodeKindTest,
    TextTest,
    WildcardTest,
)


@pytest.fixture()
def doc_universe(doc_dtd):
    return Universe(doc_dtd, depth_cap=4)


@pytest.fixture()
def doc_root(doc_universe):
    return singleton_component(doc_universe, doc_universe.root_id)


def chains(component):
    return component.enumerate_chains()


class TestAC_TC:
    def test_child_with_name_test(self, doc_root):
        result = step_on_component(doc_root, Axis.CHILD, NameTest("a"))
        assert chains(result) == {("doc", "a")}

    def test_child_no_match(self, doc_root):
        result = step_on_component(doc_root, Axis.CHILD, NameTest("c"))
        assert result.is_empty()

    def test_descendant_name(self, doc_root):
        result = step_on_component(doc_root, Axis.DESCENDANT, NameTest("c"))
        assert chains(result) == {("doc", "a", "c"), ("doc", "b", "c")}

    def test_self_node(self, doc_root):
        result = step_on_component(doc_root, Axis.SELF, NodeKindTest())
        assert chains(result) == {("doc",)}

    def test_self_name_mismatch(self, doc_root):
        result = step_on_component(doc_root, Axis.SELF, NameTest("a"))
        assert result.is_empty()

    def test_wildcard_excludes_text(self, doc_dtd):
        text_dtd_universe = Universe(doc_dtd, depth_cap=4)
        root = singleton_component(text_dtd_universe,
                                   text_dtd_universe.root_id)
        all_nodes = step_on_component(
            root, Axis.DESCENDANT_OR_SELF, NodeKindTest(),
        )
        elements_only = step_on_component(
            root, Axis.DESCENDANT_OR_SELF, WildcardTest(),
        )
        assert chains(elements_only) <= chains(all_nodes)

    def test_text_test(self, bib):
        universe = Universe(bib, depth_cap=5)
        root = singleton_component(universe, universe.root_id)
        titles = step_on_component(
            step_on_component(root, Axis.DESCENDANT, NameTest("title")),
            Axis.CHILD, TextTest(),
        )
        assert chains(titles) == {("bib", "book", "title", "#S")}

    def test_paper_sibling_example(self, sibling_dtd):
        """Section 3.2: over {a <- (b+, c*)} ... /a/b/following-sibling::c
        has used chain a.b and return chain a.c."""
        dtd_universe = Universe(
            __import__("repro.schema", fromlist=["DTD"]).DTD.from_dict(
                "a", {"a": "(b+, c*)", "b": "EMPTY", "c": "EMPTY"}
            ),
            depth_cap=3,
        )
        root = singleton_component(dtd_universe, dtd_universe.root_id)
        b_chains = step_on_component(root, Axis.CHILD, NameTest("b"))
        result = step_on_component(
            b_chains, Axis.FOLLOWING_SIBLING, NameTest("c")
        )
        assert chains(result) == {("a", "c")}
        good = productive_ends(b_chains, Axis.FOLLOWING_SIBLING,
                               NameTest("c"))
        assert dtd_universe.nodes_of(good) == frozenset({(1, "b")})


class TestProductiveEnds:
    def test_child_productive(self, doc_universe, doc_root):
        all_chains = descendant_step(doc_root, or_self=True)
        good = productive_ends(all_chains, Axis.CHILD, NameTest("c"))
        # Only a- and b-ends have a c child.
        assert {n[1] for n in doc_universe.nodes_of(good)} == {"a", "b"}

    def test_descendant_productive(self, doc_universe, doc_root):
        good = productive_ends(doc_root, Axis.DESCENDANT, NameTest("c"))
        assert doc_universe.nodes_of(good) == frozenset({(0, "doc")})

    def test_descendant_unproductive(self, doc_root):
        good = productive_ends(doc_root, Axis.DESCENDANT, NameTest("zzz"))
        assert good == 0

    def test_self_productive(self, doc_universe, doc_root):
        good = productive_ends(doc_root, Axis.SELF, NameTest("doc"))
        assert doc_universe.nodes_of(good) == frozenset({(0, "doc")})

    def test_parent_productive(self, doc_root):
        down = child_step(doc_root)
        good = productive_ends(down, Axis.PARENT, NameTest("doc"))
        assert good == down.ends

    def test_ancestor_productive(self, doc_root):
        down = child_step(child_step(doc_root))
        good = productive_ends(down, Axis.ANCESTOR, NameTest("doc"))
        assert good == down.ends
        none = productive_ends(down, Axis.ANCESTOR, NameTest("zzz"))
        assert none == 0

    def test_parent_reads_component_edges(self, doc_universe):
        """Over chains {doc.a.c, doc.b}, (2,c)'s only parent is a: the
        universe edge b -> c is not in the component."""
        u = doc_universe
        u.below(u.root_id)  # number every universe edge, b -> c included
        component = make_component(
            u, u.root_id,
            u.edge_mask({((0, "doc"), (1, "a")), ((1, "a"), (2, "c")),
                         ((0, "doc"), (1, "b"))}),
            u.node_mask({(2, "c"), (1, "b")}),
        )
        assert chains(component) == {("doc", "a", "c"), ("doc", "b")}
        assert productive_ends(component, Axis.PARENT, NameTest("b")) == 0
        good = productive_ends(component, Axis.PARENT, NameTest("a"))
        assert u.nodes_of(good) == frozenset({(2, "c")})

    def test_root_has_no_siblings(self, doc_root):
        good = productive_ends(
            doc_root, Axis.FOLLOWING_SIBLING, NodeKindTest()
        )
        assert good == 0
