"""CDAG components: construction, trimming, steps, conflicts (Section 6.1)."""

import pytest

from repro.analysis.cdag import (
    EMPTY_COMPONENT,
    ChainExplosion,
    Universe,
    ancestor_step,
    child_step,
    components_conflict,
    conflict_witness,
    descendant_step,
    graft,
    make_component,
    parent_step,
    restrict_to_ends,
    shift_component,
    sibling_step,
    singleton_component,
)
from repro.analysis.independence import used_chain_conflict
from repro.analysis.infer_update import UpdateComponent


@pytest.fixture()
def universe(doc_dtd):
    return Universe(doc_dtd, depth_cap=4)


@pytest.fixture()
def root(universe):
    return singleton_component(universe, universe.root_id)


def build(universe, root, edges, ends):
    """A trimmed component from ``(depth, symbol)`` tuples."""
    return make_component(universe, universe.node_id(root),
                          universe.edge_mask(edges),
                          universe.node_mask(ends))


class TestComponentBasics:
    def test_singleton_denotes_root_chain(self, root):
        assert root.enumerate_chains() == {("doc",)}

    def test_empty_component(self, universe):
        component = build(universe, (0, "doc"), set(), set())
        assert component.is_empty()
        assert component.enumerate_chains() == set()

    def test_make_trims_unreachable_ends(self, universe):
        component = build(
            universe, (0, "doc"), set(), {(0, "doc"), (5, "ghost")}
        )
        assert universe.nodes_of(component.ends) == frozenset({(0, "doc")})

    def test_make_trims_dead_edges(self, universe):
        edges = {((0, "doc"), (1, "a")), ((0, "doc"), (1, "b"))}
        component = build(universe, (0, "doc"), edges, {(1, "a")})
        assert ((0, "doc"), (1, "b")) not in universe.edges_of(
            component.edges)
        assert component.enumerate_chains() == {("doc", "a")}

    def test_nodes(self, universe, root):
        stepped = child_step(root)
        assert (0, "doc") in universe.nodes_of(stepped.nodes)
        assert (1, "a") in universe.nodes_of(stepped.nodes)

    def test_enumeration_cap(self, d1_dtd):
        universe = Universe(d1_dtd, depth_cap=30)
        component = descendant_step(
            singleton_component(universe, universe.root_id), or_self=True
        )
        with pytest.raises(ChainExplosion):
            component.enumerate_chains(limit=50)


class TestSteps:
    def test_child(self, root):
        stepped = child_step(root)
        assert stepped.enumerate_chains() == {("doc", "a"), ("doc", "b")}

    def test_child_twice(self, root):
        stepped = child_step(child_step(root))
        assert stepped.enumerate_chains() == {
            ("doc", "a", "c"), ("doc", "b", "c")
        }

    def test_descendant(self, root):
        stepped = descendant_step(root, or_self=False)
        assert stepped.enumerate_chains() == {
            ("doc", "a"), ("doc", "b"), ("doc", "a", "c"), ("doc", "b", "c")
        }

    def test_descendant_or_self(self, root):
        stepped = descendant_step(root, or_self=True)
        assert ("doc",) in stepped.enumerate_chains()

    def test_parent(self, root):
        down = child_step(child_step(root))
        up = parent_step(down)
        assert up.enumerate_chains() == {("doc", "a"), ("doc", "b")}

    def test_parent_of_root_is_empty(self, root):
        assert parent_step(root).is_empty()

    def test_ancestor(self, root):
        down = child_step(child_step(root))
        up = ancestor_step(down, or_self=False)
        assert up.enumerate_chains() == {
            ("doc",), ("doc", "a"), ("doc", "b")
        }

    def test_ancestor_or_self(self, root):
        down = child_step(root)
        up = ancestor_step(down, or_self=True)
        assert up.enumerate_chains() == {
            ("doc",), ("doc", "a"), ("doc", "b")
        }

    def test_sibling_following(self, sibling_dtd):
        """Over {a<-(b,f*)}: following-siblings of b chains are f chains."""
        universe = Universe(sibling_dtd, depth_cap=5)
        root = singleton_component(universe, universe.root_id)
        b_chains = restrict_to_ends(
            child_step(root), universe.node_mask({(1, "b")})
        )
        siblings = sibling_step(b_chains, following=True)
        assert siblings.enumerate_chains() == {("a", "f")}

    def test_sibling_preceding(self, sibling_dtd):
        universe = Universe(sibling_dtd, depth_cap=5)
        root = singleton_component(universe, universe.root_id)
        f_chains = restrict_to_ends(
            child_step(root), universe.node_mask({(1, "f")})
        )
        siblings = sibling_step(f_chains, following=False)
        # b before f, and f* allows f before f.
        assert siblings.enumerate_chains() == {("a", "b"), ("a", "f")}

    def test_depth_cap_limits_descendants(self, d1_dtd):
        universe = Universe(d1_dtd, depth_cap=3)
        closure = descendant_step(
            singleton_component(universe, universe.root_id), or_self=False
        )
        assert all(len(c) <= 3 for c in closure.enumerate_chains())


class TestShiftAndGraft:
    def test_shift(self, universe, root):
        stepped = child_step(root)
        shifted = shift_component(stepped, 2)
        assert universe.node(shifted.root) == (2, "doc")
        assert all(e[0] >= 2 for e in universe.nodes_of(shifted.ends))
        assert shifted.enumerate_chains() == stepped.enumerate_chains()

    def test_graft_concatenates(self, universe):
        prefix = child_step(singleton_component(universe, universe.root_id))
        prefix = restrict_to_ends(prefix, universe.node_mask({(1, "a")}))
        suffix = singleton_component(universe, universe.node_id((0, "x")))
        full = graft(prefix, universe.node_id((1, "a")), suffix)
        assert full.enumerate_chains() == {("doc", "a", "x")}

    def test_graft_empty_suffix(self, root):
        assert graft(root, root.root, EMPTY_COMPONENT).is_empty()


class TestConflicts:
    def _chains_component(self, universe, *dotted):
        """Build a component denoting exactly the given chains."""
        edges = set()
        ends = set()
        for text in dotted:
            parts = text.split(".")
            for i in range(len(parts) - 1):
                edges.add(((i, parts[i]), (i + 1, parts[i + 1])))
            ends.add((len(parts) - 1, parts[-1]))
        return build(universe, (0, dotted[0].split(".")[0]), edges, ends)

    def test_disjoint_chains_no_conflict(self, universe):
        q = self._chains_component(universe, "doc.a.c")
        u = self._chains_component(universe, "doc.b.c")
        assert not components_conflict(q, u)
        assert not components_conflict(u, q)

    def test_equal_chain_conflicts(self, universe):
        q = self._chains_component(universe, "doc.a.c")
        assert components_conflict(q, q)

    def test_prefix_conflicts_one_way(self, universe):
        short = self._chains_component(universe, "doc.a")
        long = self._chains_component(universe, "doc.a.c")
        assert components_conflict(short, long)
        assert not components_conflict(long, short)

    def test_root_chain_conflicts_with_everything(self, universe):
        root_chain = self._chains_component(universe, "doc")
        other = self._chains_component(universe, "doc.b.c")
        assert components_conflict(root_chain, other)

    def test_different_roots_never_conflict(self, universe):
        a = self._chains_component(universe, "doc.a")
        b = self._chains_component(universe, "other.a")
        assert not components_conflict(a, b)

    def test_witness(self, universe):
        short = self._chains_component(universe, "doc.a")
        long = self._chains_component(universe, "doc.a.c")
        assert conflict_witness(short, long) == ("doc", "a")
        assert conflict_witness(long, short) is None

    def test_witness_is_shortest_then_least(self, universe):
        first = self._chains_component(universe, "doc.a.c", "doc.b")
        second = self._chains_component(universe, "doc.a.c", "doc.b.c")
        assert conflict_witness(first, second) == ("doc", "b")
        both = self._chains_component(universe, "doc.b", "doc.a")
        assert conflict_witness(both, both) == ("doc", "a")

    def test_figure2_no_artifact(self, universe):
        """Figure 2: merging q1's chains must not fabricate a.b.c.f."""
        q1 = self._chains_component(universe, "a.b.c.e", "a.d.c.e")
        q2 = self._chains_component(universe, "a.d.c.f")
        # a.b.c.f is not in either component's language.
        assert ("a", "b", "c", "f") not in q1.enumerate_chains()
        assert ("a", "b", "c", "f") not in q2.enumerate_chains()
        # And the two components do not conflict (no chain of one prefixes
        # a chain of the other: they diverge at depth 3 / depth 1).
        assert not components_conflict(q1, q2)

    def test_used_chain_through_inserted_subtree(self, universe):
        """Inserting <x><y/></x> into //b: a used chain that ends at the
        target b, and one that enters the new x but leaves it for z,
        neither extends the target and is comparable with b.x.y."""
        full = self._chains_component(universe, "doc.b.x.y")
        update = UpdateComponent(
            full, universe.node_mask({(1, "b")}),
            universe.edge_mask({((1, "b"), (2, "x")), ((2, "x"), (3, "y"))}),
        )
        used = self._chains_component(universe, "doc.b", "doc.b.x.z")
        assert not used_chain_conflict(update, used)
        # Reaching the inserted y, or any used end inside x, conflicts.
        inside = self._chains_component(universe, "doc.b", "doc.b.x")
        assert used_chain_conflict(update, inside)
        assert used_chain_conflict(
            update, self._chains_component(universe, "doc.b.x.y.w"))
