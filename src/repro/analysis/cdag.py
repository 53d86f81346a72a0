"""Chain-DAG (CDAG) representation of inferred chain sets (Section 6.1).

Explicit chain sets blow up exponentially on recursive schemas (the
paper's footnote 8), so -- like the paper's implementation -- chain sets
are represented over a *leveled unfolding* of the DTD type graph and
coded by the CDAG edges they use instead of being listed:

* a :data:`Node` is a pair ``(depth, symbol)``; the paper's CDAG property
  "at most one CDAG-node of type alpha at distance h from the root" holds
  by construction, so every edge goes from depth ``h`` to ``h + 1``;
* a :class:`Universe` numbers nodes and edges with dense ints on first
  use, so a set of nodes or of edges is one Python int read as a bitset;
* a :class:`Component` is a rooted sub-DAG ``(root, edges, ends)`` -- a
  root id, an edge mask and an end mask -- whose denoted chain set is
  *all root-to-end paths*;
* an inferred chain set is a tuple of components.  Components are never
  merged across inference sites: a component is the provenance unit
  playing the role of the paper's edge *codes*, preventing the
  cross-expression path-mixing artifacts of Figure 2.

The depth cap is the maximum chain length, computed by
:func:`repro.analysis.independence.depth_cap_from`: along the heaviest
root path of the type graph's condensation, a recursive strongly
connected component contributes ``k * |SCC|`` symbols and a trivial one
contributes one, plus one trailing text symbol.

Numbering.  The root is node 0.  A node's successors get their ids the
first time they are asked for, in sorted symbol order, and so do the
edges into them; nodes outside the capped unfolding (suffixes grafted
below deep targets, constructed and renamed tags) get ids the same way
when an operation first builds them.  No id depends on set iteration
order, hence none on ``PYTHONHASHSEED``.  Per node the universe caches
the successor and strict-descendant node and edge masks, and per node
test the mask of matching nodes, so axis steps and node tests are a few
int operations per component end.

All operations used by the inference rules are defined here as pure
functions over components; each is a direct transliteration of the
corresponding ``AC``/closure definition of Section 3.1.  Masks turn back
into chains only for display and projection (:meth:`Component.enumerate_chains`,
:func:`conflict_witness`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..schema.dtd import DTD, DTDError
from ..schema.edtd import EDTD
from ..xquery.ast import NodeTest, node_test_matches

#: A CDAG node: (depth from the root, chain symbol at that depth).
Node = tuple[int, str]

Edge = tuple[Node, Node]

Schema = DTD | EDTD


def ones(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, highest first."""
    while mask:
        index = mask.bit_length() - 1
        yield index
        mask ^= 1 << index


class Universe:
    """The leveled unfolding of a schema's type graph, up to a depth cap.

    ``depth_cap`` is the maximum chain *length* (number of symbols); the
    unfolding's node depths range over ``0 .. depth_cap - 1``.
    """

    def __init__(self, schema: Schema, depth_cap: int):
        if depth_cap < 1:
            raise ValueError("depth_cap must be at least 1")
        self.schema = schema
        self.depth_cap = depth_cap
        self._ids: dict[Node, int] = {}
        self._nodes: list[Node] = []
        self._edge_ids: dict[tuple[int, int], int] = {}
        #: Per edge id: the source and target node ids, and each as a bit.
        self.edge_source: list[int] = []
        self.edge_target: list[int] = []
        self.source_bit: list[int] = []
        self.target_bit: list[int] = []
        #: Per node id: the masks of every numbered edge into / out of it.
        self.in_edges: list[int] = []
        self.out_edges: list[int] = []
        self._successors: list[tuple[int, int] | None] = []
        self._below: list[tuple[int, int] | None] = []
        #: Label -> mask of the nodes carrying it, kept current by
        #: ``node_id``; per node test, the labels it matches.
        self._labelled: dict[str, int] = {}
        self._tests: dict[NodeTest, tuple[int, int, int, list[str]]] = {}
        self._siblings: dict[tuple[int, int, bool], tuple[int, int]] = {}
        self.root_id = self.node_id((0, schema.start))

    # -- numbering -----------------------------------------------------------

    def node_id(self, node: Node) -> int:
        """The id of ``node``, numbering it on first use."""
        index = self._ids.get(node)
        if index is None:
            index = len(self._nodes)
            self._ids[node] = index
            self._nodes.append(node)
            self.in_edges.append(0)
            self.out_edges.append(0)
            self._successors.append(None)
            self._below.append(None)
            label = self.label(node[1])
            self._labelled[label] = self._labelled.get(label, 0) | 1 << index
        return index

    def edge_id(self, source: int, target: int) -> int:
        """The id of the edge between two node ids, numbering it on first
        use."""
        key = (source, target)
        index = self._edge_ids.get(key)
        if index is None:
            index = len(self.edge_source)
            self._edge_ids[key] = index
            self.edge_source.append(source)
            self.edge_target.append(target)
            self.source_bit.append(1 << source)
            self.target_bit.append(1 << target)
            self.out_edges[source] |= 1 << index
            self.in_edges[target] |= 1 << index
        return index

    def node(self, index: int) -> Node:
        """Decode a node id."""
        return self._nodes[index]

    def node_mask(self, nodes: Iterable[Node]) -> int:
        """Encode a set of nodes (numbering new ones)."""
        mask = 0
        for node in nodes:
            mask |= 1 << self.node_id(node)
        return mask

    def edge_mask(self, edges: Iterable[Edge]) -> int:
        """Encode a set of edges (numbering new nodes and edges)."""
        mask = 0
        for source, target in edges:
            mask |= 1 << self.edge_id(self.node_id(source),
                                      self.node_id(target))
        return mask

    def nodes_of(self, mask: int) -> frozenset[Node]:
        """Decode a node mask."""
        return frozenset(self._nodes[n] for n in ones(mask))

    def edges_of(self, mask: int) -> frozenset[Edge]:
        """Decode an edge mask."""
        return frozenset(
            (self._nodes[self.edge_source[e]],
             self._nodes[self.edge_target[e]])
            for e in ones(mask)
        )

    # -- per-node and per-test caches --------------------------------------

    def successors(self, index: int) -> tuple[int, int]:
        """``(node mask, edge mask)`` of the universe edges out of a node
        (empty at the depth cap)."""
        cached = self._successors[index]
        if cached is None:
            depth, symbol = self._nodes[index]
            nodes = edges = 0
            if depth + 1 < self.depth_cap:
                for child in sorted(self.schema.children_of(symbol)):
                    target = self.node_id((depth + 1, child))
                    nodes |= 1 << target
                    edges |= 1 << self.edge_id(index, target)
            cached = self._successors[index] = (nodes, edges)
        return cached

    def below(self, index: int) -> tuple[int, int]:
        """``(node mask, edge mask)`` of everything strictly below a node
        (an iterative post-order walk; levels only increase)."""
        stack = [index]
        below = self._below
        while stack:
            current = stack[-1]
            if below[current] is not None:
                stack.pop()
                continue
            succ_nodes, succ_edges = self.successors(current)
            pending = [s for s in ones(succ_nodes) if below[s] is None]
            if pending:
                stack.extend(pending)
                continue
            nodes, edges = succ_nodes, succ_edges
            for succ in ones(succ_nodes):
                more_nodes, more_edges = below[succ]
                nodes |= more_nodes
                edges |= more_edges
            below[current] = (nodes, edges)
            stack.pop()
        return below[index]

    def label(self, symbol: str) -> str:
        """Element label of a chain symbol (EDTD: via mu; DTD: identity).
        A constructed or renamed tag outside the schema is its own
        label."""
        if isinstance(self.schema, EDTD):
            try:
                return self.schema.label_of(symbol)
            except DTDError:
                return symbol
        return symbol

    def matching(self, test: NodeTest) -> int:
        """Mask of the numbered nodes whose label satisfies ``test``.

        Cached per test together with the node count it covers; once
        nodes have been numbered since, the test is matched against the
        labels it has not seen yet and its mask is rebuilt from the
        per-label masks.
        """
        count = len(self._nodes)
        entry = self._tests.get(test)
        if entry is not None and entry[0] == count:
            return entry[1]
        seen, matched = (0, []) if entry is None else (entry[2], entry[3])
        labels = list(self._labelled)
        matched = matched + [label for label in labels[seen:]
                             if node_test_matches(test, label)]
        mask = 0
        for label in matched:
            mask |= self._labelled[label]
        self._tests[test] = (count, mask, len(labels), matched)
        return mask

    def siblings(self, parent: int, end: int,
                 following: bool) -> tuple[int, int]:
        """``(node mask, edge mask)`` of the ``<r``-siblings of ``end``
        under ``parent`` (Section 3.1), following or preceding."""
        key = (parent, end, following)
        cached = self._siblings.get(key)
        if cached is None:
            depth, symbol = self._nodes[end]
            order = self.schema.sibling_order(self._nodes[parent][1])
            if following:
                symbols = {b for (a, b) in order if a == symbol}
            else:
                symbols = {a for (a, b) in order if b == symbol}
            nodes = edges = 0
            for sibling in sorted(symbols):
                target = self.node_id((depth, sibling))
                nodes |= 1 << target
                edges |= 1 << self.edge_id(parent, target)
            cached = self._siblings[key] = (nodes, edges)
        return cached

    def sources(self, edges: int) -> int:
        """Mask of the source nodes of an edge mask."""
        source_bit = self.source_bit
        nodes = 0
        for edge in ones(edges):
            nodes |= source_bit[edge]
        return nodes

    def targets(self, edges: int) -> int:
        """Mask of the target nodes of an edge mask."""
        target_bit = self.target_bit
        nodes = 0
        for edge in ones(edges):
            nodes |= target_bit[edge]
        return nodes

    def forward(self, edges: int, start: int) -> tuple[int, int]:
        """Nodes reachable from ``start`` over ``edges``, and the edges
        of ``edges`` leaving them."""
        out_edges = self.out_edges
        nodes = frontier = start
        reached = 0
        while frontier:
            out = 0
            for node in ones(frontier):
                out |= out_edges[node]
            out &= edges
            reached |= out
            targets = self.targets(out)
            frontier = targets & ~nodes
            nodes |= targets
        return nodes, reached

    def backward(self, edges: int, ends: int) -> tuple[int, int]:
        """Nodes co-reachable to ``ends`` over ``edges``, and the edges of
        ``edges`` entering them."""
        in_edges = self.in_edges
        nodes = frontier = ends
        kept = 0
        while frontier:
            into = 0
            for node in ones(frontier):
                into |= in_edges[node]
            into &= edges
            kept |= into
            sources = self.sources(into)
            frontier = sources & ~nodes
            nodes |= sources
        return nodes, kept


@dataclass(frozen=True, slots=True)
class Component:
    """A rooted sub-DAG denoting the set of all root-to-end paths.

    ``root`` is a node id, ``edges`` and ``ends`` are masks over the
    universe's edge and node numbering.  Invariant (established by every
    constructor below): every edge lies on some root-to-end path and
    every end is reachable from the root.

    ``constructed`` marks element components (chains of newly built
    elements, rooted at the constructed tag rather than the schema start).
    ``nodes`` (every node on a root-to-end path) and ``universe`` ride
    along but take no part in equality or hashing: the inference memos
    hash components, and within one universe the three masks determine
    the rest.
    """

    root: int
    edges: int
    ends: int
    constructed: bool = False
    nodes: int = field(default=0, compare=False, repr=False)
    universe: Universe | None = field(default=None, compare=False,
                                      repr=False)

    def is_empty(self) -> bool:
        """True iff the component denotes no chain at all."""
        return not self.ends

    def enumerate_chains(self, limit: int = 10_000
                         ) -> set[tuple[str, ...]]:
        """Explicitly enumerate denoted chains (display and tests; capped).

        Raises :class:`ChainExplosion` if more than ``limit`` chains exist.
        """
        if self.is_empty():
            return set()
        universe = self.universe
        adjacency: dict[int, list[int]] = {}
        for edge in ones(self.edges):
            adjacency.setdefault(universe.edge_source[edge], []).append(
                universe.edge_target[edge]
            )
        chains: set[tuple[str, ...]] = set()
        stack: list[tuple[int, tuple[str, ...]]] = [
            (self.root, (universe.node(self.root)[1],))
        ]
        while stack:
            node, prefix = stack.pop()
            if self.ends >> node & 1:
                chains.add(prefix)
                if len(chains) > limit:
                    raise ChainExplosion(
                        f"component denotes more than {limit} chains"
                    )
            for succ in adjacency.get(node, ()):
                stack.append((succ, prefix + (universe.node(succ)[1],)))
        return chains


class ChainExplosion(RuntimeError):
    """Raised when explicit enumeration exceeds its cap."""


EMPTY_COMPONENT = Component(0, 0, 0)


def make_component(universe: Universe, root: int, edges: int, ends: int,
                   constructed: bool = False) -> Component:
    """Build a trimmed component (establishes the class invariant) from
    arbitrary masks: a forward pass from the root, then a backward pass
    from the reachable ends."""
    if not ends:
        return EMPTY_COMPONENT
    reached, reached_edges = universe.forward(edges, 1 << root)
    live_ends = ends & reached
    if not live_ends:
        return EMPTY_COMPONENT
    nodes, kept = universe.backward(reached_edges, live_ends)
    return Component(root, kept, live_ends, constructed, nodes, universe)


def singleton_component(universe: Universe, node: int,
                        constructed: bool = False) -> Component:
    """The component denoting exactly the one-symbol chain at ``node``."""
    bit = 1 << node
    return Component(node, 0, bit, constructed, bit, universe)


def trim_to_ends(component: Component, ends: int) -> Component:
    """Re-target a component at a subset ``ends`` of its nodes.

    Every node of a component is root-reachable already, so only the
    backward (co-reachability) pass is needed, and none at all when the
    new ends include the old ones.  End filters, node tests, and the
    parent/ancestor steps are all of this shape, making this the hottest
    trim in chain inference.
    """
    if not ends:
        return EMPTY_COMPONENT
    if ends == component.ends:
        return component
    if ends & component.ends == component.ends:
        return Component(component.root, component.edges, ends,
                         component.constructed, component.nodes,
                         component.universe)
    nodes, kept = component.universe.backward(component.edges, ends)
    return Component(component.root, kept, ends, component.constructed,
                     nodes, component.universe)


def restrict_to_ends(component: Component, ends: int) -> Component:
    """Sub-component of paths reaching one of ``ends`` (node tests and
    end filters)."""
    if component.is_empty():
        return EMPTY_COMPONENT
    return trim_to_ends(component, ends & component.ends)


def _extend(component: Component, new_edges: int, new_ends: int,
            sources: int) -> Component:
    """Add ``new_edges`` leaving the nodes ``sources`` of ``component``
    and make ``new_ends`` (every target of a new edge among them) the
    ends.

    Each new edge enters an end, so all of them stay.  An old edge stays
    iff it leads to a source of a new edge or to an old node that is
    also a new end: one backward pass over the old edges.
    """
    if not new_ends:
        return EMPTY_COMPONENT
    kept = trim_to_ends(component, sources | (new_ends & component.nodes))
    return Component(component.root, kept.edges | new_edges, new_ends,
                     component.constructed, kept.nodes | new_ends,
                     component.universe)


# ---------------------------------------------------------------------------
# Axis steps over components (the AC definitions of Section 3.1)
# ---------------------------------------------------------------------------


def child_step(component: Component) -> Component:
    """``AC(c, child) = { c.alpha | c.alpha in C }``."""
    if component.is_empty():
        return EMPTY_COMPONENT
    universe = component.universe
    new_nodes = new_edges = sources = 0
    for end in ones(component.ends):
        nodes, edges = universe.successors(end)
        if nodes:
            new_nodes |= nodes
            new_edges |= edges
            sources |= 1 << end
    return _extend(component, new_edges, new_nodes, sources)


def descendant_step(component: Component, or_self: bool) -> Component:
    """``AC(c, descendant[-or-self])``: all extensions within the cap."""
    if component.is_empty():
        return EMPTY_COMPONENT
    universe = component.universe
    new_nodes = new_edges = sources = 0
    for end in ones(component.ends):
        nodes, edges = universe.below(end)
        if nodes:
            new_nodes |= nodes
            new_edges |= edges
            sources |= 1 << end
    if or_self:
        # No trimming needed: old nodes stay on root-to-(old end) paths
        # and every newly added node is itself an end.
        return Component(component.root, component.edges | new_edges,
                         component.ends | new_nodes, component.constructed,
                         component.nodes | new_nodes, universe)
    return _extend(component, new_edges, new_nodes, sources)


def parent_step(component: Component) -> Component:
    """``AC(c, parent) = { c' | c = c'.alpha }``."""
    if component.is_empty():
        return EMPTY_COMPONENT
    universe = component.universe
    into = 0
    for end in ones(component.ends):
        into |= universe.in_edges[end]
    return trim_to_ends(component,
                        universe.sources(into & component.edges))


def ancestor_step(component: Component, or_self: bool) -> Component:
    """``AC(c, ancestor[-or-self])``: all (proper) prefixes.

    In a trimmed component every node is an end or lies strictly above
    one, so the proper prefixes end exactly at the nodes with an
    out-edge, and with ``or_self`` at every node.
    """
    if component.is_empty():
        return EMPTY_COMPONENT
    if or_self:
        return trim_to_ends(component, component.nodes)
    out_edges = component.universe.out_edges
    strict = component.nodes & ~component.ends
    for end in ones(component.ends):
        if out_edges[end] & component.edges:
            strict |= 1 << end
    return trim_to_ends(component, strict)


def self_step(component: Component) -> Component:
    """``AC(c, self) = { c }``."""
    return component


def sibling_step(component: Component, following: bool) -> Component:
    """``AC(c, following/preceding-sibling)`` via the ``<r`` relation.

    For a chain ``c1.alpha``, siblings are ``c1.beta`` with
    ``alpha <d(c1) beta`` (following) or ``beta <d(c1) alpha`` (preceding).
    The parent symbol is read off the in-edges of each end; root-level
    ends have no siblings.
    """
    if component.is_empty():
        return EMPTY_COMPONENT
    universe = component.universe
    new_nodes = new_edges = sources = 0
    for end in ones(component.ends):
        parents = universe.sources(universe.in_edges[end] & component.edges)
        for parent in ones(parents):
            nodes, edges = universe.siblings(parent, end, following)
            if nodes:
                new_nodes |= nodes
                new_edges |= edges
                sources |= 1 << parent
    return _extend(component, new_edges, new_nodes, sources)


def descendant_closure(component: Component) -> Component:
    """The paper's ``tau-bar``: all extensions ``c.c'`` with ``c' in C``,
    including ``c`` itself (descendant-or-self closure)."""
    return descendant_step(component, or_self=True)


def shift_component(component: Component, delta: int) -> Component:
    """Shift every node depth by ``delta`` (suffix grafting helper)."""
    if component.is_empty():
        return EMPTY_COMPONENT
    universe = component.universe
    moved: dict[int, int] = {}
    nodes = 0
    for node in ones(component.nodes):
        depth, symbol = universe.node(node)
        moved[node] = target = universe.node_id((depth + delta, symbol))
        nodes |= 1 << target
    edges = 0
    for edge in ones(component.edges):
        edges |= 1 << universe.edge_id(moved[universe.edge_source[edge]],
                                       moved[universe.edge_target[edge]])
    ends = 0
    for end in ones(component.ends):
        ends |= 1 << moved[end]
    return Component(moved[component.root], edges, ends,
                     component.constructed, nodes, universe)


def graft(prefix: Component, end: int, suffix: Component) -> Component:
    """Full-chain component: ``prefix``-paths to ``end`` extended by
    ``suffix``-chains grafted below ``end``.

    The suffix (rooted at depth 0) is depth-shifted to start right below
    ``end``; the result's chains are exactly
    ``{ p . s | p in prefix ending at end, s in suffix }``.  The trimmed
    prefix lies at or above ``end`` and the shifted suffix below it, so
    their union needs no further trimming.
    """
    if prefix.is_empty() or suffix.is_empty():
        return EMPTY_COMPONENT
    trimmed = restrict_to_ends(prefix, 1 << end)
    if trimmed.is_empty():
        return EMPTY_COMPONENT
    universe = prefix.universe
    shifted = shift_component(suffix, universe.node(end)[0] + 1)
    link = 1 << universe.edge_id(end, shifted.root)
    return Component(trimmed.root, trimmed.edges | link | shifted.edges,
                     shifted.ends, prefix.constructed or suffix.constructed,
                     trimmed.nodes | shifted.nodes, universe)


# ---------------------------------------------------------------------------
# Prefix-conflict test (Definition 4.1 over components)
# ---------------------------------------------------------------------------


def components_conflict(first: Component, second: Component) -> bool:
    """Does some chain of ``first`` prefix some chain of ``second``?

    Exact over component path semantics: a witness is a path from the
    common root through edges present in *both* components, stopping at an
    end of ``first`` that is live in ``second`` (every node of a trimmed
    component lies on a root-to-end path, so the walked prefix always
    extends to a full ``second``-chain).
    """
    if first.is_empty() or second.is_empty() or first.root != second.root:
        return False
    goal = first.ends & second.nodes
    if not goal:
        return False
    universe = first.universe
    out_edges = universe.out_edges
    shared = first.edges & second.edges
    reached = frontier = 1 << first.root
    while frontier:
        if frontier & goal:
            return True
        out = 0
        for node in ones(frontier):
            out |= out_edges[node]
        targets = universe.targets(out & shared)
        frontier = targets & ~reached
        reached |= targets
    return False


def conflict_witness(first: Component, second: Component
                     ) -> tuple[str, ...] | None:
    """A witness chain of ``first`` prefixing a ``second``-chain, if any.

    A breadth-first walk over the shared edges, one depth level at a
    time with each level in path order: the witness is the shortest one,
    and the lexicographically least among those, whatever the numbering
    or the hash seed.
    """
    if first.is_empty() or second.is_empty() or first.root != second.root:
        return None
    goal = first.ends & second.nodes
    if not goal:
        return None
    universe = first.universe
    shared = first.edges & second.edges
    seen = 1 << first.root
    level = [((universe.node(first.root)[1],), first.root)]
    while level:
        level.sort()
        for path, node in level:
            if goal >> node & 1:
                return path
        following = []
        for path, node in level:
            for edge in ones(universe.out_edges[node] & shared):
                target = universe.edge_target[edge]
                if not seen >> target & 1:
                    seen |= 1 << target
                    following.append(
                        (path + (universe.node(target)[1],), target)
                    )
        level = following
    return None
