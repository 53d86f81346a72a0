"""Set-based reference implementation of the CDAG operations (test oracle).

This is the representation the analyzer used before chains became
bitsets: a component is a frozenset of ``((depth, symbol), (depth,
symbol))`` edges plus a frozenset of end nodes, and every operation is a
direct graph walk over those tuples.  It is slow but transparent, so the
property suite in ``test_cdag_oracle.py`` runs random step sequences,
grafts and the three Definition 4.1 checks through both implementations
and requires equal denoted chain sets, end sets and conflict booleans.

Only the test suite imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cdag import ChainExplosion
from repro.schema.edtd import EDTD
from repro.xquery.ast import Axis, NodeTest, node_test_matches

Node = tuple[int, str]
Edge = tuple[Node, Node]


class Universe:
    """The leveled unfolding of a schema's type graph, up to a depth cap."""

    def __init__(self, schema, depth_cap: int):
        self.schema = schema
        self.depth_cap = depth_cap
        self._successors: dict[Node, list[Node]] = {}

    def root(self) -> Node:
        return (0, self.schema.start)

    def successors(self, node: Node) -> list[Node]:
        cached = self._successors.get(node)
        if cached is not None:
            return cached
        depth, symbol = node
        if depth + 1 >= self.depth_cap:
            result: list[Node] = []
        else:
            result = [(depth + 1, child)
                      for child in self.schema.children_of(symbol)]
        self._successors[node] = result
        return result

    def label(self, symbol: str) -> str:
        if isinstance(self.schema, EDTD):
            return self.schema.label_of(symbol)
        return symbol


@dataclass(frozen=True)
class Component:
    """A rooted sub-DAG denoting the set of all root-to-end paths."""

    root: Node
    edges: frozenset[Edge]
    ends: frozenset[Node]
    constructed: bool = False

    def is_empty(self) -> bool:
        return not self.ends

    def nodes(self) -> frozenset[Node]:
        if self.is_empty():
            return frozenset()
        found: set[Node] = {self.root} | set(self.ends)
        for source, target in self.edges:
            found.add(source)
            found.add(target)
        return frozenset(found)

    def enumerate_chains(self, limit: int = 10_000
                         ) -> set[tuple[str, ...]]:
        if self.is_empty():
            return set()
        adjacency: dict[Node, list[Node]] = {}
        for source, target in self.edges:
            adjacency.setdefault(source, []).append(target)
        chains: set[tuple[str, ...]] = set()
        stack = [(self.root, (self.root[1],))]
        while stack:
            node, prefix = stack.pop()
            if node in self.ends:
                chains.add(prefix)
                if len(chains) > limit:
                    raise ChainExplosion(limit)
            for succ in adjacency.get(node, ()):
                stack.append((succ, prefix + (succ[1],)))
        return chains


EMPTY_COMPONENT = Component((0, ""), frozenset(), frozenset())


def _reverse(edges) -> dict[Node, list[Node]]:
    reverse: dict[Node, list[Node]] = {}
    for source, target in edges:
        reverse.setdefault(target, []).append(source)
    return reverse


def _closure(start, adjacency) -> set[Node]:
    seen: set[Node] = set(start)
    frontier = list(start)
    while frontier:
        node = frontier.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def make_component(root: Node, edges, ends,
                   constructed: bool = False) -> Component:
    """Build a trimmed component (forward and backward pass)."""
    if not ends:
        return EMPTY_COMPONENT
    adjacency: dict[Node, list[Node]] = {}
    for source, target in edges:
        adjacency.setdefault(source, []).append(target)
    forward = _closure([root], adjacency)
    live_ends = frozenset(e for e in ends if e in forward)
    if not live_ends:
        return EMPTY_COMPONENT
    backward = _closure(live_ends, _reverse(edges))
    useful = forward & backward
    kept = frozenset(
        (s, t) for (s, t) in edges if s in useful and t in useful
    )
    return Component(root, kept, live_ends, constructed)


def singleton_component(root: Node, constructed: bool = False) -> Component:
    return Component(root, frozenset(), frozenset((root,)), constructed)


def trim_to_ends(component: Component, ends) -> Component:
    live = frozenset(ends)
    if not live:
        return EMPTY_COMPONENT
    backward = _closure(live, _reverse(component.edges))
    kept = frozenset(
        (s, t) for (s, t) in component.edges
        if s in backward and t in backward
    )
    return Component(component.root, kept, live, component.constructed)


def restrict_to_ends(component: Component, ends) -> Component:
    if component.is_empty():
        return EMPTY_COMPONENT
    return trim_to_ends(component, set(ends) & component.ends)


# -- axis steps ---------------------------------------------------------------


def child_step(component: Component, universe: Universe) -> Component:
    if component.is_empty():
        return EMPTY_COMPONENT
    edges = set(component.edges)
    ends: set[Node] = set()
    for end in component.ends:
        for succ in universe.successors(end):
            edges.add((end, succ))
            ends.add(succ)
    return make_component(component.root, edges, ends,
                          component.constructed)


def descendant_step(component: Component, universe: Universe,
                    or_self: bool) -> Component:
    if component.is_empty():
        return EMPTY_COMPONENT
    edges = set(component.edges)
    ends: set[Node] = set(component.ends) if or_self else set()
    seen: set[Node] = set(component.ends)
    frontier = list(component.ends)
    while frontier:
        node = frontier.pop()
        for succ in universe.successors(node):
            edges.add((node, succ))
            ends.add(succ)
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return make_component(component.root, edges, ends,
                          component.constructed)


def parent_step(component: Component) -> Component:
    if component.is_empty():
        return EMPTY_COMPONENT
    return trim_to_ends(component, {
        source for (source, target) in component.edges
        if target in component.ends
    })


def ancestor_step(component: Component, or_self: bool) -> Component:
    if component.is_empty():
        return EMPTY_COMPONENT
    reverse = _reverse(component.edges)
    strict = _closure(
        [p for end in component.ends for p in reverse.get(end, ())],
        reverse,
    )
    return trim_to_ends(
        component, strict | set(component.ends) if or_self else strict
    )


def _siblings(universe: Universe, parent: Node, end: Node,
              following: bool) -> set[str]:
    order = universe.schema.sibling_order(parent[1])
    if following:
        return {b for (a, b) in order if a == end[1]}
    return {a for (a, b) in order if b == end[1]}


def sibling_step(component: Component, universe: Universe,
                 following: bool) -> Component:
    if component.is_empty():
        return EMPTY_COMPONENT
    reverse = _reverse(component.edges)
    edges = set(component.edges)
    ends: set[Node] = set()
    for end in component.ends:
        for parent in reverse.get(end, ()):
            for sibling in _siblings(universe, parent, end, following):
                node = (end[0], sibling)
                edges.add((parent, node))
                ends.add(node)
    return make_component(component.root, edges, ends,
                          component.constructed)


def axis_on_component(component: Component, axis: Axis,
                      universe: Universe) -> Component:
    if axis is Axis.SELF:
        return component
    if axis is Axis.CHILD:
        return child_step(component, universe)
    if axis is Axis.DESCENDANT:
        return descendant_step(component, universe, or_self=False)
    if axis is Axis.DESCENDANT_OR_SELF:
        return descendant_step(component, universe, or_self=True)
    if axis is Axis.PARENT:
        return parent_step(component)
    if axis is Axis.ANCESTOR:
        return ancestor_step(component, or_self=False)
    if axis is Axis.ANCESTOR_OR_SELF:
        return ancestor_step(component, or_self=True)
    if axis is Axis.FOLLOWING_SIBLING:
        return sibling_step(component, universe, following=True)
    return sibling_step(component, universe, following=False)


def step_on_component(component: Component, axis: Axis, test: NodeTest,
                      universe: Universe) -> Component:
    stepped = axis_on_component(component, axis, universe)
    if stepped.is_empty():
        return EMPTY_COMPONENT
    return trim_to_ends(stepped, {
        end for end in stepped.ends
        if node_test_matches(test, universe.label(end[1]))
    })


def productive_ends(component: Component, axis: Axis, test: NodeTest,
                    universe: Universe) -> frozenset[Node]:
    """Ends ``n`` of ``component`` whose step result is non-empty."""
    if component.is_empty():
        return frozenset()

    def matches(node: Node) -> bool:
        return node_test_matches(test, universe.label(node[1]))

    if axis is Axis.SELF:
        return frozenset(e for e in component.ends if matches(e))

    if axis is Axis.CHILD:
        return frozenset(
            e for e in component.ends
            if any(matches(s) for s in universe.successors(e))
        )

    if axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
        result = set()
        memo: dict[Node, bool] = {}
        for end in component.ends:
            if axis is Axis.DESCENDANT_OR_SELF and matches(end):
                result.add(end)
                continue
            if _has_matching_descendant(end, matches, universe, memo):
                result.add(end)
        return frozenset(result)

    # Upward and horizontal axes need the component's own edges.
    reverse: dict[Node, list[Node]] = {}
    for source, target in component.edges:
        reverse.setdefault(target, []).append(source)

    if axis is Axis.PARENT:
        return frozenset(
            e for e in component.ends
            if any(matches(p) for p in reverse.get(e, ()))
        )

    if axis in (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
        result = set()
        for end in component.ends:
            if axis is Axis.ANCESTOR_OR_SELF and matches(end):
                result.add(end)
                continue
            seen: set[Node] = set()
            frontier = list(reverse.get(end, ()))
            found = False
            while frontier and not found:
                node = frontier.pop()
                if node in seen:
                    continue
                seen.add(node)
                if matches(node):
                    found = True
                    break
                frontier.extend(reverse.get(node, ()))
            if found:
                result.add(end)
        return frozenset(result)

    if axis in (Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING):
        following = axis is Axis.FOLLOWING_SIBLING
        result = set()
        for end in component.ends:
            symbol = end[1]
            for parent in reverse.get(end, ()):
                order = universe.schema.sibling_order(parent[1])
                if following:
                    siblings = {b for (a, b) in order if a == symbol}
                else:
                    siblings = {a for (a, b) in order if b == symbol}
                if any(matches((end[0], s)) for s in siblings):
                    result.add(end)
                    break
        return frozenset(result)

    raise ValueError(f"unknown axis {axis!r}")


def _has_matching_descendant(node: Node, matches, universe: Universe,
                             memo: dict[Node, bool]) -> bool:
    """Iterative memoized DFS (levels only increase, so the graph is acyclic)."""
    cached = memo.get(node)
    if cached is not None:
        return cached
    stack: list[tuple[Node, bool]] = [(node, False)]
    while stack:
        current, expanded = stack.pop()
        if current in memo:
            continue
        if expanded:
            memo[current] = any(
                matches(s) or memo.get(s, False)
                for s in universe.successors(current)
            )
            continue
        stack.append((current, True))
        for succ in universe.successors(current):
            if succ not in memo and not matches(succ):
                stack.append((succ, False))
    return memo[node]


# -- shifting and grafting ----------------------------------------------------


def shift_component(component: Component, delta: int) -> Component:
    if component.is_empty():
        return EMPTY_COMPONENT

    def move(node: Node) -> Node:
        return (node[0] + delta, node[1])

    return Component(
        move(component.root),
        frozenset((move(s), move(t)) for (s, t) in component.edges),
        frozenset(move(e) for e in component.ends),
        component.constructed,
    )


def graft(prefix: Component, end: Node, suffix: Component) -> Component:
    if prefix.is_empty() or suffix.is_empty():
        return EMPTY_COMPONENT
    trimmed = restrict_to_ends(prefix, {end})
    if trimmed.is_empty():
        return EMPTY_COMPONENT
    shifted = shift_component(suffix, end[0] + 1)
    edges = set(trimmed.edges) | set(shifted.edges)
    edges.add((end, shifted.root))
    return make_component(trimmed.root, edges, shifted.ends,
                          prefix.constructed or suffix.constructed)


@dataclass(frozen=True)
class UpdateComponent:
    """An update chain family: full component, split ends, suffix edges."""

    full: Component
    split_ends: frozenset
    suffix_edges: frozenset = frozenset()


def with_parent_splits(component: Component) -> UpdateComponent:
    final_edges = frozenset(
        (source, target) for (source, target) in component.edges
        if target in component.ends
    )
    return UpdateComponent(
        component,
        frozenset(source for (source, _) in final_edges),
        final_edges,
    )


def graft_all_ends(prefix: Component, suffix: Component) -> UpdateComponent:
    if prefix.is_empty() or suffix.is_empty():
        return UpdateComponent(EMPTY_COMPONENT, frozenset())
    edges: set[Edge] = set(prefix.edges)
    suffix_edges: set[Edge] = set()
    ends: set[Node] = set()
    for end in prefix.ends:
        shifted = shift_component(suffix, end[0] + 1)
        suffix_edges.add((end, shifted.root))
        suffix_edges.update(shifted.edges)
        ends.update(shifted.ends)
    component = make_component(prefix.root, edges | suffix_edges, ends,
                               prefix.constructed or suffix.constructed)
    return UpdateComponent(component, prefix.ends,
                           frozenset(suffix_edges) & component.edges)


def replace_end_symbols(component: Component, tag: str) -> Component:
    edges: set[Edge] = set(component.edges)
    reverse = _reverse(component.edges)
    ends: set[Node] = set()
    root = component.root
    new_root = root
    for end in component.ends:
        node: Node = (end[0], tag)
        if end == root:
            new_root = node
            ends.add(node)
            continue
        for parent in reverse.get(end, ()):
            edges.add((parent, node))
            ends.add(node)
    if new_root != root and len(ends) == 1:
        return singleton_component(new_root, component.constructed)
    return make_component(root, edges, {e for e in ends if e[1] == tag},
                          component.constructed)


# -- Definition 4.1 -----------------------------------------------------------


def components_conflict(first: Component, second: Component) -> bool:
    """Does some chain of ``first`` prefix some chain of ``second``?"""
    if first.is_empty() or second.is_empty() or first.root != second.root:
        return False
    shared: dict[Node, list[Node]] = {}
    for edge in first.edges & second.edges:
        shared.setdefault(edge[0], []).append(edge[1])
    reachable = _closure([first.root], shared)
    second_nodes = second.nodes()
    return any(
        end in reachable and end in second_nodes for end in first.ends
    )


def used_chain_conflict(update: UpdateComponent, used: Component) -> bool:
    """Does the update involve a used position (split-aware walk)?"""
    full = update.full
    if full.is_empty() or used.is_empty() or full.root != used.root:
        return False
    if full.root in full.ends and not update.split_ends:
        return True
    shared: dict[Node, list[Node]] = {}
    for edge in full.edges & used.edges:
        shared.setdefault(edge[0], []).append(edge[1])
    suffix_shared: dict[Node, list[Node]] = {}
    for edge in update.suffix_edges & used.edges:
        suffix_shared.setdefault(edge[0], []).append(edge[1])
    used_nodes = used.nodes()
    seen: set[tuple[Node, bool]] = set()
    stack: list[tuple[Node, bool]] = [(full.root, False)]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        node, in_suffix = state
        if in_suffix and (
            node in used.ends or (node in full.ends and node in used_nodes)
        ):
            return True
        for succ in suffix_shared.get(node, ()):
            stack.append((succ, True))
        if not in_suffix:
            for succ in shared.get(node, ()):
                stack.append((succ, False))
    return False
