"""Chain inference for updates: the rules of Table 2 over CDAG components.

An update chain ``c : c'`` is represented by a *full-chain* component
denoting the concatenations ``c.c'``: the target prefix (return chains of
the target query ``q0``) with the suffix grafted below each prefix
endpoint.  Suffixes come from the source expression's element chains
(constructed data) or from the schema closure below the source's return
symbols -- exactly the two unions of (INSERT-1)/(INSERT-2)/(REPLACE).

Conflict checking (Definition 4.1) only needs plain prefix tests between
full chains, so no separate ``:`` marker is stored; every construction
below guarantees a non-empty suffix (``c' != eps``), as Theorem 3.4
requires.

Deviation note: the element-chain part of (REPLACE) is anchored below the
target's *parent* (replacement puts new content in place of the target),
fixing the apparent typo in the paper's rule -- see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..xupdate.ast import (
    Delete,
    Insert,
    Rename,
    Replace,
    UConcat,
    UEmpty,
    UFor,
    UIf,
    ULet,
    Update,
    update_free_variables,
)
from .cdag import (
    EMPTY_COMPONENT,
    Component,
    make_component,
    ones,
    parent_step,
    shift_component,
    singleton_component,
)
from .infer_query import (
    Components,
    Gamma,
    InferenceError,
    QueryInference,
    gamma_bind,
)


@dataclass(frozen=True)
class UpdateComponent:
    """One update chain family ``c : c'`` as a full-chain component.

    ``full`` denotes the concatenations ``c.c'``; ``split_ends`` (a node
    mask) are the CDAG nodes where the target prefix ``c`` ends and the
    suffix ``c'`` begins, and ``suffix_edges`` (an edge mask) are exactly
    the full-component edges lying on suffix paths (the graft edges plus
    the grafted suffix component's own edges; for delete/rename, the
    edges into the final symbol).  Conflict checking needs both: an
    update *involves* every intermediate position ``c.c''`` with
    ``c'' <= c'`` (the inserted/removed subtree's root and inner nodes),
    so a used chain strictly between ``c`` and ``c.c'`` conflicts even
    though neither full chain is a prefix of it.  Restricting the
    post-split walk to
    ``suffix_edges`` keeps the test exact on recursive schemas, where a
    split node also has non-suffix out-edges leading to *deeper*
    occurrences of the target -- see ``used_chain_conflict`` in
    :mod:`repro.analysis.independence`.
    """

    full: Component
    split_ends: int
    suffix_edges: int = 0

    def is_empty(self) -> bool:
        return self.full.is_empty()

    def enumerate_chains(self, limit: int = 10_000):
        """Chains of the full component (tests/debugging)."""
        return self.full.enumerate_chains(limit)

    @property
    def ends(self) -> int:
        return self.full.ends


def _with_parent_splits(component: Component) -> UpdateComponent:
    """Wrap a delete/rename-style component: the suffix is the final
    symbol, so splits sit at the parents of the ends (the component root
    itself when a chain consists of the root only) and the suffix edges
    are the in-edges of the ends."""
    universe = component.universe
    into = 0
    for end in ones(component.ends):
        into |= universe.in_edges[end]
    final_edges = into & component.edges
    return UpdateComponent(component, universe.sources(final_edges),
                           final_edges)


class UpdateInference:
    """Chain inference engine for updates, sharing a query engine.

    Like :class:`QueryInference`, results are memoized structurally on
    ``(update AST, Gamma)`` restricted to the update's free variables, so
    one update analyzed against many views re-derives nothing.
    """

    def __init__(self, query_inference: QueryInference,
                 memo: dict | None = None):
        self.queries = query_inference
        self.universe = query_inference.universe
        self._memo: dict[tuple[Update, Gamma],
                         tuple[UpdateComponent, ...]] = (
            {} if memo is None else memo
        )

    # -- entry points --------------------------------------------------------

    def infer_root(self, update: Update, root_var: str
                   ) -> tuple[UpdateComponent, ...]:
        root = singleton_component(self.universe, self.universe.root_id)
        gamma: Gamma = ((root_var, (root,)),)
        return self.infer(update, gamma)

    def infer(self, update: Update, gamma: Gamma
              ) -> tuple[UpdateComponent, ...]:
        free = update_free_variables(update)
        key = (update, tuple((v, c) for (v, c) in gamma if v in free))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = self._infer(update, gamma)
        self._memo[key] = result
        return result

    # -- the rules -------------------------------------------------------

    def _infer(self, update: Update, gamma: Gamma
               ) -> tuple[UpdateComponent, ...]:
        if isinstance(update, UEmpty):
            return ()
        if isinstance(update, UConcat):
            return self.infer(update.left, gamma) + self.infer(
                update.right, gamma
            )
        if isinstance(update, UFor):
            source = self.queries.infer(update.source, gamma)
            inner = gamma_bind(gamma, update.var, source.returns)
            return self.infer(update.body, inner)
        if isinstance(update, ULet):
            source = self.queries.infer(update.source, gamma)
            inner = gamma_bind(gamma, update.var, source.returns)
            return self.infer(update.body, inner)
        if isinstance(update, UIf):
            return self.infer(update.then, gamma) + self.infer(
                update.orelse, gamma
            )
        if isinstance(update, Delete):                        # (DELETE)
            # { c:alpha | c.alpha in r0 }: the full chain c.alpha is the
            # target return chain itself; the split sits at the parent.
            target = self.queries.infer(update.target, gamma)
            return tuple(
                _with_parent_splits(c)
                for c in target.returns if not c.is_empty()
            )
        if isinstance(update, Rename):                        # (RENAME)
            target = self.queries.infer(update.target, gamma)
            result: list[UpdateComponent] = []
            for component in target.returns:
                if component.is_empty():
                    continue
                result.append(_with_parent_splits(component))  # c:alpha
                renamed = _replace_end_symbols(component, update.tag)
                if not renamed.is_empty():                     # c:b
                    result.append(_with_parent_splits(renamed))
            return tuple(result)
        if isinstance(update, Insert):                        # (INSERT-1/2)
            source = self.queries.infer(update.source, gamma)
            target = self.queries.infer(update.target, gamma)
            if update.pos.is_into:
                prefixes = tuple(
                    c for c in target.returns if not c.is_empty()
                )
            else:
                prefixes = tuple(
                    p for p in (parent_step(c) for c in target.returns)
                    if not p.is_empty()
                )
            return self._graft_sources(prefixes, source.returns,
                                       source.elements)
        if isinstance(update, Replace):                       # (REPLACE)
            source = self.queries.infer(update.source, gamma)
            target = self.queries.infer(update.target, gamma)
            result = list(
                _with_parent_splits(c)
                for c in target.returns if not c.is_empty()
            )                                                 # c:alpha
            prefixes = tuple(
                p for p in (parent_step(c) for c in target.returns)
                if not p.is_empty()
            )
            result.extend(
                self._graft_sources(prefixes, source.returns,
                                    source.elements)
            )
            return tuple(result)
        raise InferenceError(f"unknown update node {update!r}")

    # -- suffix grafting -------------------------------------------------

    def _graft_sources(self, prefixes: Components,
                       source_returns: Components,
                       source_elements: Components
                       ) -> tuple[UpdateComponent, ...]:
        """Build full-chain components for all (prefix, suffix) pairs.

        * element suffixes ``c' in e`` are grafted as-is;
        * input-data suffixes ``alpha.c''`` (source return symbol plus any
          schema continuation) are built from the descendant-or-self
          closure below each return end symbol.
        """
        result: list[UpdateComponent] = []
        suffixes: list[Component] = [
            c for c in source_elements if not c.is_empty()
        ]
        symbols = {
            self.universe.node(end)[1]
            for component in source_returns
            for end in ones(component.ends)
        }
        for symbol in sorted(symbols):
            suffixes.append(self._closure_suffix(symbol))
        for prefix in prefixes:
            for suffix in suffixes:
                grafted, suffix_edges = _graft_all_ends(prefix, suffix)
                if not grafted.is_empty():
                    result.append(
                        UpdateComponent(grafted, prefix.ends, suffix_edges)
                    )
        return tuple(result)

    def _closure_suffix(self, symbol: str) -> Component:
        """Suffix chains ``symbol.c''`` for any schema continuation c''
        (every node is an end, so the component is trimmed as built)."""
        universe = self.universe
        root = universe.node_id((0, symbol))
        nodes, edges = universe.below(root)
        nodes |= 1 << root
        return Component(root, edges, nodes, False, nodes, universe)


def _graft_all_ends(prefix: Component, suffix: Component
                    ) -> tuple[Component, int]:
    """One full-chain component covering every prefix endpoint.

    Each endpoint receives its own depth-shifted copy of the suffix; copies
    at different depths cannot cross (the only bridges are the per-endpoint
    graft edges), so the denoted set stays exact up to the usual
    same-(depth,symbol) merging.  Also returns the suffix edges (graft
    edges plus shifted suffix edges) for the split-aware conflict test.

    Both inputs are trimmed and every prefix end gets a graft edge into
    a trimmed copy, so every node of the union lies on a root-to-end
    path: the union needs no trimming.
    """
    if prefix.is_empty() or suffix.is_empty():
        return EMPTY_COMPONENT, 0
    universe = prefix.universe
    suffix_edges = ends = 0
    nodes = prefix.nodes
    for end in ones(prefix.ends):
        shifted = shift_component(suffix, universe.node(end)[0] + 1)
        suffix_edges |= (1 << universe.edge_id(end, shifted.root)
                         | shifted.edges)
        ends |= shifted.ends
        nodes |= shifted.nodes
    component = Component(prefix.root, prefix.edges | suffix_edges, ends,
                          prefix.constructed or suffix.constructed, nodes,
                          universe)
    return component, suffix_edges


def _replace_end_symbols(component: Component, tag: str) -> Component:
    """Chains ``c.b`` for ``c.alpha`` in the component ((RENAME)'s new tag).

    Root-only chains (renaming the document root) keep a root node with
    the new tag, represented as a fresh root component.
    """
    universe = component.universe
    edges = component.edges
    ends = 0
    root = component.root
    new_root = root
    for end in ones(component.ends):
        node = universe.node_id((universe.node(end)[0], tag))
        if end == root:
            new_root = node
            ends |= 1 << node
            continue
        parents = universe.sources(universe.in_edges[end] & component.edges)
        for parent in ones(parents):
            edges |= 1 << universe.edge_id(parent, node)
            ends |= 1 << node
    if new_root != root and ends.bit_count() == 1:
        # Only the root was renamed: a one-node component with the new tag.
        return singleton_component(universe, new_root, component.constructed)
    return make_component(universe, root, edges, ends, component.constructed)