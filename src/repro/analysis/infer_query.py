"""Chain inference for queries: the rules of Table 1 over CDAG components.

Judgments ``Gamma |-C q : (r; v; e)`` are computed *batched*: a variable is
bound to whole components rather than to one chain at a time, matching the
paper's CDAG implementation (Section 6.1).  The (FOR) and (STEPUH) filters
are realized per CDAG *endpoint* via :func:`productive_ends` -- exactly the
granularity of the paper's auxiliary endpoint index.

Two deliberate consequences of batching, both sound (see DESIGN.md):

* when at least one end of the iteration source is productive, the body's
  used chains are kept wholesale rather than per productive chain (keeping
  more used chains can only make the analysis more conservative);
* the (ELT) bare-tag chain ``{a | r+e = empty}`` is emitted only when the
  content is empty for *all* bindings; missed bare chains are subsumed by
  the longer element chains emitted for the non-empty bindings.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..schema.regex import TEXT_SYMBOL
from ..xquery.ast import (
    Concat,
    Element,
    Empty,
    For,
    If,
    Let,
    Query,
    Step,
    StringLit,
    free_variables,
)
from .cdag import (
    Component,
    Universe,
    descendant_closure,
    graft,
    ones,
    restrict_to_ends,
    singleton_component,
)
from .steps import productive_ends, step_on_component


class InferenceError(ValueError):
    """Raised for unbound variables during chain inference."""


#: A chain set: a tuple of components (the provenance units / "codes").
Components = tuple[Component, ...]

#: Static environment Gamma: variable -> chain set of its possible bindings.
Gamma = tuple[tuple[str, Components], ...]


def gamma_bind(gamma: Gamma, var: str, value: Components) -> Gamma:
    """Functional update of an environment."""
    return tuple((v, c) for (v, c) in gamma if v != var) + ((var, value),)


def gamma_get(gamma: Gamma, var: str) -> Components:
    for name, value in gamma:
        if name == var:
            return value
    raise InferenceError(f"unbound variable {var} in chain inference")


@dataclass(frozen=True)
class QueryChains:
    """The triple ``(r; v; e)`` of Table 1."""

    returns: Components
    used: Components
    elements: Components

    def has_output(self) -> bool:
        """``r + e != empty``: can the query produce anything?"""
        return any(not c.is_empty() for c in self.returns) or any(
            not c.is_empty() for c in self.elements
        )


_EMPTY = QueryChains((), (), ())


def _live(components: Components) -> Components:
    return tuple(c for c in components if not c.is_empty())


class QueryInference:
    """Chain inference engine for one universe (schema + depth cap).

    Results are memoized *structurally* on ``(query AST, Gamma)``: AST
    nodes are frozen dataclasses, so two structurally equal
    (sub)expressions -- whether from one parse or from re-parsing the
    same source text -- share a single inference.  Environments are
    hashable tuples restricted to the query's free variables, so
    repeated sub-inferences (triggered by the FOR filter) are free.
    """

    def __init__(self, universe: Universe, memo: dict | None = None):
        self.universe = universe
        self._memo: dict[tuple[Query, Gamma], QueryChains] = (
            {} if memo is None else memo
        )

    # -- entry points --------------------------------------------------------

    def infer_root(self, query: Query, root_var: str) -> QueryChains:
        """Infer a quasi-closed query with ``root_var`` bound to the root."""
        root = singleton_component(self.universe, self.universe.root_id)
        gamma: Gamma = ((root_var, (root,)),)
        return self.infer(query, gamma)

    def infer(self, query: Query, gamma: Gamma) -> QueryChains:
        key = (query, _relevant_gamma(gamma, query))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = self._infer(query, gamma)
        self._memo[key] = result
        return result

    # -- the rules -------------------------------------------------------

    def _infer(self, query: Query, gamma: Gamma) -> QueryChains:
        universe = self.universe

        if isinstance(query, Empty):
            return _EMPTY                                         # (EMPTY)

        if isinstance(query, StringLit):                          # (TEXT)
            text = singleton_component(
                universe, universe.node_id((0, TEXT_SYMBOL)), constructed=True
            )
            return QueryChains((), (), (text,))

        if isinstance(query, Concat):                             # (CONC)
            left = self.infer(query.left, gamma)
            right = self.infer(query.right, gamma)
            return QueryChains(
                left.returns + right.returns,
                left.used + right.used,
                left.elements + right.elements,
            )

        if isinstance(query, If):                                 # (IF)
            cond = self.infer(query.cond, gamma)
            then = self.infer(query.then, gamma)
            orelse = self.infer(query.orelse, gamma)
            return QueryChains(
                then.returns + orelse.returns,
                cond.used + then.used + orelse.used + cond.returns,
                then.elements + orelse.elements,
            )

        if isinstance(query, Step):                    # (STEPF) / (STEPUH)
            context = gamma_get(gamma, query.var)
            returns: list[Component] = []
            used: list[Component] = []
            for component in context:
                result = step_on_component(component, query.axis, query.test)
                if not result.is_empty():
                    returns.append(result)
                if not query.axis.is_forward_downward:
                    # (STEPUH): context chains that lead to results become
                    # used chains.
                    good = productive_ends(component, query.axis, query.test)
                    kept = restrict_to_ends(component, good)
                    if not kept.is_empty():
                        used.append(kept)
            return QueryChains(tuple(returns), tuple(used), ())

        if isinstance(query, For):                                # (FOR)
            source = self.infer(query.source, gamma)
            inner_gamma = gamma_bind(gamma, query.var, source.returns)
            body = self.infer(query.body, inner_gamma)
            used: list[Component] = list(source.used)
            any_productive = False
            for component in source.returns:
                good = self.productive_for_body(
                    query.body, query.var, component, inner_gamma
                )
                kept = restrict_to_ends(component, good)
                if not kept.is_empty():
                    any_productive = True
                    used.append(kept)
            if any_productive:
                used.extend(body.used)
            return QueryChains(body.returns, tuple(used), body.elements)

        if isinstance(query, Let):                                # (LET)
            source = self.infer(query.source, gamma)
            inner_gamma = gamma_bind(gamma, query.var, source.returns)
            body = self.infer(query.body, inner_gamma)
            return QueryChains(
                body.returns,
                source.returns + source.used + body.used,
                body.elements,
            )

        if isinstance(query, Element):                            # (ELT)
            inner = self.infer(query.content, gamma)
            elements: list[Component] = []
            # { a.alpha.c' | c.alpha in r, c.alpha.c' in C }
            for component in _live(inner.returns):
                elements.append(
                    self._element_over_returns(query.tag, component)
                )
            # { a.c | c in e }
            for component in _live(inner.elements):
                elements.append(self._element_over_element(query.tag,
                                                           component))
            # { a | r + e = empty }
            if not elements:
                elements.append(singleton_component(
                    universe, universe.node_id((0, query.tag)),
                    constructed=True,
                ))
            used = tuple(
                descendant_closure(component)
                for component in _live(inner.returns)
            ) + inner.used
            return QueryChains((), used, tuple(elements))

        raise InferenceError(f"unknown query node {query!r}")

    # -- (ELT) helpers -----------------------------------------------------

    def _element_over_returns(self, tag: str, component: Component
                              ) -> Component:
        """Chains ``a.alpha.c'``: the returned node's symbol re-rooted under
        the constructed tag, closed under schema descendants.  The root
        reaches every node and every other node is an end, so the
        component is trimmed as built."""
        universe = self.universe
        root = universe.node_id((0, tag))
        edges = ends = 0
        for end in ones(component.ends):
            node = universe.node_id((1, universe.node(end)[1]))
            below_nodes, below_edges = universe.below(node)
            edges |= 1 << universe.edge_id(root, node) | below_edges
            ends |= 1 << node | below_nodes
        return Component(root, edges, ends, True, ends | 1 << root, universe)

    def _element_over_element(self, tag: str, inner: Component) -> Component:
        """Chains ``a.c`` for nested element chains ``c``."""
        root = self.universe.node_id((0, tag))
        return graft(
            singleton_component(self.universe, root, constructed=True),
            root,
            inner,
        )

    # -- the (FOR) filter ----------------------------------------------------

    def productive_for_body(self, body: Query, var: str,
                            component: Component, gamma: Gamma
                            ) -> int:
        """Over-approximation (an end mask) of the ends ``n`` of
        ``component`` for which the body's ``r + e`` is non-empty under
        ``var -> n``.

        Sound direction: keeping *more* ends keeps more used chains, which
        can only make the independence verdict more conservative.
        """
        if var not in free_variables(body):
            return (component.ends
                    if self.infer(body, gamma).has_output()
                    else 0)

        if isinstance(body, Step):
            # body.var == var here (otherwise var would not be free).
            return productive_ends(component, body.axis, body.test)

        if isinstance(body, (StringLit, Element)):
            return component.ends

        if isinstance(body, Empty):
            return 0

        if isinstance(body, Concat):
            return self.productive_for_body(
                body.left, var, component, gamma
            ) | self.productive_for_body(body.right, var, component, gamma)

        if isinstance(body, If):
            # (IF) infers r = r1+r2, e = e1+e2: the condition does not gate
            # static emptiness.
            return self.productive_for_body(
                body.then, var, component, gamma
            ) | self.productive_for_body(body.orelse, var, component, gamma)

        if isinstance(body, For):
            source_part = self._productive_or_all(body.source, var,
                                                  component, gamma)
            inner_gamma = gamma_bind(
                gamma, body.var, self.infer(body.source, gamma).returns
            )
            body_part = self._productive_or_all(body.body, var, component,
                                                inner_gamma)
            return source_part & body_part

        if isinstance(body, Let):
            inner_gamma = gamma_bind(
                gamma, body.var, self.infer(body.source, gamma).returns
            )
            return self._productive_or_all(body.body, var, component,
                                           inner_gamma)

        raise InferenceError(f"unknown query node {body!r}")

    def _productive_or_all(self, query: Query, var: str,
                           component: Component, gamma: Gamma
                           ) -> int:
        if var in free_variables(query):
            return self.productive_for_body(query, var, component, gamma)
        return (component.ends if self.infer(query, gamma).has_output()
                else 0)


def _relevant_gamma(gamma: Gamma, query: Query) -> Gamma:
    """Memo key: restrict the environment to the query's free variables."""
    free = free_variables(query)
    return tuple((v, c) for (v, c) in gamma if v in free)
