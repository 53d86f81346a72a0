"""Step chain inference: ``AC`` (axes) and ``TC`` (node tests), Section 3.1.

Operates on CDAG components.  :func:`step_on_component` computes
``TC(AC(c, axis), phi)`` for all chains ``c`` of a component at once;
:func:`productive_ends` computes the subset of context ends for which the
step result is non-empty (the paper's (STEPUH) used-chain filter, and the
building block of the (FOR) filter).  Node tests are the universe's
cached per-test node masks, so both are mask operations.
"""

from __future__ import annotations

from ..xquery.ast import Axis, NodeTest
from .cdag import (
    EMPTY_COMPONENT,
    Component,
    ancestor_step,
    child_step,
    descendant_step,
    ones,
    parent_step,
    restrict_to_ends,
    self_step,
    sibling_step,
)


def axis_on_component(component: Component, axis: Axis) -> Component:
    """``AC(c, axis)`` applied to every chain of ``component``."""
    if axis is Axis.SELF:
        return self_step(component)
    if axis is Axis.CHILD:
        return child_step(component)
    if axis is Axis.DESCENDANT:
        return descendant_step(component, or_self=False)
    if axis is Axis.DESCENDANT_OR_SELF:
        return descendant_step(component, or_self=True)
    if axis is Axis.PARENT:
        return parent_step(component)
    if axis is Axis.ANCESTOR:
        return ancestor_step(component, or_self=False)
    if axis is Axis.ANCESTOR_OR_SELF:
        return ancestor_step(component, or_self=True)
    if axis is Axis.FOLLOWING_SIBLING:
        return sibling_step(component, following=True)
    if axis is Axis.PRECEDING_SIBLING:
        return sibling_step(component, following=False)
    raise ValueError(f"unknown axis {axis!r}")


def test_on_component(component: Component, test: NodeTest) -> Component:
    """``TC(c, phi)``: keep chains whose last symbol's label matches."""
    if component.is_empty():
        return EMPTY_COMPONENT
    return restrict_to_ends(component, component.universe.matching(test))


def step_on_component(component: Component, axis: Axis,
                      test: NodeTest) -> Component:
    """``TC(AC(c, axis), phi)`` over a whole component."""
    return test_on_component(axis_on_component(component, axis), test)


def productive_ends(component: Component, axis: Axis,
                    test: NodeTest) -> int:
    """Mask of the ends ``n`` of ``component`` whose step result is
    non-empty.

    Exact per-end computation; used by the (STEPUH) used-chain filter and
    by the (FOR) filter of Table 1.  The node and edge masks an axis
    reaches are built before the test mask is read, so the test mask
    covers every node they number.
    """
    if component.is_empty():
        return 0
    universe = component.universe
    ends = component.ends

    if axis is Axis.SELF:
        return ends & universe.matching(test)

    if axis in (Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
        reach = universe.successors if axis is Axis.CHILD \
            else universe.below
        reached = [(end, reach(end)[0]) for end in ones(ends)]
        match = universe.matching(test)
        result = ends & match if axis is Axis.DESCENDANT_OR_SELF else 0
        for end, nodes in reached:
            if nodes & match:
                result |= 1 << end
        return result

    if axis in (Axis.PARENT, Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
        # Ends entered by a component edge from a matching node (parent),
        # or reached by one or more component edges from one (ancestor).
        match = universe.matching(test)
        start = component.nodes & match
        if axis is Axis.PARENT:
            out = 0
            for node in ones(start):
                out |= universe.out_edges[node]
            below = universe.targets(out & component.edges)
        else:
            below = universe.targets(
                universe.forward(component.edges, start)[1]
            )
        result = ends & below
        if axis is Axis.ANCESTOR_OR_SELF:
            result |= ends & match
        return result

    if axis in (Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING):
        following = axis is Axis.FOLLOWING_SIBLING
        reached = []
        for end in ones(ends):
            parents = universe.sources(
                universe.in_edges[end] & component.edges
            )
            nodes = 0
            for parent in ones(parents):
                nodes |= universe.siblings(parent, end, following)[0]
            reached.append((end, nodes))
        match = universe.matching(test)
        result = 0
        for end, nodes in reached:
            if nodes & match:
                result |= 1 << end
        return result

    raise ValueError(f"unknown axis {axis!r}")
