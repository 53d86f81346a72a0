"""The bitset CDAG against the set-based reference implementation.

Random step sequences over the paper schemas, XMark and generated DTDs
run through both representations (``repro.analysis.cdag`` and
``reference_cdag``), followed by grafts, the update-chain helpers and
the three Definition 4.1 checks.  Every intermediate component must
decode to the same edges, ends and chain set, and every conflict test
must give the same boolean.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cdag import (
    ChainExplosion,
    Universe,
    components_conflict,
    conflict_witness,
    descendant_closure,
    graft,
    ones,
    singleton_component,
)
from repro.analysis.independence import used_chain_conflict
from repro.analysis.infer_query import QueryInference
from repro.analysis.infer_update import (
    UpdateComponent,
    UpdateInference,
    _graft_all_ends,
    _replace_end_symbols,
    _with_parent_splits,
)
from repro.analysis.steps import (
    axis_on_component,
    productive_ends,
    step_on_component,
)
from repro.analysis.steps import test_on_component as node_test_on
from repro.schema import (
    paper_d1_dtd,
    paper_doc_dtd,
    paper_sibling_dtd,
    xmark_dtd,
)
from repro.schema.regex import TEXT_SYMBOL
from repro.xquery.ast import (
    Axis,
    NameTest,
    NodeKindTest,
    TextTest,
    WildcardTest,
)

from ..strategies import CURATED_SCHEMAS, generated_schemas
from . import reference_cdag as ref

FIXED_SCHEMAS = [paper_doc_dtd(), paper_d1_dtd(), paper_sibling_dtd(),
                 xmark_dtd()] + CURATED_SCHEMAS

#: Enumerate chain sets only up to this many chains (edge and end sets
#: are compared regardless).
CHAIN_LIMIT = 2_000

AXES = list(Axis)


@st.composite
def scenarios(draw):
    schema = draw(st.one_of(st.sampled_from(FIXED_SCHEMAS),
                            generated_schemas()))
    cap = draw(st.integers(2, 9))
    names = sorted(schema.alphabet)
    tests = ([NameTest(name) for name in names]
             + [TextTest(), NodeKindTest(), WildcardTest(), NameTest("zz")])
    step = st.tuples(st.sampled_from(AXES), st.sampled_from(tests))
    # Open with a downward step, as paths from the root do, so most
    # sequences keep a live component for the later steps to work on.
    opening = st.tuples(
        st.sampled_from([Axis.CHILD, Axis.DESCENDANT,
                         Axis.DESCENDANT_OR_SELF]),
        st.sampled_from(tests[:-1]),
    )
    first = [draw(opening)] + draw(st.lists(step, max_size=4))
    # Half the time the second sequence extends a prefix of the first,
    # so the two components share structure and conflict more often.
    if draw(st.booleans()):
        second = first[:draw(st.integers(1, len(first)))]
    else:
        second = [draw(opening)]
    second = second + draw(st.lists(step, max_size=4))
    suffix_symbol = draw(st.sampled_from(names + [TEXT_SYMBOL]))
    tag = draw(st.sampled_from(names + ["fresh"]))
    return schema, cap, first, second, suffix_symbol, tag


def chains_or_none(component):
    try:
        return component.enumerate_chains(CHAIN_LIMIT)
    except ChainExplosion:
        return None


def assert_same(new, old) -> None:
    assert new.is_empty() == old.is_empty()
    if old.is_empty():
        return
    universe = new.universe
    assert universe.node(new.root) == old.root
    assert new.constructed == old.constructed
    assert universe.nodes_of(new.ends) == old.ends
    assert universe.edges_of(new.edges) == old.edges
    assert universe.nodes_of(new.nodes) == old.nodes()
    assert chains_or_none(new) == chains_or_none(old)


def run_steps(universe, reference, steps):
    """Apply ``steps`` from the root in both representations, checking
    every step result and its productive ends on the way."""
    new = singleton_component(universe, universe.root_id)
    old = ref.singleton_component(reference.root())
    for axis, test in steps:
        if old.is_empty():
            break
        good = productive_ends(new, axis, test)
        assert universe.nodes_of(good) == ref.productive_ends(
            old, axis, test, reference)
        stepped = axis_on_component(new, axis)
        assert_same(stepped, ref.axis_on_component(old, axis, reference))
        new = step_on_component(new, axis, test)
        assert new == node_test_on(stepped, test)
        old = ref.step_on_component(old, axis, test, reference)
        assert_same(new, old)
    return new, old


def assert_same_update(universe, new, old) -> None:
    assert_same(new.full, old.full)
    assert universe.nodes_of(new.split_ends) == old.split_ends
    assert universe.edges_of(new.suffix_edges) == old.suffix_edges


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_bitset_cdag_matches_set_reference(scenario):
    schema, cap, first_steps, second_steps, symbol, tag = scenario
    universe = Universe(schema, cap)
    reference = ref.Universe(schema, cap)
    first, first_ref = run_steps(universe, reference, first_steps)
    second, second_ref = run_steps(universe, reference, second_steps)

    # Definition 4.1 between two query-shaped components.
    for a, b, a_ref, b_ref in ((first, second, first_ref, second_ref),
                               (second, first, second_ref, first_ref)):
        conflict = components_conflict(a, b)
        assert conflict == ref.components_conflict(a_ref, b_ref)
        witness = conflict_witness(a, b)
        assert (witness is not None) == conflict
        a_chains, b_chains = chains_or_none(a), chains_or_none(b)
        if witness is not None and a_chains is not None \
                and b_chains is not None:
            # The shortest chain of ``a`` prefixing a ``b``-chain, and the
            # least of those.
            witnesses = [c for c in a_chains
                         if any(d[:len(c)] == c for d in b_chains)]
            assert witness == min(witnesses, key=lambda c: (len(c), c))

    # Suffixes: the schema closure below a symbol, and a constructed tag.
    inference = UpdateInference(QueryInference(universe))
    closure = inference._closure_suffix(symbol)
    closure_ref = ref.descendant_step(
        ref.singleton_component((0, symbol)), reference, or_self=True)
    assert_same(closure, closure_ref)
    built = singleton_component(universe, universe.node_id((0, "new")),
                                constructed=True)
    built_ref = ref.singleton_component((0, "new"), constructed=True)

    # Delete-style update chains (only ever built from live targets).
    updates = []
    if not second.is_empty():
        updates.append((_with_parent_splits(second),
                        ref.with_parent_splits(second_ref)))
    if not first.is_empty():
        replaced = _replace_end_symbols(first, tag)
        assert_same(replaced, ref.replace_end_symbols(first_ref, tag))
        updates.append((_with_parent_splits(replaced),
                        ref.with_parent_splits(
                            ref.replace_end_symbols(first_ref, tag))))
        end = min(universe.nodes_of(first.ends))
        for suffix, suffix_ref in ((closure, closure_ref),
                                   (built, built_ref)):
            assert_same(
                graft(first, universe.node_id(end), suffix),
                ref.graft(first_ref, end, suffix_ref),
            )
            full, suffix_edges = _graft_all_ends(first, suffix)
            grafted_ref = ref.graft_all_ends(first_ref, suffix_ref)
            assert_same(full, grafted_ref.full)
            assert universe.edges_of(suffix_edges) == \
                grafted_ref.suffix_edges
            updates.append((
                UpdateComponent(full, first.ends, suffix_edges),
                grafted_ref,
            ))

    # Definition 4.1 with update chains: confl(r, U), confl(U, r) and
    # the split-aware used-chain test, against the two components and
    # their schema closures (the (ELT) used-chain shape).
    used_chains = [(first, first_ref), (second, second_ref)] + [
        (descendant_closure(c), ref.descendant_step(c_ref, reference, True))
        for c, c_ref in ((first, first_ref), (second, second_ref))
    ]
    for update, update_ref in updates:
        assert_same_update(universe, update, update_ref)
        for used, used_ref in used_chains:
            assert components_conflict(used, update.full) == \
                ref.components_conflict(used_ref, update_ref.full)
            assert components_conflict(update.full, used) == \
                ref.components_conflict(update_ref.full, used_ref)
            assert used_chain_conflict(update, used) == \
                ref.used_chain_conflict(update_ref, used_ref)


@pytest.mark.parametrize("schema", FIXED_SCHEMAS[:4],
                         ids=["doc", "d1", "sibling", "xmark"])
def test_numbering_is_sorted_and_dense(schema):
    universe = Universe(schema, 4)
    nodes, _ = universe.below(universe.root_id)
    ids = sorted(ones(nodes | 1 << universe.root_id))
    assert ids == list(range(len(ids)))
    successors = list(ones(universe.successors(universe.root_id)[0]))
    symbols = [universe.node(n)[1] for n in sorted(successors)]
    assert symbols == sorted(symbols)
