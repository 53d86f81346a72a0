"""Chain-driven document projection (the operational face of Theorem 3.2).

Theorem 3.2 states that projecting any valid document onto the locations
typed by a query's used and return chains (return chains keeping their
whole subtrees) preserves the query's answer.  This module turns that
statement into an operation: :func:`project_for_query` shrinks a document
to the part a query can possibly see -- the type-based projection
application pioneered by Marian & Simeon [16] and Benzaken et al. [7],
here with chain precision.

Used by the test suite as a direct empirical check of Theorem 3.2, and
useful on its own to cut memory for repeated evaluation of a fixed query.
"""

from __future__ import annotations

from ..schema.dtd import DTD
from ..xmldm.projection import ChainKeep, keep_set_for_chains, project
from ..xmldm.store import Location, Tree
from ..xquery.ast import ROOT_VAR, Query
from ..xquery.parser import parse_query
from .cdag import ChainExplosion, Component
from .engine import AnalysisEngine
from .independence import build_universe
from .infer_query import QueryChains, QueryInference
from .kbound import multiplicity


def _component_chain_index(
    components: tuple[Component, ...], limit: int
) -> tuple[set[tuple[str, ...]], bool]:
    """All chains of the components; flag True when enumeration blew up
    (callers must then keep everything -- sound fallback)."""
    chains: set[tuple[str, ...]] = set()
    for component in components:
        if component.constructed:
            continue
        try:
            chains |= component.enumerate_chains(limit)
        except ChainExplosion:
            return set(), True
    return chains, False


def schema_reach(
    schema: DTD, cap: int
) -> tuple[tuple[str, int], ...]:
    """Per-symbol downward reach, saturated at ``cap``.

    ``reach[s]`` is the length of the longest valid path strictly below
    ``s`` (0 for leaves); a symbol that reaches a type-graph cycle gets
    ``cap``, since its true reach is unbounded.  This is the viability
    side of the truncation guard on :class:`ChainKeep`: whether a label
    chain can still extend to the universe's depth cap depends only on
    its length and last symbol, so a one-pass DFS over the type graph
    answers it for every chain at once.
    """
    memo: dict[str, int] = {}
    on_path: set[str] = set()

    def extend(symbol: str) -> int:
        if symbol in memo:
            return memo[symbol]
        if symbol in on_path:
            return cap  # back edge: symbol lies on a cycle
        on_path.add(symbol)
        best = 0
        for child in sorted(schema.children_of(symbol)):
            best = max(best, 1 + extend(child))
            if best >= cap:
                best = cap
                break
        on_path.discard(symbol)
        memo[symbol] = best
        return best

    return tuple(sorted(
        (symbol, extend(symbol)) for symbol in schema.symbols
    ))


def chain_keep_for_chains(
    chains: QueryChains, limit: int = 200_000,
    depth_cap: int | None = None,
    schema: DTD | None = None,
) -> ChainKeep | None:
    """The :class:`ChainKeep` spec of an inferred ``(r; v; e)`` triple.

    Return-chain hits keep their whole subtrees (a return node embodies
    its descendants -- Section 3); used-chain hits keep just themselves
    (ancestors come from the projection's upward closure).  Returns
    None when the chain sets are too large to enumerate -- callers must
    then keep everything (sound fallback).

    ``depth_cap`` is the universe's maximum chain length, recorded on
    the spec as its truncation depth: on a recursive schema a valid
    document may nest past the cap, where the capped universe saw
    nothing -- no inferred chain, no productivity verdict -- so any
    still-viable path reaching that depth must keep its whole subtree.
    Without this the projection silently drops the deepest nodes
    (found by the docstore bench: a ~100k-node XMark document nests
    ``parlist``/``listitem`` recursion past the cap, and the projected
    ``//text()`` answer lost exactly the depth-13 text nodes).

    Viability toward the cap comes from ``schema`` (the
    :func:`schema_reach` table), not from the inferred chains: a
    recursion-deepened path whose completions *all* lie past the cap
    matches no inferred chain at any depth, yet a valid document can
    park answer nodes down there -- pruning it would be unsound.  The
    inferred-prefix index alone cannot see this (found by the
    Theorem 3.2 property test: a two-level ``t3`` recursion pushed the
    only ``//text()`` witness to depth 6 under a cap of 5, and the
    projection dropped it at depth 3).
    """
    return_chains, blown = _component_chain_index(chains.returns, limit)
    if blown:
        return None
    used_chains, blown = _component_chain_index(chains.used, limit)
    if blown:
        return None
    reach = schema_reach(schema, depth_cap) \
        if schema is not None and depth_cap is not None else ()
    return ChainKeep.from_chains(return_chains, used_chains,
                                 truncation=depth_cap, reach=reach)


def chain_keep_for_query(
    query: Query | str,
    schema: DTD | None = None,
    k: int | None = None,
    engine=None,
    limit: int = 200_000,
) -> ChainKeep | None:
    """Infer a query's chains and turn them into a :class:`ChainKeep`.

    This is the entry point of the *projection pushdown* path: the
    returned spec drives :func:`repro.docstore.streamload.load_xml` so
    a document is projected onto ``t|L`` while parsing (Theorem 3.2
    licenses evaluating on the projection).  With ``engine`` (a
    :class:`repro.analysis.engine.AnalysisEngine`) the inference is
    served from the engine's chain caches; otherwise ``schema`` is
    required and a throwaway universe is built.  Returns None when the
    chain sets are too large to enumerate (callers load unprojected).
    """
    if engine is not None:
        if k is None:
            k = max(1, engine.query_multiplicity(query))
        chains = engine.query_chains(query, k)
        depth_cap = engine.state(k).depth_cap
        schema = engine.schema
    else:
        if schema is None:
            raise ValueError("chain_keep_for_query needs schema or engine")
        if isinstance(query, str):
            query = parse_query(query)
        if k is None:
            k = max(1, multiplicity(query))
        universe = build_universe(schema, k)
        chains = QueryInference(universe).infer_root(query, ROOT_VAR)
        depth_cap = universe.depth_cap
    return chain_keep_for_chains(chains, limit, depth_cap=depth_cap,
                                 schema=schema)


def chain_keep_for_queries(
    queries,
    schema: DTD | None = None,
    engine=None,
    limit: int = 200_000,
) -> ChainKeep | None:
    """The union :class:`ChainKeep` of several queries' chains.

    The one implementation behind every "project for these queries"
    entry point (``doc.load project_for``, ``repro load --project``).
    Returns None when ``queries`` is empty or any query's chain sets
    are too large to enumerate -- the sound fallback is loading
    everything.  Parse errors propagate to the caller.
    """
    keep: ChainKeep | None = None
    for query in queries:
        one = chain_keep_for_query(query, schema=schema, engine=engine,
                                   limit=limit)
        if one is None:
            return None
        keep = one if keep is None else keep.union(one)
    return keep


def projection_locations(
    tree: Tree, chains: QueryChains, limit: int = 200_000,
    depth_cap: int | None = None,
    schema: DTD | None = None,
) -> set[Location] | None:
    """Locations of ``tree`` covered by the query's chains.

    A thin composition of :func:`chain_keep_for_chains` and
    :func:`repro.xmldm.projection.keep_set_for_chains` -- the same two
    halves the streaming projected loader uses, so the materialized and
    streaming paths cannot diverge.  Returns None when the chain sets
    are too large to enumerate -- the caller should skip projecting.
    """
    keep = chain_keep_for_chains(chains, limit, depth_cap=depth_cap,
                                 schema=schema)
    if keep is None:
        return None
    return keep_set_for_chains(tree, keep)


def project_for_query(
    query: Query | str,
    tree: Tree,
    schema: DTD,
    k: int | None = None,
    engine: AnalysisEngine | None = None,
) -> Tree:
    """Project ``tree`` onto what ``query`` can see (Theorem 3.2).

    The result is a fresh tree on which evaluating ``query`` yields a
    value-equivalent answer.  If the chain sets are too large to
    enumerate, the original tree is returned unchanged (sound no-op).

    >>> from repro.schema import bib_dtd
    >>> from repro.xmldm import parse_xml
    >>> tree = parse_xml("<bib><book><title>t</title><author>"
    ...                  "<last>l</last><first>f</first></author>"
    ...                  "<publisher>p</publisher><price>9</price>"
    ...                  "</book></bib>")
    >>> small = project_for_query("//title", tree, bib_dtd())
    >>> small.size() < tree.size()
    True
    """
    if isinstance(query, str):
        query = parse_query(query)
    if k is None:
        k = max(1, multiplicity(query))
    if engine is not None and engine.default_k == k \
            and engine.schema is schema:
        inference = engine.queries
    else:
        inference = QueryInference(build_universe(schema, k))
    chains = inference.infer_root(query, ROOT_VAR)
    keep = projection_locations(
        tree, chains, depth_cap=inference.universe.depth_cap,
        schema=schema,
    )
    if keep is None:
        return tree
    return project(tree, keep)
