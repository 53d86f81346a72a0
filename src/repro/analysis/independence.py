"""The chain-based independence check: ``q  _|_Ckd  u`` (Sections 4-6).

:func:`analyze` is the library's main entry point.  It

1. computes the pair multiplicity ``k = k_q + k_u`` (Table 3) unless an
   explicit ``k`` is given (the R-benchmark overrides it);
2. builds the leveled universe, whose depth cap is the longest k-chain
   the schema allows (:func:`depth_cap_from`: along the heaviest root
   path of the type graph's condensation, ``k * |SCC|`` symbols per
   recursive strongly connected component and one per trivial one, plus
   a trailing text symbol);
3. infers query chains ``(r; v; e)`` and update chains ``U``;
4. reports independence iff
   ``confl(r, U) = confl(U, r) = confl(U, v) = empty`` (Definition 4.1),
   where ``confl(tau1, tau2)`` holds when some ``tau1``-chain is a prefix
   of some ``tau2``-chain.

Soundness: a verdict of *independent* implies semantic independence
``q |=d u`` (Theorems 4.2 and 5.1).  The converse direction is
undecidable, so a *dependent* verdict may be a false alarm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..schema.dtd import DTD
from ..schema.edtd import EDTD
from ..xquery.ast import Query
from ..xupdate.ast import Update
from .cdag import Component, Universe, components_conflict, conflict_witness
from .infer_query import Components, QueryChains

Schema = DTD | EDTD


@dataclass(frozen=True)
class Conflict:
    """One witness of chain overlap (why independence was rejected)."""

    kind: str                      # "return-update" | "update-return" | "update-used"
    witness: tuple[str, ...]       # the prefix chain witnessing the overlap

    def __str__(self) -> str:
        return f"{self.kind}: {'.'.join(self.witness)}"


@dataclass(frozen=True)
class IndependenceReport:
    """Outcome of the static analysis for one query-update pair."""

    independent: bool
    k: int
    k_query: int
    k_update: int
    conflicts: tuple[Conflict, ...]
    analysis_seconds: float
    query_chains: QueryChains = field(repr=False, default=None)
    update_chains: Components = field(repr=False, default=None)

    def __str__(self) -> str:
        verdict = "independent" if self.independent else "dependent"
        return (
            f"{verdict} (k={self.k}, kq={self.k_query}, ku={self.k_update}, "
            f"{self.analysis_seconds * 1e3:.2f} ms)"
        )


#: Condensation skeleton of a schema's type graph: per SCC in topological
#: order ``(size, is_recursive, predecessor_indices)``, plus the index of
#: the start SCC.  Pure and k-independent, so an engine computes it once
#: and derives every per-k depth cap from it.
RecursionStructure = tuple[tuple[tuple[int, bool, tuple[int, ...]], ...], int]


def recursion_structure(schema: Schema) -> RecursionStructure:
    """Step 1 of the depth-cap computation (k-independent, cacheable)."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(schema.alphabet)
    for tag in schema.alphabet:
        for child in schema.children_of(tag):
            if child in schema.alphabet:
                graph.add_edge(tag, child)
    condensation = nx.condensation(graph)
    members = condensation.graph["mapping"]
    order = list(nx.topological_sort(condensation))
    index = {scc_id: position for position, scc_id in enumerate(order)}
    entries = []
    for scc_id in order:
        scc = condensation.nodes[scc_id]["members"]
        recursive = len(scc) > 1 or any(
            s in schema.children_of(s) for s in scc
        )
        preds = tuple(sorted(
            index[pred] for pred in condensation.predecessors(scc_id)
        ))
        entries.append((len(scc), recursive, preds))
    return tuple(entries), index[members[schema.start]]


def depth_cap_from(structure: RecursionStructure, k: int) -> int:
    """Step 2: the depth cap for ``k`` given a condensation skeleton.

    A k-chain repeats each tag at most ``k`` times, so along any chain a
    strongly connected component of the type graph contributes at most
    ``k * |SCC|`` symbols if it is recursive and 1 if it is a trivial SCC;
    the bound is the heaviest root-originating path in the condensation,
    plus one for a trailing text symbol.  This is far tighter than the
    naive ``k * |Sigma|`` on schemas (like XMark) whose recursion is
    confined to a small clique, and equal to it on fully recursive
    schemas (the R-benchmark's ``dn``).
    """
    entries, start = structure
    heaviest: dict[int, int] = {}
    for position, (size, recursive, preds) in enumerate(entries):
        weight = k * size if recursive else size
        if position == start:
            heaviest[position] = weight
        incoming = [heaviest[pred] for pred in preds if pred in heaviest]
        if incoming:
            heaviest[position] = max(
                heaviest.get(position, 0), max(incoming) + weight
            )
    longest = max(heaviest.values(), default=1)
    return longest + 1  # one trailing text symbol


def depth_cap_for(schema: Schema, k: int) -> int:
    """Depth cap: the exact maximum length of a k-chain from the root."""
    return depth_cap_from(recursion_structure(schema), k)


def build_universe(schema: Schema, k: int) -> Universe:
    """The leveled unfolding used by the finite analysis."""
    return Universe(schema, depth_cap_for(schema, k))


def analyze(
    query: Query | str,
    update: Update | str,
    schema: Schema,
    k: int | None = None,
    collect_witnesses: bool = True,
    engine=None,
) -> IndependenceReport:
    """Statically decide independence of ``query`` and ``update`` w.r.t.
    ``schema``.

    Strings are parsed with the surface parsers and ``k`` overrides the
    derived multiplicity (used by the scalability benchmark).  This is a
    thin wrapper over :class:`repro.analysis.engine.AnalysisEngine`:
    pass ``engine`` to amortize universe construction and chain
    inference across many pairs (an engine whose schema does not match
    is replaced by a throwaway one).

    >>> from repro.schema import paper_doc_dtd
    >>> analyze("//a//c", "delete //b//c", paper_doc_dtd()).independent
    True
    """
    from .engine import AnalysisEngine

    if engine is None or not engine.matches(schema):
        engine = AnalysisEngine(schema)
    return engine.analyze_pair(query, update, k=k,
                               collect_witnesses=collect_witnesses)


def check_conflicts(query_chains: QueryChains, update_chains,
                    collect_witnesses: bool = True) -> list[Conflict]:
    """Definition 4.1's three conflict sets, with witnesses.

    * ``confl(r, U)``: a return chain prefixes an update full chain --
      the update changes something inside a returned subtree (this also
      covers intermediate positions ``c.c''`` of the update chain);
    * ``confl(U, r)``: an update full chain prefixes a return chain --
      the returned node sits at or below a changed position;
    * used chains: a used node is affected when its chain strictly
      extends the update's target prefix ``c`` and is comparable with
      the full chain ``c.c'`` -- the inserted/removed subtree *contains*
      the used position (``c.c'' = c_v`` for a prefix ``c''`` of ``c'``,
      the case Section 3 describes) or lies above it.  Plain
      ``full <= c_v`` alone would miss nodes created at intermediate
      suffix positions, e.g. inserting ``<bidder><date/>...</bidder>``
      creates a ``bidder`` node even though no inferred full chain ends
      at ``bidder``.
    """
    conflicts: list[Conflict] = []

    def scan(kind: str, pairs) -> None:
        for a, b, test in pairs:
            if test():
                witness: tuple[str, ...] = ()
                if collect_witnesses:
                    found = conflict_witness(
                        a if kind == "return-update" else getattr(
                            a, "full", a),
                        getattr(b, "full", b),
                    )
                    witness = found if found is not None else ()
                conflicts.append(Conflict(kind, witness))
                if not collect_witnesses:
                    return

    scan("return-update", (
        (a, b, lambda a=a, b=b: components_conflict(a, b.full))
        for a in query_chains.returns for b in update_chains
    ))
    scan("update-return", (
        (a, b, lambda a=a, b=b: components_conflict(a.full, b))
        for a in update_chains for b in query_chains.returns
    ))
    scan("update-used", (
        (a, b, lambda a=a, b=b: used_chain_conflict(a, b))
        for a in update_chains for b in query_chains.used
    ))
    return conflicts


def used_chain_conflict(update_component, used: Component) -> bool:
    """Does the update involve a used position?

    True iff some used chain ``c_v`` strictly extends a target chain
    ``c`` of the update and is comparable (prefix-wise) with the
    corresponding full chain ``c.c'``.  Over components: walk the edges
    shared by both graphs from the root; taking a *suffix* edge (by
    construction leaving a split end) starts the suffix ``c'``, and from
    then on only suffix edges may be followed -- on recursive schemas a
    split end also has non-suffix out-edges that merely lead to deeper
    occurrences of the target, and following those past the split would
    manufacture conflicts Definition 4.1 does not contain.  Reaching a
    used end inside the suffix region, or an update full end from which
    the used graph continues, witnesses the conflict.  Deleting/renaming
    the document root (no split) conflicts with every used chain.

    Over masks: the pre-split walk follows every shared edge from the
    root; the suffix region is entered by a shared suffix edge leaving a
    node that walk reached (suffix edges are full edges, so such an edge
    is among the edges it ``left`` by), and continues over shared suffix
    edges only.
    """
    full = update_component.full
    if full.is_empty() or used.is_empty() or full.root != used.root:
        return False
    # Root-level change (e.g. delete /root): c is empty, so every used
    # chain strictly extends it and lies below the full chain's end.
    if full.ends >> full.root & 1 and not update_component.split_ends:
        return True
    suffix_shared = update_component.suffix_edges & used.edges
    if not suffix_shared:
        return False
    universe = full.universe
    _, left = universe.forward(full.edges & used.edges, 1 << full.root)
    entered = universe.targets(left & suffix_shared)
    inside, _ = universe.forward(suffix_shared, entered)
    return bool(inside & (used.ends | (full.ends & used.nodes)))


def chains_of(components: Components, limit: int = 10_000
              ) -> set[tuple[str, ...]]:
    """Explicit chain enumeration across components (tests/debugging)."""
    chains: set[tuple[str, ...]] = set()
    for component in components:
        chains |= component.enumerate_chains(limit)
    return chains


def is_independent(query: Query | str, update: Update | str,
                   schema: Schema, k: int | None = None) -> bool:
    """Boolean convenience wrapper around :func:`analyze`."""
    return analyze(query, update, schema, k=k,
                   collect_witnesses=False).independent
