"""Human-readable explanations of independence verdicts.

Renders chain sets, k-bound derivations and conflict witnesses so that a
user can audit *why* the analyzer accepted or rejected a pair -- the kind
of report a view-maintenance operator or access-control administrator
would want in a log.
"""

from __future__ import annotations

from io import StringIO

from ..schema.dtd import DTD
from ..schema.edtd import EDTD
from ..xquery.ast import Query
from ..xquery.parser import parse_query
from ..xupdate.ast import Update
from ..xupdate.parser import parse_update
from .cdag import ChainExplosion
from .independence import IndependenceReport, analyze
from .kbound import multiplicity, recursive_steps

Schema = DTD | EDTD

#: Do not render more chains than this per section.
_MAX_CHAINS = 12


def _render_chain_set(components, out: StringIO, label: str,
                      limit: int = 50_000) -> None:
    try:
        chains = set()
        for component in components:
            chains |= component.enumerate_chains(limit)
        shown = sorted(chains)[:_MAX_CHAINS]
        suffix = "" if len(chains) <= _MAX_CHAINS else \
            f"  ... ({len(chains) - _MAX_CHAINS} more)"
        rendered = ", ".join(".".join(c) for c in shown) or "(none)"
        out.write(f"  {label:14s}: {rendered}{suffix}\n")
    except ChainExplosion:
        symbols = set()
        for component in components:
            component = getattr(component, "full", component)
            symbols |= {symbol for (_, symbol) in
                        component.universe.nodes_of(component.ends)}
        out.write(
            f"  {label:14s}: >{limit} chains "
            f"(CDAG endpoints: {sorted(symbols)})\n"
        )


def explain(
    query: Query | str,
    update: Update | str,
    schema: Schema,
    report: IndependenceReport | None = None,
) -> str:
    """A multi-line explanation of the verdict for one pair.

    >>> from repro.schema import paper_doc_dtd
    >>> text = explain("//a//c", "delete //b//c", paper_doc_dtd())
    >>> "INDEPENDENT" in text
    True
    """
    if isinstance(query, str):
        query = parse_query(query)
    if isinstance(update, str):
        update = parse_update(update)
    if report is None:
        report = analyze(query, update, schema)

    out = StringIO()
    verdict = "INDEPENDENT" if report.independent else "DEPENDENT"
    out.write(f"verdict: {verdict}\n")
    out.write(
        f"  k-bound       : k = kq + ku = {report.k_query} + "
        f"{report.k_update}"
    )
    if report.k != max(1, report.k_query + report.k_update):
        out.write(f" (overridden to {report.k})")
    out.write("\n")
    out.write(
        f"  recursion     : R(q) = {recursive_steps(query)}, "
        f"R(u) = {recursive_steps(update)}, "
        f"schema {'is' if _recursive(schema) else 'is not'} recursive\n"
    )
    out.write(f"  analysis time : {report.analysis_seconds * 1e3:.2f} ms\n")

    _render_chain_set(report.query_chains.returns, out, "return chains")
    _render_chain_set(report.query_chains.used, out, "used chains")
    _render_chain_set(report.query_chains.elements, out, "element chains")
    _render_chain_set(report.update_chains, out, "update chains")

    if report.conflicts:
        out.write("  conflicts:\n")
        seen = set()
        for conflict in report.conflicts:
            key = (conflict.kind, conflict.witness)
            if key in seen:
                continue
            seen.add(key)
            witness = ".".join(conflict.witness) or "(witness suppressed)"
            out.write(f"    {conflict.kind:14s} via {witness}\n")
            if len(seen) >= _MAX_CHAINS:
                out.write(f"    ... ({len(report.conflicts)} total)\n")
                break
    else:
        out.write(
            "  no pair of inferred chains is prefix-related "
            "(Definition 4.1): the update cannot reach any node the "
            "query returns or uses.\n"
        )
    return out.getvalue()


def _recursive(schema: Schema) -> bool:
    if isinstance(schema, EDTD):
        return schema.core.is_recursive()
    return schema.is_recursive()


def explain_multiplicity(exp: Query | Update, schema: Schema) -> str:
    """One-line rendering of the Table 3 derivation for an expression."""
    k = multiplicity(exp)
    r = recursive_steps(exp)
    return (
        f"k = {k} (max tag frequency {k - r} + {r} recursive steps; "
        f"|Sigma| = {len(schema.alphabet)})"
    )
