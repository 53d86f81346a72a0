"""The storage interface every backend implements.

One :class:`StorageBackend` bundles the two durable surfaces the
serving layer needs:

* a **verdict KV** (:class:`VerdictKV`) -- the persistent pair-verdict
  map behind :meth:`repro.analysis.engine.AnalysisEngine.attach_store`:
  ``get``/``put``/``scan`` keyed by ``(schema_digest, k, query_digest,
  update_digest)``, with a :meth:`~VerdictKV.deferred` group-commit
  scope so a coalesced micro-batch flush costs one commit;
* a **document store** (:class:`DocumentStore`) -- the interval-encoded
  node table plus its document registry: ``save`` compacts a tree to
  canonical pre-order and persists it row-per-node, ``load``
  re-materializes it with one ordered range scan (no XML re-parse),
  and :meth:`~DocumentStore.ancestors` / :meth:`~DocumentStore.descendants`
  answer axis traversals *inside* the database so persisted documents
  can be navigated without full re-materialization.

Implementations: :mod:`repro.storage.memory` (per-process dicts),
:mod:`repro.storage.sqlite` (one WAL database shared by multi-process
shard writers), and :mod:`repro.storage.postgres` (one server shared by
many hosts; psycopg-gated).  The conformance suite in
``tests/storage/test_conformance.py`` runs the same assertions against
every backend.

The row codec is shared: every backend persists the same
``(loc, parent, level, size, tag, text)`` tuples produced by
:func:`node_rows` and rebuilds trees through :func:`materialize`, so a
document round-trips byte-identically through any backend.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from ..docstore.encode import IndexedStore, IndexedTree
from ..obs.metrics import STORE_OP_SECONDS

#: Node-table row shape shared by every backend:
#: ``(loc, parent, level, size, tag, text)`` in canonical pre-order.
NODE_COLUMNS = ("loc", "parent", "level", "size", "tag", "text")

#: Axes :class:`StepSpec` accepts.  ``descendant-child`` is the fused
#: ``//test`` shape (``descendant-or-self::node()/child::test``) whose
#: output order groups matches under their parent in parent-document
#: order -- exactly what the desugared loop (and
#: :func:`repro.docstore.axes.descendant_child_step`) produces.
STEP_AXES = ("self", "child", "descendant", "descendant-or-self",
             "descendant-child")

#: Node tests :class:`StepSpec` accepts: a tag name test, ``text()``,
#: ``node()`` (anything), or ``*`` (any element).
STEP_TESTS = ("name", "text", "node", "wildcard")


def timed_store_op(op: str):
    """Decorator timing a document-store method into the metrics registry.

    Backends wrap their ``save``/``load``/``run_steps`` implementations
    with this so every storage engine reports latency into the same
    ``repro_store_op_seconds{op=...}`` histogram
    (:mod:`repro.obs.metrics`) without per-backend plumbing.
    """
    child = STORE_OP_SECONDS.labels(op=op)

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                child.observe(time.perf_counter() - started)
        return wrapper

    return decorate


@dataclass(frozen=True)
class StepSpec:
    """One compiled axis step of a :meth:`DocumentStore.run_steps` call.

    A step chain starts at the document root and applies each step to
    every context node with the evaluator's nested-loop sequence
    semantics (per-context matches in document order, concatenated in
    context order -- duplicates preserved), so backend answers are
    byte-identical to the in-memory evaluators.  ``position`` (1-based)
    keeps only each context node's ``position``-th match -- a
    backend-level positional predicate the SQL backends answer with a
    window function.
    """

    axis: str
    test: str
    name: str | None = None
    position: int | None = None


def check_steps(steps) -> None:
    """Validate a :class:`StepSpec` chain (raises :class:`ValueError`).

    Backends call this before touching the database so a malformed
    chain fails identically everywhere.
    """
    if not steps:
        raise ValueError("run_steps needs at least one step")
    for step in steps:
        if step.axis not in STEP_AXES:
            raise ValueError(
                f"unknown step axis {step.axis!r} "
                f"(expected one of: {', '.join(STEP_AXES)})"
            )
        if step.test not in STEP_TESTS:
            raise ValueError(
                f"unknown step test {step.test!r} "
                f"(expected one of: {', '.join(STEP_TESTS)})"
            )
        if step.test == "name" and not step.name:
            raise ValueError("name test needs a tag name")
        if step.test != "name" and step.name is not None:
            raise ValueError(
                f"{step.test!r} test takes no tag name"
            )
        if step.position is not None and step.position < 1:
            raise ValueError("positional predicates are 1-based")


def _test_condition(step: StepSpec, placeholder: str,
                    params: list) -> str | None:
    """The SQL predicate of one step's node test (``n`` = match row)."""
    if step.test == "name":
        params.append(step.name)
        return f"n.tag = {placeholder}"
    if step.test == "text":
        return "n.tag IS NULL"
    if step.test == "wildcard":
        return "n.tag IS NOT NULL"
    return None  # node(): everything matches


#: Join predicates per axis (``c`` = context row, ``n`` = match row).
_AXIS_CONDITIONS = {
    "self": ("n.loc = c.loc",),
    "child": ("n.parent = c.loc",),
    "descendant": ("n.loc > c.loc", "n.loc < c.loc + c.size"),
    "descendant-or-self": ("n.loc >= c.loc", "n.loc < c.loc + c.size"),
    # The fused //test shape: the match's parent is any
    # descendant-or-self of the context, i.e. in [c.loc, c.loc+c.size).
    "descendant-child": ("n.parent >= c.loc",
                         "n.parent < c.loc + c.size"),
}


def compile_steps_sql(doc: str, steps, *, placeholder: str = "?",
                      dedup: bool = False) -> tuple[str, list]:
    """Compile a step chain into one parameterized SQL query.

    Returns ``(sql, params)`` selecting the answer locations over the
    persisted node table.  The interval encoding does the work: a
    descendant step is the range predicate ``c.loc < n.loc <
    c.loc + c.size`` (loc *is* the pre rank in a canonical table), a
    child step is a parent-join, and the fused ``descendant-child``
    step constrains the match's parent to the context's interval.

    Each step becomes one self-join layer that threads the sort keys
    of every enclosing loop through, so the final ``ORDER BY`` over
    the accumulated keys reproduces the evaluator's nested-loop order
    exactly (keys identify the full derivation path, making the order
    total).  A ``position`` filter wraps its layer in ``ROW_NUMBER()
    OVER (PARTITION BY <derivation keys> ORDER BY <step keys>)`` so
    the predicate applies per context *occurrence*, like the
    evaluator.  With ``dedup`` the answer collapses to distinct
    locations in document order instead.

    Shared by the SQLite and PostgreSQL backends (they differ only in
    ``placeholder``); both were generated from the same chain, so the
    conformance suite can diff their answers row for row.
    """
    check_steps(steps)
    params: list = [doc]
    sql = f"SELECT loc, size FROM nodes WHERE doc = {placeholder} " \
          "AND loc = 0"
    keys: list[str] = []
    for index, step in enumerate(steps, 1):
        conditions = [f"n.doc = {placeholder}"]
        params.append(doc)
        conditions.extend(_AXIS_CONDITIONS[step.axis])
        test = _test_condition(step, placeholder, params)
        if test is not None:
            conditions.append(test)
        step_keys = [f"k{index}p", f"k{index}"] \
            if step.axis == "descendant-child" else [f"k{index}"]
        selected = [f"c.{key} AS {key}" for key in keys]
        if step.axis == "descendant-child":
            selected.append(f"n.parent AS k{index}p")
        selected.extend([f"n.loc AS k{index}", "n.loc AS loc",
                         "n.size AS size"])
        sql = (
            f"SELECT {', '.join(selected)} FROM ({sql}) c "
            f"JOIN nodes n ON {' AND '.join(conditions)}"
        )
        if step.position is not None:
            # Partition by the enclosing loops' keys so the predicate
            # applies per context occurrence; the first step has one
            # context (the root), i.e. a single partition.
            over = "ORDER BY " + ", ".join(step_keys)
            if keys:
                over = "PARTITION BY " + ", ".join(keys) + " " + over
            sql = (
                "SELECT " + ", ".join(keys + step_keys
                                      + ["loc", "size"])
                + " FROM (SELECT p.*, ROW_NUMBER() OVER "
                + f"({over}) AS rn FROM ({sql}) p) q "
                + f"WHERE q.rn = {placeholder}"
            )
            params.append(step.position)
        keys.extend(step_keys)
    if dedup:
        return (
            f"SELECT DISTINCT loc FROM ({sql}) a ORDER BY loc",
            params,
        )
    return (
        f"SELECT loc FROM ({sql}) a ORDER BY {', '.join(keys)}",
        params,
    )


@dataclass(frozen=True)
class StoredDocument:
    """Catalog row of one persisted document."""

    doc: str
    schema_digest: str
    nodes: int
    nodes_seen: int
    subtrees_skipped: int
    meta: dict


def compact_store(tree: IndexedTree) -> IndexedStore:
    """A copy of ``tree`` in canonical pre-order (loc == pre rank,
    root at location 0 -- the invariant :func:`materialize` rebuilds
    from).

    Freshly loaded/built trees are already canonical and are returned
    as-is; mutated trees (overflow nodes, garbage) are rebuilt so the
    persisted table stays dense.
    """
    store = tree.store
    store.reencode()
    n = len(store._tags)
    if store.encoded_count == n and tree.root == 0 \
            and store._order == list(range(n)):
        return store
    compacted = IndexedStore()
    mapping: dict[int, int] = {}
    for new_loc, loc in enumerate(store.descendants_or_self(tree.root)):
        mapping[loc] = new_loc
        tag = store._tags[loc]
        compacted._alloc(tag, store._texts[loc],
                         [] if tag is not None else None)
        compacted._pre[new_loc] = new_loc
        compacted._order.append(new_loc)
        parent = store._parent[loc]
        if parent is not None and parent in mapping:
            mapped = mapping[parent]
            compacted._parent[new_loc] = mapped
            compacted._kids[mapped].append(new_loc)
            compacted._level[new_loc] = compacted._level[mapped] + 1
    for loc in range(len(compacted._tags) - 1, -1, -1):
        kids = compacted._kids[loc]
        compacted._size[loc] = 1 + (
            sum(compacted._size[k] for k in kids) if kids else 0
        )
    return compacted


def node_rows(tree: IndexedTree) -> list[tuple]:
    """``tree`` compacted to the canonical row tuples every backend
    persists (see :data:`NODE_COLUMNS`)."""
    store = compact_store(tree)
    return [
        (loc, store._parent[loc], store._level[loc], store._size[loc],
         store._tags[loc], store._texts[loc])
        for loc in range(len(store._tags))
    ]


def materialize(rows, doc: str) -> IndexedTree:
    """Rebuild a tree from its node rows (one ordered scan).

    Child lists fill in document order because the rows *are*
    pre-order; raises :class:`ValueError` on a non-dense table (which
    can only mean corruption, whatever the backend).
    """
    store = IndexedStore()
    tags, texts, kids = store._tags, store._texts, store._kids
    parents, levels, sizes = store._parent, store._level, store._size
    for loc, parent, level, size, tag, text in rows:
        if loc != len(tags):
            raise ValueError(
                f"corrupt node table for {doc!r}: row {loc} is not "
                f"dense pre-order (expected {len(tags)})"
            )
        tags.append(tag)
        texts.append(text)
        kids.append([] if tag is not None else None)
        parents.append(parent)
        levels.append(level)
        sizes.append(size)
        store._pre.append(loc)
        store._order.append(loc)
        if parent is not None:
            kids[parent].append(loc)
    return IndexedTree(store, 0)


class VerdictKV:
    """Interface of the persistent pair-verdict map.

    Keys are ``(schema_digest, k, query_digest, update_digest)`` --
    exactly what :meth:`AnalysisEngine.analyze_pair` consults -- and
    values are slim :class:`~repro.analysis.engine.PairVerdict` rows.
    Because digests are content hashes, rows survive restarts, schema
    re-registration, and store sharing between services and hosts.
    """

    def get(self, schema_digest: str, k: int, query_digest: str,
            update_digest: str):
        """The stored verdict for one pair key, or ``None``."""
        raise NotImplementedError

    def put(self, schema_digest: str, k: int, query_digest: str,
            update_digest: str, verdict) -> None:
        """Write one verdict through (committed unless deferred)."""
        raise NotImplementedError

    def scan(self, schema_digest: str | None = None):
        """Iterate ``(schema_digest, k, query_digest, update_digest,
        verdict)`` rows, optionally restricted to one schema."""
        raise NotImplementedError

    def deferred(self):
        """Group-commit scope: writes inside commit once at exit.

        Nests; only the outermost exit commits.  Entered by the
        admission queue around one coalesced ``analyze_many`` flush.
        """
        raise NotImplementedError

    def count(self, schema_digest: str | None = None) -> int:
        """Stored verdicts, optionally restricted to one schema."""
        raise NotImplementedError

    def stats(self) -> dict:
        """Path/target and size (the ``/stats`` store section)."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release (idempotent)."""
        raise NotImplementedError

    def __enter__(self):
        """Context-manager entry (closes on exit)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close on scope exit."""
        self.close()


class DocumentStore:
    """Interface of the persisted node-table + document registry.

    Subclasses implement ``save``/``load``/``describe``/``delete``/
    ``list_documents`` plus the in-database traversals; this base owns
    the per-process counters every implementation reports.
    """

    def __init__(self):
        #: Documents served from the table without a re-parse.
        self.hits = 0
        #: Lookups that found no persisted document.
        self.misses = 0
        #: Documents written (or overwritten).
        self.saves = 0

    def save(self, doc: str, tree: IndexedTree, schema_digest: str,
             nodes_seen: int = 0, subtrees_skipped: int = 0,
             meta: dict | None = None) -> int:
        """Persist ``tree`` under ``doc`` (replacing any prior version,
        compacted to canonical pre-order); returns rows written."""
        raise NotImplementedError

    def load(self, doc: str):
        """``(IndexedTree, StoredDocument)`` re-materialized from the
        node table with one ordered range scan, or ``None``."""
        raise NotImplementedError

    def describe(self, doc: str) -> StoredDocument | None:
        """The catalog row of ``doc``, or None."""
        raise NotImplementedError

    def delete(self, doc: str) -> bool:
        """Drop a persisted document; returns whether it existed."""
        raise NotImplementedError

    def list_documents(self) -> list[StoredDocument]:
        """Catalog rows of every persisted document."""
        raise NotImplementedError

    def ancestors(self, doc: str, loc: int) -> list[int]:
        """Locations of ``loc``'s ancestors, root first, computed
        inside the database (recursive CTE over the parent column in
        the SQL backends) -- no tree materialization."""
        raise NotImplementedError

    def descendants(self, doc: str, loc: int,
                    tag: str | None = None) -> list[int]:
        """Locations of ``loc``'s proper descendants in document
        order, computed inside the database as one interval range scan
        (``loc < x < loc + size``), optionally filtered by ``tag``."""
        raise NotImplementedError

    def run_steps(self, doc: str, steps, *,
                  dedup: bool = False) -> list[int]:
        """Answer a compiled :class:`StepSpec` chain for ``doc``
        without materializing the tree.

        Starts at the document root and returns answer locations with
        the in-memory evaluator's nested-loop sequence semantics (see
        :class:`StepSpec`); with ``dedup`` the answer collapses to
        distinct locations in document order.  The SQL backends answer
        with one :func:`compile_steps_sql` query -- range predicates on
        ``(pre, pre + size)``, a parent-join for child steps, window
        functions for positional predicates; the memory backend
        answers through the in-memory axis accelerators, keeping the
        conformance suite three-way.  Raises :class:`KeyError` when
        ``doc`` is not persisted.
        """
        raise NotImplementedError

    def explain_steps(self, doc: str, steps, *,
                      dedup: bool = False) -> dict:
        """How this backend would answer :meth:`run_steps` for ``doc``.

        Returns a JSON-ready record -- at least ``{"engine", "sql",
        "params"}`` -- without touching the database: the SQL backends
        report the exact parameterized query
        :func:`compile_steps_sql` would run (their plan is the SQL);
        tree-walking backends report ``engine="tree"`` with no SQL.
        This is what the ``pushdown: compiled`` plan decision and the
        ``repro explain`` CLI surface.
        """
        check_steps(steps)
        return {"engine": "tree", "sql": None, "params": []}

    def subtree_rows(self, doc: str, loc: int) -> list[tuple]:
        """The contiguous pre-order row slice of the subtree at
        ``loc`` (see :data:`NODE_COLUMNS`) -- one interval range scan,
        so :meth:`run_steps` answers serialize without materializing
        the document.  Raises :class:`KeyError` when ``doc`` is not
        persisted."""
        raise NotImplementedError

    def stats(self) -> dict:
        """Backend counters plus table sizes."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the backing resources (idempotent)."""
        raise NotImplementedError

    def __enter__(self):
        """Context-manager entry (closes on exit)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close on scope exit."""
        self.close()


class StorageBackend:
    """One durable backend bundling verdicts and documents.

    Opened from a store URL by :func:`repro.storage.open_store`; the
    two facets share the backend's connection and lock, so ``close``
    releases everything once.
    """

    #: Scheme name ("memory", "sqlite", "postgresql").
    kind: str = ""
    #: Whether two processes opening the same URL see shared state
    #: (files and servers are shared; memory is per-process).
    shared: bool = False

    def __init__(self):
        self.verdicts: VerdictKV
        self.documents: DocumentStore

    @property
    def url(self) -> str:
        """The canonical store URL this backend was opened from."""
        raise NotImplementedError

    def close(self) -> None:
        """Close both facets and the shared connection (idempotent)."""
        raise NotImplementedError

    def __enter__(self):
        """Context-manager entry (closes on exit)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close on scope exit."""
        self.close()
