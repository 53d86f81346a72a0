"""Indexed document store: the scalable storage layer under everything
dynamic.

The Section-2 dict-of-locations :class:`~repro.xmldm.store.Store` is the
paper's formalization, kept verbatim for the static story; this package
is the *serving* representation of documents:

* :mod:`~repro.docstore.encode` -- an interval-encoded node table
  (pre/post/level/parent, after the XPath-accelerator encodings) built
  in one streaming pass, API-compatible with the dict store;
* :mod:`~repro.docstore.streamload` -- an event-driven bulk loader with
  *projection pushdown*: given a :class:`~repro.xmldm.projection.ChainKeep`
  derived from inferred chains, whole subtrees that cannot extend any
  kept chain are skipped at parse time, emitting ``t|L`` directly
  (Theorem 3.2 licenses evaluating on the projection);
* node-table persistence lives in :mod:`repro.storage`, so served
  documents survive restarts without a re-parse;
* :mod:`~repro.docstore.axes` -- per-axis accelerators (interval range
  scans) behind the evaluator's transparent fast path;
* :mod:`~repro.docstore.adapter` -- migration glue between dict-store
  trees and indexed trees, plus update application with span-local
  re-encoding;
* :mod:`~repro.docstore.pushdown` -- the SQL-pushdown bridge: compiles
  the downward-axis query fragment to :class:`~repro.storage.StepSpec`
  chains that :meth:`~repro.storage.DocumentStore.run_steps` answers
  inside the database, and serializes answers straight from node rows.
"""

from .adapter import apply_update_indexed, to_indexed, to_tree
from .encode import IndexedStore, IndexedStoreBuilder, IndexedTree
from .streamload import LoadResult, load_path, load_xml

__all__ = [
    "IndexedStore",
    "IndexedStoreBuilder",
    "IndexedTree",
    "LoadResult",
    "load_path",
    "load_xml",
    "apply_update_indexed",
    "to_indexed",
    "to_tree",
]
