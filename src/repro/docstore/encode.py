"""Interval-encoded node table: the indexed document representation.

Every node gets a *location* (a dense integer id) plus an interval
encoding maintained as columnar arrays:

* ``pre``   -- pre-order rank (the position in document order);
* ``size``  -- subtree size including the node itself, so the strict
  descendants of ``l`` are exactly the pre ranks in
  ``(pre(l), pre(l) + size(l))`` -- every downward axis is a range scan;
* ``level`` -- depth below the root;
* ``parent``-- parent location (upward axes are pointer chases).

The post-order rank is derived, not stored: ``post = pre + size - 1 -
level`` (the standard identity of the pre/post plane used by XPath
accelerators).  The encoding is built in one streaming pass by
:class:`IndexedStoreBuilder` (also the sink of the projected bulk
loader) and persisted row-per-node by every
:class:`~repro.storage.base.DocumentStore` backend.

:class:`IndexedStore` is duck-type compatible with the Section-2
:class:`~repro.xmldm.store.Store` -- ``typ``/``node_chain``/``children``
/``parent``/mutation/``copy_subtree`` all behave identically -- so the
query evaluator, the update pipeline (PUL checks and application), the
serializer, and value equivalence run on it unchanged.  On top of the
shared surface it adds:

* ``axis_step`` -- the evaluator's transparent fast path (see
  :mod:`~repro.docstore.axes`);
* mutation tracking with *span-local re-encoding*: updates dirty the
  smallest enclosing encoded spans, and the next accelerated read
  re-walks only those spans (plus an O(tail) integer shift when a span
  changed size) instead of re-encoding the whole document.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from ..schema.regex import TEXT_SYMBOL
from ..xmldm.store import ElementNode, StoreError, TextNode

Location = int

#: Sentinel pre rank of nodes outside the encoded document (freshly
#: constructed query/update results, detached garbage).
UNENCODED = -1


class IndexedStore:
    """An interval-encoded store, API-compatible with ``xmldm.Store``.

    Locations are dense ids assigned in pre-order at build time and
    stable across mutations (the interval index re-encodes *around*
    them).  Nodes allocated after the build (constructed query results,
    update copies) live past the encoded prefix with ``pre ==
    UNENCODED`` until a re-encoded span adopts them.
    """

    def __init__(self) -> None:
        # Node columns (authoritative).
        self._tags: list[str | None] = []     # None -> text node
        self._texts: list[str | None] = []    # None -> element node
        self._kids: list[list[Location] | None] = []
        self._parent: list[Location | None] = []
        # Interval index (valid when _dirty is empty).
        self._pre: list[int] = []
        self._size: list[int] = []
        self._level: list[int] = []
        self._order: list[Location] = []      # pre rank -> location
        self._dirty: set[Location] = set()
        # Lazy per-tag rank index for accelerated name tests.
        self._tag_ranks: dict[str, list[int]] | None = None
        self._text_ranks: list[int] | None = None
        #: Count of span-local re-encodes performed so far.
        self.spans_reencoded = 0
        #: Locations re-walked by span re-encodes (cost accounting).
        self.nodes_reencoded = 0

    # -- allocation ----------------------------------------------------------

    def _alloc(self, tag: str | None, text: str | None,
               kids: list[Location] | None) -> Location:
        loc = len(self._tags)
        self._tags.append(tag)
        self._texts.append(text)
        self._kids.append(kids)
        self._parent.append(None)
        self._pre.append(UNENCODED)
        self._size.append(1)
        self._level.append(0)
        return loc

    def new_element(self, tag: str, children: list[Location] | None = None
                    ) -> Location:
        """Allocate an element node (unencoded until a span adopts it)."""
        kids = list(children) if children else []
        loc = self._alloc(tag, None, kids)
        for child in kids:
            self._parent[child] = loc
        return loc

    def new_text(self, text: str) -> Location:
        """Allocate a text node (unencoded until a span adopts it)."""
        return self._alloc(None, text, None)

    # -- accessors -------------------------------------------------------

    def node(self, loc: Location):
        """A read-only snapshot node (``ElementNode``/``TextNode``).

        Mutations must go through the store methods; the returned
        object is a copy, not live storage.
        """
        tag = self._check(loc)
        if tag is None:
            return TextNode(self._texts[loc])
        return ElementNode(tag, list(self._kids[loc]))

    def _check(self, loc: Location) -> str | None:
        if not 0 <= loc < len(self._tags):
            raise StoreError(f"unknown location {loc}")
        return self._tags[loc]

    def __contains__(self, loc: Location) -> bool:
        return 0 <= loc < len(self._tags)

    def __len__(self) -> int:
        return len(self._tags)

    def locations(self):
        """All allocated locations (encoded or not), ascending."""
        return iter(range(len(self._tags)))

    def typ(self, loc: Location) -> str:
        """``typ(l)``: the tag, or the text symbol for text nodes."""
        tag = self._check(loc)
        return tag if tag is not None else TEXT_SYMBOL

    def is_element(self, loc: Location) -> bool:
        """True when ``loc`` holds an element node."""
        return self._check(loc) is not None

    def is_text(self, loc: Location) -> bool:
        """True when ``loc`` holds a text node."""
        return self._check(loc) is None

    def tag(self, loc: Location) -> str:
        """Tag of an element node (raises for text nodes)."""
        tag = self._check(loc)
        if tag is None:
            raise StoreError(f"location {loc} is a text node")
        return tag

    def text(self, loc: Location) -> str:
        """String value of a text node (raises for elements)."""
        if self._check(loc) is not None:
            raise StoreError(f"location {loc} is an element node")
        return self._texts[loc]

    def children(self, loc: Location) -> list[Location]:
        """Ordered child locations (empty for text nodes)."""
        self._check(loc)
        kids = self._kids[loc]
        return list(kids) if kids is not None else []

    def parent(self, loc: Location) -> Location | None:
        """Parent location, or None for roots / detached nodes."""
        self._check(loc)
        return self._parent[loc]

    def node_chain(self, loc: Location) -> tuple[str, ...]:
        """The chain ``c^sigma_l`` of Definition 2.2 (root-most first)."""
        parts: list[str] = []
        current: Location | None = loc
        while current is not None:
            parts.append(self.typ(current))
            current = self._parent[current]
        parts.reverse()
        return tuple(parts)

    def depth(self, loc: Location) -> int:
        """Number of ancestors of ``loc``."""
        self._check(loc)
        if not self._dirty and self._pre[loc] != UNENCODED:
            return self._level[loc]
        count = 0
        current = self._parent[loc]
        while current is not None:
            count += 1
            current = self._parent[current]
        return count

    # -- interval index ------------------------------------------------------

    def pre(self, loc: Location) -> int:
        """Pre-order rank, or ``UNENCODED`` for nodes outside the index."""
        self._check(loc)
        self.reencode()
        return self._pre[loc]

    def post(self, loc: Location) -> int:
        """Post-order rank (derived: ``pre + size - 1 - level``)."""
        self._check(loc)
        self.reencode()
        if self._pre[loc] == UNENCODED:
            raise StoreError(f"location {loc} is not encoded")
        return self._pre[loc] + self._size[loc] - 1 - self._level[loc]

    def subtree_size(self, loc: Location) -> int:
        """Encoded subtree size including ``loc`` itself."""
        self._check(loc)
        self.reencode()
        if self._pre[loc] == UNENCODED:
            raise StoreError(f"location {loc} is not encoded")
        return self._size[loc]

    @property
    def encoded_count(self) -> int:
        """Number of locations currently in the interval index."""
        return len(self._order)

    def axis_step(self, axis, test, loc: Location) -> list[Location] | None:
        """Accelerated axis+test evaluation (the evaluator fast path).

        Returns the matching locations in the same order the generic
        evaluator would produce, or None when this location cannot be
        accelerated (the caller then falls back to the generic walk).
        """
        from .axes import axis_step as _axis_step

        return _axis_step(self, axis, test, loc)

    def descendant_child_step(self, test, loc: Location
                              ) -> list[Location] | None:
        """Accelerated ``//test`` shape (see
        :func:`repro.docstore.axes.descendant_child_step`)."""
        from .axes import descendant_child_step as _dc_step

        return _dc_step(self, test, loc)

    def _ranks(self) -> tuple[dict[str, list[int]], list[int]]:
        """Lazy (tag -> sorted pre ranks, text pre ranks) index."""
        if self._tag_ranks is None or self._text_ranks is None:
            tag_ranks: dict[str, list[int]] = {}
            text_ranks: list[int] = []
            tags = self._tags
            for rank, loc in enumerate(self._order):
                tag = tags[loc]
                if tag is None:
                    text_ranks.append(rank)
                else:
                    tag_ranks.setdefault(tag, []).append(rank)
            self._tag_ranks = tag_ranks
            self._text_ranks = text_ranks
        return self._tag_ranks, self._text_ranks

    def tag_ranks_in(self, tag: str, lo: int, hi: int) -> list[int]:
        """Pre ranks of ``tag`` elements in the half-open span
        ``[lo, hi)`` -- one bisect pair, the descendant-axis fast path."""
        ranks, _ = self._ranks()
        positions = ranks.get(tag)
        if not positions:
            return []
        return positions[bisect_left(positions, lo):
                         bisect_right(positions, hi - 1)]

    def text_ranks_in(self, lo: int, hi: int) -> list[int]:
        """Pre ranks of text nodes in ``[lo, hi)``."""
        _, positions = self._ranks()
        return positions[bisect_left(positions, lo):
                         bisect_right(positions, hi - 1)]

    # -- traversal -------------------------------------------------------

    def descendants(self, loc: Location):
        """Strict descendants in document order (an ``order`` slice when
        the location is encoded, a generic walk otherwise)."""
        self._check(loc)
        self.reencode()
        rank = self._pre[loc]
        if rank != UNENCODED:
            return iter(self._order[rank + 1:rank + self._size[loc]])
        return self._walk(loc, include_self=False)

    def descendants_or_self(self, loc: Location):
        """``loc`` followed by its descendants in document order."""
        self._check(loc)
        self.reencode()
        rank = self._pre[loc]
        if rank != UNENCODED:
            return iter(self._order[rank:rank + self._size[loc]])
        return self._walk(loc, include_self=True)

    def _walk(self, loc: Location, include_self: bool):
        if include_self:
            yield loc
        kids = self._kids[loc]
        stack = list(reversed(kids)) if kids else []
        while stack:
            current = stack.pop()
            yield current
            kids = self._kids[current]
            if kids:
                stack.extend(reversed(kids))

    def ancestors(self, loc: Location):
        """Strict ancestors, nearest first."""
        self._check(loc)
        current = self._parent[loc]
        while current is not None:
            yield current
            current = self._parent[current]

    def siblings_after(self, loc: Location) -> list[Location]:
        """Following siblings in document order."""
        parent = self.parent(loc)
        if parent is None:
            return []
        kids = self._kids[parent]
        index = kids.index(loc)
        return list(kids[index + 1:])

    def siblings_before(self, loc: Location) -> list[Location]:
        """Preceding siblings in document order."""
        parent = self.parent(loc)
        if parent is None:
            return []
        kids = self._kids[parent]
        index = kids.index(loc)
        return list(kids[:index])

    # -- mutation (used by update application) -------------------------------

    def replace_children(self, loc: Location, children: list[Location]
                         ) -> None:
        """Overwrite the child list of an element node.

        Marks ``loc`` dirty: its enclosing span re-encodes lazily on
        the next accelerated read.
        """
        if self._check(loc) is None:
            raise StoreError(f"location {loc} is a text node")
        for old in self._kids[loc]:
            if self._parent[old] == loc:
                self._parent[old] = None
        self._kids[loc] = list(children)
        for child in self._kids[loc]:
            self._parent[child] = loc
        self._dirty.add(loc)

    def rename(self, loc: Location, tag: str) -> None:
        """Rename an element node (structure unchanged; only the tag
        index is invalidated)."""
        if self._check(loc) is None:
            raise StoreError(f"cannot rename text node {loc}")
        self._tags[loc] = tag
        self._tag_ranks = None

    def detach(self, loc: Location) -> None:
        """Remove ``loc`` from its parent's child list (node stays
        allocated, like the dict store's garbage)."""
        self._check(loc)
        parent = self._parent[loc]
        if parent is None:
            return
        self._kids[parent].remove(loc)
        self._parent[loc] = None
        self._dirty.add(parent)

    # -- copying ---------------------------------------------------------

    def copy_subtree(self, source, loc: Location) -> Location:
        """Deep-copy ``source @ loc`` into this store; returns the new
        root (fresh, unencoded locations -- W3C copy semantics)."""
        if source.is_text(loc):
            return self.new_text(source.text(loc))
        # Iterative post-order copy (documents can be deep).
        stack: list[tuple[Location, list[Location], int]] = [
            (loc, source.children(loc), 0)
        ]
        copies: list[list[Location]] = [[]]
        while stack:
            node, kids, next_child = stack.pop()
            if next_child < len(kids):
                stack.append((node, kids, next_child + 1))
                child = kids[next_child]
                if source.is_text(child):
                    copies[-1].append(self.new_text(source.text(child)))
                else:
                    stack.append((child, source.children(child), 0))
                    copies.append([])
            else:
                done = self.new_element(source.tag(node), copies.pop())
                if copies:
                    copies[-1].append(done)
                else:
                    return done
        raise AssertionError("unreachable")  # pragma: no cover

    def clone(self) -> "IndexedStore":
        """An independent deep copy (same locations, same encoding)."""
        other = IndexedStore()
        other._tags = list(self._tags)
        other._texts = list(self._texts)
        other._kids = [list(k) if k is not None else None
                       for k in self._kids]
        other._parent = list(self._parent)
        other._pre = list(self._pre)
        other._size = list(self._size)
        other._level = list(self._level)
        other._order = list(self._order)
        other._dirty = set(self._dirty)
        return other

    # -- re-encoding ---------------------------------------------------------

    def reencode(self) -> int:
        """Re-encode every dirty span; returns the number of spans
        re-walked.

        Each mutated location is folded into its smallest enclosing
        encoded, attached span; the span's slice of the pre-order is
        re-walked (adopting new nodes, dropping removed ones) and, when
        the span changed size, the tail ranks shift by the delta and
        the ancestors' sizes adjust -- integer work only, no tree walk
        outside the touched spans.
        """
        if not self._dirty:
            return 0
        if not self._order:
            self._dirty.clear()
            return 0
        root = self._order[0]
        anchors: set[Location] = set()
        for loc in self._dirty:
            anchor = self._anchor(loc, root)
            if anchor is not None:
                anchors.add(anchor)
        self._dirty.clear()
        # Drop anchors covered by another anchor's subtree.
        maximal = [a for a in anchors
                   if not self._has_ancestor_in(a, anchors)]
        for anchor in maximal:
            if not self._reencode_span(anchor):
                # A cross-span node move left this anchor's recorded
                # rank inconsistent: rebuild everything from the root
                # (rare; correctness net, not the normal path).
                self._full_reencode(root)
                break
        self.spans_reencoded += len(maximal)
        self._tag_ranks = None
        self._text_ranks = None
        return len(maximal)

    def _anchor(self, loc: Location, root: Location) -> Location | None:
        """The span to re-encode for one dirty location.

        Climbs to the root and anchors at the nearest encoded
        ancestor-or-self of the *topmost dirty* node on the path --
        anchoring below a dirty ancestor could trust the stale rank of
        a node that moved subtrees.  Returns None for detached garbage
        (a re-attachment always dirties the attaching ancestor, so the
        subtree is covered from above when it matters).
        """
        path: list[Location] = []
        current: Location | None = loc
        while current is not None:
            path.append(current)
            if current == root:
                break
            current = self._parent[current]
        else:
            return None  # never reached the root: detached
        start = 0
        for index in range(len(path) - 1, -1, -1):
            if path[index] in self._dirty:
                start = index
                break
        for candidate in path[start:]:
            if self._pre[candidate] != UNENCODED:
                return candidate
        return root

    def _has_ancestor_in(self, loc: Location, pool: set[Location]) -> bool:
        current = self._parent[loc]
        while current is not None:
            if current in pool:
                return True
            current = self._parent[current]
        return False

    def _walk_span(self, start: Location, base_rank: int,
                   base_level: int, guard_lo: int, guard_hi: int
                   ) -> tuple[list[Location], bool]:
        """Pre-order walk of ``start``'s live subtree, assigning
        ``pre``/``level``/``size``.

        ``guard_lo:guard_hi`` is the old rank region being replaced:
        encountering a node whose current rank lies *outside* it means
        a subtree moved in from another span -- the walk reports that
        (second return value) so the caller can fall back to a full
        rebuild instead of leaving the node's stale duplicate entries
        in the order (where a later tail shift would corrupt its fresh
        ranks).
        """
        span: list[Location] = []
        cross_move = False
        stack: list[tuple[Location, int]] = [(start, base_level)]
        while stack:
            loc, level = stack.pop()
            old_rank = self._pre[loc]
            if old_rank != UNENCODED and \
                    not guard_lo <= old_rank < guard_hi:
                cross_move = True
            self._pre[loc] = base_rank + len(span)
            self._level[loc] = level
            span.append(loc)
            kids = self._kids[loc]
            if kids:
                stack.extend((k, level + 1) for k in reversed(kids))
        # Sizes bottom-up (descendants appear after their parent).
        for loc in reversed(span):
            kids = self._kids[loc]
            self._size[loc] = 1 + (
                sum(self._size[k] for k in kids) if kids else 0
            )
        self.nodes_reencoded += len(span)
        return span, cross_move

    def _reencode_span(self, anchor: Location) -> bool:
        """Re-walk ``anchor``'s subtree into its slice of the order.

        Returns False when the anchor's recorded rank is inconsistent
        or a node moved in from another span (the caller then falls
        back to a full re-encode).
        """
        rank = self._pre[anchor]
        if rank == UNENCODED or rank >= len(self._order) \
                or self._order[rank] != anchor:
            return False
        old_size = self._size[anchor]
        old_span = self._order[rank:rank + old_size]
        new_span, cross_move = self._walk_span(
            anchor, rank, self._level[anchor], rank, rank + old_size
        )
        if cross_move:
            return False
        delta = len(new_span) - old_size
        self._order[rank:rank + old_size] = new_span
        if delta:
            for tail in range(rank + len(new_span), len(self._order)):
                self._pre[self._order[tail]] = tail
            current = self._parent[anchor]
            while current is not None:
                self._size[current] += delta
                current = self._parent[current]
        # Invalidate ranks of nodes that left the span (detached or
        # moved): anything whose recorded rank no longer points at it.
        for loc in old_span:
            position = self._pre[loc]
            if position == UNENCODED or position >= len(self._order) \
                    or self._order[position] != loc:
                self._pre[loc] = UNENCODED
        return True

    def _full_reencode(self, root: Location) -> None:
        """Rebuild the whole interval index from the root."""
        for loc in range(len(self._pre)):
            self._pre[loc] = UNENCODED
        self._order, _ = self._walk_span(root, 0, 0, 0, 0)


@dataclass
class IndexedTree:
    """A tree over an :class:`IndexedStore` (mirrors ``xmldm.Tree``)."""

    store: IndexedStore
    root: Location

    __slots__ = ("store", "root")

    def size(self) -> int:
        """Number of nodes connected to the root."""
        store = self.store
        store.reencode()
        if store._pre[self.root] != UNENCODED:
            return store._size[self.root]
        return sum(1 for _ in store.descendants_or_self(self.root))

    def clone(self) -> "IndexedTree":
        """An independent deep copy of store and root."""
        return IndexedTree(self.store.clone(), self.root)


class IndexedStoreBuilder:
    """One-streaming-pass encoder: event in, interval encoding out.

    Drive with ``start_element``/``text``/``end_element`` in document
    order and call :meth:`finish`.  Locations are assigned in pre-order
    at ``start_element`` time, so location id == pre rank on a freshly
    built store; sizes are filled in as elements close.  This is the
    shared sink of the bulk loader, the dict-store migration, and the
    persistence backend.
    """

    def __init__(self) -> None:
        self._store = IndexedStore()
        self._stack: list[Location] = []
        self._root: Location | None = None

    @property
    def depth(self) -> int:
        """Number of currently open elements."""
        return len(self._stack)

    @property
    def count(self) -> int:
        """Nodes emitted so far."""
        return len(self._store._tags)

    def _attach(self, loc: Location) -> None:
        store = self._store
        store._pre[loc] = loc
        store._order.append(loc)
        store._level[loc] = len(self._stack)
        if self._stack:
            parent = self._stack[-1]
            store._parent[loc] = parent
            store._kids[parent].append(loc)
        elif self._root is None:
            self._root = loc
        else:
            raise ValueError("document has more than one root")

    def start_element(self, tag: str) -> Location:
        """Open an element; returns its location."""
        loc = self._store._alloc(tag, None, [])
        self._attach(loc)
        self._stack.append(loc)
        return loc

    def text(self, value: str) -> Location:
        """Emit a text node under the current element."""
        if not self._stack:
            raise ValueError("text outside the document element")
        loc = self._store._alloc(None, value, None)
        self._attach(loc)
        return loc

    def end_element(self) -> Location:
        """Close the current element (its subtree size is now known)."""
        loc = self._stack.pop()
        self._store._size[loc] = len(self._store._tags) - loc
        return loc

    def finish(self) -> IndexedTree:
        """Seal the store and return the built tree."""
        if self._stack:
            raise ValueError(f"{len(self._stack)} elements still open")
        if self._root is None:
            raise ValueError("empty document")
        return IndexedTree(self._store, self._root)
