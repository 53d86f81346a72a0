"""The benchmark's own spans: recorded in memory, written out at the end.

A span has a name, a start and an end (``perf_counter`` seconds), the
index of its parent span and the id of the request it belongs to.
In-process probes open spans around calls into the program's public
functions.  Wire requests get one client span each; the server's
``timing`` breakdown (durations only) is laid out underneath it --
the server span centred in the client span, its layer spans placed one
after another in the order the server reports them -- so every layer's
self time can be computed the same way.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None = None
    request: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span list with parent links."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, request: str | None = None) -> int:
        self.spans.append(Span(name, start, end, parent, request))
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, request: str | None = None):
        """Time the body; nested ``span`` blocks become its children."""
        parent = self._stack[-1] if self._stack else None
        index = self.add(name, time.perf_counter(), 0.0, parent, request)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def add_request(self, op: str, request: str, start: float, end: float,
                    timing: dict | None) -> int:
        """One wire request plus the server spans it reported."""
        client = self.add(f"client.{op}", start, end, request=request)
        if not timing:
            return client
        total = timing["total_ms"] / 1e3
        offset = start + max(0.0, (end - start - total) / 2)
        server = self.add("server", offset, offset + total, client, request)
        self._layout(timing["spans"], server, offset, request)
        return client

    def _layout(self, spans: list[dict], parent: int, start: float,
                request: str) -> None:
        """Place ``spans`` one after another from ``start``.

        A forwarded request reports ``router`` then ``shard`` (the
        worker's total) then the worker's own spans: ``shard`` nests in
        ``router`` and the worker's spans nest in ``shard``.
        """
        cursor = start
        router = shard = None
        for entry in spans:
            seconds = entry["ms"] / 1e3
            name = entry["name"]
            if name == "router":
                router = self.add("router", cursor, cursor + seconds,
                                  parent, request)
                continue
            if name == "shard" and router is not None:
                outer = self.spans[router]
                begin = outer.start + max(0.0, (outer.seconds - seconds) / 2)
                shard = self.add("shard", begin, begin + seconds, router,
                                 request)
                cursor = begin
                continue
            owner = shard if shard is not None else parent
            self.add(name, cursor, cursor + seconds, owner, request)
            cursor += seconds

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(index)
        return kids

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        kids = self.children()
        result = []
        for index, span in enumerate(self.spans):
            intervals = sorted(
                (max(span.start, self.spans[k].start),
                 min(span.end, self.spans[k].end))
                for k in kids.get(index, ())
            )
            covered = 0.0
            reach = span.start
            for begin, end in intervals:
                begin = max(begin, reach)
                if end > begin:
                    covered += end - begin
                    reach = end
            result.append(span.seconds - covered)
        return result

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
