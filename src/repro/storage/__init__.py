"""Pluggable storage: one interface, a store URL to pick the backend.

A single **store URL** selects where verdicts and documents live::

    memory://                     ephemeral per-process dicts
    sqlite:///relative/path.db    one WAL SQLite file (both facets)
    sqlite:////absolute/path.db   (four slashes = absolute path)
    postgresql://host/db          shared PostgreSQL server (psycopg)

:func:`open_store` turns a URL into a :class:`StorageBackend` whose
``.verdicts`` (:class:`~repro.storage.base.VerdictKV`) and
``.documents`` (:class:`~repro.storage.base.DocumentStore`) facets
share one connection.  See ``docs/STORAGE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import (
    DocumentStore,
    StepSpec,
    StorageBackend,
    StoredDocument,
    VerdictKV,
    check_steps,
    compact_store,
    compile_steps_sql,
    materialize,
    node_rows,
)

__all__ = [
    "BackendSpec",
    "DocumentStore",
    "SCHEMES",
    "StepSpec",
    "StorageBackend",
    "StoredDocument",
    "VerdictKV",
    "check_steps",
    "compact_store",
    "compile_steps_sql",
    "materialize",
    "node_rows",
    "open_store",
    "parse_store_url",
]

#: URL schemes :func:`parse_store_url` accepts (``postgres://`` is
#: normalized to ``postgresql://``).
SCHEMES = ("memory", "sqlite", "postgresql")


@dataclass(frozen=True)
class BackendSpec:
    """A parsed store target: backend kind plus its opaque target
    (path for sqlite, DSN for postgresql, ``":memory:"`` for
    memory)."""

    kind: str
    target: str


def parse_store_url(url: str) -> BackendSpec:
    """Parse a store URL into a :class:`BackendSpec`.

    SQLAlchemy path convention: ``sqlite:///x.db`` is the *relative*
    path ``x.db``; ``sqlite:////var/x.db`` is absolute.  Raises
    :class:`ValueError` on a plain path, an unknown scheme or a
    malformed URL.
    """
    if "://" not in url:
        raise ValueError(
            f"{url!r} is not a store URL; for a SQLite file use "
            f"'sqlite:///{url}' (see docs/STORAGE.md)"
        )
    if url == "memory://":
        return BackendSpec("memory", ":memory:")
    if url.startswith("memory://"):
        raise ValueError(
            f"malformed store URL {url!r}: memory:// takes no path"
        )
    if url.startswith("sqlite://"):
        rest = url[len("sqlite://"):]
        if not rest.startswith("/"):
            raise ValueError(
                f"malformed store URL {url!r}: expected sqlite:///path"
            )
        path = rest[1:]  # sqlite:///x.db -> "x.db"; ////abs -> "/abs"
        if not path:
            raise ValueError(
                f"malformed store URL {url!r}: empty database path"
            )
        return BackendSpec("sqlite", path)
    if url.startswith("postgresql://") or url.startswith("postgres://"):
        dsn = url.replace("postgres://", "postgresql://", 1)
        return BackendSpec("postgresql", dsn)
    scheme = url.split("://", 1)[0]
    raise ValueError(
        f"unknown store URL scheme {scheme!r} (expected one of: "
        + ", ".join(SCHEMES) + ")"
    )


def open_store(url: str) -> StorageBackend:
    """Open the :class:`StorageBackend` a store URL names (see
    :func:`parse_store_url` for the accepted spellings)."""
    spec = parse_store_url(url)
    if spec.kind == "memory":
        from .memory import MemoryBackend

        return MemoryBackend()
    if spec.kind == "sqlite":
        from .sqlite import SqliteBackend

        return SqliteBackend(spec.target)
    from .postgres import PgBackend

    return PgBackend(spec.target)
