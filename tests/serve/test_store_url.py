"""A service opens its storage from one store URL.

A file or server URL (``sqlite:///x.db``) gives the service verdicts
*and* documents in one backend, and ``/stats`` echoes its target;
``memory://`` (the default) keeps verdicts per process and persists no
documents.
"""

from __future__ import annotations

import asyncio

from .util import ServiceClient, running_service

PAIRS = [
    ("//title", "delete //price"),
    ("//price", "delete //price"),
    ("/bib/book/author", "delete //editor"),
]


async def _drive(**config_kwargs) -> dict:
    """One fixed workload: analyses, a generated persisted document,
    a view, a reload; returns the final ``/stats`` payload."""
    async with running_service(preload=("bib",),
                               **config_kwargs) as (_, host, port):
        async with ServiceClient(host, port) as client:
            for query, update in PAIRS:
                response = await client.call(
                    "analyze", schema="bib", query=query, update=update
                )
                assert response["ok"], response
            loaded = await client.call("doc.load", schema="bib",
                                       doc="d", bytes=2000, seed=3)
            assert loaded["ok"], loaded
            view = await client.call("view.register", doc="d",
                                     name="titles", query="//title")
            assert view["ok"], view
            await client.call("doc.unload", doc="d")
            reloaded = await client.call("doc.load", schema="bib",
                                         doc="d")
            assert reloaded["ok"] and reloaded["from_store"], reloaded
            stats = await client.call("stats")
            assert stats["ok"], stats
            return stats


def test_url_reported_paths_echo_the_url(tmp_path):
    """The unified service reports its configured URL targets."""
    url = f"sqlite:///{tmp_path / 'unified.db'}"
    stats = asyncio.run(_drive(store_path=url))
    assert str(tmp_path / "unified.db") in stats["store"]["path"]
    assert stats["docstore"]["enabled"] is True


def test_memory_url_matches_default_ephemeral():
    """A ``memory://`` service, like the default one, keeps verdicts
    but reports no document store."""

    async def stats(**config_kwargs) -> dict:
        async with running_service(preload=("bib",),
                                   **config_kwargs) as (_, host, port):
            async with ServiceClient(host, port) as client:
                response = await client.call(
                    "analyze", schema="bib", query="//title",
                    update="delete //price",
                )
                assert response["ok"], response
                return await client.call("stats")

    for payload in (asyncio.run(stats(store_path="memory://")),
                    asyncio.run(stats())):
        assert payload["docstore"] == {"enabled": False}
        assert payload["store"]["verdicts"] == 1
