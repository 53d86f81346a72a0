"""``docs/STORAGE.md`` is generated-checked against the code.

The storage document's load-bearing claims are diffed against their
sources of truth: the URL scheme list against
``repro.storage.SCHEMES``, the pragma table against
``repro.storage.sqlite.PRAGMAS``, and the removal note against the
error a plain-path ``--store`` gets.  The ``>>>`` examples run via
``tests/docs/test_doc_examples.py``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.storage import SCHEMES, parse_store_url
from repro.storage.sqlite import PRAGMAS

DOC = Path(__file__).resolve().parents[2] / "docs" / "STORAGE.md"

#: A pragma-table row looks like ``| `journal_mode` | `wal` | ... |``.
PRAGMA_ROW = re.compile(r"^\| `([a-z_]+)` \| `([a-z0-9]+)` \|",
                        re.MULTILINE)


def test_document_exists():
    assert DOC.is_file(), "docs/STORAGE.md is missing"


def test_every_scheme_documented():
    """Each URL scheme the parser accepts appears as ``scheme://``."""
    text = DOC.read_text()
    for scheme in SCHEMES:
        assert f"{scheme}://" in text, (
            f"store URL scheme {scheme!r} is not documented"
        )


def test_pragma_table_matches_code():
    """The documented pragma table is exactly ``PRAGMAS`` -- name,
    value, and order (the table reads in application order)."""
    documented = PRAGMA_ROW.findall(DOC.read_text())
    expected = [(name, str(value)) for name, value in PRAGMAS]
    assert documented == expected, (
        "docs/STORAGE.md pragma table has drifted from "
        f"repro.storage.sqlite.PRAGMAS:\n  documented: {documented}\n"
        f"  code:       {expected}"
    )


def test_migration_documents_deprecated_spellings():
    """The removal note names every removed flag and the URL that
    replaces a plain path."""
    text = DOC.read_text()
    note = text[text.index("## Removed spellings"):]
    for spelling in ("--store verdicts.db", "--doc-store", "--docstore",
                     "sqlite:///verdicts.db"):
        assert spelling in note, (
            f"docs/STORAGE.md removal note lost {spelling!r}"
        )


def test_plain_path_error_points_here():
    """A plain-path ``--store`` is refused with an error naming its
    URL spelling and this document."""
    with pytest.raises(ValueError) as refused:
        parse_store_url("verdicts.db")
    assert "'sqlite:///verdicts.db'" in str(refused.value)
    assert "docs/STORAGE.md" in str(refused.value)


def test_cross_references():
    """The doc suite cross-links: ARCHITECTURE and PROTOCOL point at
    STORAGE, and STORAGE names the conformance suite."""
    docs = DOC.parent
    assert "docs/STORAGE.md" in (docs / "ARCHITECTURE.md").read_text()
    assert "docs/STORAGE.md" in (docs / "PROTOCOL.md").read_text()
    assert "tests/storage/test_conformance.py" in DOC.read_text()


def test_postgres_extra_documented():
    """The psycopg install extra in the doc matches pyproject."""
    text = DOC.read_text()
    assert "[postgres]" in text
    pyproject = (DOC.parents[1] / "pyproject.toml").read_text()
    assert "postgres" in pyproject, (
        "pyproject.toml lost the documented 'postgres' extra"
    )
