"""Processes opening one fresh SQLite file at the same moment all succeed.

The shards of a sharded service open their shared store at start-up.
On a fresh file SQLite can refuse ``PRAGMA journal_mode=wal`` with
"database is locked" while another connection switches the file, and it
does so without calling the busy handler.
:func:`repro.storage.sqlite.connect` retries the switch; without that,
about a third of these trials raised.
"""

from __future__ import annotations

import multiprocessing

from repro.storage.sqlite import connect

PROCESSES = 6
TRIALS = 20

_barrier = None


def _hold_barrier(barrier) -> None:
    """Pool initializer: keep the start barrier in the worker."""
    global _barrier
    _barrier = barrier


def _open(path: str) -> str:
    """Worker body: wait for every sibling, then open ``path``."""
    _barrier.wait(timeout=60)
    connection = connect(path)
    try:
        return connection.execute("PRAGMA journal_mode").fetchone()[0]
    finally:
        connection.close()


def test_processes_opening_one_fresh_file_all_switch_to_wal(tmp_path):
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(PROCESSES)
    with context.Pool(PROCESSES, initializer=_hold_barrier,
                      initargs=(barrier,)) as pool:
        for trial in range(TRIALS):
            path = str(tmp_path / f"fresh-{trial}.db")
            modes = pool.map_async(
                _open, [path] * PROCESSES, chunksize=1
            ).get(timeout=120)
            assert modes == ["wal"] * PROCESSES, (trial, modes)
