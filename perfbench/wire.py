"""The service under test as a child process, and a pipelined client.

:class:`ServerProcess` starts ``python -m repro serve`` from the
checkout's ``src`` tree in its own session, waits for the "listening"
line, and tears the whole process group down afterwards.
:class:`Connection` speaks the JSON-lines protocol with many requests in
flight, matching responses to requests by ``id``.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time

try:  # the client's own JSON cost is charged to the benchmark, keep it low
    import orjson

    def dumps(payload: dict) -> bytes:
        return orjson.dumps(payload) + b"\n"

    loads = orjson.loads
except ImportError:  # pragma: no cover - orjson is optional
    import json

    def dumps(payload: dict) -> bytes:
        return (json.dumps(payload, separators=(",", ":")) + "\n").encode()

    loads = json.loads

MAX_LINE = 16 * 1024 * 1024
_LISTENING = re.compile(rb"listening on ([0-9.]+):(\d+)")


class ServiceError(RuntimeError):
    """The service failed to start or answered a set-up call with an error."""


class ServerProcess:
    """One ``repro serve`` process tree, started with ``args``."""

    def __init__(self, root: str, args: list[str], log_path: str):
        self.root = root
        self.args = args
        self.log_path = log_path
        self.proc: asyncio.subprocess.Process | None = None
        self.host = "127.0.0.1"
        self.port = 0

    async def start(self, timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["PYTHONHASHSEED"] = "0"
        with open(self.log_path, "ab") as log:
            self.proc = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0", *self.args,
                stdout=subprocess.PIPE, stderr=log, cwd=self.root, env=env,
                start_new_session=True,
            )
        try:
            line = await asyncio.wait_for(self.proc.stdout.readline(), timeout)
        except TimeoutError:
            await self.kill()
            raise ServiceError("service did not report listening in time")
        match = _LISTENING.search(line)
        if match is None:
            await self.kill()
            raise ServiceError(f"service failed to start: {line!r}")
        self.port = int(match.group(2))

    def pids(self) -> list[int]:
        """The server process and every live descendant (shard workers)."""
        if self.proc is None:
            return []
        parents: dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", "rb") as handle:
                    stat = handle.read()
            except OSError:
                continue
            fields = stat[stat.rfind(b")") + 2:].split()
            parents[int(entry)] = int(fields[1])
        tree = [self.proc.pid]
        for pid in tree:
            tree.extend(child for child, parent in parents.items()
                        if parent == pid)
        return tree

    def peak_rss_mb(self) -> float:
        """VmHWM summed over the process tree, in MiB."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    async def stop(self, timeout: float = 20.0) -> None:
        """Ask the service to shut down; kill the group if it does not."""
        if self.proc is None or self.proc.returncode is not None:
            return
        try:
            conn = await Connection.open(self.host, self.port)
            try:
                await asyncio.wait_for(conn.call({"op": "shutdown"}), 5.0)
            finally:
                await conn.close()
            await asyncio.wait_for(self.proc.wait(), timeout)
        except (OSError, TimeoutError, ConnectionError):
            pass
        await self.kill()

    async def kill(self) -> None:
        """Kill the whole process group and reap the server."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        await self.proc.wait()
        # Shard workers are daemonic children; give them a moment to go.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except (ProcessLookupError, PermissionError):
                break
            await asyncio.sleep(0.02)


class Connection:
    """A pipelined JSON-lines connection: many requests, matched by id."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self._waiting: dict[str, asyncio.Future] = {}
        self._next = 0
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port,
                                                       limit=MAX_LINE)
        return cls(reader, writer)

    def send(self, payload: dict) -> asyncio.Future:
        """Write one request; the future resolves to ``(response, bytes,
        receive perf_counter)``."""
        self._next += 1
        rid = f"r{self._next}"
        payload["id"] = rid
        future = asyncio.get_running_loop().create_future()
        self._waiting[rid] = future
        self.writer.write(dumps(payload))
        return future

    async def call(self, payload: dict) -> dict:
        """One request, awaited; returns the decoded response."""
        response, _, _ = await self.send(payload)
        return response

    async def checked(self, payload: dict) -> dict:
        """:meth:`call`, raising :class:`ServiceError` on an error reply."""
        response = await self.call(payload)
        if not response.get("ok"):
            raise ServiceError(f"{payload.get('op')} failed: "
                               f"{response.get('error')}")
        return response

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                received = time.perf_counter()
                response = loads(line)
                future = self._waiting.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((response, len(line), received))
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            pass
        finally:
            for future in self._waiting.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("connection closed"))
            self._waiting.clear()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
