"""Open-loop and closed-loop request drivers, single-threaded asyncio.

Both drivers take a ``make(i)`` callback returning the ``i``-th request
payload of the phase and return one :class:`Sample` per request sent.
The open loop sends request ``i`` at ``start + i / rate`` whatever the
service does, and times it from that scheduled instant, so a stall also
charges the requests that queued behind it.  It records how late each
send left (``late``): that is the generator's own lag, not the
service's.  The closed loop keeps a fixed number of requests in flight
per connection and reports completed requests per second.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field

from .wire import Connection

#: Responses still missing this long after the last send count as failed.
DRAIN_SECONDS = 30.0


@dataclass
class Sample:
    """One request: its payload, outcome and timings (seconds)."""

    index: int
    payload: dict
    due: float
    sent: float
    done: float = math.nan
    response: dict | None = None
    nbytes: int = 0

    @property
    def ok(self) -> bool:
        return self.response is not None and bool(self.response.get("ok"))

    @property
    def latency(self) -> float:
        """From the scheduled send to the response; inf when it failed."""
        return self.done - self.due if self.ok else math.inf

    @property
    def late(self) -> float:
        return self.sent - self.due


@dataclass
class PhaseResult:
    samples: list[Sample] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0

    @property
    def seconds(self) -> float:
        return self.finished - self.started

    @property
    def completed(self) -> int:
        return sum(1 for sample in self.samples if sample.ok)


def _attach(sample: Sample, future: asyncio.Future) -> None:
    def record(done: asyncio.Future) -> None:
        if done.cancelled() or done.exception() is not None:
            return
        sample.response, sample.nbytes, sample.done = done.result()
    future.add_done_callback(record)


async def _drain(futures: list[asyncio.Future]) -> None:
    if not futures:
        return
    _, pending = await asyncio.wait(futures, timeout=DRAIN_SECONDS)
    for future in pending:
        future.cancel()


async def open_loop(conns: list[Connection], make, rate: float,
                    seconds: float) -> PhaseResult:
    """Send ``rate * seconds`` requests on a fixed schedule."""
    total = max(1, int(rate * seconds))
    result = PhaseResult()
    futures = []
    start = time.perf_counter() + 0.01
    result.started = start
    index = 0
    while index < total:
        now = time.perf_counter()
        due = start + index / rate
        if due > now:
            await asyncio.sleep(due - now)
            continue
        # Everything already due leaves now, round-robin over connections.
        while index < total and start + index / rate <= now:
            payload = make(index)
            sample = Sample(index, payload, start + index / rate, now)
            future = conns[index % len(conns)].send(payload)
            _attach(sample, future)
            futures.append(future)
            result.samples.append(sample)
            index += 1
    await _drain(futures)
    result.finished = time.perf_counter()
    return result


async def closed_loop(conns: list[Connection], make, inflight: int,
                      seconds: float, count: int | None = None
                      ) -> PhaseResult:
    """Keep ``inflight`` requests outstanding per connection for
    ``seconds`` (or until ``count`` were sent); the phase ends when the
    last one returns."""
    result = PhaseResult()
    counter = iter(range(count if count is not None else 1 << 62))
    start = time.perf_counter()
    end = start + seconds
    result.started = start

    async def worker(conn: Connection) -> None:
        while time.perf_counter() < end:
            index = next(counter, None)
            if index is None:
                return
            payload = make(index)
            now = time.perf_counter()
            sample = Sample(index, payload, now, now)
            result.samples.append(sample)
            future = conn.send(payload)
            _attach(sample, future)
            try:
                await asyncio.wait_for(asyncio.shield(future), DRAIN_SECONDS)
            except (TimeoutError, ConnectionError):
                future.cancel()
                return

    await asyncio.gather(*(worker(conn) for conn in conns
                           for _ in range(inflight)))
    result.finished = time.perf_counter()
    return result


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of ``values`` (inf allowed)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] == math.inf:
        return math.inf if rank > low or ordered[low] == math.inf \
            else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)

