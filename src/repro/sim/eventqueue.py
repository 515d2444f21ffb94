"""Discrete-event simulation core.

A deliberately small DES kernel: a priority queue of timestamped events with
stable FIFO ordering for simultaneous events, plus cancellation. The serving
simulator (:mod:`repro.serving.engine`) schedules *iteration-level* events
(one per prefill batch / decode iteration / KV transfer completion), never
per-packet events, which keeps large sweeps tractable in pure Python as the
HPC guides recommend (mesoscopic rather than microscopic simulation).
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(order=True)
class _Entry:
    time: float
    seq: int
    event: "Event" = field(compare=False)


class Event:
    """A scheduled callback. ``cancel()`` makes it a no-op when popped."""

    __slots__ = ("time", "fn", "args", "cancelled", "tag")

    def __init__(
        self,
        time: float,
        fn: Callable[..., None],
        args: tuple = (),
        tag: str = "",
    ) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.tag = tag

    def cancel(self) -> None:
        """Mark the event so the queue skips it when its time comes."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, tag={self.tag!r}, {state})"


class EventQueue:
    """Min-heap of :class:`Event` with deterministic tie-breaking.

    Events at equal timestamps fire in scheduling order, which makes runs
    bit-reproducible given a fixed seed.
    """

    def __init__(self) -> None:
        self._heap: list[_Entry] = []
        self._counter = itertools.count()
        self.now: float = 0.0
        self._n_fired = 0

    def __len__(self) -> int:
        return sum(1 for e in self._heap if not e.event.cancelled)

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (monitoring/profiling)."""
        return self._n_fired

    def schedule(
        self,
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        tag: str = "",
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: delay={delay}")
        ev = Event(self.now + delay, fn, args, tag=tag)
        heapq.heappush(self._heap, _Entry(ev.time, next(self._counter), ev))
        return ev

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        tag: str = "",
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        ev = Event(time, fn, args, tag=tag)
        heapq.heappush(self._heap, _Entry(ev.time, next(self._counter), ev))
        return ev

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or ``None`` if queue is empty."""
        while self._heap and self._heap[0].event.cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def step(self, profiler=None) -> bool:
        """Fire the next live event. Returns ``False`` if none remain.

        ``profiler`` (a :class:`~repro.obs.profile.PhaseProfiler`) gets
        the handler's host wall-clock time per event tag — the pop-level
        hot-path instrumentation of the simulator self-profile.
        """
        while self._heap:
            entry = heapq.heappop(self._heap)
            ev = entry.event
            if ev.cancelled:
                continue
            self.now = ev.time
            self._n_fired += 1
            if profiler is None:
                ev.fn(*ev.args)
            else:
                t0 = time.perf_counter()
                ev.fn(*ev.args)
                profiler.record_handler(
                    ev.tag or "untagged", time.perf_counter() - t0
                )
            return True
        return False

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        profiler=None,
    ) -> None:
        """Drain the queue, optionally bounded by time and/or event count.

        When ``until`` is given, events strictly after it are left in the
        queue and ``now`` is advanced to ``until``. ``profiler`` is
        forwarded to :meth:`step`.
        """
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                return
            t = self.peek_time()
            if t is None:
                if until is not None:
                    self.now = max(self.now, until)
                return
            if until is not None and t > until:
                self.now = until
                return
            self.step(profiler)
            fired += 1
