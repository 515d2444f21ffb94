"""Wall-clock host-time profiling: the simulator's one profiler.

A :class:`PhaseProfiler` accumulates host wall time per named phase for
every layer that times itself:

* the offline planner's Algorithm 1 phases — candidate enumeration,
  constrained k-means grouping, swap perturbation, objective evaluation —
  behind the §III-C3 solve-time claim (``planner.*``, ``grouping.*``,
  ``netestimate.*``);
* the engine and controller hot path — batch formation, link-load
  bookkeeping, controller ticks and their poll/refresh split
  (``engine.*``, ``controller.*``), plus the whole event loop
  (``engine.run``);
* per-event-tag handler time, recorded by
  :meth:`~repro.sim.eventqueue.EventQueue.step`.

Named *counters* sit beside the timers: the planner's estimation-cache
hits/misses and the engine's ``engine.requests_finished`` /
``engine.events_fired`` run totals, from which
``benchmarks/bench_engine_throughput.py`` derives requests/events per
second for ``BENCH_engine.json``, plus the link tracker's
``network.writes`` / ``network.registrations`` work counts.

Attach it through the observer: ``Observer(profiler=p)`` for a fully
observed run, or ``Observer.silent(profiler=p)`` when only host time is
wanted: that observer has no subscribers (``active`` is ``False``), so
no telemetry is emitted and simulated results stay byte-identical to an
unobserved run.

Not locked: the planner and the engine record from one thread.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["PhaseStat", "PhaseProfiler", "NullProfiler", "NULL_PROFILER"]


@dataclass
class PhaseStat:
    """Accumulated wall time for one phase."""

    total: float = 0.0
    count: int = 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")


def _by_total(stats: dict[str, PhaseStat]) -> dict[str, PhaseStat]:
    return dict(sorted(stats.items(), key=lambda kv: -kv[1].total))


def _table(stats: dict[str, PhaseStat]) -> dict[str, dict[str, float]]:
    return {
        name: {"total_s": stat.total, "count": stat.count}
        for name, stat in stats.items()
    }


class PhaseProfiler:
    """Accumulates wall-clock time per named phase and per event tag.

    Besides timed phases it keeps named event *counters* (``count``) —
    used for the planner's estimation-cache hit/miss totals and the
    engine's run totals.
    """

    enabled = True

    def __init__(self) -> None:
        self._stats: dict[str, PhaseStat] = {}
        self._handlers: dict[str, PhaseStat] = {}
        self._counters: dict[str, int] = {}

    @staticmethod
    def _add(stats: dict[str, PhaseStat], name: str, elapsed: float) -> None:
        stat = stats.get(name)
        if stat is None:
            stat = stats[name] = PhaseStat()
        stat.total += elapsed
        stat.count += 1

    def record(self, name: str, elapsed: float) -> None:
        self._add(self._stats, name, elapsed)

    def record_handler(self, tag: str, elapsed: float) -> None:
        """Accumulate one event-handler firing under its event tag."""
        self._add(self._handlers, tag, elapsed)

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - t0)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named event counter."""
        self._counters[name] = self._counters.get(name, 0) + n

    def counters(self) -> dict[str, int]:
        """Counter name -> total, sorted by descending count."""
        return dict(sorted(self._counters.items(), key=lambda kv: -kv[1]))

    def breakdown(self) -> dict[str, PhaseStat]:
        """Phase -> stats, sorted by descending total time."""
        return _by_total(self._stats)

    def handlers(self) -> dict[str, PhaseStat]:
        """Event tag -> handler stats, sorted by descending total time."""
        return _by_total(self._handlers)

    def phase_times(self) -> dict[str, float]:
        """Phase -> total seconds (the flat view reports embed)."""
        return {k: v.total for k, v in self.breakdown().items()}

    def snapshot(self) -> dict:
        """JSON-ready ``{"phases", "handlers", "counters"}`` tables."""
        return {
            "phases": _table(self.breakdown()),
            "handlers": _table(self.handlers()),
            "counters": self.counters(),
        }

    def report(self, title: str = "phase breakdown") -> str:
        rows = self.breakdown()
        rows.update(
            (f"handler {tag}", stat) for tag, stat in self.handlers().items()
        )
        counters = self.counters()
        if not rows and not counters:
            return f"{title}: (no phases recorded)"
        lines = [title]
        if rows:
            width = max(len(k) for k in rows)
            for name, stat in rows.items():
                lines.append(
                    f"  {name:<{width}s}  {stat.total * 1e3:9.2f} ms"
                    f"  x{stat.count:<6d} mean {stat.mean * 1e3:8.3f} ms"
                )
        if counters:
            width = max(len(k) for k in counters)
            for name, n in counters.items():
                lines.append(f"  {name:<{width}s}  {n:9d} events")
        return "\n".join(lines)

    def reset(self) -> None:
        self._stats.clear()
        self._handlers.clear()
        self._counters.clear()


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class NullProfiler:
    """No-op profiler: ``phase()`` returns a shared, allocation-free
    context manager, so disabled profiling costs two attribute lookups."""

    enabled = False

    def record(self, name: str, elapsed: float) -> None:
        pass

    def record_handler(self, tag: str, elapsed: float) -> None:
        pass

    def phase(self, name: str):
        return _NULL_CONTEXT

    def count(self, name: str, n: int = 1) -> None:
        pass

    def counters(self) -> dict[str, int]:
        return {}

    def breakdown(self) -> dict[str, PhaseStat]:
        return {}

    def handlers(self) -> dict[str, PhaseStat]:
        return {}

    def phase_times(self) -> dict[str, float]:
        return {}

    def snapshot(self) -> dict:
        return {"phases": {}, "handlers": {}, "counters": {}}

    def report(self, title: str = "phase breakdown") -> str:
        return f"{title}: (profiling disabled)"

    def reset(self) -> None:
        pass


#: Shared instance for default arguments.
NULL_PROFILER = NullProfiler()
