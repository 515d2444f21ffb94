"""Span tracing at the simulator's public layer boundaries.

The traced run installs a wrapper at each boundary in :data:`BOUNDARIES`,
at the attribute its callers actually look up: the class for methods,
and every ``repro`` module that holds the function for module-level
functions (so an aliased ``from x import f`` is wrapped too). Each call
records one span (name, start, end, parent) in per-thread buffers; the
wrappers are removed when the :class:`Tracer` context exits.

Times are host CPU time. Spans on the thread that entered the tracer
use the process CPU clock, so ``core.planner.plan`` includes the work of
the planner's estimation pool; spans on other threads use that thread's
own CPU clock and are children of the span open on the tracing thread
when they start. A span's self time is then its duration minus its
children's, on every thread.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import sys
import threading
import time
from array import array

import numpy as np

#: (boundary name, module, attribute path). A dotted attribute path is a
#: method on a class; a plain one is a module-level function.
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("workloads.build", "repro.workloads.registry", "get_workload"),
    ("network.build", "repro.network.builders", "build_testbed"),
    ("network.build", "repro.network.builders", "build_xtracks_cluster"),
    ("core.planner.plan", "repro.core.planner", "OfflinePlanner.plan"),
    ("network.link_path", "repro.network.routing", "RouteTable.link_path"),
    ("network.available", "repro.network.linkstate",
     "LinkLoadTracker.available"),
    ("network.register", "repro.network.linkstate",
     "LinkLoadTracker.register"),
    ("network.release", "repro.network.linkstate",
     "LinkLoadTracker.release"),
    ("comm.path_time", "repro.comm.context", "CommContext.path_time"),
    ("comm.rank_switches", "repro.comm.scheme", "rank_switches"),
    ("core.controller.tick", "repro.core.controller",
     "CentralController.tick"),
    ("core.controller.decide", "repro.core.controller",
     "CentralController.decide"),
    ("core.scheduler.refresh", "repro.core.scheduler",
     "LoadAwareScheduler.refresh"),
    ("core.policy.refresh_penalties", "repro.core.policy",
     "PolicyCostTable.refresh_penalties"),
    ("serving.router.select", "repro.serving.router.base", "Router.select"),
    ("sim.step", "repro.sim.eventqueue", "EventQueue.step"),
)

_MISSING = object()


class _ThreadSpans:
    """One thread's span buffer and open-span stack."""

    def __init__(self, clock) -> None:
        self.clock = clock
        #: run-wide span id, in order of span start
        self.id = array("q")
        self.name = array("i")
        self.parent = array("q")
        #: 1 when no enclosing open span has the same name
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        #: ids of the open spans, innermost last
        self.stack: list[int] = []
        self.depth: dict[int, int] = {}


@dataclasses.dataclass
class SpanTable:
    """All spans of a traced run, merged across threads.

    ``parent`` is an index into the same arrays, or -1 for a root span.
    """

    names: tuple[str, ...]
    name: np.ndarray
    parent: np.ndarray
    outer: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def layer_times(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` for every name.

        Self time is a span's duration minus the durations of its direct
        children, floored at zero; ``total_s`` counts only spans not
        nested inside a span of the same name, so recursion is not
        counted twice.
        """
        dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent],
            weights=dur[has_parent],
            minlength=len(dur),
        )
        self_t = np.maximum(dur - child, 0.0)
        k = len(self.names)
        calls = np.bincount(self.name, minlength=k)
        total = np.bincount(
            self.name, weights=np.where(self.outer == 1, dur, 0.0), minlength=k
        )
        selft = np.bincount(self.name, weights=self_t, minlength=k)
        return {
            n: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(selft[i]),
            }
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=self.name,
            parent=self.parent,
            start=self.start,
            end=self.end,
        )


class Tracer:
    """Context manager: wrap the boundaries, record spans, unwrap.

    ``boundaries`` defaults to :data:`BOUNDARIES`; entries name the
    defining module and attribute, and are resolved when the context is
    entered. Return values of the boundaries named in ``keep_results``
    are collected in :attr:`results`.
    """

    def __init__(
        self, boundaries=BOUNDARIES, keep_results: tuple[str, ...] = ()
    ) -> None:
        self._boundaries = boundaries
        self.results: dict[str, list] = {n: [] for n in keep_results}
        self.names: tuple[str, ...] = tuple(
            dict.fromkeys(b[0] for b in boundaries)
        )
        self._ids = {n: i for i, n in enumerate(self.names)}
        self._next_id = itertools.count()
        self._local = threading.local()
        self._main: _ThreadSpans | None = None
        self._buffers: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        buf = getattr(self._local, "spans", None)
        if buf is None:
            buf = self._local.spans = _ThreadSpans(time.thread_time)
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped to record a ``name`` span per call."""
        nid = self._ids[name]
        spans = self._spans
        next_id = self._next_id.__next__
        kept = self.results.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = spans()
            idx = len(buf.start)
            sid = next_id()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                # A pool thread's outermost span belongs to whatever the
                # tracing thread has open while it waits on the pool.
                main = self._main
                owner = main.stack if main is not None and main is not buf else ()
                parent = owner[-1] if owner else -1
            depth = buf.depth
            d = depth.get(nid, 0)
            buf.id.append(sid)
            buf.name.append(nid)
            buf.parent.append(parent)
            buf.outer.append(1 if d == 0 else 0)
            buf.end.append(0.0)
            depth[nid] = d + 1
            stack.append(sid)
            clock = buf.clock
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if kept is not None:
                    kept.append(result)
                return result
            finally:
                buf.end[idx] = clock()
                stack.pop()
                depth[nid] = d

        return traced

    def table(self) -> SpanTable:
        """Merge the per-thread buffers into one :class:`SpanTable`,
        indexed by span id."""
        cols = {
            "id": np.int64,
            "name": np.int64,
            "parent": np.int64,
            "outer": np.int8,
            "start": np.float64,
            "end": np.float64,
        }
        cat = {
            k: np.concatenate(
                [np.asarray(getattr(b, k), dtype=dtype) for b in self._buffers]
                or [np.zeros(0, dtype)]
            )
            for k, dtype in cols.items()
        }
        order = np.argsort(cat.pop("id"), kind="stable")
        return SpanTable(
            names=self.names, **{k: v[order] for k, v in cat.items()}
        )

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _install(self, name: str, module: str, path: str) -> None:
        mod = importlib.import_module(module)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            fn = cls.__dict__[meth]
            if getattr(fn, "__isabstractmethod__", False):
                # An abstract method is never the one called: wrap each
                # concrete override instead.
                for sub in _subclasses(cls):
                    if meth in sub.__dict__:
                        self._set(sub, meth, self.wrap(name, sub.__dict__[meth]))
            else:
                self._set(cls, meth, self.wrap(name, fn))
            return
        original = getattr(mod, path)
        if path == "get_workload":
            wrapped = self._wrap_registry_lookup(name, original)
        else:
            wrapped = self.wrap(name, original)
        for alias in list(sys.modules.values()):
            if (
                getattr(alias, "__name__", "").startswith("repro")
                and alias.__dict__.get(path) is original
            ):
                self._set(alias, path, wrapped)

    def _wrap_registry_lookup(self, name: str, get_workload):
        """``get_workload(..).build`` is looked up on the returned entry,
        so wrap the lookup to hand out an entry whose ``build`` traces."""

        @functools.wraps(get_workload)
        def lookup(key):
            gen = get_workload(key)
            return dataclasses.replace(gen, build=self.wrap(name, gen.build))

        return lookup

    def __enter__(self) -> "Tracer":
        self._main = self._local.spans = _ThreadSpans(time.process_time)
        self._buffers.append(self._main)
        try:
            for name, module, path in self._boundaries:
                self._install(name, module, path)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def _subclasses(cls):
    seen = []
    todo = list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in seen:
            seen.append(sub)
            todo.extend(sub.__subclasses__())
    return seen
