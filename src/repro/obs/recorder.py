"""Simulation flight recorder: ring-buffered timeline of cluster state.

A :class:`FlightRecorder` is the simulator's black box: on every
controller tick (simulation time, never wall clock — observed runs stay
deterministic) it captures one :class:`FlightSample` of

* engine queue depths and batch occupancy (prefill queue, decode
  pending/active, busy flags, KV-cache tokens),
* per-link-kind utilisation plus the top-k busiest individual links
  from the :class:`~repro.network.linkstate.LinkLoadTracker`,
* every GPU group's policy cost table — the ``J(c, D)`` base terms
  ``b_c`` and cumulative selections from the
  :class:`~repro.core.scheduler.LoadAwareScheduler`s — so the report
  can render the policy-flip timeline,
* in-network-aggregation pressure per INA-capable switch (mean/max
  utilisation of the switch's Ethernet ports), and, when a functional
  :class:`~repro.switch.dataplane.SwitchDataplane` is attached, its
  real aggregator-slot counters.

The buffer is a fixed-capacity ring: past ``capacity`` samples the
oldest are evicted (and counted), so recording a week-long simulated
trace cannot exhaust host memory. Export is JSONL, one sample per line.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs import events as ev

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.serving.engine import ServingSimulator
    from repro.switch.dataplane import SwitchDataplane

__all__ = ["FlightSample", "FlightRecorder", "REPLAN_EVENTS"]

#: Individual links quieter than this utilisation are not recorded per
#: sample (kind-level aggregates still cover them).
RECORD_MIN_LINK_UTIL = 0.01

#: Event names of the online replanner's ``ReplanEvent``s;
#: the report's "Plan transitions" timeline filters on these.
REPLAN_EVENTS = (
    "replan_triggered",
    "replan_suppressed",
    "plan_transition",
    "transition_complete",
    "transition_rollback",
)


@dataclass
class FlightSample:
    """One tick of recorded cluster state."""

    time: float
    prefill_queue: int
    decode_pending: int
    decode_active: int
    prefill_busy: bool
    decode_busy: bool
    kv_used: int
    kv_capacity: int
    #: ``{kind: (mean util, max util)}``
    link_util: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: ``[(link_id, kind, util)]``, busiest first, bounded to top-k
    busy_links: list[tuple[int, str, float]] = field(default_factory=list)
    #: ``{group key: {"policies": [...], "b": [...], "selections": [...]}}``
    policy_tables: dict[str, dict] = field(default_factory=dict)
    #: ``{switch id: (mean util, max util)}`` over the switch's ports
    switch_pressure: dict[int, tuple[float, float]] = field(
        default_factory=dict
    )
    #: ``{switch id: dataplane counters}`` for attached real dataplanes
    aggregators: dict[int, dict] = field(default_factory=dict)

    @property
    def kv_utilization(self) -> float:
        if self.kv_capacity <= 0:
            return float("nan")
        return self.kv_used / self.kv_capacity

    def to_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "prefill_queue": self.prefill_queue,
            "decode_pending": self.decode_pending,
            "decode_active": self.decode_active,
            "prefill_busy": self.prefill_busy,
            "decode_busy": self.decode_busy,
            "kv_used": self.kv_used,
            "kv_capacity": self.kv_capacity,
            "link_util": {
                k: [mean, mx] for k, (mean, mx) in self.link_util.items()
            },
            "busy_links": [
                [lid, kind, util] for lid, kind, util in self.busy_links
            ],
            "policy_tables": self.policy_tables,
            "switch_pressure": {
                str(s): [mean, mx]
                for s, (mean, mx) in self.switch_pressure.items()
            },
            "aggregators": {
                str(s): c for s, c in self.aggregators.items()
            },
        }


class FlightRecorder:
    """Fixed-capacity sample ring fed on controller ticks."""

    def __init__(self, capacity: int = 4096, top_k_links: int = 8) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if top_k_links < 1:
            raise ValueError(f"top_k_links must be >= 1, got {top_k_links}")
        self.capacity = capacity
        self.top_k_links = top_k_links
        self._ring: deque[FlightSample] = deque(maxlen=capacity)
        self.samples_total = 0
        self._dataplanes: dict[int, "SwitchDataplane"] = {}
        self._switch_ports: dict[int, list[int]] | None = None
        #: discrete events (fault injections, health edges, failovers) —
        #: ring-bounded like the samples so chaos storms cannot blow up
        self._events: deque[dict] = deque(maxlen=capacity)
        self.events_total = 0

    # -- wiring --------------------------------------------------------------

    def attach_dataplane(
        self, switch_id: int, dataplane: "SwitchDataplane"
    ) -> None:
        """Record a functional switch dataplane's counters per sample."""
        self._dataplanes[switch_id] = dataplane

    def _ina_ports(self, sim: "ServingSimulator") -> dict[int, list[int]]:
        """Directed link ids incident to each INA-capable switch."""
        if self._switch_ports is None:
            topo = sim.ctx.built.topology
            ports: dict[int, list[int]] = {
                sw: [] for sw in sim.ctx.built.ina_capable_switches()
            }
            for link in topo.links:
                if link.src in ports:
                    ports[link.src].append(link.link_id)
                if link.dst in ports:
                    ports[link.dst].append(link.link_id)
            self._switch_ports = ports
        return self._switch_ports

    # -- event intake (an Observer subscriber) --------------------------------

    def subscriptions(self) -> dict[type, Callable]:
        """``{event type: handler}`` for :class:`~repro.obs.Observer`:
        a sample per engine tick, plus the discrete-event log."""
        log = self.log_event
        return {
            ev.EngineTick: lambda e: self.sample(e.ts, e.sim),
            ev.FaultInjected: lambda e: log(
                e.ts, "fault_injected", kind=e.kind, target=e.target
            ),
            ev.HealthTransition: lambda e: log(
                e.ts, "health_transition", kind=e.kind,
                resource=e.resource, state=e.state, detail=e.detail,
            ),
            ev.Failover: lambda e: log(
                e.ts, "failover", group="-".join(str(g) for g in e.group),
                direction=e.direction,
            ),
            ev.RequestsRequeued: lambda e: log(
                e.ts, "requests_requeued", n=e.n
            ),
            ev.ReplanEvent: lambda e: log(e.ts, e.event, **e.detail),
            ev.RouteDecision: self._log_route,
            ev.FleetAllDegraded: lambda e: log(
                e.ts, "fleet_all_degraded", n_replicas=e.n_replicas
            ),
        }

    def _log_route(self, e: ev.RouteDecision) -> None:
        detail: dict = {
            "request_id": e.request_id,
            "replica": e.replica,
            "router": e.router,
            "reason": e.reason,
        }
        if e.affinity_hit is not None:
            detail["affinity_hit"] = e.affinity_hit
        if e.kv_fetch_bytes:
            detail["kv_fetch_bytes"] = e.kv_fetch_bytes
        self.log_event(e.ts, "routing_decision", **detail)

    # -- sampling ------------------------------------------------------------

    def sample(self, ts: float, sim: "ServingSimulator") -> FlightSample:
        """Capture one sample from a live simulator; returns it."""
        ls = sim.ctx.linkstate
        util = ls.utilization()
        busy = sorted(
            ls.busy_links(RECORD_MIN_LINK_UTIL),
            key=lambda row: -row[2],
        )[: self.top_k_links]

        tables: dict[str, dict] = {}
        if sim.controller is not None:
            tables = sim.controller.table_snapshots()

        pressure: dict[int, tuple[float, float]] = {}
        for sw, port_ids in self._ina_ports(sim).items():
            if port_ids:
                u = util[port_ids]
                pressure[sw] = (float(u.mean()), float(u.max()))

        s = FlightSample(
            time=ts,
            prefill_queue=len(sim.prefill_queue),
            decode_pending=len(sim.decode_pending),
            decode_active=len(sim.decode_active),
            prefill_busy=sim.prefill_busy,
            decode_busy=sim.decode_busy,
            kv_used=sim.kv_used,
            kv_capacity=sim.kv_capacity,
            link_util=ls.utilization_by_kind(),
            busy_links=busy,
            policy_tables=tables,
            switch_pressure=pressure,
            aggregators={
                sw: dp.counters() for sw, dp in self._dataplanes.items()
            },
        )
        self.record(s)
        return s

    def record(self, sample: FlightSample) -> None:
        """Append a pre-built sample (tests, custom harnesses)."""
        self._ring.append(sample)
        self.samples_total += 1

    def log_event(self, ts: float, event: str, **detail: Any) -> None:
        """Record one discrete event (fault, health edge, failover).

        Events are exported interleaved with samples in
        :meth:`to_jsonl`, each line tagged ``"event": event``; the
        detail kwargs land as additional JSON keys.
        """
        self._events.append({"time": ts, "event": event, **detail})
        self.events_total += 1

    def replan_timeline(self) -> list[dict]:
        """Online-replanning events in time order (the raw material of
        the report's "Plan transitions" section)."""
        return [
            e for e in self._events if e["event"] in REPLAN_EVENTS
        ]

    def events(self, event: str | None = None) -> list[dict]:
        """Recorded events, optionally filtered by event name."""
        if event is None:
            return list(self._events)
        return [e for e in self._events if e["event"] == event]

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def evicted(self) -> int:
        """Samples pushed out of the ring by newer ones."""
        return self.samples_total - len(self._ring)

    def samples(self) -> list[FlightSample]:
        return list(self._ring)

    def series(self, attr: str) -> tuple[list[float], list[float]]:
        """``(times, values)`` of one numeric sample attribute."""
        times: list[float] = []
        values: list[float] = []
        for s in self._ring:
            times.append(s.time)
            values.append(float(getattr(s, attr)))
        return times, values

    def link_kind_series(
        self, kind: str, stat: str = "mean"
    ) -> tuple[list[float], list[float]]:
        """Utilisation timeline of one link kind (``mean`` or ``max``)."""
        idx = 0 if stat == "mean" else 1
        times: list[float] = []
        values: list[float] = []
        for s in self._ring:
            if kind in s.link_util:
                times.append(s.time)
                values.append(s.link_util[kind][idx])
        return times, values

    def top_links(self, k: int | None = None) -> list[tuple[int, str, float]]:
        """Busiest links over the whole recording, by peak utilisation."""
        peak: dict[int, tuple[str, float]] = {}
        for s in self._ring:
            for lid, kind, util in s.busy_links:
                if lid not in peak or util > peak[lid][1]:
                    peak[lid] = (kind, util)
        rows = [(lid, kind, util) for lid, (kind, util) in peak.items()]
        rows.sort(key=lambda row: -row[2])
        return rows[: k or self.top_k_links]

    def policy_flips(self) -> list[dict]:
        """Per-group timeline of the dominant policy changing.

        Between consecutive samples, the *dominant* policy of a group is
        the one whose cumulative selection count grew the most; a flip
        is recorded whenever it differs from the previous interval's.
        """
        flips: list[dict] = []
        prev_sel: dict[str, list[int]] = {}
        prev_dom: dict[str, str] = {}
        for s in self._ring:
            for group, table in s.policy_tables.items():
                sel = table["selections"]
                last = prev_sel.get(group)
                if last is not None and len(last) == len(sel):
                    deltas = [b - a for a, b in zip(last, sel)]
                    if any(d > 0 for d in deltas):
                        dom = table["policies"][
                            max(range(len(deltas)), key=deltas.__getitem__)
                        ]
                        if group in prev_dom and prev_dom[group] != dom:
                            flips.append(
                                {
                                    "time": s.time,
                                    "group": group,
                                    "from": prev_dom[group],
                                    "to": dom,
                                }
                            )
                        prev_dom[group] = dom
                prev_sel[group] = list(sel)
        return flips

    # -- export --------------------------------------------------------------

    def to_jsonl(self) -> str:
        """Samples and events, one JSON object per line, time-ordered.

        Sample lines are unchanged from before events existed; event
        lines carry an ``"event"`` key, so consumers can split on it.
        """
        rows: list[tuple[float, str]] = [
            (s.time, json.dumps(s.to_dict())) for s in self._ring
        ]
        rows.extend((e["time"], json.dumps(e)) for e in self._events)
        rows.sort(key=lambda row: row[0])
        lines = [line for _, line in rows]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, path: str) -> "FlightRecorder":
        """Rebuild a recorder from a :meth:`write_jsonl` dump.

        ``python -m repro report --from-dir`` renders prior runs with
        this. Samples and events round-trip (modulo the list->tuple
        JSON coercions reversed here); dataplane attachments do not.
        """
        samples: list[FlightSample] = []
        events: list[dict] = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                if "event" in row:
                    events.append(row)
                    continue
                samples.append(
                    FlightSample(
                        time=row["time"],
                        prefill_queue=row["prefill_queue"],
                        decode_pending=row["decode_pending"],
                        decode_active=row["decode_active"],
                        prefill_busy=row["prefill_busy"],
                        decode_busy=row["decode_busy"],
                        kv_used=row["kv_used"],
                        kv_capacity=row["kv_capacity"],
                        link_util={
                            k: (mean, mx)
                            for k, (mean, mx) in row["link_util"].items()
                        },
                        busy_links=[
                            (int(lid), kind, util)
                            for lid, kind, util in row["busy_links"]
                        ],
                        policy_tables=row["policy_tables"],
                        switch_pressure={
                            int(s): (mean, mx)
                            for s, (mean, mx) in row[
                                "switch_pressure"
                            ].items()
                        },
                        aggregators={
                            int(s): c
                            for s, c in row["aggregators"].items()
                        },
                    )
                )
        rec = cls(capacity=max(1, len(samples) + len(events)))
        for s in samples:
            rec.record(s)
        for e in events:
            rec._events.append(e)
            rec.events_total += 1
        return rec
