"""Replica fleets: several deployments sharing one fabric, one router.

The paper's large-scale setting serves many model instances on one
cluster; their traffic shares the Ethernet fabric, which is exactly the
multi-tenant congestion HeroServe's scheduling is built for. A
:class:`ReplicaFleet` runs several :class:`ServingSimulator` deployments
on **one** event queue and **one** link-load tracker, so replicas'
synchronisation, KV transfers and pipeline traffic contend.

Arriving requests are dispatched by a pluggable routing policy from
:mod:`repro.serving.router` (``jsq`` — the historical join-shortest-
queue — by default, byte-identical to the pre-router fleet). The fleet
itself owns everything a policy must not be able to get wrong:

* **candidate filtering** — inactive replicas are never offered;
  degraded replicas are skipped while any healthy active replica
  exists, with an edge-triggered ``fleet_all_degraded`` event when the
  router is forced onto an all-degraded fleet;
* **session KV residency** — which replica holds each conversation's
  KV cache (the serving-layer prefix cache), updated on every routed
  turn;
* **KV-fetch accounting** — when a session turn lands on a replica
  other than its KV holder, the resident KV must cross the fabric
  first: the fleet prices the migration through the live link state
  (Eq. 14/15 machinery), registers the flows on the shared tracker so
  they contend with serving traffic, delays the request's admission by
  the transfer time, and books the moved bytes into
  :class:`~repro.serving.metrics.RouterStats`.

The fleet is also the substrate for §VII's "rapid scaling in and out"
(see :mod:`repro.serving.autoscale`): replicas can be deactivated
(drained — no new requests routed, in-flight ones finish) and
reactivated at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.kvtransfer import (
    estimate_kv_transfer_time,
    plan_kv_migration,
)
from repro.llm.memory import kv_bytes_per_token
from repro.serving.engine import ServingSimulator
from repro.serving.metrics import RouterStats, ServingMetrics
from repro.serving.router import Router, get_qos, get_router
from repro.sim.eventqueue import EventQueue
from repro.workloads.traces import Trace, TraceRequest


@dataclass
class FleetMetrics:
    """Aggregated view over per-replica metrics.

    ``summary()`` flattens the fleet-level quantities the benchmarks
    table (see docs/OBSERVABILITY.md for the key reference); the
    ``router_*`` keys come from the attached :class:`RouterStats` and
    are present whenever the fleet ran with its router layer (always,
    since PR 9) — they are all-zero for session-less traces.
    """

    per_replica: list[ServingMetrics]
    routed: list[int]
    #: router accounting for the run (None only if constructed by hand)
    router_stats: RouterStats | None = None

    def all_finished(self):
        return [r for m in self.per_replica for r in m.finished]

    @property
    def n_finished(self) -> int:
        return sum(m.n_finished for m in self.per_replica)

    def attainment(self) -> float:
        finished = self.all_finished()
        if not finished:
            return 0.0
        sla = self.per_replica[0].sla
        ok = sum(r.meets_sla(sla.ttft, sla.tpot) for r in finished)
        return ok / len(finished)

    def qos_attainment(self) -> dict[str, float]:
        """Per-QoE-class attainment under class-scaled SLO bounds.

        Each class is judged against ``slo_scale`` times the deployment
        SLO (interactive tighter, batch looser) — the per-class SLO
        weighting of :mod:`repro.serving.router`. Only classes present
        in the trace appear.
        """
        finished = self.all_finished()
        if not finished:
            return {}
        sla = self.per_replica[0].sla
        by_class: dict[str, list] = {}
        for r in finished:
            by_class.setdefault(
                getattr(r.trace, "qos", "standard"), []
            ).append(r)
        out: dict[str, float] = {}
        for name, reqs in sorted(by_class.items()):
            scale = get_qos(name).slo_scale
            ok = sum(
                r.meets_sla(sla.ttft * scale, sla.tpot * scale)
                for r in reqs
            )
            out[name] = ok / len(reqs)
        return out

    def _arr(self, attr: str) -> np.ndarray:
        return np.array([getattr(r, attr) for r in self.all_finished()])

    def mean_ttft(self) -> float:
        finished = self.all_finished()
        if not finished:
            return float("nan")
        return sum(r.ttft for r in finished) / len(finished)

    def mean_tpot(self) -> float:
        finished = self.all_finished()
        if not finished:
            return float("nan")
        return sum(r.tpot for r in finished) / len(finished)

    def p50_ttft(self) -> float:
        if not self.all_finished():
            return float("nan")
        return float(np.percentile(self._arr("ttft"), 50))

    def p99_ttft(self) -> float:
        """Tail TTFT across the whole fleet — the routing-policy view."""
        if not self.all_finished():
            return float("nan")
        return float(np.percentile(self._arr("ttft"), 99))

    def p99_tpot(self) -> float:
        if not self.all_finished():
            return float("nan")
        return float(np.percentile(self._arr("tpot"), 99))

    def summary(self) -> dict[str, float]:
        """Flat dict for tables: fleet aggregates + ``router_*`` keys."""
        out = {
            "replicas": float(len(self.per_replica)),
            "finished": float(self.n_finished),
            "attainment": self.attainment(),
            "mean_ttft_s": self.mean_ttft(),
            "p50_ttft_s": self.p50_ttft(),
            "p99_ttft_s": self.p99_ttft(),
            "mean_tpot_s": self.mean_tpot(),
            "p99_tpot_s": self.p99_tpot(),
        }
        if self.router_stats is not None:
            out.update(self.router_stats.summary())
        return out


@dataclass
class ReplicaFleet:
    """Several deployments, one fabric, one clock, one router."""

    replicas: list[ServingSimulator]
    queue: EventQueue
    active: list[bool] = field(default_factory=list)
    routed: list[int] = field(default_factory=list)
    #: observability sink for router-level events; defaults to the first
    #: replica's observer (the fleet-shared one in every current caller)
    observer: object = None
    #: routing policy: a registry name, a :class:`Router` instance, or
    #: None for the default (``jsq``, the pre-router behaviour)
    router: Router | str | None = None
    #: session KV residency: session_id -> [holder replica, resident
    #: KV tokens]; grown by every routed turn of the session
    sessions: dict[int, list] = field(
        default_factory=dict, repr=False
    )
    router_stats: RouterStats = field(
        default_factory=RouterStats, repr=False
    )
    _all_degraded: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("fleet needs at least one replica")
        for sim in self.replicas:
            if sim.queue is not self.queue:
                raise ValueError(
                    "all replicas must share the fleet's event queue"
                )
        if not self.active:
            self.active = [True] * len(self.replicas)
        if not self.routed:
            self.routed = [0] * len(self.replicas)
        if self.observer is None:
            self.observer = self.replicas[0].obs
        self.router = get_router(self.router)
        self.router_stats.router = self.router.name

    # -- shared context shortcuts -----------------------------------------

    @property
    def ctx(self):
        """The fleet-shared :class:`~repro.comm.context.CommContext`."""
        return self.replicas[0].ctx

    @property
    def model(self):
        """The served model (identical across replicas)."""
        return self.replicas[0].model

    # -- scaling hooks -----------------------------------------------------

    @property
    def n_active(self) -> int:
        return sum(self.active)

    def set_active(self, idx: int, value: bool) -> None:
        """(De)activate a replica; deactivation drains, never kills."""
        if not 0 <= idx < len(self.replicas):
            raise IndexError(f"no replica {idx}")
        if not value and self.n_active == 1 and self.active[idx]:
            raise ValueError("cannot deactivate the last active replica")
        self.active[idx] = value

    # -- router-facing state views ----------------------------------------

    def session_holder(
        self, session_id: int | None
    ) -> tuple[int, int] | None:
        """(holder replica, resident KV tokens) for a session, if any."""
        if session_id is None:
            return None
        rec = self.sessions.get(session_id)
        if rec is None:
            return None
        return rec[0], rec[1]

    def estimate_fetch_time(
        self, holder: int, tokens: int, dst: int
    ) -> float:
        """Live-priced seconds to move resident KV from holder to dst.

        Zero when the destination already holds the KV or nothing is
        resident; otherwise the Eq. 14/15 migration estimate between
        the two decode placements under current link load.
        """
        if holder == dst or tokens <= 0:
            return 0.0
        duration, _, _ = plan_kv_migration(
            self.ctx,
            self.model,
            tokens,
            self.replicas[holder].decode_stages,
            self.replicas[dst].decode_stages,
        )
        return duration

    def internal_kv_time(self, idx: int, k_in: int) -> float:
        """Live-priced prefill→decode KV handoff inside one replica.

        The per-request cost a network-aware policy charges a replica
        whose internal KV path the fabric is currently squeezing.
        """
        sim = self.replicas[idx]
        return estimate_kv_transfer_time(
            sim.ctx,
            sim.model,
            max(1, k_in),
            sim.prefill_stages,
            sim.decode_stages,
        )

    def kv_path_headroom(self, idx: int) -> float:
        """Free fraction of the bottleneck on a replica's KV path.

        Representative path: first prefill GPU to first decode GPU.
        1.0 when the path is entirely intra-GPU or no tracker is live.
        """
        sim = self.replicas[idx]
        ctx = sim.ctx
        if ctx.linkstate is None:
            return 1.0
        src = sim.prefill_stages[0][0]
        dst = sim.decode_stages[0][0]
        links = ctx.path_links(src, dst)
        if not links:
            return 1.0
        avail = ctx.linkstate.available()
        caps = ctx.linkstate.capacity
        return min(
            float(avail[lid]) / float(caps[lid]) for lid in links
        )

    # -- routing -------------------------------------------------------------

    def route(self, tr: TraceRequest) -> int:
        """Dispatch one request through the fleet's routing policy.

        The fleet filters candidates first: inactive replicas are never
        offered, and replicas currently degraded by an injected fault
        (a failed prefill/decode server) are skipped while any healthy
        active replica exists; when every active replica is
        simultaneously degraded the candidate set falls back to the
        degraded replicas (requests queue rather than drop) and an
        edge-triggered ``fleet_all_degraded`` flight-recorder event
        fires. The policy then picks one candidate; session turns that
        land away from their KV-resident replica pay a live-priced KV
        fetch (flows registered on the shared tracker, admission
        delayed) before entering the replica.
        """
        candidates = [
            i for i, a in enumerate(self.active) if a
        ]
        if not candidates:
            # Defensive: set_active refuses to drain the last replica,
            # but an externally mutated mask must still route somewhere.
            candidates = list(range(len(self.replicas)))
        healthy = [
            i for i in candidates if not self.replicas[i].degraded
        ]
        if healthy:
            candidates = healthy
            self._all_degraded = False
        elif not self._all_degraded:
            self._all_degraded = True
            self.observer.fleet_all_degraded(
                self.queue.now, len(candidates)
            )
        decision = self.router.select(tr, candidates, self)
        idx = decision.replica
        if idx not in candidates:
            raise ValueError(
                f"router {self.router.name!r} picked replica {idx} "
                f"outside the candidate set {candidates}"
            )
        self.router.on_routed(tr, decision, self)
        self.routed[idx] += 1
        fetch = self._account_session(tr, idx)
        self.observer.route_decision(
            self.queue.now,
            tr.request_id,
            idx,
            self.router.name,
            decision.reason,
            affinity_hit=decision.affinity_hit,
            kv_fetch_bytes=0.0 if fetch is None else fetch[2],
        )
        if fetch is None:
            self.replicas[idx].submit(tr)
        else:
            duration, handles, _ = fetch
            self.queue.schedule(
                duration,
                self._finish_fetch,
                tr,
                idx,
                handles,
                tag="kv_fetch",
            )
        return idx

    def _account_session(
        self, tr: TraceRequest, idx: int
    ) -> tuple[float, list[int], float] | None:
        """Update session residency; plan a KV fetch on a miss.

        Returns ``(duration, link handles, moved bytes)`` when resident
        KV must cross the fabric before the request can start, else
        None. Session-less requests are free: this is the no-op path
        every pre-existing trace takes.
        """
        sid = tr.session_id
        if sid is None:
            return None
        st = self.router_stats
        rec = self.sessions.get(sid)
        turn_kv = tr.input_len + tr.output_len
        if rec is None:
            self.sessions[sid] = [idx, turn_kv]
            st.new_sessions += 1
            return None
        holder, tokens = rec
        rec[0] = idx
        rec[1] = tokens + turn_kv
        if holder == idx:
            st.affinity_hits += 1
            st.kv_bytes_saved += kv_bytes_per_token(self.model) * tokens
            return None
        st.affinity_misses += 1
        duration, flows, moved = plan_kv_migration(
            self.ctx,
            self.model,
            tokens,
            self.replicas[holder].decode_stages,
            self.replicas[idx].decode_stages,
        )
        if duration <= 0.0 or moved <= 0.0:
            return None
        st.kv_fetches += 1
        st.kv_bytes_moved += moved
        st.kv_fetch_wait_s += duration
        ls = self.ctx.linkstate
        handles = [
            ls.register(list(links), nbytes / duration)
            for links, nbytes in flows
            if links
        ]
        return duration, handles, moved

    def _finish_fetch(
        self, tr: TraceRequest, idx: int, handles: list[int]
    ) -> None:
        """Resident KV has landed: release its flows, admit the turn."""
        ls = self.ctx.linkstate
        for h in handles:
            # strict=False: a mid-fetch fault-recovery reset would have
            # invalidated the handles; the leak stays counted.
            ls.release(h, strict=False)
        self.replicas[idx].submit(tr)

    # -- execution -------------------------------------------------------------

    def run(self, trace: Trace, drain_time: float = 300.0) -> FleetMetrics:
        """Replay a trace through the router; returns aggregated metrics."""
        for tr in trace:
            self.queue.schedule_at(
                tr.arrival_time, self.route, tr, tag="fleet_arrival"
            )
        self.queue.run(until=trace.duration + drain_time)
        return FleetMetrics(
            per_replica=[sim.metrics for sim in self.replicas],
            routed=list(self.routed),
            router_stats=self.router_stats,
        )
