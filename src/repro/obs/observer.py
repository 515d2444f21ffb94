"""The observer: one telemetry channel into tracing, metrics and sinks.

A single :class:`Observer` is threaded through
:class:`~repro.serving.engine.EngineConfig`,
:class:`~repro.core.controller.CentralController`,
:class:`~repro.core.scheduler.LoadAwareScheduler` and
:class:`~repro.core.planner.OfflinePlanner`. Every layer reports
through one call, ``emit(event)`` with an event from
:mod:`repro.obs.events`, always guarded by ``if obs.active:``. At
construction the observer builds a ``type(event) -> handlers`` table
from the subscribers present: its own metric instruments and trace
spans, then the flight recorder, the SLO monitor and the attribution
collector. An absent sink is simply not subscribed.

The default everywhere, :data:`NULL_OBSERVER`, has no subscribers:
``active`` is ``False``, no call site builds an event, and the
simulator's behaviour and output stay byte-identical to an unobserved
run. :meth:`Observer.silent` with a live profiler is a profile-only
run.

This mirrors the paper's §III-D monitoring agents: DCGM / switch
hardware counters become :class:`LinkLoadTracker` samples exported as
gauges, per-group policy decisions become labelled counters, and request
lifecycles become Chrome-trace swimlanes.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.obs import events as ev
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import NULL_PROFILER, PhaseProfiler
from repro.obs.trace import REQUEST_PID, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.obs.attribution import AttributionCollector
    from repro.obs.recorder import FlightRecorder
    from repro.obs.slo import SLOMonitor

__all__ = ["Observer", "NULL_OBSERVER"]

#: Sampled per-link gauges skip links quieter than this utilisation, so
#: one busy fabric link is visible without exporting thousands of zeros.
LINK_GAUGE_MIN_UTIL = 0.01


def _group(group: tuple[int, ...]) -> str:
    return "-".join(str(g) for g in group)


class Observer:
    """Recording observer: :meth:`emit` fans events out to subscribers."""

    def __init__(
        self,
        trace: TraceRecorder | None = None,
        metrics: MetricsRegistry | None = None,
        profiler: PhaseProfiler | None = None,
        max_trace_events: int = 1_000_000,
        slo: "SLOMonitor | None" = None,
        recorder: "FlightRecorder | None" = None,
        attribution: "AttributionCollector | None" = None,
    ) -> None:
        self.trace = trace or TraceRecorder(max_events=max_trace_events)
        self.metrics = metrics or MetricsRegistry()
        self.profiler = profiler or PhaseProfiler()
        #: optional burn-rate SLO monitor, fed on request finishes and
        #: evaluated on engine ticks
        self.slo = slo
        #: optional flight recorder, sampled on engine ticks
        self.recorder = recorder
        #: optional per-request critical-path attribution collector
        self.attribution = attribution

        m = self.metrics
        self._slo_alerts = m.counter(
            "repro_slo_alerts_total",
            "burn-rate alert transitions by SLO, severity and state",
        )
        self._requests = m.counter(
            "repro_requests_total", "request lifecycle events by kind"
        )
        self._prefill_batches = m.counter(
            "repro_prefill_batches_total", "prefill batches executed"
        )
        self._decode_iters = m.counter(
            "repro_decode_iterations_total", "decode iterations executed"
        )
        self._kv_transfers = m.counter(
            "repro_kv_transfers_total", "prefill->decode KV transfers"
        )
        self._policy_selections = m.counter(
            "repro_policy_selections_total",
            "per-group all-reduce policy decisions (paper Fig. 5 table)",
        )
        self._controller_refreshes = m.counter(
            "repro_controller_refreshes_total",
            "central controller Eq. 18 refresh rounds",
        )
        self._ttft = m.histogram(
            "repro_ttft_seconds", "time to first token, streamed"
        )
        self._tpot = m.histogram(
            "repro_tpot_seconds", "time per output token, streamed"
        )
        self._batch_size = m.histogram(
            "repro_batch_size",
            "batch width per prefill batch / decode iteration",
            buckets=tuple(float(b) for b in (1, 2, 4, 8, 16, 32, 64, 128)),
        )
        self._link_util = m.gauge(
            "repro_link_utilization",
            "sampled per-link utilisation (links above "
            f"{LINK_GAUGE_MIN_UTIL:.0%} only)",
        )
        self._link_util_kind = m.gauge(
            "repro_link_utilization_by_kind",
            "mean/max sampled utilisation per link kind",
        )
        self._link_util_class = m.histogram(
            "repro_link_utilization_by_class",
            "sampled utilisation distribution per link class "
            "(nvlink / ethernet_access leaders / ethernet_trunk "
            "inter-track)",
            buckets=(0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.5),
        )
        self._kv_util = m.gauge(
            "repro_kv_cache_utilization", "decode KV cache occupancy"
        )

        self._handlers: dict[type, tuple[Callable, ...]] = {}
        self.subscribe(self._subscriptions())
        if recorder is not None:
            self.subscribe(recorder.subscriptions())
        if slo is not None:
            self.subscribe({
                ev.RequestFinished: lambda e: slo.record_request(e.ts, e.req),
                ev.EngineTick: self._burn_slos,
            })
        if attribution is not None:
            self.subscribe(attribution.subscriptions())

    @classmethod
    def silent(cls, profiler: PhaseProfiler = NULL_PROFILER) -> "Observer":
        """An observer with no subscribers: ``active`` is ``False``.

        With a live ``profiler`` it is a profile-only run: the engine,
        controller and planner time themselves through ``profiler``
        while no event is built, so results stay byte-identical.
        """
        obs = cls.__new__(cls)
        obs.trace = obs.metrics = None
        obs.slo = obs.recorder = obs.attribution = None
        obs.profiler = profiler
        obs._handlers = {}
        obs.active = False
        return obs

    def subscribe(self, handlers: dict[type, Callable]) -> None:
        """Add one subscriber, ``{event type: handler}``; its handlers
        run after those of earlier subscribers."""
        for etype, handler in handlers.items():
            self._handlers[etype] = self._handlers.get(etype, ()) + (handler,)
        #: whether any subscriber listens; call sites build and emit
        #: events only when it is set
        self.active = bool(self._handlers)

    def emit(self, event) -> None:
        """Hand ``event`` to each subscriber of its type, in order."""
        for handler in self._handlers.get(type(event), ()):
            handler(event)

    def _subscriptions(self) -> dict[type, Callable]:
        """The observer's own metric instruments and trace spans."""
        return {
            ev.RequestArrival: self._request_arrival,
            ev.RequestDropped: self._request_dropped,
            ev.RequestFinished: self._request_finished,
            ev.PrefillSpan: self._prefill_span,
            ev.DecodeSpan: self._decode_span,
            ev.KvTransferSpan: self._kv_transfer_span,
            ev.AllreduceSpan: self._allreduce_span,
            ev.PolicySelected: self._policy_selected,
            ev.ControllerTick: self._controller_tick,
            ev.SampleLinks: self._sample_links,
            ev.KvSample: self._kv_sample,
            ev.FaultInjected: self._fault_injected,
            ev.HealthTransition: self._health_transition,
            ev.Failover: self._failover,
            ev.KvRetry: self._kv_retry,
            ev.RequestsRequeued: self._requests_requeued,
            ev.ReplanEvent: self._replan_event,
            ev.RouteDecision: self._route_decision,
            ev.FleetAllDegraded: self._fleet_all_degraded,
        }

    # -- request lifecycle --------------------------------------------------

    def _request_arrival(self, e: ev.RequestArrival) -> None:
        self._requests.inc(event="arrival")
        req = e.req
        self.trace.instant(
            "requests",
            "arrival",
            e.ts,
            request_id=req.request_id,
            input_len=req.input_len,
            output_len=req.output_len,
        )

    def _request_dropped(self, e: ev.RequestDropped) -> None:
        self._requests.inc(event="dropped")
        self.trace.instant(
            "requests", "dropped", e.ts, request_id=e.req.request_id
        )

    def _request_finished(self, e: ev.RequestFinished) -> None:
        """Stream latency histograms and emit the lifecycle swimlane."""
        req = e.req
        self._requests.inc(event="finished")
        self._ttft.observe(req.ttft)
        self._tpot.observe(req.tpot)
        rid = req.request_id
        for name, start, end, extra in (
            ("queued", req.arrival_time, req.prefill_start, {}),
            ("prefill", req.prefill_start, req.first_token_time,
             {"input_len": req.input_len}),
            ("kv_transfer", req.first_token_time, req.kv_done_time, {}),
            ("decode_wait", req.kv_done_time, req.decode_start, {}),
            ("decode", req.decode_start, req.finish_time,
             {"output_len": req.output_len, "ttft_s": req.ttft,
              "tpot_s": req.tpot}),
        ):
            if math.isnan(start) or math.isnan(end) or end < start:
                continue
            self.trace.complete(
                "requests", name, start, end - start, pid=REQUEST_PID,
                tid=rid, request_id=rid, **extra,
            )

    # -- engine passes -------------------------------------------------------

    def _prefill_span(self, e: ev.PrefillSpan) -> None:
        self._prefill_batches.inc()
        self._batch_size.observe(e.n_requests, phase="prefill")
        self.trace.complete(
            "prefill",
            f"prefill[{e.n_requests}r/{e.tokens}t]",
            e.start,
            e.dur,
            n_requests=e.n_requests,
            tokens=e.tokens,
            t_compute_s=e.t_compute,
            t_comm_s=e.t_comm,
            request_ids=list(e.request_ids),
        )

    def _decode_span(self, e: ev.DecodeSpan) -> None:
        self._decode_iters.inc()
        self._batch_size.observe(e.q, phase="decode")
        self.trace.complete(
            "decode",
            f"decode[q={e.q}]",
            e.start,
            e.dur,
            q=e.q,
            context_tokens=e.context,
            t_compute_s=e.t_compute,
            t_comm_s=e.t_comm,
            request_ids=list(e.request_ids),
        )

    def _kv_transfer_span(self, e: ev.KvTransferSpan) -> None:
        self._kv_transfers.inc()
        self.trace.complete(
            "kv_transfer",
            f"kv[{e.n_requests}r/{e.tokens}t]",
            e.start,
            e.dur,
            n_requests=e.n_requests,
            tokens=e.tokens,
            request_ids=list(e.request_ids),
        )

    def _allreduce_span(self, e: ev.AllreduceSpan) -> None:
        self.trace.complete(
            "allreduce",
            f"allreduce:{e.policy}",
            e.start,
            e.dur,
            phase=e.phase,
            group=_group(e.group),
            policy=e.policy,
            mode=e.mode,
            steps=e.steps,
            data_bytes=e.data_bytes,
            request_ids=list(e.request_ids),
            bottleneck_link=e.bottleneck_link,
            bottleneck_kind=e.bottleneck_kind,
            bottleneck_util=e.bottleneck_util,
            switch=e.switch,
        )

    def _policy_selected(self, e: ev.PolicySelected) -> None:
        self._policy_selections.inc(
            group=_group(e.group), policy=e.policy, mode=e.mode
        )

    # -- controller / link state ----------------------------------------------

    def _controller_tick(self, e: ev.ControllerTick) -> None:
        if e.refreshed:
            self._controller_refreshes.inc()
            self.trace.instant("controller", "refresh", e.ts)

    def _sample_links(self, e: ev.SampleLinks) -> None:
        """Export the monitoring agents' view as gauges/histograms."""
        linkstate = e.linkstate
        for kind, (mean_u, max_u) in linkstate.utilization_by_kind().items():
            self._link_util_kind.set(mean_u, kind=kind, stat="mean")
            self._link_util_kind.set(max_u, kind=kind, stat="max")
        for cls, (mean_u, max_u) in (
            linkstate.utilization_by_class().items()
        ):
            self._link_util_class.observe(
                mean_u, link_class=cls, stat="mean"
            )
            self._link_util_class.observe(
                max_u, link_class=cls, stat="max"
            )
        for link_id, kind, util in linkstate.busy_links(
            LINK_GAUGE_MIN_UTIL
        ):
            self._link_util.set(util, link=str(link_id), kind=kind)

    def _kv_sample(self, e: ev.KvSample) -> None:
        if e.capacity > 0:
            self._kv_util.set(e.used / e.capacity)

    def _burn_slos(self, e: ev.EngineTick) -> None:
        """Evaluate the SLO monitor; count and trace each alert edge."""
        for alert in self.slo.evaluate(e.ts):
            self._slo_alerts.inc(
                slo=alert.slo,
                severity=alert.severity,
                state=alert.state,
            )
            self.trace.instant(
                "alerts",
                f"{alert.severity}:{alert.state}",
                e.ts,
                slo=alert.slo,
                burn_long=alert.burn_long,
                burn_short=alert.burn_short,
                message=alert.message,
            )

    # -- faults / failover / replanning / fleet ------------------------------
    #
    # These instruments are created lazily on the first such event, so
    # observed fault-free runs export exactly the same metric names as
    # before the faults subsystem existed.

    def _fault_counter(self, attr: str, name: str, help: str):
        inst = getattr(self, attr, None)
        if inst is None:
            inst = self.metrics.counter(name, help)
            setattr(self, attr, inst)
        return inst

    def _fault_injected(self, e: ev.FaultInjected) -> None:
        self._fault_counter(
            "_faults_injected",
            "repro_faults_injected_total",
            "fault events applied by the injector, by kind",
        ).inc(kind=e.kind)
        self.trace.instant(
            "faults", f"inject:{e.kind}", e.ts, target=e.target
        )

    def _health_transition(self, e: ev.HealthTransition) -> None:
        self._fault_counter(
            "_health_transitions",
            "repro_health_transitions_total",
            "detected resource health edges, by kind and state",
        ).inc(kind=e.kind, state=e.state)
        self.trace.instant(
            "faults",
            f"health:{e.kind}:{e.state}",
            e.ts,
            resource=e.resource,
            detail=e.detail,
        )

    def _failover(self, e: ev.Failover) -> None:
        self._fault_counter(
            "_failovers",
            "repro_failovers_total",
            "group policy-mask flips (ina->ring and back)",
        ).inc(direction=e.direction)
        self.trace.instant(
            "faults", f"failover:{e.direction}", e.ts, group=_group(e.group)
        )

    def _kv_retry(self, e: ev.KvRetry) -> None:
        self._fault_counter(
            "_kv_retries",
            "repro_kv_transfer_retries_total",
            "KV transfers deferred by backoff while decode unreachable",
        ).inc()
        self.trace.instant(
            "faults",
            "kv_retry",
            e.ts,
            attempt=e.attempt,
            delay_s=e.delay,
            request_ids=list(e.request_ids),
        )

    def _requests_requeued(self, e: ev.RequestsRequeued) -> None:
        self._fault_counter(
            "_requeued",
            "repro_requests_requeued_total",
            "requests that lost progress to a failure and redo prefill",
        ).inc(e.n)
        self.trace.instant(
            "faults",
            "requeue",
            e.ts,
            n_requests=e.n,
            request_ids=list(e.request_ids),
        )

    def _replan_event(self, e: ev.ReplanEvent) -> None:
        self._fault_counter(
            "_replan_events",
            "repro_replan_events_total",
            "online-replanning lifecycle events, by kind",
        ).inc(event=e.event)
        self.trace.instant("replan", e.event, e.ts, **e.detail)

    def _route_decision(self, e: ev.RouteDecision) -> None:
        self._fault_counter(
            "_route_decisions",
            "repro_route_decisions_total",
            "fleet routing decisions, by policy and reason",
        ).inc(router=e.router, reason=e.reason)

    def _fleet_all_degraded(self, e: ev.FleetAllDegraded) -> None:
        self._fault_counter(
            "_fleet_all_degraded",
            "repro_fleet_all_degraded_total",
            "router fallbacks with every active replica degraded",
        ).inc()
        self.trace.instant(
            "faults", "fleet_all_degraded", e.ts, n_replicas=e.n_replicas
        )

    # -- export ---------------------------------------------------------------

    def export(
        self,
        trace_path: str | None = None,
        metrics_path: str | None = None,
    ) -> None:
        """Write collected telemetry to disk.

        ``trace_path`` ending in ``.jsonl`` gets the line-oriented dump;
        anything else gets Chrome-trace JSON (loadable in
        ``chrome://tracing`` / Perfetto). ``metrics_path`` gets the JSON
        snapshot, or the text exposition when it ends in ``.txt`` /
        ``.prom``. With a flight recorder attached, the metrics dump
        additionally carries a ``busiest_links`` table (peak sampled
        utilisation per link over the whole recording); recorder-less
        dumps are unchanged.
        """
        if trace_path is not None:
            if trace_path.endswith(".jsonl"):
                self.trace.write_jsonl(trace_path)
            else:
                self.trace.write_chrome(trace_path)
        if metrics_path is not None:
            busiest = (
                self.recorder.top_links()
                if self.recorder is not None and len(self.recorder)
                else []
            )
            if metrics_path.endswith((".txt", ".prom")):
                text = self.metrics.render_text()
                if busiest:
                    rows = [
                        "# busiest links (peak sampled utilisation)"
                    ] + [
                        f"# link {lid} [{kind}] {util:.3f}"
                        for lid, kind, util in busiest
                    ]
                    text += "\n".join(rows) + "\n"
                with open(metrics_path, "w") as fh:
                    fh.write(text)
            elif busiest:
                payload = self.metrics.snapshot()
                payload["busiest_links"] = [
                    {"link": lid, "kind": kind, "peak_util": util}
                    for lid, kind, util in busiest
                ]
                with open(metrics_path, "w") as fh:
                    json.dump(payload, fh, indent=2)
                    fh.write("\n")
            else:
                self.metrics.write_json(metrics_path)


#: Shared default instance: no subscribers, so nothing is ever recorded
#: and it is safe to share across engines.
NULL_OBSERVER = Observer.silent()
