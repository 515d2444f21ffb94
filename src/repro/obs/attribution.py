"""Per-request critical-path attribution.

The observability layer of PRs 1-2 answers *what* the TTFT/TPOT
percentiles are; this module answers *where the time went* for each
request. An :class:`AttributionCollector` (attached to an
:class:`~repro.obs.observer.Observer` via ``attribution=``) subscribes to
the engine's per-request events — arrival, prefill/decode passes,
all-reduce slices, KV transfers, fault retries/requeues — and links
them into one :class:`RequestTimeline` per ``request_id``, then, on
finish, folds the timeline into a :class:`RequestAttribution`: the
request's end-to-end latency decomposed along its critical path into
named components.

The decomposition telescopes **exactly**: every boundary is a recorded
simulation timestamp and every compute share is derived by subtracting
the recorded communication share from its interval, so

``sum(components) == (finish - arrival) == TTFT + decode latency``

holds to float rounding regardless of how the individual estimators
price their pieces (the acceptance property of ISSUE 6).

Components
----------
``queue_wait``        arrival -> first prefill admission
``fault_redo``        progress lost to a server failure: first prefill
                      admission -> the *final* (successful) admission
``prefill_compute``   final prefill pass minus its sync share
``prefill_allreduce`` the pass's communication share (tensor-parallel
                      all-reduce slices + pipeline sync), with per-policy
                      detail naming the congested link/switch each group
                      priced through
``kv_transfer``       the final, completed prefill->decode KV handoff
``kv_retry_backoff``  retry/backoff inflation while decode was
                      unreachable (plus any cancelled partial transfers)
``decode_wait``       KV landed -> admitted into the decode batch
``decode_compute``    decode iterations minus their sync share
``decode_allreduce``  accumulated decode-pass communication share

The congested-link detail comes from the engine's per-group decision
records: the :class:`~repro.network.linkstate.LinkLoadTracker`
utilisation argmax over the links the chosen
:class:`~repro.comm.scheme.CollectiveScheme` policy's route occupies —
i.e. the contention the policy actually priced against.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.obs import events as ev

__all__ = [
    "CRITICAL_PATH_COMPONENTS",
    "AllreduceShare",
    "RequestTimeline",
    "RequestAttribution",
    "AttributionCollector",
    "render_waterfall",
    "render_waterfalls",
]

#: Canonical component order — waterfalls, report bars and the
#: ``cp_*`` summary keys all follow it.
CRITICAL_PATH_COMPONENTS: tuple[str, ...] = (
    "queue_wait",
    "fault_redo",
    "prefill_compute",
    "prefill_allreduce",
    "kv_transfer",
    "kv_retry_backoff",
    "decode_wait",
    "decode_compute",
    "decode_allreduce",
)


@dataclass
class AllreduceShare:
    """One policy's accumulated sync time within a phase, plus the most
    congested link it priced through (utilisation argmax over the
    policy's link footprint at decision time)."""

    policy: str
    phase: str
    seconds: float = 0.0
    count: int = 0
    bottleneck_link: int | None = None
    bottleneck_kind: str = ""
    bottleneck_util: float = 0.0
    switch: int | None = None

    def merge(self, e: ev.AllreduceSpan) -> None:
        self.seconds += e.dur
        self.count += 1
        if (
            e.bottleneck_link is not None
            and e.bottleneck_util >= self.bottleneck_util
        ):
            self.bottleneck_link = e.bottleneck_link
            self.bottleneck_kind = e.bottleneck_kind
            self.bottleneck_util = e.bottleneck_util
        if e.switch is not None:
            self.switch = e.switch

    def to_dict(self) -> dict:
        """JSON-ready form (round-trips via :meth:`from_dict`)."""
        return {
            "policy": self.policy,
            "phase": self.phase,
            "seconds": self.seconds,
            "count": self.count,
            "bottleneck_link": self.bottleneck_link,
            "bottleneck_kind": self.bottleneck_kind,
            "bottleneck_util": self.bottleneck_util,
            "switch": self.switch,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AllreduceShare":
        return cls(**d)

    def describe(self) -> str:
        """``policy via link 34 [ethernet] (peak util 87%)``."""
        where = ""
        if self.switch is not None:
            where = f" via switch {self.switch}"
        if self.bottleneck_link is not None:
            where += (
                f" via link {self.bottleneck_link}"
                f" [{self.bottleneck_kind}]"
                f" (peak util {self.bottleneck_util:.0%})"
            )
        return f"policy {self.policy}{where}"


@dataclass
class RequestTimeline:
    """Live accumulator for one in-flight request's observer events."""

    request_id: int
    arrival: float
    #: first prefill admission ever (survives requeues)
    first_prefill_start: float = field(default=float("nan"))
    #: communication share of the final prefill pass
    prefill_comm: float = 0.0
    #: duration of the latest (final) KV transfer attempt
    kv_span: float = 0.0
    #: accumulated communication share over decode iterations
    decode_comm: float = 0.0
    decode_iters: int = 0
    kv_retries: int = 0
    requeues: int = 0
    #: ``(phase, policy) -> AllreduceShare`` sync detail
    allreduce: dict[tuple[str, str], AllreduceShare] = field(
        default_factory=dict
    )

    def on_prefill(self, e: ev.PrefillSpan) -> None:
        if math.isnan(self.first_prefill_start):
            self.first_prefill_start = e.start
        self.prefill_comm = e.t_comm

    def on_allreduce(self, e: ev.AllreduceSpan) -> None:
        key = (e.phase, e.policy)
        share = self.allreduce.get(key)
        if share is None:
            share = self.allreduce[key] = AllreduceShare(e.policy, e.phase)
        share.merge(e)

    def on_kv_span(self, e: ev.KvTransferSpan) -> None:
        # Latest wins: a transfer cancelled by a failover is superseded
        # by the retried one; the lost partial time lands in the
        # kv_retry_backoff component, not in kv_transfer.
        self.kv_span = e.dur

    def on_kv_retry(self, e: ev.KvRetry) -> None:
        self.kv_retries += 1

    def on_decode(self, e: ev.DecodeSpan) -> None:
        self.decode_comm += e.t_comm
        self.decode_iters += 1

    def on_requeued(self, e: ev.RequestsRequeued) -> None:
        """A failure wiped this request's progress: redo from prefill.

        Per-attempt accumulators reset so the fresh attempt is measured
        cleanly; the lost wall-time shows up as ``fault_redo`` because
        ``first_prefill_start`` is retained.
        """
        self.requeues += 1
        self.prefill_comm = 0.0
        self.kv_span = 0.0
        self.decode_comm = 0.0
        self.decode_iters = 0
        self.allreduce.clear()


def _pos(x: float) -> float:
    """Clamp float-rounding residue (~1e-16 of the timestamp) to zero."""
    return x if x > 0.0 else 0.0


@dataclass(frozen=True)
class RequestAttribution:
    """One finished request's critical-path decomposition."""

    request_id: int
    arrival: float
    ttft: float
    decode_latency: float
    components: dict[str, float]
    allreduce: tuple[AllreduceShare, ...]
    requeues: int
    kv_retries: int
    decode_iters: int

    @property
    def total(self) -> float:
        """End-to-end latency — equals ``sum(components)`` by design."""
        return self.ttft + self.decode_latency

    def to_dict(self) -> dict:
        """JSON-ready form (round-trips via :meth:`from_dict`)."""
        return {
            "request_id": self.request_id,
            "arrival": self.arrival,
            "ttft": self.ttft,
            "decode_latency": self.decode_latency,
            "components": dict(self.components),
            "allreduce": [s.to_dict() for s in self.allreduce],
            "requeues": self.requeues,
            "kv_retries": self.kv_retries,
            "decode_iters": self.decode_iters,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RequestAttribution":
        return cls(
            request_id=d["request_id"],
            arrival=d["arrival"],
            ttft=d["ttft"],
            decode_latency=d["decode_latency"],
            components=dict(d["components"]),
            allreduce=tuple(
                AllreduceShare.from_dict(s) for s in d["allreduce"]
            ),
            requeues=d["requeues"],
            kv_retries=d["kv_retries"],
            decode_iters=d["decode_iters"],
        )

    @property
    def dominant(self) -> tuple[str, float]:
        """``(component name, seconds)`` of the largest component."""
        name = max(self.components, key=self.components.__getitem__)
        return name, self.components[name]

    def dominant_detail(self) -> str:
        """Human detail for the dominant component: for all-reduce
        components the top policy and the congested link/switch it
        priced through; for others the phase boundary semantics."""
        name, _ = self.dominant
        if name in ("prefill_allreduce", "decode_allreduce"):
            phase = name.split("_", 1)[0]
            shares = [s for s in self.allreduce if s.phase == phase]
            if shares:
                top = max(shares, key=lambda s: s.seconds)
                return f"{top.describe()}, {top.seconds:.4f}s synced"
        if name == "kv_retry_backoff":
            return f"{self.kv_retries} retries while decode unreachable"
        if name == "fault_redo":
            return f"{self.requeues} requeue(s) after server failure"
        if name == "decode_compute":
            return f"{self.decode_iters} decode iterations"
        return ""


#: Batch events, each applied to the timeline of every in-flight request
#: it names.
_TIMELINE_STEPS: dict[type, Callable] = {
    ev.PrefillSpan: RequestTimeline.on_prefill,
    ev.AllreduceSpan: RequestTimeline.on_allreduce,
    ev.KvTransferSpan: RequestTimeline.on_kv_span,
    ev.KvRetry: RequestTimeline.on_kv_retry,
    ev.DecodeSpan: RequestTimeline.on_decode,
    ev.RequestsRequeued: RequestTimeline.on_requeued,
}


class AttributionCollector:
    """Links observer events into per-request critical-path budgets.

    Attach via ``Observer(attribution=AttributionCollector())``. The
    default observer keeps ``attribution=None`` so existing observed
    runs (and their summaries) stay byte-identical.
    """

    def __init__(self) -> None:
        #: in-flight timelines keyed by request_id
        self.live: dict[int, RequestTimeline] = {}
        #: finished attributions, in finish order
        self.finished: list[RequestAttribution] = []

    # -- event intake (an Observer subscriber) ------------------------

    def subscriptions(self) -> dict[type, Callable]:
        """``{event type: handler}`` for :class:`~repro.obs.Observer`."""
        subs: dict[type, Callable] = {
            ev.RequestArrival: self.on_arrival,
            ev.RequestDropped: self.on_dropped,
            ev.RequestFinished: self.on_finished,
            ev.RunFinished: self.on_run_finished,
        }
        for etype, step in _TIMELINE_STEPS.items():
            subs[etype] = partial(self._each_live, step)
        return subs

    def _each_live(self, step: Callable, e) -> None:
        for rid in e.request_ids:
            tl = self.live.get(rid)
            if tl is not None:
                step(tl, e)

    def on_arrival(self, e: ev.RequestArrival) -> None:
        rid = e.req.request_id
        self.live[rid] = RequestTimeline(request_id=rid, arrival=e.ts)

    def on_dropped(self, e: ev.RequestDropped) -> None:
        self.live.pop(e.req.request_id, None)

    # -- finalisation ----------------------------------------------------

    def on_finished(self, e: ev.RequestFinished) -> None:
        req = e.req
        tl = self.live.pop(req.request_id, None)
        if tl is None:
            return
        first_start = tl.first_prefill_start
        if math.isnan(first_start):  # pragma: no cover - defensive
            first_start = req.prefill_start
        prefill_iv = req.first_token_time - req.prefill_start
        kv_iv = req.kv_done_time - req.first_token_time
        decode_iv = req.finish_time - req.decode_start
        components = {
            "queue_wait": _pos(first_start - tl.arrival),
            "fault_redo": _pos(req.prefill_start - first_start),
            "prefill_compute": _pos(prefill_iv - tl.prefill_comm),
            "prefill_allreduce": _pos(min(tl.prefill_comm, prefill_iv)),
            "kv_transfer": _pos(min(tl.kv_span, kv_iv)),
            "kv_retry_backoff": _pos(kv_iv - tl.kv_span),
            "decode_wait": _pos(req.decode_start - req.kv_done_time),
            "decode_compute": _pos(decode_iv - tl.decode_comm),
            "decode_allreduce": _pos(min(tl.decode_comm, decode_iv)),
        }
        self.finished.append(
            RequestAttribution(
                request_id=req.request_id,
                arrival=tl.arrival,
                ttft=req.first_token_time - tl.arrival,
                decode_latency=req.finish_time - req.first_token_time,
                components=components,
                allreduce=tuple(
                    sorted(
                        tl.allreduce.values(),
                        key=lambda s: s.seconds,
                        reverse=True,
                    )
                ),
                requeues=tl.requeues,
                kv_retries=tl.kv_retries,
                decode_iters=tl.decode_iters,
            )
        )

    def on_run_finished(self, e: ev.RunFinished) -> None:
        """Fold the fleet-wide budget into the run's
        :class:`~repro.serving.metrics.ServingMetrics` (``cp_*`` summary
        keys) once any request was attributed."""
        if self.finished:
            e.sim.metrics.attribution_stats = self.fleet_summary()

    # -- fleet reductions ------------------------------------------------

    def component_matrix(self) -> dict[str, np.ndarray]:
        """``{component: per-request seconds}`` over finished requests."""
        return {
            name: np.array(
                [a.components[name] for a in self.finished]
            )
            for name in CRITICAL_PATH_COMPONENTS
        }

    def budget(self) -> dict[str, dict[str, float]]:
        """Fleet-wide per-component time budgets.

        ``{component: {"mean": s, "p50": s, "p99": s, "share": frac}}``
        where ``share`` is the component's fraction of total attributed
        time — the stacked-bar weights of the report.
        """
        if not self.finished:
            return {}
        mat = self.component_matrix()
        grand = sum(float(v.sum()) for v in mat.values())
        out: dict[str, dict[str, float]] = {}
        for name in CRITICAL_PATH_COMPONENTS:
            v = mat[name]
            out[name] = {
                "mean": float(v.mean()),
                "p50": float(np.percentile(v, 50)),
                "p99": float(np.percentile(v, 99)),
                "share": float(v.sum()) / grand if grand > 0 else 0.0,
            }
        return out

    def fleet_summary(self) -> dict[str, float]:
        """Flat ``cp_*`` keys merged into ``ServingMetrics.summary()``."""
        out: dict[str, float] = {
            "cp_requests": float(len(self.finished))
        }
        for name, stats in self.budget().items():
            out[f"cp_{name}_p50_s"] = stats["p50"]
            out[f"cp_{name}_p99_s"] = stats["p99"]
        return out

    def slowest(self, k: int = 5) -> list[RequestAttribution]:
        """The ``k`` worst requests by end-to-end latency."""
        return sorted(
            self.finished, key=lambda a: a.total, reverse=True
        )[:k]

    # -- persistence -----------------------------------------------------

    def to_payload(self) -> dict:
        """Full JSON-ready dump: every finished attribution plus the
        fleet budget. ``python -m repro explain --from-dir`` and the
        what-if profiler rebuild a collector from this via
        :meth:`from_payload`."""
        return {
            "n_requests": len(self.finished),
            "budget": self.budget(),
            "requests": [a.to_dict() for a in self.finished],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "AttributionCollector":
        """Rebuild a (finished-only) collector from :meth:`to_payload`
        output. Raises ``KeyError`` on dumps that predate per-request
        detail (callers degrade gracefully)."""
        out = cls()
        out.finished = [
            RequestAttribution.from_dict(d) for d in payload["requests"]
        ]
        return out


# ----------------------------------------------------------------------
# text rendering (CLI `explain`)
# ----------------------------------------------------------------------

_BAR_WIDTH = 32

#: Components below this are float-rounding residue of the exact
#: telescoping decomposition, not real time — renderers skip them.
_DISPLAY_EPS_S = 1e-6


def render_waterfall(attr: RequestAttribution) -> str:
    """One request's critical-path waterfall as aligned text."""
    total = attr.total
    flags = []
    if attr.requeues:
        flags.append(f"{attr.requeues} requeue(s)")
    if attr.kv_retries:
        flags.append(f"{attr.kv_retries} kv retries")
    suffix = f"   [{', '.join(flags)}]" if flags else ""
    lines = [
        f"request {attr.request_id}  total {total:.4f}s = "
        f"TTFT {attr.ttft:.4f}s + decode {attr.decode_latency:.4f}s"
        f"{suffix}"
    ]
    for name in CRITICAL_PATH_COMPONENTS:
        sec = attr.components[name]
        if sec < _DISPLAY_EPS_S:
            continue
        frac = sec / total if total > 0 else 0.0
        bar = "#" * max(1, round(frac * _BAR_WIDTH))
        lines.append(
            f"  {name:<18s} {sec:9.4f}s {frac:6.1%} |{bar}"
        )
    dom_name, dom_sec = attr.dominant
    detail = attr.dominant_detail()
    detail = f" — {detail}" if detail else ""
    lines.append(
        f"  dominant: {dom_name} ({dom_sec:.4f}s,"
        f" {dom_sec / total if total > 0 else 0.0:.1%}){detail}"
    )
    if attr.allreduce:
        top = attr.allreduce[0]
        lines.append(
            f"  comm path: {top.describe()} — {top.seconds:.4f}s "
            f"over {top.count} pass(es)"
        )
    return "\n".join(lines)


def render_waterfalls(
    collector: AttributionCollector, slowest: int = 5
) -> str:
    """Fleet budget table + waterfalls for the ``slowest`` K requests."""
    if not collector.finished:
        return "no finished requests to attribute"
    lines = [
        f"critical-path budget over {len(collector.finished)} "
        "finished requests:",
        f"  {'component':<18s} {'p50':>10s} {'p99':>10s} {'share':>7s}",
    ]
    for name, stats in collector.budget().items():
        if stats["p99"] < _DISPLAY_EPS_S:
            continue
        lines.append(
            f"  {name:<18s} {stats['p50']:9.4f}s {stats['p99']:9.4f}s "
            f"{stats['share']:6.1%}"
        )
    lines.append("")
    lines.append(f"slowest {slowest} requests:")
    for attr in collector.slowest(slowest):
        lines.append("")
        lines.append(render_waterfall(attr))
    return "\n".join(lines)
