"""Telemetry events: one frozen record per thing that happened.

Every layer reports through ``obs.emit(event)`` under ``if
obs.active:``, so an unobserved run builds no event; the
:class:`~repro.obs.observer.Observer` fans each event out to its
subscribers. Timestamps are simulation seconds. :class:`SampleLinks`,
:class:`EngineTick` and :class:`RunFinished` carry the live tracker or
simulator, because the recorder samples live state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.network.linkstate import LinkLoadTracker
    from repro.serving.engine import ServingSimulator
    from repro.serving.request import RequestState

__all__ = [
    "RequestArrival", "RequestDropped", "RequestFinished", "PrefillSpan",
    "DecodeSpan", "KvTransferSpan", "AllreduceSpan", "PolicySelected",
    "ControllerTick", "SampleLinks", "KvSample", "EngineTick",
    "FaultInjected", "HealthTransition", "Failover", "KvRetry",
    "RequestsRequeued", "ReplanEvent", "RouteDecision", "FleetAllDegraded",
    "RunFinished",
]

#: Frozen and slotted: events are immutable records, cheap to build.
_event = dataclass(frozen=True, slots=True)


@_event
class RequestArrival:
    ts: float
    req: "RequestState"


@_event
class RequestDropped:
    ts: float
    req: "RequestState"


@_event
class RequestFinished:
    ts: float
    req: "RequestState"


@_event
class PrefillSpan:
    start: float
    dur: float
    n_requests: int
    tokens: int
    t_compute: float
    t_comm: float
    request_ids: tuple[int, ...] = ()


@_event
class DecodeSpan:
    start: float
    dur: float
    q: int
    context: int
    t_compute: float
    t_comm: float
    request_ids: tuple[int, ...] = ()


@_event
class KvTransferSpan:
    start: float
    dur: float
    n_requests: int
    tokens: int
    request_ids: tuple[int, ...] = ()


@_event
class AllreduceSpan:
    """One group's sync slice, nested inside its prefill/decode span;
    ``bottleneck_*`` is the busiest link of the policy's footprint."""

    phase: str
    start: float
    dur: float
    group: tuple[int, ...]
    policy: str
    mode: str
    steps: int
    data_bytes: float
    request_ids: tuple[int, ...] = ()
    bottleneck_link: int | None = None
    bottleneck_kind: str = ""
    bottleneck_util: float = 0.0
    switch: int | None = None


@_event
class PolicySelected:
    group: tuple[int, ...]
    policy: str
    mode: str


@_event
class ControllerTick:
    ts: float
    refreshed: bool


@_event
class SampleLinks:
    ts: float
    linkstate: "LinkLoadTracker"


@_event
class KvSample:
    ts: float
    used: int
    capacity: int


@_event
class EngineTick:
    """A monitoring-cadence tick: a controller refresh (HeroServe) or
    every Nth link poll (baselines), in simulation time."""

    ts: float
    sim: "ServingSimulator"


@_event
class FaultInjected:
    ts: float
    kind: str
    target: int


@_event
class HealthTransition:
    ts: float
    kind: str
    resource: int
    state: str
    detail: str = ""


@_event
class Failover:
    ts: float
    group: tuple[int, ...]
    direction: str


@_event
class KvRetry:
    ts: float
    attempt: int
    delay: float
    request_ids: tuple[int, ...] = ()


@_event
class RequestsRequeued:
    ts: float
    n: int
    request_ids: tuple[int, ...] = ()


@_event
class ReplanEvent:
    """A replanning lifecycle edge; ``detail`` is JSON-serialisable (it
    lands in the flight recorder, whence the report's plan timeline)."""

    ts: float
    event: str
    detail: dict[str, Any] = field(default_factory=dict)


@_event
class RouteDecision:
    """One fleet routing decision, with the session's KV affinity."""

    ts: float
    request_id: int
    replica: int
    router: str
    reason: str
    affinity_hit: bool | None = None
    kv_fetch_bytes: float = 0.0


@_event
class FleetAllDegraded:
    """Edge-triggered: every active replica is degraded at once."""

    ts: float
    n_replicas: int


@_event
class RunFinished:
    ts: float
    sim: "ServingSimulator"
