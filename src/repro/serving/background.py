"""Background cross-traffic injector.

Section II motivates HeroServe with INA throughput collapse "under bursty
traffic conditions": other tenants' flows share the Ethernet fabric and
congest the aggregation paths. This injector registers on/off bursts of
load on random Ethernet links of the topology — the multi-tenant noise
against which Fig. 9's aggregation throughput is measured.

The injector can subscribe to the SLO monitor's
:class:`~repro.obs.slo.AlertSink`: while a page burn-rate alert is
firing, new bursts run at a reduced intensity for a cooldown period —
the cooperative-tenant knob (deprioritise best-effort traffic when the
serving SLO is burning) that lets experiments separate "network noise
caused the violation" from "the violation persisted regardless".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.linkstate import LinkLoadTracker
from repro.network.topology import LinkKind, Topology
from repro.sim.eventqueue import EventQueue
from repro.util.rng import make_rng


@dataclass
class BackgroundTrafficConfig:
    """Burst process parameters."""

    #: average fraction of each burst-affected link's capacity consumed
    intensity: float = 0.5
    #: mean seconds between burst starts (exponential)
    mean_gap: float = 0.5
    #: mean burst duration (exponential)
    mean_duration: float = 0.3
    #: links touched per burst
    links_per_burst: int = 4
    #: intensity multiplier applied while an SLO page alert throttle is
    #: active (1.0 disables alert-driven backoff)
    throttle_factor: float = 0.5
    #: seconds the throttle persists after the page alert fires
    throttle_cooldown: float = 30.0


class BackgroundTraffic:
    """Registers random bursts of load on Ethernet links via DES events."""

    def __init__(
        self,
        topology: Topology,
        linkstate: LinkLoadTracker,
        queue: EventQueue,
        config: BackgroundTrafficConfig | None = None,
        seed: int | None = None,
    ) -> None:
        self.topology = topology
        self.linkstate = linkstate
        self.queue = queue
        self.cfg = config or BackgroundTrafficConfig()
        if not 0.0 <= self.cfg.intensity <= 1.0:
            raise ValueError("intensity must be in [0, 1]")
        self.rng = make_rng(seed)
        kinds = topology.kind_array()
        self._eth = np.where(kinds == int(LinkKind.ETHERNET))[0]
        if self._eth.size == 0:
            raise ValueError("topology has no Ethernet links to congest")
        self.bursts_started = 0
        self.bursts_throttled = 0
        self._throttle_until = float("-inf")

    # -- SLO alert subscription --------------------------------------------

    def subscribe(self, sink) -> None:
        """Attach to an :class:`~repro.obs.slo.AlertSink`."""
        sink.subscribe(self.on_alert)

    def on_alert(self, alert) -> None:
        """Back off new bursts while the serving SLO is page-burning."""
        if alert.severity == "page" and alert.firing:
            self._throttle_until = max(
                self._throttle_until,
                alert.time + self.cfg.throttle_cooldown,
            )

    def _effective_intensity(self) -> float:
        if self.queue.now < self._throttle_until:
            self.bursts_throttled += 1
            return self.cfg.intensity * self.cfg.throttle_factor
        return self.cfg.intensity

    def start(self, horizon: float) -> None:
        """Schedule the burst process on [now, now + horizon)."""
        self._schedule_next(horizon_end=self.queue.now + horizon)

    def _schedule_next(self, horizon_end: float) -> None:
        gap = float(self.rng.exponential(self.cfg.mean_gap))
        t = self.queue.now + gap
        if t >= horizon_end:
            return
        self.queue.schedule(gap, self._burst, horizon_end, tag="bg_burst")

    def _burst(self, horizon_end: float) -> None:
        k = min(self.cfg.links_per_burst, self._eth.size)
        links = self.rng.choice(self._eth, size=k, replace=False)
        # One handle for the burst: the links are distinct, so each gets
        # one add of its own rate, as k one-link registrations would.
        rates = self._effective_intensity() * self.linkstate.capacity[links]
        handle = self.linkstate.register(links, rates)
        self.bursts_started += 1
        dur = float(self.rng.exponential(self.cfg.mean_duration))
        self.queue.schedule(dur, self._burst_end, handle, tag="bg_end")
        self._schedule_next(horizon_end)

    def _burst_end(self, handle: int) -> None:
        self.linkstate.release(handle)
