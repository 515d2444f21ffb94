"""Failure detection: ground truth vs. the control plane's belief.

The injector flips *ground truth* (``mark_down`` / ``mark_up``): a
crashed switch stops answering heartbeats and its dataplane counters go
stale the instant it dies.  The control plane only learns about it when
:meth:`HealthRegistry.poll` — called from ``CentralController.tick`` —
observes enough consecutive heartbeat misses, i.e. after
``heartbeat_period * miss_threshold`` seconds of silence.  Recovery is
likewise delayed: after the resource answers heartbeats again it is kept
masked for ``holddown_s`` seconds so a flapping switch cannot bounce
groups between INA and ring on every tick.

The registry therefore exposes two views:

* :meth:`is_faulted` — ground truth, used by the *data plane* (a dead
  server cannot run a decode iteration regardless of what the
  controller believes yet);
* :meth:`available` — the detected view, used by the *control plane*
  (scheduler policy masks, KV re-pairing, replanning).

Every detected outage is recorded as a :class:`FaultEpisode`, from which
MTTR and degraded-seconds are reduced for ``ServingMetrics.summary()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "FaultEpisode",
    "HealthConfig",
    "HealthRegistry",
    "HealthTransition",
    "HoldDown",
    "SustainedThreshold",
]


@dataclass
class SustainedThreshold:
    """Fire only after ``sustain`` consecutive at-or-over updates.

    The hysteresis primitive shared by detection-style consumers (the
    health registry's miss counting is the hardware analogue; the
    online-replanning drift detector uses this directly): a signal that
    merely spikes over ``high`` never fires, only one that *stays* there
    for ``sustain`` consecutive observations does. Any under-threshold
    observation re-arms the counter from zero.
    """

    high: float
    sustain: int
    _over: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.sustain < 1:
            raise ValueError(f"sustain must be >= 1, got {self.sustain}")

    def update(self, value: float) -> bool:
        """Feed one observation; True once the threshold is sustained."""
        if value >= self.high:
            self._over += 1
        else:
            self._over = 0
        return self._over >= self.sustain

    def reset(self) -> None:
        self._over = 0


@dataclass
class HoldDown:
    """A re-armable hold-down window (cooldown).

    Shared semantics for the registry's recovery masking and the
    replanner's trigger cooldown: after :meth:`start`, :meth:`elapsed`
    stays False until ``period`` seconds have passed; a never-started
    hold-down (NaN anchor) counts as elapsed.
    """

    period: float
    _since: float = field(default=math.nan, repr=False)

    def start(self, now: float) -> None:
        self._since = now

    def elapsed(self, now: float) -> bool:
        return math.isnan(self._since) or now >= self._since + self.period


#: Resource classes tracked by the registry.
RESOURCE_KINDS = ("switch", "server", "link")


@dataclass(frozen=True)
class HealthConfig:
    """Detection/restoration timing knobs."""

    #: seconds between heartbeats (also the counter-scrape period).
    heartbeat_period: float = 0.05
    #: consecutive misses before a resource is declared down.
    miss_threshold: int = 3
    #: seconds a recovered resource stays masked before reuse.
    holddown_s: float = 1.0

    @property
    def detect_delay(self) -> float:
        return self.heartbeat_period * self.miss_threshold


@dataclass(frozen=True)
class HealthTransition:
    """One detected health edge, emitted by :meth:`HealthRegistry.poll`."""

    time: float
    kind: str
    resource: int
    state: str  # "down" | "up"
    detail: str = ""


@dataclass
class FaultEpisode:
    """One detected outage of one resource."""

    kind: str
    resource: int
    fault_at: float
    detected_at: float
    recovered_at: float = math.nan  # ground-truth repair time
    restored_at: float = math.nan  # detected-up time (after hold-down)
    detail: str = ""

    @property
    def closed(self) -> bool:
        return not math.isnan(self.restored_at)

    def repair_time(self) -> float:
        """Detection-to-restoration span (the MTTR contribution)."""
        if not self.closed:
            return math.nan
        return self.restored_at - self.detected_at


@dataclass
class _Record:
    faulted: bool = False  # ground truth
    down: bool = False  # detected state
    fault_at: float = math.nan
    recover_at: float = math.nan
    detail: str = ""
    episode: FaultEpisode | None = None


class HealthRegistry:
    """Per-resource health state with delayed detection and hold-down."""

    def __init__(self, config: HealthConfig | None = None) -> None:
        self.config = config or HealthConfig()
        self._records: dict[tuple[str, int], _Record] = {}
        self.episodes: list[FaultEpisode] = []
        #: failovers executed by the controller (INA->ring decisions).
        self.failovers: int = 0

    def _rec(self, kind: str, rid: int) -> _Record:
        if kind not in RESOURCE_KINDS:
            raise ValueError(
                f"unknown resource kind {kind!r}; expected {RESOURCE_KINDS}"
            )
        return self._records.setdefault((kind, rid), _Record())

    # -- ground truth (injector side) ---------------------------------------

    def mark_down(
        self, kind: str, rid: int, now: float, detail: str = ""
    ) -> None:
        rec = self._rec(kind, rid)
        if rec.faulted:
            return
        rec.faulted = True
        rec.detail = detail
        rec.recover_at = math.nan
        if not rec.down:
            # fresh outage: heartbeats stop now, detection happens later.
            rec.fault_at = now
        # else: re-fault during hold-down — the open episode continues.

    def mark_up(self, kind: str, rid: int, now: float) -> None:
        rec = self._rec(kind, rid)
        if not rec.faulted:
            return
        rec.faulted = False
        rec.recover_at = now
        if rec.episode is not None:
            rec.episode.recovered_at = now

    # -- detected view (controller side) ------------------------------------

    def poll(self, now: float) -> list[HealthTransition]:
        """Advance detection; return the health edges crossed by ``now``."""
        cfg = self.config
        edges: list[HealthTransition] = []
        for (kind, rid), rec in sorted(self._records.items()):
            if rec.faulted and not rec.down:
                if now >= rec.fault_at + cfg.detect_delay:
                    rec.down = True
                    rec.episode = FaultEpisode(
                        kind=kind,
                        resource=rid,
                        fault_at=rec.fault_at,
                        detected_at=now,
                        detail=rec.detail,
                    )
                    self.episodes.append(rec.episode)
                    edges.append(
                        HealthTransition(now, kind, rid, "down", rec.detail)
                    )
            elif rec.down and not rec.faulted:
                if HoldDown(cfg.holddown_s, rec.recover_at).elapsed(now):
                    rec.down = False
                    if rec.episode is not None:
                        rec.episode.restored_at = now
                        rec.episode = None
                    edges.append(
                        HealthTransition(now, kind, rid, "up", rec.detail)
                    )
        return edges

    # -- queries ------------------------------------------------------------

    def available(self, kind: str, rid: int) -> bool:
        """Control-plane view: False while detected-down or in hold-down."""
        rec = self._records.get((kind, rid))
        return rec is None or not rec.down

    def is_faulted(self, kind: str, rid: int) -> bool:
        """Ground truth: True from the fault instant to the repair instant."""
        rec = self._records.get((kind, rid))
        return rec is not None and rec.faulted

    def detected_down(self, kind: str) -> set[int]:
        return {
            rid
            for (k, rid), rec in self._records.items()
            if k == kind and rec.down
        }

    # -- reductions ---------------------------------------------------------

    def mttr(self) -> float:
        """Mean detected-outage duration over closed episodes."""
        spans = [e.repair_time() for e in self.episodes if e.closed]
        if not spans:
            return math.nan
        return sum(spans) / len(spans)

    def degraded_seconds(self, now: float) -> float:
        """Total resource-seconds spent detected-down (open episodes count
        up to ``now``)."""
        total = 0.0
        for e in self.episodes:
            end = e.restored_at if e.closed else now
            total += max(0.0, end - e.detected_at)
        return total
