"""Central controller: the HeroServe control centre (paper §III-D, §IV).

The prototype runs a centralised Python scheduler that (a) keeps every
GPU's policy cost table synchronised after each all-reduce, (b) polls
switch hardware counters and DCGM for link utilisation, and (c) pushes
refreshed costs/penalties to agents over gRPC. In the simulator the
controller owns the per-group :class:`LoadAwareScheduler` instances and
the shared :class:`LinkLoadTracker`, and its ``tick`` method is the
periodic poll/refresh loop (the gRPC fan-out is a direct method call —
the consistency semantics are identical because updates are applied
atomically between simulation events).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.comm.context import CommContext
from repro.comm.scheme import SchemeKind, get_scheme
from repro.core.scheduler import CommDecision, LoadAwareScheduler
from repro.faults.health import HealthRegistry
from repro.obs.logging_config import get_logger
from repro.obs.observer import NULL_OBSERVER

log = get_logger(__name__)


@dataclass
class CentralController:
    """Registry of per-group online schedulers with periodic refresh."""

    ctx: CommContext
    scheme: SchemeKind
    refresh_period: float = 0.05
    n_switch_candidates: int = 2
    #: observability sink shared with the engine (no-op by default)
    observer: object = NULL_OBSERVER
    #: failure-detection registry; ``None`` keeps the fault-free path.
    health: HealthRegistry | None = None
    #: extra registered collectives whose policies join every group's
    #: table alongside the primary scheme's (e.g. ("ring-2stage", "tree"))
    extra_schemes: tuple[str, ...] = ()
    _schedulers: dict[tuple[int, ...], LoadAwareScheduler] = field(
        default_factory=dict
    )
    _last_refresh: float = field(default=float("-inf"))
    refreshes: int = 0
    #: per-group cheapest step cost first observed — the deployment-time
    #: baseline that :meth:`policy_cost_drift` measures growth against
    _cost_baseline: dict[tuple[int, ...], float] = field(
        default_factory=dict
    )

    def scheduler_for(
        self, gpus: Sequence[int]
    ) -> LoadAwareScheduler:
        """Get (or lazily create) the scheduler of one GPU group.

        Group keys are normalised (sorted, duplicates dropped) so
        ``[3, 1, 3]`` and ``(1, 3)`` resolve to the same scheduler; the
        scheduler itself receives the deduplicated GPUs in caller order,
        which preserves existing leader-election behaviour for the
        (duplicate-free) callers we have today.
        """
        unique = list(dict.fromkeys(gpus))
        key = tuple(sorted(unique))
        sched = self._schedulers.get(key)
        if sched is None:
            log.debug(
                "creating scheduler for group %s (scheme=%s)",
                key,
                self.scheme.value,
            )
            sched = LoadAwareScheduler(
                self.ctx,
                unique,
                self.scheme,
                n_switch_candidates=self.n_switch_candidates,
                observer=self.observer,
                extra_schemes=self.extra_schemes,
            )
            if self.health is not None:
                sched.apply_health(self.health)
            self._schedulers[key] = sched
        return sched

    def decide(self, gpus: Sequence[int], data_bytes: float) -> CommDecision:
        """Route one all-reduce for a group through its policy table."""
        return self.scheduler_for(gpus).decide(data_bytes)

    def tick(self, now: float) -> bool:
        """Periodic poll/refresh; returns True when a refresh ran.

        Mirrors §IV: poll dataplane counters (here the link tracker's
        EWMA), then push refreshed utilisations and Eq. 18 penalties to
        every group's table.
        """
        if now - self._last_refresh < self.refresh_period:
            return False
        self._last_refresh = now
        profiler = self.observer.profiler
        with profiler.phase("controller.poll"):
            if self.ctx.linkstate is not None:
                self.ctx.linkstate.poll()
            if self.health is not None:
                self._poll_health(now)
        with profiler.phase("controller.refresh"):
            for sched in self._schedulers.values():
                sched.refresh()
        self.refreshes += 1
        return True

    def _poll_health(self, now: float) -> None:
        """Advance failure detection and fail groups over/back.

        Heartbeat misses and stale switch counters surface here as
        detected-down edges; every edge re-derives each group's policy
        mask so affected groups degrade INA->ring (or restore after the
        hold-down elapses).
        """
        assert self.health is not None
        edges = self.health.poll(now)
        if not edges:
            return
        for edge in edges:
            log.info(
                "health: %s %s detected %s at t=%.3f",
                edge.kind,
                edge.resource,
                edge.state,
                now,
            )
            self.observer.health_transition(
                now, edge.kind, edge.resource, edge.state, edge.detail
            )
        for key, sched in self._schedulers.items():
            changed, degraded = sched.apply_health(self.health)
            if not changed:
                continue
            fallback = get_scheme(self.scheme).failover_target()
            direction = (
                f"ina->{fallback}" if degraded else f"{fallback}->ina"
            )
            if degraded:
                self.health.failovers += 1
            log.info("failover: group %s %s at t=%.3f", key, direction, now)
            self.observer.failover(now, key, direction)

    def n_groups(self) -> int:
        """Number of registered GPU groups."""
        return len(self._schedulers)

    def policy_cost_drift(self) -> float:
        """Worst per-group growth of the best step cost since deployment.

        For every group the cheapest base cost (Eq. 16's ``b``)
        currently in its policy table is compared against the cheapest
        value first observed for that group; the maximum ratio over
        groups is the drift detector's "the fabric now serves this plan
        worse than when it was made" signal. Returns 1.0 while no group
        has priced a table yet.
        """
        worst = 1.0
        for key, sched in self._schedulers.items():
            b = sched.table.b
            if len(b) == 0:
                continue
            best = float(min(b))
            if best <= 0.0:
                continue
            base = self._cost_baseline.setdefault(key, best)
            ratio = best / base
            if ratio > worst:
                worst = ratio
        return worst

    def table_snapshots(self) -> dict[str, dict]:
        """Per-group policy-table state for the flight recorder.

        ``{group key: {"policies": names, "b": J base terms,
        "selections": cumulative counts}}`` — the raw material of the
        report's policy-flip timeline and cost-table sparklines.
        """
        out: dict[str, dict] = {}
        for key, sched in self._schedulers.items():
            table = sched.table
            out["-".join(str(g) for g in key)] = {
                "policies": [p.name for p in table.policies],
                "b": [float(x) for x in table.b],
                "selections": [int(x) for x in table.selections],
            }
        return out
