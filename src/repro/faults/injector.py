"""Deterministic fault injection driven by the simulation event queue.

The :class:`FaultInjector` arms a :class:`~repro.faults.plan.FaultPlan`
onto the engine's :class:`~repro.sim.eventqueue.EventQueue`, so faults
fire on the simulation clock interleaved with ordinary serving events.
Injection flips *ground truth* in the :class:`~repro.faults.health.
HealthRegistry` and applies the physical effect (capacity cut, SRAM
wipe, slot seizure, engine request requeue); the control plane reacts
later, once ``CentralController.tick`` detects the change.

All injector-side randomness (retry jitter) comes from the plan's seed
via :func:`repro.util.rng.make_rng`, keeping chaos runs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.faults.health import HealthRegistry
from repro.faults.plan import FaultEvent, FaultPlan
from repro.network.topology import LinkKind
from repro.obs.events import FaultInjected
from repro.obs.observer import NULL_OBSERVER
from repro.util.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.comm.context import CommContext
    from repro.serving.metrics import ServingMetrics
    from repro.sim.eventqueue import EventQueue
    from repro.switch.dataplane import SwitchDataplane

__all__ = ["FaultInjector", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for KV-transfer retries.

    ``max_attempts`` and ``total_backoff_cap_s`` form the retry
    *budget*: a transfer whose pairing stays dead past either bound is
    failed outright (``kv_exhausted``) instead of retrying forever.
    """

    base_s: float = 0.05
    cap_s: float = 2.0
    jitter: float = 0.25
    max_attempts: int = 8
    #: ceiling on the cumulative backoff a single transfer may spend
    total_backoff_cap_s: float = 30.0

    def delay(self, attempt: int, u: float) -> float:
        """Backoff for ``attempt`` (0-based) given a uniform draw ``u``."""
        raw = min(self.cap_s, self.base_s * (2.0**attempt))
        return raw * (1.0 + self.jitter * u)


@dataclass
class _InjectorCounters:
    faults_injected: int = 0
    kv_retries: int = 0
    #: requests abandoned after exhausting the KV-transfer retry budget
    kv_exhausted: int = 0
    requests_lost: int = 0
    prefill_redos: int = 0
    slot_exhausted: int = 0
    skipped_events: int = 0
    replans: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)


class FaultInjector:
    """Applies a fault plan to a running serving simulation."""

    def __init__(
        self,
        plan: FaultPlan,
        health: HealthRegistry,
        ctx: "CommContext",
        observer=NULL_OBSERVER,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.plan = plan
        self.health = health
        self.ctx = ctx
        self.obs = observer
        self.retry = retry or RetryPolicy()
        self.rng = make_rng(plan.seed)
        self.counters = _InjectorCounters()
        self._queue: "EventQueue | None" = None
        self._engines: list = []
        self._dataplanes: dict[int, "SwitchDataplane"] = {}
        built = ctx.built
        self._gpu_server: dict[int, int] = {
            g: s for s, gl in built.server_gpus.items() for g in gl
        }
        self._eth_links: list[int] = sorted(
            lid
            for lid, link in enumerate(built.topology.links)
            if link.kind == LinkKind.ETHERNET
        )

    # -- attachment ---------------------------------------------------------

    def attach_engine(self, engine) -> None:
        """Register a simulator for server-failure callbacks."""
        if engine not in self._engines:
            self._engines.append(engine)

    def attach_dataplane(self, switch: int, dp: "SwitchDataplane") -> None:
        """Bind a functional dataplane model to a switch node id, so
        switch crashes wipe its SRAM and slot storms seize real slots."""
        self._dataplanes[switch] = dp

    # -- target resolution --------------------------------------------------

    def resolve_target(self, ev: FaultEvent) -> int:
        """Map a raw id or a ``"<class>#i"`` reference to a node/link id."""
        target = ev.target
        if isinstance(target, int):
            return target
        ref = target.strip()
        if "#" not in ref:
            raise ValueError(f"bad fault target {target!r}")
        prefix, _, idx_s = ref.partition("#")
        prefix = prefix or ev.resource_kind
        try:
            idx = int(idx_s)
        except ValueError as exc:
            raise ValueError(f"bad fault target index {target!r}") from exc
        built = self.ctx.built
        if prefix == "switch":
            pool = built.ina_capable_switches()
        elif prefix == "server":
            pool = sorted(built.server_gpus)
        elif prefix == "link":
            pool = self._eth_links
        else:
            raise ValueError(f"bad fault target class {target!r}")
        if not (0 <= idx < len(pool)):
            raise ValueError(
                f"fault target {target!r} out of range "
                f"(topology has {len(pool)} {prefix}s)"
            )
        return pool[idx]

    # -- arming -------------------------------------------------------------

    def arm(self, queue: "EventQueue") -> None:
        """Schedule every plan event (and implied recovery) on ``queue``."""
        self._queue = queue
        for ev in self.plan.events:
            rid = self.resolve_target(ev)
            delay = max(0.0, ev.time - queue.now)
            queue.schedule(
                delay, self._fire, ev, rid, tag=f"fault:{ev.kind}:{rid}"
            )
            rec = ev.recovery_event()
            if rec is not None:
                queue.schedule(
                    max(0.0, rec.time - queue.now),
                    self._fire,
                    rec,
                    rid,
                    tag=f"fault:{rec.kind}:{rid}",
                )
            elif ev.kind == "slot_storm":
                queue.schedule(
                    max(0.0, ev.time + ev.duration - queue.now),
                    self._end_storm,
                    rid,
                )

    # -- event application --------------------------------------------------

    @property
    def now(self) -> float:
        return self._queue.now if self._queue is not None else 0.0

    def _fire(self, ev: FaultEvent, rid: int) -> None:
        now = self.now
        self.counters.faults_injected += 1
        self.counters.by_kind[ev.kind] = (
            self.counters.by_kind.get(ev.kind, 0) + 1
        )
        if self.obs.active:
            self.obs.emit(FaultInjected(now, ev.kind, rid))
        if ev.kind == "switch_down":
            self.health.mark_down("switch", rid, now)
            dp = self._dataplanes.get(rid)
            if dp is not None:
                dp.fail()
            self._notify_switch(rid)
        elif ev.kind == "switch_up":
            self.health.mark_up("switch", rid, now)
            dp = self._dataplanes.get(rid)
            if dp is not None:
                dp.recover()
            self._notify_switch(rid)
        elif ev.kind == "slot_storm":
            self.health.mark_down("switch", rid, now, detail="slot_storm")
            dp = self._dataplanes.get(rid)
            if dp is not None:
                self.counters.slot_exhausted += dp.seize_slots(ev.slots)
            self._notify_switch(rid)
        elif ev.kind == "link_degrade":
            if self.ctx.linkstate is None:
                self.counters.skipped_events += 1
                return
            self.ctx.linkstate.set_link_factor(
                rid, ev.effective_capacity_factor
            )
            self.health.mark_down("link", rid, now, detail="degraded")
        elif ev.kind == "link_restore":
            if self.ctx.linkstate is None:
                self.counters.skipped_events += 1
                return
            self.ctx.linkstate.set_link_factor(rid, 1.0)
            self.health.mark_up("link", rid, now)
        elif ev.kind == "server_down":
            self.health.mark_down("server", rid, now)
            gpus = set(self.ctx.built.server_gpus.get(rid, ()))
            for engine in self._engines:
                engine.on_server_down(now, rid, gpus)
        elif ev.kind == "server_up":
            self.health.mark_up("server", rid, now)
            gpus = set(self.ctx.built.server_gpus.get(rid, ()))
            for engine in self._engines:
                engine.on_server_up(now, rid, gpus)

    def _end_storm(self, rid: int) -> None:
        self.health.mark_up("switch", rid, self.now)
        dp = self._dataplanes.get(rid)
        if dp is not None:
            dp.release_seized()
        self._notify_switch(rid)

    def _notify_switch(self, rid: int) -> None:
        """Let engines drop cached comm pricing that involved ``rid``."""
        for engine in self._engines:
            engine.on_switch_event(rid)

    # -- queries used by the engine (ground truth) --------------------------

    def switch_faulted(self, switch: int) -> bool:
        return self.health.is_faulted("switch", switch)

    def gpus_blocked(self, gpus) -> bool:
        """True if any GPU's server is ground-truth failed."""
        return any(
            self.health.is_faulted("server", self._gpu_server.get(g, -1))
            for g in gpus
        )

    def detected_down_gpus(self, gpus) -> set[int]:
        """GPUs whose server the control plane currently believes dead."""
        down = self.health.detected_down("server")
        return {g for g in gpus if self._gpu_server.get(g, -1) in down}

    def backoff(self, attempt: int) -> float:
        """Seeded exponential-backoff-with-jitter delay for a retry."""
        u = float(self.rng.random())
        return self.retry.delay(attempt, u)

    # -- reduction ----------------------------------------------------------

    def finalize(self, now: float, metrics: "ServingMetrics") -> None:
        """Attach fault statistics to the run's metrics.

        A deliberately empty plan leaves ``metrics.fault_stats`` as
        ``None`` so fault-free runs stay byte-identical to a build
        without the faults subsystem at all.
        """
        if not self.plan:
            return
        from repro.serving.metrics import FaultStats

        slot_exhausted = self.counters.slot_exhausted
        for dp in self._dataplanes.values():
            slot_exhausted += int(dp.counters().get("drops_no_slot", 0))
        metrics.fault_stats = FaultStats(
            faults_injected=self.counters.faults_injected,
            failovers=self.health.failovers,
            requests_lost=self.counters.requests_lost,
            kv_retries=self.counters.kv_retries,
            kv_exhausted=self.counters.kv_exhausted,
            prefill_redos=self.counters.prefill_redos,
            slot_exhausted=slot_exhausted,
            replans=self.counters.replans,
            episodes=len(self.health.episodes),
            mttr_s=self.health.mttr(),
            degraded_seconds=self.health.degraded_seconds(now),
        )
