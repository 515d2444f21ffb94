"""Load-triggered online replanning with live KV migration.

Offline plans go stale: the controller's load-aware scheduling (paper
§IV) absorbs *communication* drift by re-routing collectives, but a
sustained workload shift — longer prompts, a rate surge, prefill/decode
contention — needs a different *placement*, and until this module the
only replanning trigger was a detected fault. Production P/D systems
treat replanning as a continuous control problem and price KV movement
over the real network when shifting work (see PAPERS.md: P/D control,
NetKV); this module closes that loop on the simulator:

* :class:`DriftDetector` watches the same signals the flight recorder
  samples — queue depths, per-kind link utilisation, the controller's
  policy cost tables, INA switch pressure — through
  :class:`~repro.faults.health.SustainedThreshold` hysteresis, so a
  spike never triggers, only sustained drift does.
* :class:`OnlineReplanner` owns the trigger policy (cooldown via
  :class:`~repro.faults.health.HoldDown`, a per-run replan budget, an
  oscillation guard that refuses to transition back to a plan we just
  left) and the transition state machine::

      idle -> quiesce -> migrate -> warm -> cutover -> idle
                 \\          \\         \\
                  +----------+---------+--> rollback -> idle

  Quiesce holds new prefill/decode work until in-flight passes drain;
  migrate moves the resident decode-side KV between the old and new
  placements as modelled flows over :mod:`repro.network` (reusing the
  Eq. 14/15 pairing machinery via
  :func:`~repro.core.kvtransfer.plan_kv_migration`, with the fault
  subsystem's seeded retry/backoff when the endpoints are unreachable);
  warm models pool startup; cutover atomically swaps the engine onto
  the new plan and releases the hold. A server fault that touches the
  migration endpoints rolls the transition back to the old plan —
  requests are requeued by the ordinary failover path, never dropped.

Everything here is armed explicitly (``--online-replan`` /
``simulate_trace(..., replan=...)``); an unarmed run never constructs
these objects and stays byte-identical to builds without this module.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.kvtransfer import plan_kv_migration
from repro.core.plan import ParallelConfig, Plan
from repro.core.planner import OfflinePlanner, PlannerConfig
from repro.faults.health import HoldDown, SustainedThreshold
from repro.llm.batch import BatchSpec
from repro.obs.logging_config import get_logger
from repro.obs.events import ReplanEvent
from repro.obs.observer import NULL_OBSERVER

log = get_logger(__name__)

__all__ = [
    "DriftDetector",
    "OnlineReplanner",
    "ReplanConfig",
    "ReplanStats",
    "TransitionRecord",
    "describe_plan",
    "plan_signature",
]


@dataclass(frozen=True)
class ReplanConfig:
    """Trigger thresholds and transition knobs for online replanning."""

    #: drift-detector cadence (simulation seconds between checks)
    check_period: float = 0.25
    #: prefill queue depth that counts as backlog pressure
    queue_high: int = 24
    #: decode admission queue depth that counts as KV/decode pressure
    pending_high: int = 96
    #: per-kind EWMA link utilisation that counts as fabric congestion
    link_high: float = 0.92
    #: growth factor of the controller's best policy cost (vs the
    #: deployment baseline) that counts as policy-table drift
    cost_drift_high: float = 2.0
    #: consecutive over-threshold checks before a signal fires
    sustain_checks: int = 8
    #: seconds after any trigger/transition before the next may fire
    cooldown_s: float = 15.0
    #: per-run budget of planner invocations (drift triggers)
    max_replans: int = 3
    #: a plan abandoned within this window cannot be transitioned back
    #: to (flap suppression)
    oscillation_window_s: float = 60.0
    #: arrivals window feeding the observed-workload forecast
    window_s: float = 20.0
    #: minimum arrivals in the window before a replan may solve
    min_window_requests: int = 8
    #: modelled new-pool warm-up between migration end and cutover
    warm_time_s: float = 0.25
    #: migration retry budget while endpoints are ground-truth blocked
    migrate_max_attempts: int = 6
    #: operator-pinned target configuration: when set, the replan solve
    #: is constrained to this parallelisation (a pre-approved fallback
    #: plan) instead of the full candidate sweep
    target_parallel: ParallelConfig | None = None


def plan_signature(plan: Plan) -> tuple:
    """Hashable placement identity used by the oscillation guard."""
    p = plan.parallel
    return (
        (p.p_tens_prefill, p.p_pipe_prefill, p.p_tens_decode,
         p.p_pipe_decode),
        tuple(tuple(s) for s in plan.prefill.stages),
        tuple(tuple(s) for s in plan.decode.stages),
    )


def describe_plan(plan: Plan) -> str:
    """Compact human-readable placement label for events and reports."""
    p = plan.parallel
    return (
        f"pTP{p.p_tens_prefill}xPP{p.p_pipe_prefill}/"
        f"dTP{p.p_tens_decode}xPP{p.p_pipe_decode}"
    )


class DriftDetector:
    """Hysteresis trigger over the flight-recorder signal set.

    Each named signal gets its own :class:`SustainedThreshold`; all
    signals advance on every check (so sustained counts keep building
    while another signal fires first) and the detector reports the
    first signal that crosses its sustain requirement.
    """

    def __init__(self, cfg: ReplanConfig) -> None:
        self.cfg = cfg
        self._signals: dict[str, SustainedThreshold] = {
            "prefill_backlog": SustainedThreshold(
                float(cfg.queue_high), cfg.sustain_checks
            ),
            "decode_backlog": SustainedThreshold(
                float(cfg.pending_high), cfg.sustain_checks
            ),
            "fabric_congestion": SustainedThreshold(
                cfg.link_high, cfg.sustain_checks
            ),
            "policy_cost_drift": SustainedThreshold(
                cfg.cost_drift_high, cfg.sustain_checks
            ),
            "switch_pressure": SustainedThreshold(
                cfg.link_high, cfg.sustain_checks
            ),
        }

    def update(self, values: dict[str, float]) -> str | None:
        """Feed one check's signal values; returns the fired reason."""
        fired: str | None = None
        for name, thr in self._signals.items():
            if thr.update(values.get(name, 0.0)) and fired is None:
                fired = name
        return fired

    def reset(self) -> None:
        for thr in self._signals.values():
            thr.reset()


@dataclass
class TransitionRecord:
    """One plan transition (completed or rolled back), for the report."""

    started_at: float
    reason: str
    from_plan: str
    to_plan: str
    quiesced_at: float = math.nan
    migrated_at: float = math.nan
    finished_at: float = math.nan
    outcome: str = "pending"  # "completed" | "rolled_back"
    detail: str = ""
    kv_tokens: int = 0
    kv_bytes: float = 0.0
    migrate_retries: int = 0
    requests_delayed: int = 0

    @property
    def duration(self) -> float:
        if math.isnan(self.finished_at):
            return math.nan
        return self.finished_at - self.started_at

    def to_dict(self) -> dict:
        return {
            "started_at": self.started_at,
            "reason": self.reason,
            "from_plan": self.from_plan,
            "to_plan": self.to_plan,
            "quiesced_at": self.quiesced_at,
            "migrated_at": self.migrated_at,
            "finished_at": self.finished_at,
            "outcome": self.outcome,
            "detail": self.detail,
            "kv_tokens": self.kv_tokens,
            "kv_bytes": self.kv_bytes,
            "migrate_retries": self.migrate_retries,
            "requests_delayed": self.requests_delayed,
        }


@dataclass
class ReplanStats:
    """Transition accounting folded into ``ServingMetrics.summary()``."""

    triggers: int = 0
    suppressed: int = 0
    transitions: int = 0
    rollbacks: int = 0
    migrate_retries: int = 0
    kv_bytes_moved: float = 0.0
    requests_delayed: int = 0
    transition_seconds: float = 0.0

    def summary(self) -> dict[str, float]:
        return {
            "replan_triggers": float(self.triggers),
            "replan_suppressed": float(self.suppressed),
            "replan_transitions": float(self.transitions),
            "replan_rollbacks": float(self.rollbacks),
            "replan_migrate_retries": float(self.migrate_retries),
            "replan_kv_bytes_moved": self.kv_bytes_moved,
            "replan_requests_delayed": float(self.requests_delayed),
            "replan_transition_seconds": self.transition_seconds,
        }


class OnlineReplanner:
    """Drift detection plus graceful plan transitions for one engine.

    Attach via ``ServingSimulator(..., replanner=...)``; the engine
    feeds arrivals (:meth:`on_arrival`), controller ticks
    (:meth:`on_tick`) and server faults (:meth:`on_server_down`), all
    behind ``is not None`` guards so unarmed runs pay nothing.
    """

    def __init__(
        self,
        config: ReplanConfig | None = None,
        planner: OfflinePlanner | None = None,
        observer=NULL_OBSERVER,
    ) -> None:
        self.cfg = config or ReplanConfig()
        self.obs = observer or NULL_OBSERVER
        self.planner = planner
        self.detector = DriftDetector(self.cfg)
        self.cooldown = HoldDown(self.cfg.cooldown_s)
        self.stats = ReplanStats()
        self.transitions: list[TransitionRecord] = []
        self.state = "idle"
        self._engine = None
        self._last_check = float("-inf")
        #: (arrival time, input_len, output_len) over the sliding window
        self._arrivals: deque[tuple[float, int, int]] = deque()
        #: (abandoned-at, signature) of plans we transitioned away from
        self._abandoned: list[tuple[float, tuple]] = []
        self._budget_warned = False
        self._switch_ports: dict[int, list[int]] | None = None
        # -- per-transition scratch
        self._gen = 0
        self._new_plan: Plan | None = None
        self._rec: TransitionRecord | None = None
        self._migrate_event = None
        self._warm_event = None
        self._migrate_handles: list[int] = []
        self._migrate_bytes = 0.0
        self._endpoint_gpus: set[int] = set()

    # -- wiring -------------------------------------------------------------

    def attach(self, engine) -> None:
        """Bind to one :class:`~repro.serving.engine.ServingSimulator`."""
        if self._engine is not None and self._engine is not engine:
            raise ValueError(
                "OnlineReplanner instances are per-engine; build one per "
                "replica"
            )
        self._engine = engine

    def _get_planner(self) -> OfflinePlanner:
        """The replan solver, built lazily over the engine's live ctx."""
        if self.planner is None:
            eng = self._engine
            self.planner = OfflinePlanner(
                eng.ctx,
                eng.model,
                eng.bank,
                eng.sla,
                eng.plan.scheme,
                config=PlannerConfig(),
            )
        return self.planner

    # -- signal collection ---------------------------------------------------

    def _ina_ports(self) -> dict[int, list[int]]:
        """Directed link ids incident to each INA-capable switch
        (mirrors the flight recorder's switch-pressure sampling)."""
        if self._switch_ports is None:
            built = self._engine.ctx.built
            ports: dict[int, list[int]] = {
                sw: [] for sw in built.ina_capable_switches()
            }
            for link in built.topology.links:
                if link.src in ports:
                    ports[link.src].append(link.link_id)
                if link.dst in ports:
                    ports[link.dst].append(link.link_id)
            self._switch_ports = ports
        return self._switch_ports

    def signals(self, now: float) -> dict[str, float]:
        """Current drift-signal values (the detector's inputs)."""
        eng = self._engine
        util = eng.ctx.linkstate.ewma_utilization()
        eth = eng._eth_links
        fabric = float(util[eth].max()) if len(eth) else 0.0
        pressure = 0.0
        for port_ids in self._ina_ports().values():
            if port_ids:
                pressure = max(pressure, float(util[port_ids].max()))
        cost_drift = 1.0
        if eng.controller is not None:
            cost_drift = eng.controller.policy_cost_drift()
        return {
            "prefill_backlog": float(len(eng.prefill_queue)),
            "decode_backlog": float(len(eng.decode_pending)),
            "fabric_congestion": fabric,
            "policy_cost_drift": cost_drift,
            "switch_pressure": pressure,
        }

    def on_arrival(self, now: float, req) -> None:
        """Feed one admitted request into the observed-workload window."""
        self._arrivals.append((now, req.input_len, req.output_len))
        cutoff = now - self.cfg.window_s
        while self._arrivals and self._arrivals[0][0] < cutoff:
            self._arrivals.popleft()

    def _observed_workload(
        self, now: float
    ) -> tuple[BatchSpec | None, float]:
        """Forecast (batch, rate) from the arrivals window.

        Mirrors ``Trace.representative_batch``: RMS input length (to
        preserve the attention cost's second moment) and mean output
        length, at the engine's prefill batch width.
        """
        cutoff = now - self.cfg.window_s
        while self._arrivals and self._arrivals[0][0] < cutoff:
            self._arrivals.popleft()
        if len(self._arrivals) < self.cfg.min_window_requests:
            return None, 0.0
        ins = np.array([a[1] for a in self._arrivals], dtype=float)
        outs = np.array([a[2] for a in self._arrivals], dtype=float)
        rms_in = int(round(float(np.sqrt(np.mean(ins**2)))))
        mean_out = int(round(float(outs.mean())))
        span = max(now - self._arrivals[0][0], 1e-9)
        rate = len(self._arrivals) / span
        q = min(len(self._arrivals), self._engine.cfg.max_prefill_requests)
        batch = BatchSpec.uniform(q, max(1, rms_in), max(1, mean_out))
        return batch, rate

    # -- trigger policy ------------------------------------------------------

    def on_tick(self, now: float) -> None:
        """Controller-tick entry point: advance detection, maybe trigger."""
        if self.state != "idle":
            return
        if now - self._last_check < self.cfg.check_period:
            return
        self._last_check = now
        reason = self.detector.update(self.signals(now))
        if reason is None:
            return
        if not self.cooldown.elapsed(now):
            return
        if self.stats.triggers >= self.cfg.max_replans:
            if not self._budget_warned:
                self._budget_warned = True
                self._suppress(now, reason, "replan_budget_exhausted")
            return
        self._trigger(now, reason)

    def _suppress(self, now: float, reason: str, why: str) -> None:
        self.stats.suppressed += 1
        self.cooldown.start(now)
        self.detector.reset()
        log.info("replan suppressed (%s) at t=%.3f: %s", reason, now, why)
        self._emit(now, "replan_suppressed", reason=reason, why=why)

    def _emit(self, now: float, event: str, **detail) -> None:
        if self.obs.active:
            self.obs.emit(ReplanEvent(now, event, detail))

    def _trigger(self, now: float, reason: str) -> None:
        eng = self._engine
        batch, rate = self._observed_workload(now)
        if batch is None:
            self._suppress(now, reason, "window_too_small")
            return
        self.stats.triggers += 1
        report = self._get_planner().plan(
            batch, rate, forced_parallel=self.cfg.target_parallel
        )
        new_plan = report.plan
        if new_plan is None:
            self._suppress(now, reason, "no_feasible_plan")
            return
        sig = plan_signature(new_plan)
        if sig == plan_signature(eng.plan):
            self._suppress(now, reason, "plan_unchanged")
            return
        horizon = now - self.cfg.oscillation_window_s
        if any(t >= horizon and s == sig for t, s in self._abandoned):
            self._suppress(now, reason, "oscillation")
            return
        self._begin_transition(now, new_plan, reason)

    # -- transition state machine --------------------------------------------

    def _begin_transition(
        self, now: float, new_plan: Plan, reason: str
    ) -> None:
        eng = self._engine
        self.state = "quiesce"
        self._gen += 1
        self._new_plan = new_plan
        self._migrate_bytes = 0.0
        self._migrate_event = None
        self._warm_event = None
        self._migrate_handles = []
        old_gpus = {g for s in eng.decode_stages for g in s}
        new_gpus = {g for s in new_plan.decode.stages for g in s}
        self._endpoint_gpus = old_gpus | new_gpus
        self._rec = TransitionRecord(
            started_at=now,
            reason=reason,
            from_plan=describe_plan(eng.plan),
            to_plan=describe_plan(new_plan),
        )
        eng.replan_hold = True
        log.info(
            "replan triggered (%s) at t=%.3f: %s -> %s",
            reason, now, self._rec.from_plan, self._rec.to_plan,
        )
        self._emit(
            now, "replan_triggered", reason=reason,
            from_plan=self._rec.from_plan, to_plan=self._rec.to_plan,
        )
        self._schedule_quiesce_poll()

    def _schedule_quiesce_poll(self) -> None:
        eng = self._engine
        eng.queue.schedule(
            eng.cfg.controller_period,
            self._poll_quiesce,
            self._gen,
            tag="replan_quiesce",
        )

    def _poll_quiesce(self, gen: int) -> None:
        """Wait (on the sim clock) for in-flight passes to drain.

        Self-scheduled: controller ticks ride on pass completions, which
        stop once the hold empties the pipeline, so the quiesce check
        must drive itself on the event queue.
        """
        if gen != self._gen or self.state != "quiesce":
            return
        eng = self._engine
        now = eng.queue.now
        if eng.degraded:
            self._rollback(now, "fault_during_quiesce")
            return
        if eng.prefill_busy or eng.decode_busy or eng._kv_inflight:
            self._schedule_quiesce_poll()
            return
        self.state = "migrate"
        self._rec.quiesced_at = now
        self._emit(now, "plan_transition", phase="quiesced")
        self._start_migration(attempt=0)

    def _resident_kv_tokens(self) -> int:
        """Tokens of KV resident on the old decode placement: decoding
        requests hold prompt + generated-so-far; admission-waiting
        requests hold their transferred prompt KV."""
        eng = self._engine
        active = sum(
            r.input_len + r.tokens_generated for r in eng.decode_active
        )
        pending = sum(r.input_len for r in eng.decode_pending)
        return active + pending

    def _start_migration(self, attempt: int) -> None:
        if self.state != "migrate":
            return
        eng = self._engine
        now = eng.queue.now
        tokens = self._resident_kv_tokens()
        self._rec.kv_tokens = tokens
        if eng.faults is not None and eng.faults.gpus_blocked(
            self._endpoint_gpus
        ):
            # A migration endpoint is ground-truth unreachable: back off
            # with the fault subsystem's seeded retry policy, bounded by
            # the migration's own attempt budget.
            if attempt >= self.cfg.migrate_max_attempts:
                self._rollback(now, "migrate_retry_exhausted")
                return
            delay = eng.faults.backoff(attempt)
            self.stats.migrate_retries += 1
            self._rec.migrate_retries += 1
            self._emit(
                now, "plan_transition", phase="migrate_retry",
                attempt=attempt, delay_s=delay,
            )
            eng.queue.schedule(
                delay,
                self._retry_migration,
                self._gen,
                attempt + 1,
                tag="replan_migrate_retry",
            )
            return
        duration, flows, moved = plan_kv_migration(
            eng.ctx,
            eng.model,
            tokens,
            eng.decode_stages,
            [list(s) for s in self._new_plan.decode.stages],
        )
        if moved <= 0.0 or duration <= 0.0:
            # Nothing crosses a link (no resident KV, or the new
            # placement keeps every owner): go straight to warm-up.
            self._rec.migrated_at = now
            self._enter_warm(now)
            return
        self._migrate_bytes = moved
        ls = eng.ctx.linkstate
        self._migrate_handles = [
            ls.register(links, nbytes / duration)
            for links, nbytes in flows
            if links
        ]
        self._emit(
            now, "plan_transition", phase="migrate",
            kv_tokens=tokens, kv_bytes=moved, eta_s=duration,
        )
        self._migrate_event = eng.queue.schedule(
            duration, self._migration_done, self._gen, tag="replan_migrate"
        )

    def _retry_migration(self, gen: int, attempt: int) -> None:
        if gen != self._gen or self.state != "migrate":
            return
        self._start_migration(attempt)

    def _migration_done(self, gen: int) -> None:
        if gen != self._gen or self.state != "migrate":
            return
        eng = self._engine
        now = eng.queue.now
        self._migrate_event = None
        self._release_migration_load()
        self._rec.migrated_at = now
        self._enter_warm(now)

    def _enter_warm(self, now: float) -> None:
        eng = self._engine
        self.state = "warm"
        self._emit(
            now, "plan_transition", phase="warm",
            warm_s=self.cfg.warm_time_s,
        )
        self._warm_event = eng.queue.schedule(
            self.cfg.warm_time_s, self._cutover, self._gen,
            tag="replan_warm",
        )

    def _held_requests(self) -> int:
        """Requests currently inside the engine (all delayed by a hold)."""
        eng = self._engine
        return (
            len(eng.prefill_queue)
            + len(eng.decode_pending)
            + len(eng.decode_active)
        )

    def _cutover(self, gen: int) -> None:
        if gen != self._gen or self.state != "warm":
            return
        eng = self._engine
        now = eng.queue.now
        self._warm_event = None
        old_sig = plan_signature(eng.plan)
        delayed = self._held_requests()
        eng.apply_plan(self._new_plan)
        self._finish_transition(now)
        self._abandoned.append((now, old_sig))
        rec = self._rec
        rec.finished_at = now
        rec.outcome = "completed"
        rec.kv_bytes = self._migrate_bytes
        rec.requests_delayed = delayed
        self.stats.transitions += 1
        self.stats.kv_bytes_moved += self._migrate_bytes
        self.stats.requests_delayed += delayed
        self.stats.transition_seconds += rec.duration
        log.info(
            "plan transition complete at t=%.3f (%.3fs, %.1f MB KV "
            "moved, %d requests delayed)",
            now, rec.duration, self._migrate_bytes / 1e6, delayed,
        )
        self._emit(
            now, "transition_complete", reason=rec.reason,
            from_plan=rec.from_plan, to_plan=rec.to_plan,
            duration_s=rec.duration, kv_bytes=rec.kv_bytes,
            requests_delayed=delayed,
        )
        eng._try_start_prefill()
        eng._try_start_decode()

    def _rollback(self, now: float, why: str) -> None:
        """Abort the transition: keep the old plan, release every hold.

        The engine's own failover path has already requeued any victims
        of the triggering fault; rollback only unwinds *transition*
        state, so no request is ever dropped here.
        """
        eng = self._engine
        if self._migrate_event is not None:
            self._migrate_event.cancel()
            self._migrate_event = None
        if self._warm_event is not None:
            self._warm_event.cancel()
            self._warm_event = None
        self._release_migration_load()
        rec = self._rec
        rec.finished_at = now
        rec.outcome = "rolled_back"
        rec.detail = why
        rec.requests_delayed = self._held_requests()
        self.stats.rollbacks += 1
        self.stats.requests_delayed += rec.requests_delayed
        self.stats.transition_seconds += rec.duration
        self._finish_transition(now)
        log.info(
            "plan transition rolled back at t=%.3f (%s); keeping %s",
            now, why, rec.from_plan,
        )
        self._emit(
            now, "transition_rollback", why=why,
            from_plan=rec.from_plan, to_plan=rec.to_plan,
            duration_s=rec.duration,
        )
        if not eng._prefill_down:
            eng._try_start_prefill()
        if not eng._decode_down:
            eng._try_start_decode()

    def _finish_transition(self, now: float) -> None:
        """Common state epilogue of cutover and rollback."""
        eng = self._engine
        self.state = "idle"
        self._gen += 1
        eng.replan_hold = False
        self.transitions.append(self._rec)
        self.cooldown.start(now)
        self.detector.reset()
        self._new_plan = None

    def _release_migration_load(self) -> None:
        handles, self._migrate_handles = self._migrate_handles, []
        ls = self._engine.ctx.linkstate
        for h in handles:
            ls.release(h, strict=False)

    # -- fault interaction ---------------------------------------------------

    def on_server_down(self, now: float, gpus: set[int]) -> None:
        """Engine callback after its own failover handling of a fault.

        A fault touching the migration endpoints (old or new decode
        placement) while a transition is in flight aborts it; the
        quiesce phase additionally rolls back on *any* engine
        degradation via its own poll.
        """
        if self.state in ("migrate", "warm") and (
            gpus & self._endpoint_gpus
        ):
            self._rollback(now, "fault_during_migration")

    # -- reduction -----------------------------------------------------------

    def finalize(self, metrics) -> None:
        """Attach transition accounting to the run's metrics.

        Armed runs always carry the ``replan_*`` keys (zeros included)
        so their presence marks "online replanning was on"; unarmed
        runs never reach this code and stay byte-identical.
        """
        metrics.replan_stats = self.stats.summary()
