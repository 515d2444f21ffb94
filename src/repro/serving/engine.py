"""Discrete-event serving simulator: disaggregated prefill/decode on a
heterogeneous network.

Mesoscopic granularity (the HPC-guide trade-off): events are *prefill
batches*, *decode iterations* and *KV transfers*, never packets. Each
event's duration comes from the fitted compute model (Eqs. 12-13) plus
the communication estimators (Eqs. 5-11) priced against the **live** link
state, so congestion feeds back into iteration times; conversely every
network activity registers its sustained load on the links it occupies,
so concurrent activities (prefill sync, decode sync, KV transfers,
injected background bursts) contend for the same bandwidth.

Continuous batching follows Orca: prefill batches are formed from the
queue up to a token budget; the decode batch is re-formed at every
iteration boundary, admitting waiting requests whenever KV memory allows.

Communication scheduling per system:

* baselines (ring / INA flavours) — re-run the Eq. 7 static selection
  each pass against current link state (NCCL/SwitchML behaviour);
* HeroServe — route every synchronisation step through the
  :class:`~repro.core.controller.CentralController`'s load-aware policy
  tables, and `tick` the controller on its monitoring cadence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.context import CommContext
from repro.comm.latency import (
    DEFAULT_N_SLOTS,
    SchemeKind,
    allreduce_bytes,
    price_group_step,
    sync_steps_per_pass,
)
from repro.comm.pipeline import (
    decode_activation_bytes,
    pipeline_sync_time,
    prefill_activation_bytes,
)
from repro.core.controller import CentralController
from repro.core.kvtransfer import estimate_kv_transfer_time, kv_transfer_flows
from repro.core.objective import SlaSpec
from repro.core.plan import Plan
from repro.llm.batch import BatchSpec
from repro.llm.costmodel import CostModelBank
from repro.llm.memory import MemoryBudget
from repro.llm.models import ModelConfig
from repro.obs.logging_config import get_logger
from repro.obs.observer import NULL_OBSERVER
from repro.serving.metrics import ServingMetrics
from repro.serving.request import RequestPhase, RequestState
from repro.network.topology import LinkKind
from repro.workloads.traces import Trace
from repro.sim.eventqueue import EventQueue

log = get_logger(__name__)

#: Without a controller there is no monitoring cadence; sample link
#: gauges every Nth EWMA poll instead so baselines stay observable
#: without a per-iteration Python sweep over the fabric.
_BASELINE_LINK_SAMPLE_EVERY = 16

#: Slowdown of an INA step whose aggregation switch is ground-truth dead:
#: packets blackhole, senders burn retransmission timeouts. Systems with
#: no ring fallback (DS-SwitchML/DS-ATP) pay this for the whole outage;
#: the hybrid scheduler pays it only until detection fails the group over.
INA_TIMEOUT_FACTOR = 20.0


@dataclass
class EngineConfig:
    """Continuous-batching and simulation knobs."""

    max_prefill_requests: int = 16
    max_prefill_tokens: int = 16384
    max_decode_batch: int = 64
    #: decode comm estimates are recomputed every N iterations (they only
    #: drift with link load, which changes slowly relative to iterations)
    comm_refresh_every: int = 8
    #: controller monitoring cadence (seconds)
    controller_period: float = 0.05
    #: simulation horizon beyond the last arrival (seconds)
    drain_time: float = 300.0
    r_frac: float = 0.65
    #: observability sink; the shared no-op default records nothing and
    #: leaves results byte-identical to an unobserved run
    observer: object = NULL_OBSERVER
    #: extra registered collectives (e.g. ("ring-2stage", "tree")) whose
    #: policies the online scheduler considers alongside the plan's scheme
    extra_schemes: tuple[str, ...] = ()

    # -- counterfactual perturbations (repro.obs.whatif) ---------------
    # Every default below is an exact no-op: a default-valued config
    # leaves the simulation byte-identical to one without these fields.
    #: ``((link_class, factor), ...)`` capacity scales applied to the
    #: run's LinkLoadTracker at simulator construction; selectors are
    #: Topology.link_classes() names (or raw kinds), factor > 1 = upgrade
    link_scale: tuple[tuple[str, float], ...] = ()
    #: speedups (>1 = faster) dividing the fitted compute/transfer times
    prefill_compute_scale: float = 1.0
    decode_compute_scale: float = 1.0
    kv_time_scale: float = 1.0
    #: override the INA switch SRAM slot budget used when *statically*
    #: pricing plan-time policies (None keeps the scheme default)
    n_slots: int | None = None


class ServingSimulator:
    """One serving deployment executing a trace."""

    def __init__(
        self,
        ctx: CommContext,
        plan: Plan,
        model: ModelConfig,
        bank: CostModelBank,
        sla: SlaSpec,
        trace: Trace | None = None,
        controller: CentralController | None = None,
        config: EngineConfig | None = None,
        queue: EventQueue | None = None,
        faults=None,
        replanner=None,
    ) -> None:
        if ctx.linkstate is None:
            raise ValueError(
                "ServingSimulator needs a CommContext with a LinkLoadTracker"
            )
        self.ctx = ctx
        self.plan = plan
        self.model = model
        self.bank = bank
        self.sla = sla
        self.trace = trace
        self.controller = controller
        self.cfg = config or EngineConfig()
        self.obs = self.cfg.observer or NULL_OBSERVER
        # Counterfactual link upgrades (what-if resimulation). scale_links
        # *sets* absolute factors, so replicas sharing one tracker cannot
        # compound the scale.
        for selector, factor in self.cfg.link_scale:
            ctx.linkstate.scale_class(selector, factor)
        self._n_slots = (
            DEFAULT_N_SLOTS if self.cfg.n_slots is None else self.cfg.n_slots
        )
        #: host wall-clock profiler carried by the observer; read
        #: independently of ``obs.enabled`` so a profile-only
        #: NullObserver times the hot path without span overhead
        self._profiler = self.obs.profiler
        self._poll_counter = 0

        # A fleet shares one queue (and one link tracker) across
        # replicas so their traffic contends; standalone use gets its own.
        self.queue = queue if queue is not None else EventQueue()
        self.metrics = ServingMetrics(sla=sla)

        # -- cluster state
        self.prefill_stages = [list(s) for s in plan.prefill.stages]
        self.decode_stages = [list(s) for s in plan.decode.stages]
        self._prefill_hw = ctx.group_hardware(
            [g for s in self.prefill_stages for g in s]
        )
        self._decode_hw = ctx.group_hardware(
            [g for s in self.decode_stages for g in s]
        )
        topo = ctx.built.topology
        dec_min_mem = min(
            topo.nodes[g].memory_bytes
            for s in self.decode_stages
            for g in s
        )
        self.kv_budget = MemoryBudget(
            model,
            plan.parallel.p_tens_decode,
            plan.parallel.p_pipe_decode,
            dec_min_mem,
            r_frac=self.cfg.r_frac,
        )
        self.kv_capacity = self.kv_budget.max_cached_tokens()
        self.kv_used = 0

        # -- queues / flags
        self.prefill_queue: list[RequestState] = []
        self.prefill_busy = False
        self.decode_pending: list[RequestState] = []
        self.decode_active: list[RequestState] = []
        self.decode_busy = False
        self._decode_comm_cache: tuple[int, float] | None = None
        self._decode_footprints: list[tuple[tuple[int, ...], float]] = []
        self._decode_decisions: list[dict] = []
        self._decode_iter_counter = 0
        self._eth_links = np.where(
            ctx.built.topology.kind_array() == int(LinkKind.ETHERNET)
        )[0]

        # -- fault tolerance (None keeps the fault-free fast path)
        self.faults = faults
        self._prefill_down = False
        self._decode_down = False
        self._prefill_gpu_set = {g for s in self.prefill_stages for g in s}
        self._decode_gpu_set = {g for s in self.decode_stages for g in s}
        #: in-flight work tracked for cancellation on server failure
        self._prefill_inflight: tuple | None = None
        self._decode_inflight: tuple | None = None
        self._kv_inflight: list[dict] = []
        if faults is not None:
            faults.attach_engine(self)

        # -- online replanning (None keeps the replan-free fast path)
        self.replanner = replanner
        #: True while a plan transition quiesces/migrates: no new
        #: prefill batch or decode iteration may start (in-flight ones
        #: finish; nothing is dropped)
        self.replan_hold = False
        if replanner is not None:
            replanner.attach(self)

    # ------------------------------------------------------------------
    # communication pricing
    # ------------------------------------------------------------------

    def _contention(self) -> float:
        """Smoothed Ethernet utilisation feeding ATP's fallback model.

        Uses the EWMA view (the polled hardware counters), not the
        instantaneous load, so a single in-flight transfer does not read
        as full contention.
        """
        util = self.ctx.linkstate.ewma_utilization()[self._eth_links]
        if util.size == 0:
            return 0.0
        return float(np.clip(util.mean(), 0.0, 1.0))

    def _phase_comm_time(
        self,
        stages: list[list[int]],
        tokens: int,
        activation_bytes: int,
        plan_comm: tuple,
    ) -> tuple[float, list[tuple[tuple[int, ...], float]], list[dict]]:
        """(total sync time, [(links, bytes)], decisions) for one pass.

        With a controller (HeroServe) every group's step is routed
        through the load-aware policy tables. Without one, the group
        executes its *plan-time* policy (mode + switch fixed at
        deployment, as real static systems do), priced at the live link
        bandwidths.

        ``decisions`` carries per-group (policy, mode, step time, steps,
        bytes) records for the observability layer — including the most
        utilised link of the policy's footprint at decision time, the
        congestion it priced against — and is built only when an
        observer is attached.
        """
        data = allreduce_bytes(self.model, tokens)
        steps = sync_steps_per_pass(self.model, len(stages))
        total = 0.0
        footprints: list[tuple[tuple[int, ...], float]] = []
        decisions: list[dict] = []
        observing = self.obs.enabled
        if observing:
            # Decision-time congestion view: loads registered by earlier
            # passes, before this pass adds its own.
            ls_util = self.ctx.linkstate.utilization()
            ls_kinds = self.ctx.linkstate.kind_names()
        contention = self._contention()
        for grp, planned in zip(stages, plan_comm):
            if self.controller is not None and len(grp) > 1:
                dec = self.controller.decide(grp, data)
                step_t, links = dec.step_time, dec.links
                policy_name, mode = dec.policy.name, dec.policy.mode
                switch = dec.policy.switch
                if (
                    self.faults is not None
                    and dec.policy.switch is not None
                    and self.faults.switch_faulted(dec.policy.switch)
                ):
                    # Selected before detection caught up: the group
                    # stalls on retransmissions until the controller
                    # masks the dead switch at the next health poll.
                    step_t *= INA_TIMEOUT_FACTOR
            else:
                step_t = price_group_step(
                    self.ctx,
                    grp,
                    self.plan.scheme,
                    planned.mode,
                    planned.ina_switch,
                    data,
                    n_slots=self._n_slots,
                    contention=contention,
                )
                if (
                    self.faults is not None
                    and planned.ina_switch is not None
                    and self.faults.switch_faulted(planned.ina_switch)
                ):
                    # Static systems have no ring fallback: every step
                    # through the dead switch pays the timeout stall.
                    step_t *= INA_TIMEOUT_FACTOR
                links = planned.links
                mode = planned.mode
                switch = planned.ina_switch
                policy_name = (
                    f"{mode}@{planned.ina_switch}"
                    if planned.ina_switch is not None
                    else mode
                )
                if observing:
                    # Controller-routed groups are counted inside the
                    # scheduler; static plan-time policies are counted
                    # here so the selection metric covers baselines too.
                    self.obs.policy_selected(tuple(grp), policy_name, mode)
            total += steps * step_t
            if links:
                footprints.append((tuple(links), float(data * steps)))
            if observing:
                b_link = None
                b_kind = ""
                b_util = 0.0
                if links:
                    ids = np.asarray(links, dtype=np.int64)
                    u = ls_util[ids]
                    j = int(u.argmax())
                    b_link = int(ids[j])
                    b_util = float(u[j])
                    b_kind = ls_kinds[b_link]
                decisions.append(
                    {
                        "group": tuple(grp),
                        "policy": policy_name,
                        "mode": mode,
                        "step_time": step_t,
                        "steps": steps,
                        "data_bytes": float(data),
                        "switch": switch,
                        "bottleneck_link": b_link,
                        "bottleneck_kind": b_kind,
                        "bottleneck_util": b_util,
                    }
                )
        if len(stages) > 1:
            total += pipeline_sync_time(self.ctx, stages, activation_bytes)
        return total, footprints, decisions

    def _emit_allreduce_spans(
        self,
        phase: str,
        comm_start: float,
        decisions: list[dict],
        request_ids: tuple[int, ...] = (),
    ) -> None:
        """Lay each group's sync slice inside the owning pass span.

        Groups synchronise back-to-back in the pass pricing (the total is
        the sum over groups), so their spans stack sequentially from the
        end of the compute slice — nested, by construction, within the
        prefill/decode span that owns them.
        """
        t = comm_start
        for d in decisions:
            dur = d["steps"] * d["step_time"]
            self.obs.allreduce_span(
                phase,
                t,
                dur,
                d["group"],
                d["policy"],
                d["mode"],
                d["steps"],
                d["data_bytes"],
                request_ids=request_ids,
                bottleneck_link=d["bottleneck_link"],
                bottleneck_kind=d["bottleneck_kind"],
                bottleneck_util=d["bottleneck_util"],
                switch=d["switch"],
            )
            t += dur

    def _register_pass_load(
        self,
        footprints: list[tuple[tuple[int, ...], float]],
        duration: float,
    ) -> list[int]:
        """Register each footprint's mean rate for the pass duration."""
        handles = []
        ls = self.ctx.linkstate
        with self._profiler.phase("engine.link_load"):
            for links, total_bytes in footprints:
                rate = total_bytes / max(duration, 1e-9)
                handles.append(ls.register(list(links), rate))
        return handles

    def _release(self, handles: list[int]) -> None:
        # Tolerant release: failover cancellation may race an already
        # completed pass, and a double release must not kill the run.
        with self._profiler.phase("engine.link_load"):
            for h in handles:
                self.ctx.linkstate.release(h, strict=False)

    # ------------------------------------------------------------------
    # prefill
    # ------------------------------------------------------------------

    def _on_arrival(self, req: RequestState) -> None:
        if self.obs.enabled:
            self.obs.request_arrival(self.queue.now, req)
        if self.replanner is not None:
            self.replanner.on_arrival(self.queue.now, req)
        self.prefill_queue.append(req)
        self._try_start_prefill()

    def _form_prefill_batch(self) -> list[RequestState]:
        batch: list[RequestState] = []
        tokens = 0
        while self.prefill_queue:
            nxt = self.prefill_queue[0]
            if batch and (
                len(batch) >= self.cfg.max_prefill_requests
                or tokens + nxt.input_len > self.cfg.max_prefill_tokens
            ):
                break
            batch.append(self.prefill_queue.pop(0))
            tokens += nxt.input_len
        return batch

    def _try_start_prefill(self) -> None:
        if (
            self.prefill_busy
            or self._prefill_down
            or self.replan_hold
            or not self.prefill_queue
        ):
            return
        with self._profiler.phase("engine.batch_formation"):
            batch = self._form_prefill_batch()
        self.prefill_busy = True
        spec = BatchSpec(
            tuple(r.input_len for r in batch),
            tuple(r.output_len for r in batch),
        )
        for r in batch:
            r.phase = RequestPhase.PREFILLING
            r.prefill_start = self.queue.now
        t_c = self.bank.group_prefill_time(
            self._prefill_hw, spec, self.plan.parallel.p_tens_prefill
        )
        if self.cfg.prefill_compute_scale != 1.0:
            t_c /= self.cfg.prefill_compute_scale
        t_n, footprints, decisions = self._phase_comm_time(
            self.prefill_stages,
            spec.k_in,
            prefill_activation_bytes(self.model, spec.k_in),
            self.plan.prefill.comm,
        )
        duration = t_c + t_n
        handles = self._register_pass_load(footprints, duration)
        self.metrics.prefill_batches += 1
        if self.obs.enabled:
            now = self.queue.now
            rids = tuple(r.request_id for r in batch)
            self.obs.prefill_span(
                now, duration, len(batch), spec.k_in, t_c, t_n,
                request_ids=rids,
            )
            self._emit_allreduce_spans(
                "prefill", now + t_c, decisions, rids
            )
        ev = self.queue.schedule(
            duration, self._prefill_done, batch, spec, handles,
            tag="prefill_done",
        )
        self._prefill_inflight = (ev, batch, handles)

    def _prefill_done(
        self,
        batch: list[RequestState],
        spec: BatchSpec,
        handles: list[int],
    ) -> None:
        self._prefill_inflight = None
        self._release(handles)
        now = self.queue.now
        for r in batch:
            r.first_token_time = now
            r.phase = RequestPhase.KV_TRANSFER
        self.prefill_busy = False
        self._tick_controller()
        self._try_start_prefill()
        # KV transfer of the whole batch to the decode cluster.
        self._start_kv_transfer(batch, spec, attempt=0)

    def _start_kv_transfer(
        self,
        batch: list[RequestState],
        spec: BatchSpec,
        attempt: int,
        waited: float = 0.0,
    ) -> None:
        """Hand the batch's KV to the decode cluster, tolerating faults.

        While the decode cluster is ground-truth unreachable (failed
        server) the transfer backs off exponentially with jitter and
        retries — the prefill side still holds the KV until the handoff
        completes — within the retry policy's *budget* (max attempts
        and total-backoff ceiling); a batch that exhausts the budget is
        failed outright rather than retried forever against a dead
        pairing. During a recovery hold-down, transfers re-pair around
        the decode GPUs the control plane still believes dead.
        """
        now = self.queue.now
        if self.faults is not None and self.faults.gpus_blocked(
            self._decode_gpu_set
        ):
            policy = self.faults.retry
            if (
                attempt >= policy.max_attempts
                or waited >= policy.total_backoff_cap_s
            ):
                self._fail_kv_transfer(batch, attempt)
                return
            delay = self.faults.backoff(attempt)
            self.faults.counters.kv_retries += 1
            if self.obs.enabled:
                self.obs.kv_retry(
                    now,
                    attempt,
                    delay,
                    request_ids=tuple(r.request_id for r in batch),
                )
            self.queue.schedule(
                delay,
                self._start_kv_transfer,
                batch,
                spec,
                attempt + 1,
                waited + delay,
                tag="kv_retry",
            )
            return
        exclude: set[int] = set()
        if self.faults is not None:
            exclude = self.faults.detected_down_gpus(self._decode_gpu_set)
        t_f = estimate_kv_transfer_time(
            self.ctx,
            self.model,
            spec.k_in,
            self.prefill_stages,
            self.decode_stages,
            exclude_gpus=exclude,
        )
        # Counterfactual "KV path k x faster" = the *effective* payload
        # shrinks by k (compression / a dedicated lane): the transfer
        # completes k x sooner at the ORIGINAL flow rate. Scaling only
        # t_f would register a super-physical nbytes/t_f rate and
        # congest every concurrent collective sharing the leader links.
        kv_scale = self.cfg.kv_time_scale
        if kv_scale != 1.0:
            t_f /= kv_scale
        if t_f > 0:
            # Register each prefill->decode pair's own byte rate on its
            # own path (registering the total on the union would multiply
            # the load by the pair count and poison the contention view).
            handles = []
            for links, nbytes in kv_transfer_flows(
                self.ctx,
                self.model,
                spec.k_in,
                self.prefill_stages,
                self.decode_stages,
                exclude_gpus=exclude,
            ):
                if links:
                    handles.append(
                        self.ctx.linkstate.register(
                            links, nbytes / (kv_scale * t_f)
                        )
                    )
            if self.obs.enabled:
                self.obs.kv_transfer_span(
                    now, t_f, len(batch), spec.k_in,
                    request_ids=tuple(r.request_id for r in batch),
                )
            ev = self.queue.schedule(
                t_f, self._kv_done, batch, handles, tag="kv_done"
            )
            self._kv_inflight.append(
                {
                    "event": ev,
                    "batch": batch,
                    "spec": spec,
                    "handles": handles,
                    "attempt": attempt,
                    "waited": waited,
                }
            )
        else:
            self._kv_done(batch, [])

    def _fail_kv_transfer(
        self, batch: list[RequestState], attempt: int
    ) -> None:
        """Retry budget exhausted: fail the batch's requests for good.

        The decode pairing stayed ground-truth dead through the whole
        retry budget; the prefill side gives up holding the KV and the
        requests are lost (counted distinctly from transient
        requeue-style losses via ``kv_exhausted``).
        """
        now = self.queue.now
        self.metrics.dropped += len(batch)
        self.faults.counters.requests_lost += len(batch)
        self.faults.counters.kv_exhausted += len(batch)
        log.warning(
            "KV-transfer retry budget exhausted at t=%.3f after %d "
            "attempts: dropping %d requests",
            now,
            attempt,
            len(batch),
        )
        if self.obs.enabled:
            for r in batch:
                self.obs.request_dropped(now, r)

    def _kv_done(self, batch: list[RequestState], handles: list[int]) -> None:
        if self._kv_inflight:
            self._kv_inflight = [
                rec for rec in self._kv_inflight if rec["batch"] is not batch
            ]
        self._release(handles)
        now = self.queue.now
        for r in batch:
            r.kv_done_time = now
            r.phase = RequestPhase.DECODE_WAIT
            self.decode_pending.append(r)
        self._try_start_decode()

    # ------------------------------------------------------------------
    # decode
    # ------------------------------------------------------------------

    def _admit_decode(self) -> None:
        """Admit pending requests while KV memory and batch width allow."""
        while self.decode_pending and len(
            self.decode_active
        ) < self.cfg.max_decode_batch:
            nxt = self.decode_pending[0]
            if self.kv_used + nxt.kv_tokens > self.kv_capacity:
                break
            self.decode_pending.pop(0)
            self.kv_used += nxt.kv_tokens
            nxt.phase = RequestPhase.DECODING
            nxt.decode_start = self.queue.now
            self.decode_active.append(nxt)

    def _decode_comm_time(self, q: int) -> float:
        """Cached decode-pass sync time (refreshed periodically)."""
        self._decode_iter_counter += 1
        if (
            self._decode_comm_cache is None
            or self._decode_comm_cache[0] != q
            or self._decode_iter_counter % self.cfg.comm_refresh_every == 0
        ):
            t_n, self._decode_footprints, self._decode_decisions = (
                self._phase_comm_time(
                    self.decode_stages,
                    q,
                    decode_activation_bytes(self.model, q),
                    self.plan.decode.comm,
                )
            )
            self._decode_comm_cache = (q, t_n)
        return self._decode_comm_cache[1]

    def _try_start_decode(self) -> None:
        if self.decode_busy or self._decode_down or self.replan_hold:
            return
        with self._profiler.phase("engine.batch_formation"):
            self._admit_decode()
        if not self.decode_active:
            return
        self.decode_busy = True
        q = len(self.decode_active)
        context = sum(
            r.input_len + r.tokens_generated for r in self.decode_active
        )
        t_c = self.bank.group_decode_time(
            self._decode_hw,
            q,
            context,
            self.plan.parallel.p_tens_decode,
            self.plan.parallel.p_pipe_decode,
        )
        if self.cfg.decode_compute_scale != 1.0:
            t_c /= self.cfg.decode_compute_scale
        t_n = self._decode_comm_time(q)
        duration = t_c + t_n
        handles = self._register_pass_load(self._decode_footprints, duration)
        self.metrics.decode_iterations += 1
        if self.obs.enabled:
            now = self.queue.now
            rids = tuple(r.request_id for r in self.decode_active)
            self.obs.decode_span(
                now, duration, q, context, t_c, t_n, request_ids=rids
            )
            self._emit_allreduce_spans(
                "decode", now + t_c, self._decode_decisions, rids
            )
        ev = self.queue.schedule(
            duration, self._decode_iter_done, handles, tag="decode_iter"
        )
        self._decode_inflight = (ev, handles)

    def _decode_iter_done(self, handles: list[int]) -> None:
        self._decode_inflight = None
        self._release(handles)
        now = self.queue.now
        observing = self.obs.enabled
        still_active: list[RequestState] = []
        for r in self.decode_active:
            r.tokens_generated += 1
            if r.tokens_generated >= r.output_len:
                r.finish_time = now
                r.phase = RequestPhase.FINISHED
                self.kv_used -= r.kv_tokens
                self.metrics.record_finish(r)
                if observing:
                    self.obs.request_finished(now, r)
            else:
                still_active.append(r)
        self.decode_active = still_active
        self.metrics.record_memory(now, self.kv_used, self.kv_capacity)
        if observing:
            self.obs.kv_sample(now, self.kv_used, self.kv_capacity)
        self.decode_busy = False
        self._tick_controller()
        self._try_start_decode()

    # ------------------------------------------------------------------
    # online replanning (driven by repro.core.replan.OnlineReplanner)
    # ------------------------------------------------------------------

    def apply_plan(self, new_plan: Plan) -> None:
        """Swap the deployment onto ``new_plan`` (a replan cutover).

        Request state survives: queued requests keep their positions,
        admission-waiting and decoding requests keep their (migrated)
        KV. The hardware views, KV budget and fault gates are
        recomputed for the new placement; ``kv_used`` is carried over,
        so a cutover to a smaller decode pool simply blocks admission
        until enough requests finish.
        """
        self.plan = new_plan
        self.prefill_stages = [list(s) for s in new_plan.prefill.stages]
        self.decode_stages = [list(s) for s in new_plan.decode.stages]
        self._prefill_hw = self.ctx.group_hardware(
            [g for s in self.prefill_stages for g in s]
        )
        self._decode_hw = self.ctx.group_hardware(
            [g for s in self.decode_stages for g in s]
        )
        topo = self.ctx.built.topology
        dec_min_mem = min(
            topo.nodes[g].memory_bytes
            for s in self.decode_stages
            for g in s
        )
        self.kv_budget = MemoryBudget(
            self.model,
            new_plan.parallel.p_tens_decode,
            new_plan.parallel.p_pipe_decode,
            dec_min_mem,
            r_frac=self.cfg.r_frac,
        )
        self.kv_capacity = self.kv_budget.max_cached_tokens()
        self._decode_comm_cache = None
        self._prefill_gpu_set = {g for s in self.prefill_stages for g in s}
        self._decode_gpu_set = {g for s in self.decode_stages for g in s}
        if self.faults is not None:
            self._prefill_down = self.faults.gpus_blocked(
                self._prefill_gpu_set
            )
            self._decode_down = self.faults.gpus_blocked(
                self._decode_gpu_set
            )

    # ------------------------------------------------------------------
    # fault tolerance (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while a server failure blocks one of the phases."""
        return self._prefill_down or self._decode_down

    def on_switch_event(self, switch: int) -> None:
        """Invalidate cached comm pricing after a switch state change."""
        self._decode_comm_cache = None

    def on_server_down(self, now: float, server: int, gpus: set[int]) -> None:
        """Fail-stop a server: cancel its in-flight work, requeue victims.

        Requests whose prefill was running, or whose KV cache lived on
        the failed decode server, lose their progress and redo prefill;
        in-flight KV transfers time out and retry with backoff (the
        prefill side still holds the data).
        """
        lost: list[RequestState] = []
        if gpus & self._prefill_gpu_set:
            self._prefill_down = True
            if self._prefill_inflight is not None:
                ev, batch, handles = self._prefill_inflight
                ev.cancel()
                self._release(handles)
                self._prefill_inflight = None
                self.prefill_busy = False
                lost.extend(batch)
        if gpus & self._decode_gpu_set:
            self._decode_down = True
            self._decode_comm_cache = None
            if self._decode_inflight is not None:
                ev, handles = self._decode_inflight
                ev.cancel()
                self._release(handles)
                self._decode_inflight = None
                self.decode_busy = False
            # KV cache on the decode cluster is gone for every request
            # decoding or waiting there: back to prefill they go.
            for r in self.decode_active:
                self.kv_used -= r.kv_tokens
            lost.extend(self.decode_active)
            lost.extend(self.decode_pending)
            self.decode_active = []
            self.decode_pending = []
            # In-flight KV transfers time out mid-handoff.
            inflight, self._kv_inflight = self._kv_inflight, []
            for rec in inflight:
                rec["event"].cancel()
                self._release(rec["handles"])
                self._start_kv_transfer(
                    rec["batch"],
                    rec["spec"],
                    rec["attempt"] + 1,
                    rec["waited"],
                )
        log.info(
            "server %d down at t=%.3f: %d requests requeued for "
            "prefill redo",
            server,
            now,
            len(lost),
        )
        if lost:
            self._requeue_lost(lost)
        if self.replanner is not None:
            self.replanner.on_server_down(now, gpus)

    def on_server_up(self, now: float, server: int, gpus: set[int]) -> None:
        """Resume gated phases once their servers are all back."""
        log.info("server %d recovered at t=%.3f", server, now)
        if gpus & self._prefill_gpu_set:
            self._prefill_down = self.faults is not None and (
                self.faults.gpus_blocked(self._prefill_gpu_set)
            )
            if not self._prefill_down:
                self._try_start_prefill()
        if gpus & self._decode_gpu_set:
            self._decode_down = self.faults is not None and (
                self.faults.gpus_blocked(self._decode_gpu_set)
            )
            self._decode_comm_cache = None
            if not self._decode_down:
                self._try_start_decode()

    def _requeue_lost(self, lost: list[RequestState]) -> None:
        """Reset victims to QUEUED (prefill redo) at the queue front."""
        nan = float("nan")
        for r in lost:
            r.phase = RequestPhase.QUEUED
            r.tokens_generated = 0
            r.prefill_start = nan
            r.first_token_time = nan
            r.kv_done_time = nan
            r.decode_start = nan
        if self.faults is not None:
            self.faults.counters.requests_lost += len(lost)
            self.faults.counters.prefill_redos += len(lost)
        if self.obs.enabled:
            self.obs.requests_requeued(
                self.queue.now,
                len(lost),
                request_ids=tuple(r.request_id for r in lost),
            )
        # Victims keep their arrival priority: redo from the queue front.
        self.prefill_queue[:0] = lost
        self._try_start_prefill()

    # ------------------------------------------------------------------
    # controller & main loop
    # ------------------------------------------------------------------

    def _tick_controller(self) -> None:
        with self._profiler.phase("engine.controller_tick"):
            if self.replanner is not None:
                self.replanner.on_tick(self.queue.now)
            if self.controller is not None:
                refreshed = self.controller.tick(self.queue.now)
                if self.obs.enabled:
                    self.obs.controller_tick(self.queue.now, refreshed)
                    if refreshed:
                        self.obs.sample_links(
                            self.queue.now, self.ctx.linkstate
                        )
                        self.obs.engine_tick(self.queue.now, self)
            else:
                # Baselines still poll link counters so EWMA views stay live.
                self.ctx.linkstate.poll()
                if self.obs.enabled:
                    self._poll_counter += 1
                    if self._poll_counter % _BASELINE_LINK_SAMPLE_EVERY == 0:
                        self.obs.sample_links(
                            self.queue.now, self.ctx.linkstate
                        )
                        self.obs.engine_tick(self.queue.now, self)

    def submit(self, tr) -> RequestState:
        """Accept one routed request *now* (fleet/router entry point)."""
        req = RequestState(trace=tr)
        self._on_arrival(req)
        return req

    @property
    def queued_requests(self) -> int:
        """Requests in flight or waiting on this replica — the router's
        least-loaded dispatch signal."""
        return (
            len(self.prefill_queue)
            + len(self.decode_pending)
            + len(self.decode_active)
            + (1 if self.prefill_busy else 0)
        )

    def run(self) -> ServingMetrics:
        """Execute the full trace; returns the filled metrics object."""
        if self.trace is None:
            raise ValueError("standalone run() requires a trace")
        log.info(
            "starting run: %d requests, horizon %.1fs, observer %s",
            len(self.trace),
            self.trace.duration + self.cfg.drain_time,
            "on" if self.obs.enabled else "off",
        )
        for tr in self.trace:
            req = RequestState(trace=tr)
            self.queue.schedule_at(
                tr.arrival_time, self._on_arrival, req, tag="arrival"
            )
        horizon = self.trace.duration + self.cfg.drain_time
        profiler = self._profiler
        with profiler.phase("engine.run"):
            self.queue.run(
                until=horizon, profiler=profiler if profiler.enabled else None
            )
        profiler.count("engine.requests_finished", self.metrics.n_finished)
        profiler.count("engine.events_fired", self.queue.events_fired)
        if self.faults is not None:
            self.faults.finalize(self.queue.now, self.metrics)
        if self.replanner is not None:
            self.replanner.finalize(self.metrics)
        if self.obs.enabled:
            self.obs.run_finished(self.queue.now, self)
        log.info(
            "run complete: %d finished, %d prefill batches, "
            "%d decode iterations, %d events fired",
            self.metrics.n_finished,
            self.metrics.prefill_batches,
            self.metrics.decode_iterations,
            self.queue.events_fired,
        )
        return self.metrics
