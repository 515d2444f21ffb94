"""Serving metrics: TTFT/TPOT distributions, SLA attainment, memory.

The evaluation quantities of Section V:

* **SLA attainment** — fraction of finished requests meeting both the
  TTFT and TPOT bounds; the scalability experiments report the maximum
  per-GPU rate sustaining >= 90 % attainment.
* **latency** — mean/percentile TTFT and TPOT (Fig. 7b/d, Fig. 8 lower).
* **memory efficiency** — KV-cache utilisation over time (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.objective import SlaSpec
from repro.serving.request import RequestState

#: Attainment threshold used throughout the paper's scalability results.
SLA_ATTAINMENT_TARGET = 0.9


@dataclass
class MemorySample:
    """One KV-memory occupancy observation."""

    time: float
    used_tokens: int
    capacity_tokens: int

    @property
    def utilization(self) -> float:
        if self.capacity_tokens <= 0:
            return float("nan")
        return self.used_tokens / self.capacity_tokens


@dataclass
class FaultStats:
    """Fault/failover accounting attached by :mod:`repro.faults`.

    Present only when a (non-empty) fault plan ran — fault-free runs
    keep ``ServingMetrics.fault_stats`` as ``None`` so their summaries
    stay byte-identical to builds without the faults subsystem.
    """

    faults_injected: int = 0
    failovers: int = 0
    #: requests whose in-flight progress was lost to a server failure
    requests_lost: int = 0
    kv_retries: int = 0
    #: requests abandoned after exhausting the KV-transfer retry budget
    kv_exhausted: int = 0
    prefill_redos: int = 0
    slot_exhausted: int = 0
    replans: int = 0
    #: detected outage episodes (closed or still open at run end)
    episodes: int = 0
    mttr_s: float = float("nan")
    degraded_seconds: float = 0.0

    def summary(self) -> dict[str, float]:
        return {
            "faults_injected": float(self.faults_injected),
            "failovers": float(self.failovers),
            "requests_lost": float(self.requests_lost),
            "kv_retries": float(self.kv_retries),
            "kv_exhausted": float(self.kv_exhausted),
            "prefill_redos": float(self.prefill_redos),
            "slot_exhausted": float(self.slot_exhausted),
            "replans": float(self.replans),
            "fault_episodes": float(self.episodes),
            "mttr_s": self.mttr_s,
            "degraded_seconds": self.degraded_seconds,
        }


@dataclass
class RouterStats:
    """Fleet-router accounting: session residency, KV movement, QoE.

    Filled by :class:`~repro.serving.fleet.ReplicaFleet` as it routes;
    attached to :class:`~repro.serving.fleet.FleetMetrics` at run end.
    Counters only advance for session-tagged requests, so single-shot
    traces report all-zero router stats regardless of policy.
    """

    #: registry name of the policy that produced these numbers
    router: str = "jsq"
    #: first turns (no residency yet; excluded from the hit rate)
    new_sessions: int = 0
    #: follow-up turns routed to the replica already holding their KV
    affinity_hits: int = 0
    #: follow-up turns routed away from their KV-resident replica
    affinity_misses: int = 0
    #: misses that actually moved bytes (a zero-cost migration is free)
    kv_fetches: int = 0
    #: resident-KV bytes dragged across the fabric by misses
    kv_bytes_moved: float = 0.0
    #: resident-KV bytes hits kept in place (counterfactual transfer)
    kv_bytes_saved: float = 0.0
    #: total seconds follow-up turns waited on resident-KV fetches
    kv_fetch_wait_s: float = 0.0

    def hit_rate(self) -> float | None:
        """Affinity hit rate over follow-up turns.

        ``None`` on sessionless traces (no follow-up turns exist to hit
        or miss) — never NaN, which would poison JSON dumps and the
        HTML report's embedded data.
        """
        turns = self.affinity_hits + self.affinity_misses
        if turns == 0:
            return None
        return self.affinity_hits / turns

    def summary(self) -> dict[str, float]:
        """Flat ``router_*`` keys for the benchmark tables.

        ``router_affinity_hit_rate`` is omitted when undefined
        (sessionless trace); report renderers show "n/a" for the
        missing key.
        """
        out = {
            "router_new_sessions": float(self.new_sessions),
            "router_affinity_hits": float(self.affinity_hits),
            "router_affinity_misses": float(self.affinity_misses),
            "router_kv_fetches": float(self.kv_fetches),
            "router_kv_bytes_moved": self.kv_bytes_moved,
            "router_kv_bytes_saved": self.kv_bytes_saved,
            "router_kv_fetch_wait_s": self.kv_fetch_wait_s,
        }
        rate = self.hit_rate()
        if rate is not None:
            out["router_affinity_hit_rate"] = rate
        return out


@dataclass
class ServingMetrics:
    """Accumulator filled by the simulator, reduced after the run."""

    sla: SlaSpec
    finished: list[RequestState] = field(default_factory=list)
    memory_timeline: list[MemorySample] = field(default_factory=list)
    #: diagnostic counters
    prefill_batches: int = 0
    decode_iterations: int = 0
    dropped: int = 0
    #: set by the fault injector when a non-empty fault plan ran
    fault_stats: FaultStats | None = None
    #: flat ``cp_*`` critical-path budget keys, attached on the
    #: observer's ``RunFinished`` event when an
    #: :class:`~repro.obs.attribution.AttributionCollector` was present
    #: — ``None`` otherwise, keeping summaries byte-identical
    attribution_stats: dict[str, float] | None = None
    #: flat ``replan_*`` transition-accounting keys attached by the
    #: :class:`~repro.core.replan.OnlineReplanner` at run end — ``None``
    #: when online replanning is not armed, so plain runs stay
    #: byte-identical
    replan_stats: dict[str, float] | None = None

    def record_finish(self, req: RequestState) -> None:
        self.finished.append(req)

    def record_memory(
        self, time: float, used_tokens: int, capacity_tokens: int
    ) -> None:
        self.memory_timeline.append(
            MemorySample(time, used_tokens, capacity_tokens)
        )

    # -- reductions ---------------------------------------------------------

    def _arr(self, attr: str) -> np.ndarray:
        return np.array([getattr(r, attr) for r in self.finished])

    @property
    def n_finished(self) -> int:
        return len(self.finished)

    def attainment(self) -> float:
        """Fraction of finished requests meeting both SLOs."""
        if not self.finished:
            return 0.0
        ok = sum(
            r.meets_sla(self.sla.ttft, self.sla.tpot) for r in self.finished
        )
        return ok / len(self.finished)

    def mean_ttft(self) -> float:
        return float(self._arr("ttft").mean()) if self.finished else float("nan")

    def mean_tpot(self) -> float:
        return float(self._arr("tpot").mean()) if self.finished else float("nan")

    def p50_ttft(self) -> float:
        if not self.finished:
            return float("nan")
        return float(np.percentile(self._arr("ttft"), 50))

    def p50_tpot(self) -> float:
        if not self.finished:
            return float("nan")
        return float(np.percentile(self._arr("tpot"), 50))

    def p90_ttft(self) -> float:
        if not self.finished:
            return float("nan")
        return float(np.percentile(self._arr("ttft"), 90))

    def p90_tpot(self) -> float:
        if not self.finished:
            return float("nan")
        return float(np.percentile(self._arr("tpot"), 90))

    def p99_ttft(self) -> float:
        """Tail TTFT — the SLO-burn view production dashboards watch."""
        if not self.finished:
            return float("nan")
        return float(np.percentile(self._arr("ttft"), 99))

    def p99_tpot(self) -> float:
        if not self.finished:
            return float("nan")
        return float(np.percentile(self._arr("tpot"), 99))

    def ttft_attainment(self) -> float:
        """Fraction of finished requests meeting the TTFT bound alone."""
        if not self.finished:
            return 0.0
        return float((self._arr("ttft") <= self.sla.ttft).mean())

    def tpot_attainment(self) -> float:
        """Fraction of finished requests meeting the TPOT bound alone."""
        if not self.finished:
            return 0.0
        return float((self._arr("tpot") <= self.sla.tpot).mean())

    def mean_memory_utilization(self) -> float:
        if not self.memory_timeline:
            return float("nan")
        return float(
            np.mean([s.utilization for s in self.memory_timeline])
        )

    def peak_memory_utilization(self) -> float:
        if not self.memory_timeline:
            return float("nan")
        return float(
            np.max([s.utilization for s in self.memory_timeline])
        )

    def summary(self) -> dict[str, float]:
        """Flat dict used by the benchmark tables.

        Fault keys (MTTR, requests lost, degraded seconds, ...) appear
        only when a fault plan actually ran; ``replan_*`` transition
        keys only when online replanning was armed; ``cp_*``
        critical-path budget keys only when an attribution collector
        was attached.
        """
        out = {
            "finished": float(self.n_finished),
            "dropped": float(self.dropped),
            "attainment": self.attainment(),
            "ttft_attainment": self.ttft_attainment(),
            "tpot_attainment": self.tpot_attainment(),
            "mean_ttft_s": self.mean_ttft(),
            "p50_ttft_s": self.p50_ttft(),
            "p90_ttft_s": self.p90_ttft(),
            "p99_ttft_s": self.p99_ttft(),
            "mean_tpot_s": self.mean_tpot(),
            "p50_tpot_s": self.p50_tpot(),
            "p90_tpot_s": self.p90_tpot(),
            "p99_tpot_s": self.p99_tpot(),
            "mean_mem_util": self.mean_memory_utilization(),
            "prefill_batches": float(self.prefill_batches),
            "decode_iterations": float(self.decode_iterations),
        }
        if self.fault_stats is not None:
            out.update(self.fault_stats.summary())
        if self.replan_stats is not None:
            out.update(self.replan_stats)
        if self.attribution_stats is not None:
            out.update(self.attribution_stats)
        return out
