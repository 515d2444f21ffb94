"""Scalability-oriented offline planner (paper Algorithm 1).

For each candidate parallelism ``P_all`` (Step 1,
:mod:`repro.core.candidates`), two *asynchronously scheduled* estimation
tasks — prefill and decode, mirroring the paper's two threads — filter
GPUs by the memory requirement ``m_req``, run the Algorithm 2 network
estimator and the Eq. 12/13 compute model, after which the KV-transfer
latency (Eqs. 14-15) and the queueing objective (Eq. 1) score the
candidate. The SLA-feasible candidate with maximum scalability ``H`` wins.

An exhaustive reference planner (no candidate cap, no asynchronous
estimation, full-latency-matrix recomputation per candidate) is provided
for the planner-runtime comparison the paper makes against DistServe's
placement search (28.57 % faster, §III-C3).
"""

from __future__ import annotations

import time
from collections.abc import Collection
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.comm.context import CommContext
from repro.comm.latency import SchemeKind
from repro.comm.pipeline import (
    decode_activation_bytes,
    prefill_activation_bytes,
)
from repro.core.candidates import (
    DEFAULT_MAX_CANDIDATES,
    CandidateSpace,
    generate_candidates,
)
from repro.core.estcache import EstimationCache
from repro.core.kvtransfer import estimate_kv_transfer_time
from repro.core.netestimate import estimate_network_latency
from repro.core.objective import (
    ObjectiveResult,
    ServiceEstimate,
    SlaSpec,
    evaluate_objective,
)
from repro.core.plan import ParallelConfig, PhasePlan, Plan
from repro.llm.batch import BatchSpec
from repro.llm.costmodel import CostModelBank
from repro.llm.memory import MemoryBudget, min_memory_per_gpu
from repro.llm.models import ModelConfig
from repro.network.builders import BuiltTopology
from repro.obs.logging_config import get_logger
from repro.obs.observer import NULL_OBSERVER
from repro.util.rng import make_rng, spawn

log = get_logger(__name__)


def split_pools(built: BuiltTopology) -> tuple[list[int], list[int]]:
    """Default prefill/decode GPU pool split.

    Section III-B: "the prefill cluster is compute-bound ... whereas the
    decode cluster is memory-bound due to the large KV cache, favoring
    servers with ample memory capacity". Servers are ranked by per-GPU
    memory (descending); the first half (by GPU count) becomes the
    decode pool and the rest prefill. On the paper's testbed this gives
    decode the 40 GB A100 servers and prefill the V100 servers.
    """
    topo = built.topology
    servers = sorted(
        built.server_gpus,
        key=lambda s: -topo.nodes[built.server_gpus[s][0]].memory_bytes,
    )
    total = sum(len(built.server_gpus[s]) for s in servers)
    prefill: list[int] = []
    decode: list[int] = []
    for s in servers:
        if len(decode) < total // 2:
            decode.extend(built.server_gpus[s])
        else:
            prefill.extend(built.server_gpus[s])
    return prefill, decode


@dataclass
class PlannerConfig:
    """Tunables of the offline planner (Algorithm 1 knobs)."""

    r_frac: float = 0.65
    max_candi: int = DEFAULT_MAX_CANDIDATES
    max_pipe: int = 8
    perturb: bool = True
    perturb_rounds: int = 5
    #: run prefill/decode estimation concurrently (the paper's threads)
    asynchronous: bool = True
    #: reuse the offline-precomputed shortest-path/latency matrices (the
    #: paper precomputes them once, asynchronously); False recomputes
    #: them per candidate, the reference-planner behaviour
    precompute_routes: bool = True
    #: memoize comm-latency evaluations across candidates and perturbation
    #: rounds (:mod:`repro.core.estcache`); byte-identical plans, large
    #: solve-time saving. Requires ``precompute_routes`` (the cache is
    #: keyed over one shared route table). False reproduces the pre-cache
    #: code path exactly — the benchmark's baseline.
    use_cache: bool = True
    seed: int = 7


@dataclass(frozen=True)
class _PhaseResult:
    stages: tuple[tuple[int, ...], ...]
    comm: tuple
    t_network: float
    t_compute: float


@dataclass
class PlannerReport:
    """Plan plus solve statistics (for the planner-runtime bench)."""

    plan: Plan | None
    candidates_evaluated: int
    candidates_feasible: int
    wall_time: float
    rejected: list[str] = field(default_factory=list)
    #: wall-clock seconds per planner phase (empty without an observer)
    phase_times: dict[str, float] = field(default_factory=dict)
    #: estimation-cache hit/miss deltas for this solve (empty when the
    #: cache is disabled)
    cache_stats: dict[str, float] = field(default_factory=dict)


class OfflinePlanner:
    """Algorithm 1: joint computation allocation + communication scheduling."""

    def __init__(
        self,
        ctx: CommContext,
        model: ModelConfig,
        bank: CostModelBank,
        sla: SlaSpec,
        scheme: SchemeKind,
        prefill_pool: list[int] | None = None,
        decode_pool: list[int] | None = None,
        config: PlannerConfig | None = None,
        observer: object = NULL_OBSERVER,
    ) -> None:
        self.ctx = ctx
        self.model = model
        self.bank = bank
        self.sla = sla
        self.scheme = scheme
        self.config = config or PlannerConfig()
        self.observer = observer or NULL_OBSERVER
        if prefill_pool is None or decode_pool is None:
            auto_pre, auto_dec = split_pools(ctx.built)
            prefill_pool = prefill_pool or auto_pre
            decode_pool = decode_pool or auto_dec
        if set(prefill_pool) & set(decode_pool):
            raise ValueError("prefill and decode pools must be disjoint")
        self.prefill_pool = list(prefill_pool)
        self.decode_pool = list(decode_pool)
        self._cache: EstimationCache | None = None

    # -- helpers -----------------------------------------------------------

    def _active_cache(self) -> EstimationCache | None:
        """The planner's estimation cache, created on first use.

        Lazy because subclasses (:class:`ExhaustivePlanner`) adjust
        ``config`` after construction. Disabled whenever routes are
        recomputed per candidate: the cache memoizes over one shared
        route table.
        """
        if not (self.config.use_cache and self.config.precompute_routes):
            return None
        if self._cache is None:
            self._cache = EstimationCache(self.ctx)
        return self._cache

    def _pool_memories(self, pool: list[int]) -> np.ndarray:
        topo = self.ctx.built.topology
        return np.array(
            [topo.nodes[g].memory_bytes for g in pool], dtype=np.float64
        )

    def _admissible(
        self, pool: list[int], p_tens: int, p_pipe: int
    ) -> list[int]:
        """Algorithm 1 lines 5-6 / 12-13: drop GPUs below ``m_req``."""
        m_req = min_memory_per_gpu(
            self.model, p_tens, p_pipe, self.config.r_frac
        )
        topo = self.ctx.built.topology
        return [
            g for g in pool if topo.nodes[g].memory_bytes >= m_req
        ]

    def _phase_ctx(self) -> CommContext:
        """Context for one phase estimation.

        With ``precompute_routes`` (default) the shared offline route
        table is reused; otherwise the Dijkstra matrices are rebuilt —
        the per-candidate recomputation cost the paper's asynchronous
        precomputation eliminates (§III-C3).
        """
        if self.config.precompute_routes:
            return self.ctx
        from repro.network.routing import build_route_table
        from repro.network.topology import LinkKind

        exclude = (
            None
            if self.ctx.heterogeneous
            else {LinkKind.NVLINK, LinkKind.PCIE}
        )
        return CommContext(
            built=self.ctx.built,
            route_table=build_route_table(
                self.ctx.built.topology, exclude_kinds=exclude
            ),
            linkstate=self.ctx.linkstate,
            agg_latency=self.ctx.agg_latency,
            heterogeneous=self.ctx.heterogeneous,
        )

    def _estimate_prefill(
        self,
        p_tens: int,
        p_pipe: int,
        batch: BatchSpec,
        rng: np.random.Generator,
    ) -> _PhaseResult | None:
        admissible = self._admissible(self.prefill_pool, p_tens, p_pipe)
        if len(admissible) < p_tens * p_pipe:
            return None
        with self.observer.profiler.phase("planner.estimate_prefill"):
            est = estimate_network_latency(
                self._phase_ctx(),
                admissible,
                p_tens,
                p_pipe,
                self.model,
                tokens=batch.k_in,
                scheme=self.scheme,
                activation_bytes=prefill_activation_bytes(
                    self.model, batch.k_in
                ),
                rng=rng,
                perturb=self.config.perturb,
                max_rounds=self.config.perturb_rounds,
                profiler=self.observer.profiler,
                cache=self._active_cache(),
            )
        hw = self.ctx.group_hardware(
            [g for st in est.stages for g in st]
        )
        t_c = self.bank.group_prefill_time(hw, batch, p_tens)
        # Pipeline splits layers: one pass still computes all layers, so
        # T_c is the full-model figure regardless of p_pipe.
        return _PhaseResult(
            stages=est.stages,
            comm=est.phase.per_stage,
            t_network=est.t_network,
            t_compute=t_c,
        )

    def _estimate_decode(
        self,
        p_tens: int,
        p_pipe: int,
        batch: BatchSpec,
        rng: np.random.Generator,
    ) -> _PhaseResult | None:
        admissible = self._admissible(self.decode_pool, p_tens, p_pipe)
        if len(admissible) < p_tens * p_pipe:
            return None
        with self.observer.profiler.phase("planner.estimate_decode"):
            est = estimate_network_latency(
                self._phase_ctx(),
                admissible,
                p_tens,
                p_pipe,
                self.model,
                tokens=batch.q,
                scheme=self.scheme,
                activation_bytes=decode_activation_bytes(
                    self.model, batch.q
                ),
                rng=rng,
                perturb=self.config.perturb,
                max_rounds=self.config.perturb_rounds,
                profiler=self.observer.profiler,
                cache=self._active_cache(),
            )
        hw = self.ctx.group_hardware(
            [g for st in est.stages for g in st]
        )
        # Mid-generation context: prompt plus half the output, per paper's
        # use of K_in (+ generated tokens) as the decode attention driver.
        context = batch.k_in + batch.k_out // 2
        t_c = self.bank.group_decode_time(
            hw, batch.q, context, p_tens, p_pipe
        )
        return _PhaseResult(
            stages=est.stages,
            comm=est.phase.per_stage,
            t_network=est.t_network,
            t_compute=t_c,
        )

    # -- main entry ---------------------------------------------------------

    def plan(
        self,
        batch: BatchSpec,
        arrival_rate: float,
        forced_parallel: ParallelConfig | None = None,
    ) -> PlannerReport:
        """Run Algorithm 1 and return the best SLA-feasible plan.

        ``batch`` is the forecast batch (Table I's request-side inputs,
        typically ``Trace.representative_batch``); ``arrival_rate`` the
        per-deployment lambda the queueing model sizes against.

        ``forced_parallel`` pins ``P_all`` to a fixed configuration (the
        paper's testbed evaluation deploys the same cross-server
        parallelism for every system, so differences isolate the
        communication scheduling); the planner still performs grouping,
        switch selection, mode selection and perturbation within it.
        """
        t0 = time.perf_counter()
        if forced_parallel is not None:
            cand = CandidateSpace(
                candidates=(forced_parallel,),
                min_gpus_prefill=forced_parallel.prefill_gpus,
                min_gpus_decode=forced_parallel.decode_gpus,
            )
        else:
            with self.observer.profiler.phase("planner.candidates"):
                cand = self._candidates()
        log.debug(
            "planning over %d candidates (scheme=%s)",
            len(cand.candidates),
            self.scheme.value,
        )
        rng = make_rng(self.config.seed)
        best: Plan | None = None
        best_obj: ObjectiveResult | None = None
        n_feasible = 0
        rejected: list[str] = []
        cache = self._active_cache()
        stats_before = cache.stats() if cache is not None else None
        # One executor for the whole sweep: the paper's two estimation
        # threads, without re-spawning a pool per candidate.
        pool = (
            ThreadPoolExecutor(max_workers=2)
            if self.config.asynchronous
            else None
        )
        try:
            for pall in cand.candidates:
                pre, dec = self._estimate_candidate(pall, batch, rng, pool)
                if pre is None or dec is None:
                    rejected.append(
                        f"{pall}: insufficient admissible GPUs"
                    )
                    log.debug(
                        "rejected %s: insufficient admissible GPUs", pall
                    )
                    continue

                with self.observer.profiler.phase("planner.objective"):
                    t_f = estimate_kv_transfer_time(
                        self.ctx,
                        self.model,
                        batch.k_in,
                        pre.stages,
                        dec.stages,
                    )
                    est = ServiceEstimate(
                        t_network_prefill=pre.t_network,
                        t_compute_prefill=pre.t_compute,
                        t_network_decode=dec.t_network,
                        t_compute_decode=dec.t_compute,
                        t_kv_transfer=t_f,
                        mean_output_tokens=batch.k_out / batch.q,
                    )
                    # Concurrency is capped by the decode cluster's KV
                    # capacity: "insufficient memory to serve all
                    # requests" adds queueing.
                    topo = self.ctx.built.topology
                    dec_min_mem = min(
                        topo.nodes[g].memory_bytes
                        for st in dec.stages
                        for g in st
                    )
                    budget = MemoryBudget(
                        self.model,
                        pall.p_tens_decode,
                        pall.p_pipe_decode,
                        dec_min_mem,
                        r_frac=self.config.r_frac,
                    )
                    tokens_per_req = (
                        batch.k_in + batch.k_out / 2.0
                    ) / batch.q
                    mem_conc = int(
                        budget.max_cached_tokens()
                        / max(tokens_per_req, 1)
                    )
                    # Decode concurrency: memory-limited, up to the
                    # continuous-batching width (the engine's default
                    # decode batch cap).
                    concurrency = max(1, min(64, mem_conc))
                    obj = evaluate_objective(
                        est, arrival_rate, self.sla, concurrency=concurrency
                    )
                if not obj.sla_ok and forced_parallel is None:
                    rejected.append(
                        f"{pall}: SLA miss (TTFT {obj.t_prefill:.3f}s, "
                        f"TPOT {obj.t_decode:.3f}s)"
                    )
                    log.debug(
                        "rejected %s: SLA miss (TTFT %.3fs, TPOT %.3fs)",
                        pall,
                        obj.t_prefill,
                        obj.t_decode,
                    )
                    continue
                n_feasible += 1
                if (
                    best_obj is None
                    or obj.scalability > best_obj.scalability
                ):
                    best_obj = obj
                    best = Plan(
                        parallel=pall,
                        scheme=self.scheme,
                        prefill=PhasePlan(
                            stages=pre.stages,
                            comm=pre.comm,
                            t_network=pre.t_network,
                            t_compute=pre.t_compute,
                        ),
                        decode=PhasePlan(
                            stages=dec.stages,
                            comm=dec.comm,
                            t_network=dec.t_network,
                            t_compute=dec.t_compute,
                        ),
                        t_kv_transfer=t_f,
                        t_prefill=obj.t_prefill,
                        t_decode=obj.t_decode,
                        scalability=obj.scalability,
                        planned_rate=arrival_rate,
                    )
        finally:
            if pool is not None:
                pool.shutdown()
        wall = time.perf_counter() - t0
        cache_stats = self._solve_cache_stats(cache, stats_before)
        if best is None:
            log.info(
                "no SLA-feasible plan among %d candidates (%.2fs)",
                len(cand.candidates),
                wall,
            )
        else:
            log.info(
                "planned %s in %.2fs (%d/%d feasible, H=%.3f)",
                best.parallel,
                wall,
                n_feasible,
                len(cand.candidates),
                best.scalability,
            )
        return PlannerReport(
            plan=best,
            candidates_evaluated=len(cand.candidates),
            candidates_feasible=n_feasible,
            wall_time=wall,
            rejected=rejected,
            phase_times=self.observer.profiler.phase_times(),
            cache_stats=cache_stats,
        )

    def _estimate_candidate(
        self, pall, batch, rng, pool
    ) -> tuple[_PhaseResult | None, _PhaseResult | None]:
        """Estimate both phases of one candidate (threaded when async)."""
        pre_rng, dec_rng = spawn(rng, 2)
        if pool is not None:
            f_pre = pool.submit(
                self._estimate_prefill,
                pall.p_tens_prefill,
                pall.p_pipe_prefill,
                batch,
                pre_rng,
            )
            f_dec = pool.submit(
                self._estimate_decode,
                pall.p_tens_decode,
                pall.p_pipe_decode,
                batch,
                dec_rng,
            )
            return f_pre.result(), f_dec.result()
        pre = self._estimate_prefill(
            pall.p_tens_prefill, pall.p_pipe_prefill, batch, pre_rng
        )
        dec = self._estimate_decode(
            pall.p_tens_decode, pall.p_pipe_decode, batch, dec_rng
        )
        return pre, dec

    def _solve_cache_stats(
        self,
        cache: EstimationCache | None,
        stats_before: dict[str, float] | None,
    ) -> dict[str, float]:
        """Hit/miss deltas of this solve, also mirrored to the profiler."""
        if cache is None or stats_before is None:
            return {}
        after = cache.stats()
        delta = {
            k: after[k] - stats_before[k]
            for k in after
            if k != "hit_rate"
        }
        total = delta["hits"] + delta["misses"]
        delta["hit_rate"] = delta["hits"] / total if total else 0.0
        profiler = self.observer.profiler
        if int(delta["hits"]):
            profiler.count("estcache.hits", int(delta["hits"]))
        if int(delta["misses"]):
            profiler.count("estcache.misses", int(delta["misses"]))
        return delta

    def replan_excluding(
        self,
        failed_gpus: Collection[int],
        batch: BatchSpec,
        arrival_rate: float,
        prefer: ParallelConfig | None = None,
    ) -> PlannerReport:
        """Incremental repair: re-plan with ``failed_gpus`` removed.

        The failover path after a server loss. Survivor pools replace
        the configured ones for the duration of the call; when
        ``prefer`` (typically the incumbent plan's parallelism) still
        fits the surviving GPU count it is pinned — re-running only the
        grouping/switch/mode selection stages — before falling back to
        the full Algorithm 1 candidate sweep.
        """
        failed = set(failed_gpus)
        if not failed:
            return self.plan(batch, arrival_rate, forced_parallel=prefer)
        # The fault that removed these GPUs usually degraded links too;
        # drop every memoized estimate so the repair plan reprices the
        # network from scratch.
        if self._cache is not None:
            self._cache.invalidate()
        saved_pre, saved_dec = self.prefill_pool, self.decode_pool
        self.prefill_pool = [g for g in saved_pre if g not in failed]
        self.decode_pool = [g for g in saved_dec if g not in failed]
        try:
            if not self.prefill_pool or not self.decode_pool:
                return PlannerReport(
                    plan=None,
                    candidates_evaluated=0,
                    candidates_feasible=0,
                    wall_time=0.0,
                    rejected=["no surviving GPUs in one phase pool"],
                )
            if prefer is not None and (
                prefer.prefill_gpus <= len(self.prefill_pool)
                and prefer.decode_gpus <= len(self.decode_pool)
            ):
                report = self.plan(
                    batch, arrival_rate, forced_parallel=prefer
                )
                if report.plan is not None:
                    return report
            return self.plan(batch, arrival_rate)
        finally:
            self.prefill_pool, self.decode_pool = saved_pre, saved_dec

    def _candidates(self) -> CandidateSpace:
        return generate_candidates(
            self.model,
            self._pool_memories(self.prefill_pool),
            self._pool_memories(self.decode_pool),
            r_frac=self.config.r_frac,
            max_candi=self.config.max_candi,
            max_pipe=self.config.max_pipe,
        )


class ExhaustivePlanner(OfflinePlanner):
    """Reference planner without the paper's heuristics.

    No candidate cap, sequential (non-asynchronous) estimation, and the
    Dijkstra matrices recomputed per candidate instead of precomputed
    once asynchronously — the configuration-sweep style of DistServe's
    placement search. Used by ``bench_planner_time`` to reproduce the
    §III-C3 solve-time comparison (the paper: 28.57 % faster).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.config.max_candi = 10_000
        self.config.asynchronous = False
        self.config.precompute_routes = False
        self.config.use_cache = False
