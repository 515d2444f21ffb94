"""Network-latency estimation (paper Algorithm 2).

Given a candidate parallelism ``(P_tens, P_pipe)``, the admissible GPU set
``V_g'`` and the forecast token volume, this module:

1. takes the offline latency matrix ``D_(i,j)`` / path table ``P_(k,a)``
   (already inside the :class:`~repro.comm.context.CommContext`),
2. partitions GPUs into ``P_pipe`` groups of ``P_tens`` by constrained
   k-means on interconnection latency,
3. selects each group's aggregation switch and communication mode
   (INA ``alpha`` vs ring ``beta``) via ``getlatency`` — here
   :func:`repro.comm.latency.estimate_group_step` (the perturbation
   reads the winning time alone, ``CollectiveScheme.estimate_route``),
4. polishes the grouping with random swap perturbations, re-running the
   mode selection after each accepted swap,
5. assembles ``T_n`` = per-step sync latency x steps + inter-stage
   pipeline latency (Eq. 5).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.comm.context import CommContext
from repro.comm.latency import (
    PhaseCommEstimate,
    SchemeKind,
    allreduce_bytes,
    estimate_phase_comm,
    get_scheme,
)
from repro.core.grouping import group_gpus
from repro.llm.models import ModelConfig
from repro.obs.profile import NULL_PROFILER
from repro.util.rng import make_rng


@dataclass(frozen=True)
class NetworkEstimate:
    """Algorithm 2 outputs: grouping ``K_g``, comm plan ``CM``, ``T_n``."""

    stages: tuple[tuple[int, ...], ...]
    phase: PhaseCommEstimate

    @property
    def t_network(self) -> float:
        return self.phase.total_time


def estimate_network_latency(
    ctx: CommContext,
    admissible_gpus: Sequence[int],
    p_tens: int,
    p_pipe: int,
    model: ModelConfig,
    tokens: int,
    scheme: SchemeKind,
    activation_bytes: int | None = None,
    rng: np.random.Generator | None = None,
    perturb: bool = True,
    max_rounds: int = 5,
    contention: float = 0.0,
    profiler=None,
    cache=None,
) -> NetworkEstimate:
    """Full Algorithm 2 for one phase of one candidate configuration.

    ``tokens`` drives the all-reduce payload (``K_in`` for prefill, ``Q``
    for decode); ``activation_bytes`` the pipeline-boundary volume.
    The grouping objective is the group's *selected-mode* step latency,
    so swaps that flip a group from ring to INA (or move it closer to an
    aggregation switch) are rewarded — the joint computation/communication
    optimisation the paper emphasises.

    ``cache`` (a :class:`repro.core.estcache.EstimationCache` built over
    ``ctx``) memoizes the group-step evaluations, the distance submatrix
    and the underlying path lookups, shared across candidates and
    perturbation rounds; the estimate is byte-identical with or without
    it.
    """
    profiler = profiler or NULL_PROFILER
    gpus = list(admissible_gpus)
    need = p_tens * p_pipe
    if len(gpus) < need:
        raise ValueError(
            f"{len(gpus)} admissible GPUs < required {need} "
            f"(TP{p_tens} x PP{p_pipe})"
        )
    rng = rng or make_rng()
    data = allreduce_bytes(model, tokens)

    # The perturbation compares step times only: no route footprint is
    # walked for a group it prices (mode selection builds the estimates).
    if cache is not None:
        def group_cost(group: Sequence[int]) -> float:
            return cache.group_time(group, data, scheme, contention=contention)
    else:
        estimate_route = get_scheme(scheme).estimate_route

        def group_cost(group: Sequence[int]) -> float:
            return estimate_route(ctx, group, data, contention=contention)[1]

    with profiler.phase("netestimate.distance_matrix"):
        dist = (
            cache.distance_matrix(gpus)
            if cache is not None
            else ctx.gpu_distance_matrix(gpus)
        )
    stages = group_gpus(
        dist,
        gpus,
        n_groups=p_pipe,
        group_size=p_tens,
        cost_fn=group_cost,
        rng=rng,
        perturb=perturb,
        max_rounds=max_rounds,
        profiler=profiler,
        memoize=cache is not None,
    )
    with profiler.phase("netestimate.mode_selection"):
        phase = estimate_phase_comm(
            ctx,
            stages,
            model,
            tokens,
            scheme,
            activation_bytes=activation_bytes,
            contention=contention,
            cache=cache,
        )
    return NetworkEstimate(
        stages=tuple(tuple(s) for s in stages),
        phase=phase,
    )
