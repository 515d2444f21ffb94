"""Collective-communication latency models: ring, INA, hybrid, pipeline."""

from repro.comm.context import CommContext, Route
from repro.comm.hybrid import (
    HybridRoute,
    elect_leader,
    group_by_server,
    hybrid_routes,
    local_reduce_time,
)
from repro.comm.ina import (
    InaRoute,
    ina_allreduce_time,
    ina_collection_time,
    ina_distribution_time,
    ina_link_footprint,
    ina_route,
    ina_throughput_limit,
    select_ina_switch,
)
from repro.comm.latency import (
    DEFAULT_N_SLOTS,
    DEFAULT_SLOT_PAYLOAD,
    GroupCommEstimate,
    PhaseCommEstimate,
    SchemeKind,
    allreduce_bytes,
    estimate_group_step,
    estimate_phase_comm,
    price_group_step,
    sync_steps_per_pass,
)
from repro.comm.pipeline import (
    decode_activation_bytes,
    pipeline_sync_time,
    prefill_activation_bytes,
    stage_boundary_time,
)
from repro.comm.ring import (
    RingRoute,
    ring_allreduce_time,
    ring_bottleneck_bandwidth,
    ring_link_footprint,
    ring_order,
    ring_route,
)
from repro.comm.scheme import (
    CollectiveScheme,
    get_scheme,
    rank_switches,
    register_scheme,
    registered_schemes,
)

# Importing these modules registers the extra collectives (ring-2stage
# first, then tree) so every layer can resolve them through the registry.
from repro.comm.twostage import TwoStageRoute, twostage_allreduce_time
from repro.comm.tree import TreeRoute, tree_allreduce_time

__all__ = [
    "CommContext",
    "Route",
    "HybridRoute",
    "elect_leader",
    "group_by_server",
    "hybrid_routes",
    "local_reduce_time",
    "InaRoute",
    "ina_allreduce_time",
    "ina_collection_time",
    "ina_distribution_time",
    "ina_link_footprint",
    "ina_route",
    "ina_throughput_limit",
    "select_ina_switch",
    "DEFAULT_N_SLOTS",
    "DEFAULT_SLOT_PAYLOAD",
    "GroupCommEstimate",
    "PhaseCommEstimate",
    "SchemeKind",
    "allreduce_bytes",
    "estimate_group_step",
    "estimate_phase_comm",
    "price_group_step",
    "sync_steps_per_pass",
    "decode_activation_bytes",
    "pipeline_sync_time",
    "prefill_activation_bytes",
    "stage_boundary_time",
    "RingRoute",
    "ring_allreduce_time",
    "ring_bottleneck_bandwidth",
    "ring_link_footprint",
    "ring_order",
    "ring_route",
    "CollectiveScheme",
    "get_scheme",
    "rank_switches",
    "register_scheme",
    "registered_schemes",
    "TreeRoute",
    "tree_allreduce_time",
    "TwoStageRoute",
    "twostage_allreduce_time",
]
