"""In-network-aggregation latency model (paper Eqs. 8-10).

``T_ina = T_col + T_agg + T_dis``: every worker pushes its full payload to
the aggregation switch (collection, Eq. 9-10: the max over workers of the
per-hop additive path latency), the switch folds contributions in ~1 us
(T_agg), and broadcasts the aggregate back (distribution, symmetric to
collection).

Includes the aggregation-switch *selection* of Algorithm 2 lines 6-8:
among INA-capable switches, pick the one with the smallest worst-case
member latency.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.comm.context import CommContext, Route
from repro.switch.protocols import DEFAULT_RTT


def ina_collection_time(
    ctx: CommContext,
    gpus: Sequence[int],
    switch: int,
    data_bytes: float,
) -> float:
    """Eq. 9: ``max_k T^col_{k,a}`` — slowest worker-to-switch push."""
    if not gpus:
        raise ValueError("empty GPU group")
    return max(ctx.path_time(g, switch, data_bytes) for g in gpus)


def ina_distribution_time(
    ctx: CommContext,
    gpus: Sequence[int],
    switch: int,
    data_bytes: float,
) -> float:
    """Switch-to-workers broadcast, configured symmetrically to T_col."""
    if not gpus:
        raise ValueError("empty GPU group")
    return max(ctx.path_time(switch, g, data_bytes) for g in gpus)


def ina_allreduce_time(
    ctx: CommContext,
    gpus: Sequence[int],
    switch: int,
    data_bytes: float,
    pipelined: bool = True,
) -> float:
    """Eq. 8: ``T_col + T_agg + T_dis`` for aggregation at ``switch``.

    The default ``pipelined=True`` models chunked streaming (the way
    SwitchML/ATP actually run on full-duplex links): collection and
    distribution overlap, so the makespan is the slower of the two
    phases plus the in-switch aggregation constant. ``pipelined=False``
    gives the store-and-forward single-message sum the paper's Fig. 2
    arithmetic uses.
    """
    if len(gpus) == 1 or data_bytes <= 0:
        return 0.0
    t_col = ina_collection_time(ctx, gpus, switch, data_bytes)
    t_dis = ina_distribution_time(ctx, gpus, switch, data_bytes)
    if pipelined:
        return max(t_col, t_dis) + ctx.agg_latency
    return t_col + ctx.agg_latency + t_dis


def switch_delay(ctx: CommContext, gpus: Sequence[int], switch: int) -> float:
    """Algorithm 2's group delay at ``switch``.

    The worst member's round-trip (collection + distribution) latency at
    the route-selection size (:meth:`CommContext.round_trip`, memoized
    per member and switch in a capacity view).
    """
    return max(ctx.round_trip(g, switch) for g in gpus)


def select_ina_switch(
    ctx: CommContext,
    gpus: Sequence[int],
    candidates: Sequence[int] | None = None,
) -> int:
    """Algorithm 2 lines 6-8: the switch with the smallest group delay.

    Scores each INA-capable candidate by :func:`switch_delay` and returns
    the first minimum in candidate order.
    """
    if not gpus:
        raise ValueError("empty GPU group")
    cands = list(
        candidates
        if candidates is not None
        else ctx.built.ina_capable_switches()
    )
    if not cands:
        raise ValueError("no INA-capable switches in topology")
    return min(cands, key=lambda sw: switch_delay(ctx, gpus, sw))


def ina_throughput_limit(
    ctx: CommContext,
    gpus: Sequence[int],
    switch: int,
    n_slots: int,
    slot_payload_bytes: int,
) -> float:
    """Slot-pool goodput cap (bytes/s) for sustained aggregation.

    Uses the SwitchML window model with each worker's bottleneck path
    bandwidth; this is the ceiling Fig. 9 measures against message size.
    """
    bws = np.asarray([ctx.path_bottleneck(g, switch) for g in gpus])
    # Steady-state goodput: the asymptotic slope of the SwitchML window
    # model, i.e. min(slowest worker link, window turnaround).
    window_goodput = n_slots * slot_payload_bytes / DEFAULT_RTT
    return float(min(bws.min(), window_goodput))


def ina_link_footprint(
    ctx: CommContext,
    gpus: Sequence[int],
    switch: int,
) -> list[int]:
    """Directed links an INA policy uses (collection + distribution)."""
    links: list[int] = []
    for g in gpus:
        if g == switch:
            continue
        links.extend(ctx.path_links(g, switch))
        links.extend(ctx.path_links(switch, g))
    return links


@dataclass
class InaRoute(Route):
    """In-network aggregation of ``members`` at ``switch`` (Eq. 8)."""

    members: tuple[int, ...]

    def time(self, ctx: CommContext, data_bytes: float) -> float:
        return ina_allreduce_time(ctx, self.members, self.switch, data_bytes)


def ina_route(ctx: CommContext, gpus: Sequence[int], switch: int) -> InaRoute:
    """Aggregation of ``gpus`` at ``switch``: collection + distribution."""
    members = tuple(gpus)
    return InaRoute(
        "ina",
        switch,
        lambda: tuple(ina_link_footprint(ctx, members, switch)),
        members,
    )
