"""``ring-2stage``: hierarchical NVLink-staged ring all-reduce.

DeepSpeed-style two-level collective for multi-server groups on a
heterogeneous network view:

1. **NVLink reduce-scatter** inside each server: the tensor is split into
   ``k`` shards (``k`` = members on the server) and reduced onto the
   server's *first* member (the static leader — no per-switch election,
   unlike HeroServe's hybrid), costing ``(k-1)`` shard pushes bounded by
   the slowest member→leader NVLink path.
2. **Inter-server Ethernet ring** over the per-server leaders at the full
   payload (leaders hold fully reduced server-local sums).
3. **NVLink all-gather** mirroring stage 1.

``T_2stage = 2 · max_s (k_s - 1) · max_{g≠lead} t(g, lead, D/k_s)
           + T_ring(leaders, D)``

A single-server group degenerates to the pure NVLink ring (mode
``"none"``, matching the hybrid scheme's vocabulary). Like every scheme,
Eq. 7 still compares against the plain Ethernet ring and falls back when
staging loses (tiny payloads where the extra NVLink latency dominates).

This file is the whole integration: registering :class:`TwoStageScheme`
below is what makes ``ring-2stage`` a planner candidate, a policy-table
column, an engine-executable mode, a failover source, a CLI choice and
the ``DS-2Stage`` baseline's collective. See ``docs/COLLECTIVES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.comm.context import CommContext, Route
from repro.comm.hybrid import group_by_server, leader_legs
from repro.comm.ring import ring_allreduce_time, ring_order, ring_route
from repro.comm.scheme import (
    CollectiveScheme,
    SchemeKind,
    register_scheme,
)


def _leaders(ctx: CommContext, gpus: list[int]) -> list[int]:
    return [members[0] for members in group_by_server(ctx, gpus).values()]


def _stage_local(
    ctx: CommContext, members: list[int], leader: int, data_bytes: float
) -> float:
    """One server's NVLink reduce-scatter (== the mirrored all-gather)."""
    k = len(members)
    if k <= 1:
        return 0.0
    shard = data_bytes / k
    return (k - 1) * max(
        ctx.path_time(g, leader, shard) for g in members if g != leader
    )


def twostage_allreduce_time(
    ctx: CommContext, gpus: list[int], data_bytes: float
) -> float:
    """Hierarchical reduce-scatter → leader ring → all-gather time."""
    gpus = list(gpus)
    if len(gpus) <= 1 or data_bytes <= 0:
        return 0.0
    by_server = group_by_server(ctx, gpus)
    if len(by_server) == 1:
        return ring_allreduce_time(
            ctx, gpus, data_bytes, order=ring_order(ctx, gpus)
        )
    stage_local = max(
        _stage_local(ctx, members, members[0], data_bytes)
        for members in by_server.values()
    )
    stage_ring = ring_allreduce_time(ctx, _leaders(ctx, gpus), data_bytes)
    return 2.0 * stage_local + stage_ring


def _twostage_links(
    ctx: CommContext, gpus: tuple[int, ...]
) -> tuple[int, ...]:
    """A one-server group's Ethernet ring; otherwise the NVLink
    member↔leader legs plus the leaders' ring."""
    servers = list(group_by_server(ctx, gpus).values())
    if len(servers) == 1:
        return ring_route(ctx, gpus).links
    leaders = [m[0] for m in servers]
    return leader_legs(ctx, servers, leaders) + ring_route(ctx, leaders).links


@dataclass
class TwoStageRoute(Route):
    """The two-stage all-reduce over ``members`` (static leaders)."""

    members: tuple[int, ...]

    def time(self, ctx: CommContext, data_bytes: float) -> float:
        return twostage_allreduce_time(ctx, list(self.members), data_bytes)


class TwoStageScheme(CollectiveScheme):
    """Hierarchical NVLink/Ethernet two-stage ring (``ring-2stage``)."""

    kind = SchemeKind.RING_2STAGE
    heterogeneous = True

    def _resolve(self, view, gpus, mode, switch):
        if mode == "nvlink":
            # Policy row of a one-server group: registers no links.
            return TwoStageRoute(mode, None, (), tuple(gpus))
        if mode in ("2stage", "none"):
            members = tuple(gpus)
            return TwoStageRoute(
                mode, None, partial(_twostage_links, view, members), members
            )
        return super()._resolve(view, gpus, mode, switch)

    def _candidates(self, view, gpus):
        one_server = len(group_by_server(view, gpus)) == 1
        mode = "none" if one_server else "2stage"
        return [self._resolve(view, gpus, mode, None)]

    def _policy_rows(self, view, gpus, switches):
        one_server = len(group_by_server(view, gpus)) == 1
        mode = "nvlink" if one_server else "2stage"
        return [self._resolve(view, gpus, mode, None)]


TWOSTAGE_SCHEME = register_scheme(TwoStageScheme())

__all__ = [
    "TWOSTAGE_SCHEME",
    "TwoStageRoute",
    "TwoStageScheme",
    "twostage_allreduce_time",
]
