"""Hybrid heterogeneous all-reduce: HeroServe's communication scheme.

The key idea of Section II-C / Fig. 2: instead of every GPU pushing its
payload over Ethernet to a (possibly distant) aggregation switch, GPUs
first reduce **inside each server over NVLink** to a per-server *leader*;
only leaders cross Ethernet (via INA at the best access switch, or a
leader ring — whichever is cheaper); leaders then broadcast the result
back over NVLink. This

* cuts Ethernet traffic by the number of co-located GPUs per server
  (offloading synchronisation bytes onto 600 GB/s NVLink), and
* shortens the Ethernet path (aggregation at the *access* switch that
  leaders attach to, not a core switch).

:func:`hybrid_routes` resolves such policies — leaders elected once,
against their switch — into :class:`HybridRoute` objects whose links are
the NVLink member↔leader legs plus the Ethernet stage's links.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

from repro.comm.context import CommContext, Route
from repro.comm.ina import ina_route, select_ina_switch
from repro.comm.ring import ring_route


def group_by_server(
    ctx: CommContext, gpus: Sequence[int]
) -> dict[int, list[int]]:
    """Partition group members by hosting server (insertion-ordered)."""
    topo = ctx.built.topology
    out: dict[int, list[int]] = {}
    for g in gpus:
        out.setdefault(topo.nodes[g].server, []).append(g)
    return out


def elect_leader(ctx: CommContext, members: Sequence[int], switch: int) -> int:
    """Leader = the member with the fastest path to the Ethernet stage."""
    sel = ctx.route_table.selection_bytes
    return min(members, key=lambda g: ctx.path_time(g, switch, sel))


def local_reduce_time(
    ctx: CommContext, members: Sequence[int], leader: int, data_bytes: float
) -> float:
    """Stage 1/3: NVLink gather to (or broadcast from) the leader.

    Co-located GPUs push concurrently over independent NVLink lanes
    (NVSwitch), so the stage lasts as long as the slowest single push.
    """
    others = [g for g in members if g != leader]
    if not others:
        return 0.0
    return max(ctx.path_time(g, leader, data_bytes) for g in others)


def leader_legs(
    ctx: CommContext,
    servers: Sequence[Sequence[int]],
    leaders: Sequence[int],
) -> tuple[int, ...]:
    """Directed member→leader and leader→member links of every server."""
    links: list[int] = []
    for members, leader in zip(servers, leaders):
        for g in members:
            if g != leader:
                links.extend(ctx.path_links(g, leader))
                links.extend(ctx.path_links(leader, g))
    return tuple(links)


@dataclass
class HybridRoute(Route):
    """NVLink reduce to leaders, an Ethernet stage, NVLink broadcast."""

    servers: tuple[tuple[int, ...], ...]
    leaders: tuple[int, ...]
    #: the Ethernet stage among leaders: INA at ``switch`` or a ring
    stage2: Route

    def stages(self, ctx: CommContext, data_bytes: float) -> tuple[float, float]:
        """NVLink reduce time (== the broadcast) and Ethernet stage time.

        The Ethernet stage carries the **full** payload: it sums
        per-server partials, not shards.
        """
        stage1 = max(
            local_reduce_time(ctx, members, leader, data_bytes)
            for members, leader in zip(self.servers, self.leaders)
        )
        return stage1, self.stage2.time(ctx, data_bytes)

    def time(self, ctx: CommContext, data_bytes: float) -> float:
        stage1, stage2 = self.stages(ctx, data_bytes)
        return 2.0 * stage1 + stage2

    def plan_time(self, ctx: CommContext, data_bytes: float) -> float:
        # The estimate sums the stages in execution order; equal to
        # time() up to float rounding, and pinned in that form.
        stage1, stage2 = self.stages(ctx, data_bytes)
        return stage1 + stage2 + stage1


def hybrid_routes(
    ctx: CommContext,
    servers: Sequence[Sequence[int]],
    modes: Sequence[str],
    switch: int | None = None,
) -> list[HybridRoute]:
    """Resolve multi-server hybrid policies that share one election.

    ``servers`` are the group's members by server. A mode
    ``"ina"``/``"hybrid-ina"`` aggregates the leaders at ``switch``;
    ``"ring"``/``"hybrid-ring"`` runs a leader ring. Leaders are elected
    against ``switch`` or, without one, against the switch Algorithm 2
    selects for provisional leaders (first member per server).
    """
    servers = tuple(tuple(m) for m in servers)
    if switch is None:
        switch = select_ina_switch(ctx, [m[0] for m in servers])
    leaders = tuple(elect_leader(ctx, m, switch) for m in servers)
    routes = []
    for mode in modes:
        ina = mode in ("ina", "hybrid-ina")
        stage2 = (
            ina_route(ctx, leaders, switch) if ina
            else ring_route(ctx, leaders)
        )
        routes.append(
            HybridRoute(
                mode,
                switch if ina else None,
                partial(
                    _hybrid_links, ctx, servers, leaders, stage2,
                    mode.startswith("hybrid-"),
                ),
                servers,
                leaders,
                stage2,
            )
        )
    return routes


def _hybrid_links(
    ctx: CommContext,
    servers: tuple[tuple[int, ...], ...],
    leaders: tuple[int, ...],
    stage2: Route,
    stage2_first: bool,
) -> tuple[int, ...]:
    """A hybrid route's links: the leaders' legs and the Ethernet stage.

    Policy rows (``stage2_first``) list the Ethernet stage first, so
    their most-utilised-link tag breaks ties on the fabric; the
    estimate's legs-first order is pinned by the plan goldens.
    """
    legs = leader_legs(ctx, servers, leaders)
    return stage2.links + legs if stage2_first else legs + stage2.links
