"""Ring all-reduce latency model (paper Eq. 11).

``T_ring(s) = 2 (P_tens - 1) * D_rg / min_e B(e)`` with
``D_rg = D / P_tens`` — the textbook bandwidth-optimal ring: a
reduce-scatter of ``P-1`` steps followed by an all-gather of ``P-1``
steps, each moving ``D / P`` bytes between ring neighbours, gated by the
slowest inter-neighbour path.

Beyond the closed form, :func:`ring_allreduce_time` accounts for the hop
structure of the actual neighbour paths on the tree topology (a GPU->GPU
"neighbour" hop crosses GPU->switch->GPU, i.e. two Ethernet links), which
is why homogeneous-network rings lose to INA in Section II-C.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.comm.context import CommContext, Route


def ring_order(ctx: CommContext, gpus: Sequence[int]) -> list[int]:
    """Order the group to keep ring neighbours topologically close.

    Server-major ordering makes consecutive pairs same-server whenever
    possible, so those steps ride NVLink; a fully random order would put
    every step on Ethernet. NCCL's ring construction does the same.
    """
    topo = ctx.built.topology
    return sorted(gpus, key=lambda g: (topo.nodes[g].server, g))


def ring_allreduce_time(
    ctx: CommContext,
    gpus: Sequence[int],
    data_bytes: float,
    order: Sequence[int] | None = None,
) -> float:
    """Completion time of a ring all-reduce of ``data_bytes`` per GPU.

    Eq. 11 verbatim: ``2 (P-1) * D_rg / min_e B(e)`` with
    ``D_rg = D / P`` — each of the ``2(P-1)`` steps moves a shard along
    every ring edge simultaneously (chunked cut-through, as NCCL does),
    so a step is gated by the *bottleneck* bandwidth over all ring
    edges, plus the slowest edge's fixed per-hop latencies (both from
    :meth:`~repro.comm.context.CommContext.ring_terms`).
    """
    members = list(order) if order is not None else ring_order(ctx, gpus)
    p = len(members)
    if p == 0:
        raise ValueError("empty GPU group")
    if p == 1 or data_bytes <= 0:
        return 0.0
    shard = data_bytes / p
    bottleneck, hop_lat = ctx.ring_terms(
        tuple(zip(members, members[1:] + members[:1]))
    )
    step = shard / bottleneck + hop_lat
    return 2.0 * (p - 1) * step


def ring_bottleneck_bandwidth(
    ctx: CommContext,
    gpus: Sequence[int],
    order: Sequence[int] | None = None,
) -> float:
    """``min_e B(e)`` over all ring edges — Eq. 11's denominator."""
    members = list(order) if order is not None else ring_order(ctx, gpus)
    if len(members) < 2:
        return float("inf")
    return ctx.ring_terms(tuple(zip(members, members[1:] + members[:1])))[0]


def ring_link_footprint(
    ctx: CommContext,
    gpus: Sequence[int],
    order: Sequence[int] | None = None,
) -> list[int]:
    """Directed links a ring uses (for load registration / policy cost)."""
    members = list(order) if order is not None else ring_order(ctx, gpus)
    if len(members) < 2:
        return []
    links: list[int] = []
    for u, v in zip(members, members[1:] + members[:1]):
        links.extend(ctx.path_links(u, v))
    return links


@dataclass
class RingRoute(Route):
    """A ring all-reduce over ``members`` in their fixed order."""

    members: tuple[int, ...]

    def time(self, ctx: CommContext, data_bytes: float) -> float:
        return ring_allreduce_time(
            ctx, self.members, data_bytes, order=self.members
        )


def ring_route(ctx: CommContext, gpus: Sequence[int]) -> RingRoute:
    """The plain ring over ``gpus`` (Eq. 7's ``beta`` alternative)."""
    order = tuple(ring_order(ctx, gpus))
    return RingRoute(
        "ring", None, lambda: tuple(ring_link_footprint(ctx, order, order)),
        order,
    )
