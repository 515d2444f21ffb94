"""Shared context for communication-latency estimation.

Bundles a built topology, its precomputed route table (the offline
``P_(k,a)`` / ``D_(i,j)`` of Algorithm 2) and, optionally, a live
:class:`~repro.network.linkstate.LinkLoadTracker`. When a tracker is
present, per-hop costs use the *remaining* bandwidth ``B(e)`` (the online
scheduler's view); otherwise the raw capacity ``C(e)`` (the offline
planner's view of an idle network).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network.builders import BuiltTopology
from repro.network.linkstate import LinkLoadTracker
from repro.network.routing import RouteTable, build_route_table
from repro.network.topology import LinkKind


@dataclass
class CommContext:
    """Topology + routes + optional live link state.

    ``heterogeneous`` selects HeroServe's network view: NVLink may serve
    as a forwarding segment on any route. When ``False`` (the baselines'
    homogeneous view) routing uses Ethernet only, except that a *direct*
    NVLink hop between co-located GPUs is still taken — that is plain
    NCCL behaviour, not heterogeneous scheduling.
    """

    built: BuiltTopology
    route_table: RouteTable
    linkstate: LinkLoadTracker | None = None
    #: in-switch aggregation constant (~1 us on Tofino, Section III-C2)
    agg_latency: float = 1e-6
    heterogeneous: bool = True
    #: lazily-built ``(src, dst) -> link_id`` table of direct intra-server
    #: GPU links (the first matching adjacency entry, matching
    #: :meth:`_direct_nvlink`); topology is immutable after construction
    #: so the table never goes stale.
    _direct_links: dict[tuple[int, int], int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_built(
        cls,
        built: BuiltTopology,
        linkstate: LinkLoadTracker | None = None,
        agg_latency: float = 1e-6,
        heterogeneous: bool = True,
    ) -> "CommContext":
        """Build the route table from capacities and wrap everything up."""
        exclude = (
            None
            if heterogeneous
            else {LinkKind.NVLINK, LinkKind.PCIE}
        )
        return cls(
            built=built,
            route_table=build_route_table(
                built.topology, exclude_kinds=exclude
            ),
            linkstate=linkstate,
            agg_latency=agg_latency,
            heterogeneous=heterogeneous,
        )

    # -- NVLink direct shortcut -------------------------------------------

    def _direct_nvlink(self, src: int, dst: int) -> int | None:
        """Directed intra-server link id (NVLink/PCIe) for a co-located
        GPU pair, else None."""
        topo = self.built.topology
        a, b = topo.nodes[src], topo.nodes[dst]
        if not (a.is_gpu and b.is_gpu and a.server == b.server):
            return None
        for lid in topo.adj[src]:
            link = topo.links[lid]
            if link.dst == dst and link.kind in (
                LinkKind.NVLINK,
                LinkKind.PCIE,
            ):
                return lid
        return None

    # -- bandwidth views -------------------------------------------------

    def link_bandwidth(self, link_id: int) -> float:
        """Remaining bandwidth of a directed link (capacity if no tracker)."""
        if self.linkstate is not None:
            return float(self.linkstate.available()[link_id])
        return self.built.topology.links[link_id].capacity

    def path_links(self, src: int, dst: int) -> list[int]:
        """Directed-link path from the offline route table.

        Co-located GPU pairs take their direct NVLink hop in both network
        views (NCCL always does); everything else follows the view's
        Dijkstra table.
        """
        if src == dst:
            return []
        direct = self._direct_nvlink(src, dst)
        if direct is not None:
            return [direct]
        return self.route_table.link_path(src, dst)

    def path_time(self, src: int, dst: int, data_bytes: float) -> float:
        """Per-hop additive transfer latency (paper Eq. 10 form).

        ``sum_e [hop_latency(e) + data_bytes / B(e)]`` along the offline
        shortest path, with ``B`` live when a tracker is attached.
        """
        if src == dst:
            return 0.0
        topo = self.built.topology
        avail = (
            self.linkstate.available() if self.linkstate is not None else None
        )
        total = 0.0
        for lid in self.path_links(src, dst):
            link = topo.links[lid]
            bw = link.capacity if avail is None else float(avail[lid])
            total += link.hop_latency + data_bytes / bw
        return total

    def path_bottleneck(self, src: int, dst: int) -> float:
        """``min_e B(e)`` along the offline shortest path."""
        links = self.path_links(src, dst)
        if not links:
            return float("inf")
        return min(self.link_bandwidth(lid) for lid in links)

    def group_hardware(self, gpus: list[int] | tuple[int, ...]) -> list[str]:
        """Hardware model names of the group members (for cost models)."""
        return [self.built.gpu_models[g] for g in gpus]

    def _direct_link_table(self) -> dict[tuple[int, int], int]:
        """All direct intra-server GPU->GPU links, built once per context.

        One pass over every GPU's adjacency list; for each ``(src, dst)``
        the *first* NVLink/PCIe entry wins, exactly as
        :meth:`_direct_nvlink` resolves it.
        """
        if self._direct_links is None:
            topo = self.built.topology
            table: dict[tuple[int, int], int] = {}
            for src, node in enumerate(topo.nodes):
                if not node.is_gpu:
                    continue
                for lid in topo.adj[src]:
                    link = topo.links[lid]
                    if link.kind not in (LinkKind.NVLINK, LinkKind.PCIE):
                        continue
                    dst_node = topo.nodes[link.dst]
                    if dst_node.is_gpu and dst_node.server == node.server:
                        table.setdefault((src, link.dst), lid)
            self._direct_links = table
        return self._direct_links

    def gpu_distance_matrix(self, gpu_ids: list[int]) -> np.ndarray:
        """Pairwise GPU latency matrix consistent with :meth:`path_time`.

        Starts from the view's Dijkstra latencies and overrides co-located
        pairs with their direct NVLink hop (present in both views), so the
        grouping heuristic always sees physical server locality. The
        override walks the precomputed direct-link table instead of
        scanning adjacency per pair, so the cost is O(n^2) numpy slicing
        plus O(direct links), not an O(n^2) Python pair loop.
        """
        idx = np.asarray(gpu_ids, dtype=np.int64)
        dist = self.route_table.latency[np.ix_(idx, idx)].copy()
        sel = self.route_table.selection_bytes
        topo = self.built.topology
        pos = {g: i for i, g in enumerate(gpu_ids)}
        for (u, v), lid in self._direct_link_table().items():
            i = pos.get(u)
            j = pos.get(v)
            if i is None or j is None or i == j:
                continue
            link = topo.links[lid]
            t = link.hop_latency + sel / link.capacity
            if t < dist[i, j]:
                dist[i, j] = t
        return dist
