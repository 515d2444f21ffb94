"""Shortest-path routing over the heterogeneous topology.

Algorithm 2 of the paper precomputes, offline and asynchronously, two
matrices over all nodes: the pairwise minimum-latency matrix ``D_(i,j)``
(``gen_latency_matrix``, Dijkstra) and the corresponding shortest-path
table ``P_(k,a)`` (``store_shortest_path``). Both are reproduced here on a
vectorised ``scipy.sparse.csgraph.dijkstra`` over the directed link graph.

The routing weight of a directed link for a transfer of ``data_bytes`` is
``hop_latency + data_bytes / bandwidth`` — the same per-hop cost the paper
uses in Eq. (10) and the KV-transfer model (Section III-C2), where the
bandwidth is the *remaining* bandwidth ``B(e)`` when a link-state view is
supplied and the raw capacity ``C(e)`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.network.topology import Topology

#: Reference message size used for *path selection* (1 MB, the paper's
#: Fig. 2 example size). The chosen paths are then re-costed for the actual
#: transfer size; using a fixed selection size keeps the path table static,
#: as required for the offline-precomputed ``P_(k,a)``.
PATH_SELECTION_BYTES = 1_000_000.0


@dataclass
class RouteTable:
    """Precomputed all-pairs shortest paths and latencies.

    Attributes
    ----------
    latency:
        ``(n_nodes, n_nodes)`` matrix of minimum path latencies (seconds)
        for the selection message size — the paper's ``D_(i,j)``.
    predecessor:
        Dijkstra predecessor matrix used to reconstruct node paths — the
        backing store of the paper's ``P_(k,a)``.
    bandwidth:
        The per-link bandwidths (bytes/s) the table was computed against.
    """

    topology: Topology
    latency: np.ndarray
    predecessor: np.ndarray
    bandwidth: np.ndarray
    selection_bytes: float
    #: link kinds excluded from routing (homogeneous baseline view)
    exclude_kinds: frozenset = frozenset()

    # -- path reconstruction -------------------------------------------

    def node_path(self, src: int, dst: int) -> list[int]:
        """Node-id sequence of the shortest path ``src -> dst``."""
        if src == dst:
            return [src]
        if not np.isfinite(self.latency[src, dst]):
            raise ValueError(f"no path from node {src} to {dst}")
        path = [dst]
        cur = dst
        while cur != src:
            cur = int(self.predecessor[src, cur])
            if cur < 0:
                raise ValueError(f"broken predecessor chain {src}->{dst}")
            path.append(cur)
        path.reverse()
        return path

    def link_path(self, src: int, dst: int) -> list[int]:
        """Directed-link-id sequence of the shortest path ``src -> dst``.

        When parallel links exist between two nodes the one with the
        highest remaining bandwidth is taken, matching the paper's
        preference for the least-loaded route.
        """
        nodes = self.node_path(src, dst)
        excluded = {int(k) for k in self.exclude_kinds}
        out: list[int] = []
        for u, v in zip(nodes, nodes[1:]):
            best_lid = -1
            best_bw = -1.0
            for lid in self.topology.adj[u]:
                if int(self.topology.links[lid].kind) in excluded:
                    continue
                if self.topology.links[lid].dst == v:
                    bw = self.bandwidth[lid]
                    if bw > best_bw:
                        best_bw, best_lid = bw, lid
            if best_lid < 0:
                raise ValueError(f"no link {u}->{v} on reconstructed path")
            out.append(best_lid)
        return out

    def path_latency(self, src: int, dst: int, data_bytes: float) -> float:
        """Latency of the precomputed path for an actual transfer size.

        Sums ``hop_latency + data_bytes / B(e)`` over the path's links —
        the paper's ``T_{k,a} = sum_n D / B(e_n)`` (Eq. 10 form).
        """
        if src == dst:
            return 0.0
        total = 0.0
        for lid in self.link_path(src, dst):
            link = self.topology.links[lid]
            total += link.hop_latency + data_bytes / self.bandwidth[lid]
        return total

    def path_bottleneck(self, src: int, dst: int) -> float:
        """Minimum remaining bandwidth along the precomputed path."""
        if src == dst:
            return float("inf")
        return min(self.bandwidth[lid] for lid in self.link_path(src, dst))

    def hops(self, src: int, dst: int) -> int:
        """Number of links on the precomputed path."""
        return 0 if src == dst else len(self.link_path(src, dst))


def link_weights(
    topology: Topology,
    data_bytes: float = PATH_SELECTION_BYTES,
    bandwidth: np.ndarray | None = None,
    exclude_kinds: frozenset | set | None = None,
) -> np.ndarray:
    """Per-directed-link routing weights for a given message size.

    ``exclude_kinds`` removes link technologies from *routing* (their
    weight becomes infinite) — used to build the homogeneous-network view
    the baselines see, where NVLink is never a forwarding segment.
    """
    cap = topology.capacity_array() if bandwidth is None else bandwidth
    if np.any(cap <= 0):
        # Fully saturated links are unusable for new traffic; give them an
        # effectively infinite weight rather than dividing by zero.
        cap = np.where(cap <= 0, 1e-9, cap)
    w = topology.hop_latency_array() + data_bytes / cap
    if exclude_kinds:
        kinds = topology.kind_array()
        mask = np.isin(kinds, [int(k) for k in exclude_kinds])
        w = np.where(mask, np.inf, w)
    return w


def build_route_table(
    topology: Topology,
    data_bytes: float = PATH_SELECTION_BYTES,
    bandwidth: np.ndarray | None = None,
    exclude_kinds: frozenset | set | None = None,
) -> RouteTable:
    """Compute the all-pairs latency matrix and shortest-path table.

    This is ``gen_latency_matrix`` + ``store_shortest_path`` of Algorithm 2
    in a single sparse-Dijkstra sweep. ``exclude_kinds`` builds the
    homogeneous-network view (e.g. no NVLink forwarding) the paper's
    baselines operate on.
    """
    n = topology.n_nodes
    if n == 0:
        raise ValueError("empty topology")
    src, dst = topology.endpoints_arrays()
    bw = topology.capacity_array() if bandwidth is None else np.asarray(
        bandwidth, dtype=np.float64
    )
    if bw.shape != (topology.n_links,):
        raise ValueError(
            f"bandwidth must have shape ({topology.n_links},), got {bw.shape}"
        )
    weights = link_weights(topology, data_bytes, bw, exclude_kinds)
    finite = np.isfinite(weights)
    src, dst, weights = src[finite], dst[finite], weights[finite]
    # csr_matrix sums duplicate entries; for parallel links we instead want
    # the minimum weight, so reduce duplicates beforehand.
    order = np.lexsort((weights, dst, src))
    s, d, w = src[order], dst[order], weights[order]
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
    graph = csr_matrix((w[keep], (s[keep], d[keep])), shape=(n, n))
    latency, predecessor = dijkstra(
        graph, directed=True, return_predecessors=True
    )
    return RouteTable(
        topology=topology,
        latency=latency,
        predecessor=predecessor,
        bandwidth=bw,
        selection_bytes=data_bytes,
        exclude_kinds=frozenset(exclude_kinds or ()),
    )


def gpu_latency_submatrix(
    table: RouteTable, gpu_ids: list[int]
) -> np.ndarray:
    """Dense ``(len(gpu_ids), len(gpu_ids))`` latency view for grouping."""
    idx = np.asarray(gpu_ids, dtype=np.int64)
    return table.latency[np.ix_(idx, idx)]
