"""Shared context for communication-latency estimation.

Bundles a built topology, its precomputed route table (the offline
``P_(k,a)`` / ``D_(i,j)`` of Algorithm 2) and, optionally, a live
:class:`~repro.network.linkstate.LinkLoadTracker`. When a tracker is
present, per-hop costs use the *remaining* bandwidth ``B(e)`` (the online
scheduler's view); otherwise the raw capacity ``C(e)`` (the offline
planner's view of an idle network).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

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
    #: GPU links (the first matching adjacency entry); topology is
    #: immutable after construction so the table never goes stale.
    _direct_links: dict[tuple[int, int], int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: lazily-built capacity view of a live context (see :meth:`offline`)
    _offline: "CommContext | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    #: a capacity view's path prices: ``(src, dst, data_bytes)`` keys
    #: :meth:`path_time`, ``(src, dst)`` keys :meth:`path_bottleneck`
    _prices: dict[tuple, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: a capacity view's selection-size round trips of :meth:`round_trip`
    _round_trips: dict[tuple[int, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: a live view's padded hop index per ``pairs`` tuple of
    #: :meth:`path_times`: ``(link ids, hop mask, hop latencies)``
    _hops: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: a live view's ring index per ``pairs`` tuple of
    #: :meth:`ring_terms`: ``(every pair's link ids, flat; slowest
    #: pair's summed hop latency)``
    _rings: dict[tuple, tuple[np.ndarray, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
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

    # -- bandwidth views -------------------------------------------------

    def offline(self) -> "CommContext":
        """The capacity view: same routes, no live link state.

        This is the precomputed ``P``/``D`` of Algorithm 2. Route
        resolution (switch ranking, leader election) reads it, so a
        policy's route never moves with the load it is priced against.
        """
        if self.linkstate is None:
            return self
        if self._offline is None:
            self._offline = replace(self, linkstate=None)
            self._offline._direct_links = self._direct_link_table()
        return self._offline

    def link_bandwidth(self, link_id: int) -> float:
        """Remaining bandwidth of a directed link (capacity if no tracker)."""
        if self.linkstate is not None:
            return float(self.linkstate.available()[link_id])
        return self.built.topology.links[link_id].capacity

    def path_links(self, src: int, dst: int) -> tuple[int, ...]:
        """Directed-link path from the offline route table.

        Co-located GPU pairs take their direct NVLink hop in both network
        views (NCCL always does); everything else follows the view's
        Dijkstra table. The tuple may be shared with other callers.
        """
        if src == dst:
            return ()
        direct = self._direct_link_table().get((src, dst))
        if direct is not None:
            return (direct,)
        return self.route_table.link_path(src, dst)

    def path_time(self, src: int, dst: int, data_bytes: float) -> float:
        """Per-hop additive transfer latency (paper Eq. 10 form).

        ``sum_e [hop_latency(e) + data_bytes / B(e)]`` along the offline
        shortest path, with ``B`` live when a tracker is attached. A
        capacity view prices each ``(src, dst, data_bytes)`` once: with
        no tracker the price is a pure function of the immutable topology
        and route table (Algorithm 2's offline ``D``), so a memo hit is
        the recomputed float bit for bit.
        """
        if self.linkstate is not None:
            return self._sum_hops(src, dst, data_bytes)
        key = (src, dst, data_bytes)
        hit = self._prices.get(key)
        if hit is None:
            hit = self._prices[key] = self._sum_hops(src, dst, data_bytes)
        return hit

    def path_bottleneck(self, src: int, dst: int) -> float:
        """``min_e B(e)`` along the offline shortest path.

        Memoized in a capacity view, like :meth:`path_time`.
        """
        if self.linkstate is not None:
            return self._min_hop(src, dst)
        key = (src, dst)
        hit = self._prices.get(key)
        if hit is None:
            hit = self._prices[key] = self._min_hop(src, dst)
        return hit

    def round_trip(self, gpu: int, switch: int) -> float:
        """``gpu -> switch -> gpu`` :meth:`path_time` at the selection size.

        Algorithm 2's per-member switch score (Eq. 9's collection plus
        the symmetric distribution). Memoized in a capacity view, where it
        is the sum of the two memoized path prices, bit for bit.
        """
        if self.linkstate is not None:
            return self._round_trip(gpu, switch)
        key = (gpu, switch)
        hit = self._round_trips.get(key)
        if hit is None:
            hit = self._round_trips[key] = self._round_trip(gpu, switch)
        return hit

    def path_times(
        self,
        pairs: tuple[tuple[int, int], ...],
        data_bytes: float | np.ndarray,
    ) -> np.ndarray:
        """:meth:`path_time` of every ``(src, dst)`` in ``pairs``.

        ``data_bytes`` is one size for all pairs or one per pair. A live
        view builds a padded ``pairs x hops`` link index on the first
        call for a ``pairs`` tuple and then reads ``B(e)`` once per
        call; the hops sum left to right with ``+0.0`` padding, so each
        entry is :meth:`path_time`'s float bit for bit. A capacity view
        builds no index (one per planner pair set would cost memory):
        it prices each pair through its :meth:`path_time` memo.
        """
        if self.linkstate is None:
            sizes = np.broadcast_to(data_bytes, len(pairs)).tolist()
            return np.array(
                [self.path_time(s, d, b) for (s, d), b in zip(pairs, sizes)]
            )
        hops = self._hops.get(pairs)
        if hops is None:
            hops = self._hops[pairs] = self._hop_index(pairs)
        idx, mask, hop = hops
        data = np.asarray(data_bytes)[..., None]
        avail = self.linkstate.available()
        per_hop = np.where(mask, hop + data / avail[idx], 0.0)
        return per_hop.cumsum(-1)[:, -1]

    def ring_terms(
        self, pairs: tuple[tuple[int, int], ...]
    ) -> tuple[float, float]:
        """Eq. 11's ``min_e B(e)`` and the slowest edge's hop latency.

        The bottleneck is the least :meth:`path_bottleneck` over
        ``pairs`` (``inf`` when no pair has a hop); the latency is the
        ``max`` over pairs of each path's ``hop_latency`` summed left to
        right, which is the path's :meth:`path_time` at zero bytes
        (each hop adds ``hop_latency + 0.0``). A live view builds, on the
        first call for a ``pairs`` tuple, the flat link ids of every pair
        and that static latency; each later call is one gather of
        ``available()``. A ``min`` does not depend on order, so both views
        return the same floats. A capacity view reads its per-pair
        :meth:`path_bottleneck` and zero-byte :meth:`path_time` memos.
        """
        if self.linkstate is None:
            return (
                min(self.path_bottleneck(u, v) for u, v in pairs),
                self._slowest_hops(pairs),
            )
        ring = self._rings.get(pairs)
        if ring is None:
            idx = np.fromiter(
                (lid for u, v in pairs for lid in self.path_links(u, v)),
                dtype=np.intp,
            )
            idx.flags.writeable = False
            ring = self._rings[pairs] = (idx, self._slowest_hops(pairs))
        idx, hop_lat = ring
        if not idx.size:
            return float("inf"), hop_lat
        return float(self.linkstate.available()[idx].min()), hop_lat

    def _slowest_hops(self, pairs: tuple[tuple[int, int], ...]) -> float:
        """``max`` over ``pairs`` of the path's summed hop latencies."""
        return max(self.path_time(u, v, 0.0) for u, v in pairs)

    def _hop_index(
        self, pairs: tuple[tuple[int, int], ...]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Padded link ids, hop mask and hop latencies of ``pairs``."""
        paths = [self.path_links(s, d) for s, d in pairs]
        shape = (len(paths), max(1, max(map(len, paths), default=0)))
        idx = np.zeros(shape, dtype=np.intp)
        mask = np.zeros(shape, dtype=bool)
        hop = np.zeros(shape)
        links = self.built.topology.links
        for row, path in enumerate(paths):
            n = len(path)
            idx[row, :n] = path
            mask[row, :n] = True
            hop[row, :n] = [links[lid].hop_latency for lid in path]
        for arr in (idx, mask, hop):
            arr.flags.writeable = False
        return idx, mask, hop

    def _sum_hops(self, src: int, dst: int, data_bytes: float) -> float:
        """:meth:`path_time` without the memo: one pass over the hops."""
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

    def _round_trip(self, gpu: int, switch: int) -> float:
        """:meth:`round_trip` without its own memo."""
        sel = self.route_table.selection_bytes
        return self.path_time(gpu, switch, sel) + self.path_time(
            switch, gpu, sel
        )

    def _min_hop(self, src: int, dst: int) -> float:
        """:meth:`path_bottleneck` without the memo."""
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
        the *first* NVLink/PCIe entry wins.
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
        """Pairwise GPU latency matrix at the capacity view.

        Starts from the view's Dijkstra latencies and overrides co-located
        pairs with their direct NVLink hop (present in both views), priced
        by :meth:`path_time`, so the grouping heuristic always sees
        physical server locality. The override walks the precomputed
        direct-link table instead of scanning adjacency per pair, so the
        cost is O(n^2) numpy slicing plus O(direct links), not an O(n^2)
        Python pair loop.
        """
        idx = np.asarray(gpu_ids, dtype=np.int64)
        dist = self.route_table.latency[np.ix_(idx, idx)].copy()
        sel = self.route_table.selection_bytes
        view = self.offline()
        pos = {g: i for i, g in enumerate(gpu_ids)}
        for u, v in self._direct_link_table():
            i = pos.get(u)
            j = pos.get(v)
            if i is None or j is None or i == j:
                continue
            t = view.path_time(u, v, sel)
            if t < dist[i, j]:
                dist[i, j] = t
        return dist


@dataclass
class Route:
    """One policy of a TP group, resolved once: its links and its price.

    A scheme resolves a ``(mode, switch)`` into a route — switch choice,
    leader election and member order are fixed then, on the offline
    view for committed policies. ``links`` are the directed links the
    policy occupies (load registration, Eq. 18 sharing); :meth:`time`
    reads only the live ``B(e)`` of those links. A route is built with
    its links or with a zero-argument function that walks them; the
    function runs on the first read of :attr:`links` and its tuple
    replaces it, so an Eq. 7 candidate that is only priced never walks
    its footprint. Apart from that fill, routes are values, never mutated
    (not frozen only because frozen dataclasses are slow to build on the
    planner's hot path).
    """

    mode: str
    #: aggregation switch the policy depends on (None for switchless)
    switch: int | None
    #: the links, or the function that builds them (see :attr:`links`)
    _links: tuple[int, ...] | Callable[[], tuple[int, ...]] = field(
        repr=False, compare=False
    )

    @property
    def links(self) -> tuple[int, ...]:
        """Directed links the policy occupies, built on first read."""
        links = self._links
        if callable(links):
            links = self._links = links()
        return links

    def time(self, ctx: CommContext, data_bytes: float) -> float:
        """Latency of one all-reduce of ``data_bytes`` at ``ctx``'s view."""
        raise NotImplementedError

    def plan_time(self, ctx: CommContext, data_bytes: float) -> float:
        """The Eq. 7 estimate's form of :meth:`time` (same by default)."""
        return self.time(ctx, data_bytes)
