"""Content-keyed estimation cache for the offline planner's fast path.

Algorithm 1 re-evaluates the same communication sub-problems thousands of
times: every perturbation round re-prices candidate groups (most swaps
are rejected and re-tried later), k-means restarts across candidates
re-derive identical distance submatrices, and every group evaluation
re-walks the same offline shortest paths. All of those are *pure*
functions of immutable inputs — the built topology, the offline route
table, and the exact member tuple — so an :class:`EstimationCache`
memoizes them:

1. **group-step times** (Algorithm 2's ``getlatency``, the float the
   perturbation compares) keyed on the exact-order member tuple,
   payload, scheme and slot parameters — the *float memo*
   (:meth:`EstimationCache.group_time`),
2. **group-step estimates** under the same key — the *estimate memo*
   (:meth:`EstimationCache.group_step`), a
   :class:`~repro.comm.latency.GroupCommEstimate` with the winning
   route's links, built only for the groups mode selection reads,
3. **GPU distance submatrices** keyed on the admissible-GPU tuple.

A perturbation miss prices the Eq. 7 candidates and keeps only the
winning time: no route's link footprint is walked
(:attr:`~repro.comm.context.Route.links` is built on first read), and no
route is kept. Cache *misses* still run fast: a capacity-view
:class:`~repro.comm.context.CommContext` memoizes its own offline path
prices (``path_time``, which at zero bytes is a path's summed hop
latency, and ``path_bottleneck``) and each member's switch round trip
(``round_trip``), and the route table memoizes the link paths under them
(:meth:`~repro.network.routing.RouteTable.link_path`).

Key canonicalization is deliberately **order-preserving**: group
membership tuples are *not* sorted. The HYBRID scheme's per-server
leader election and the INA link-footprint assembly iterate members in
insertion order, so two permutations of the same set can legitimately
produce different (equally valid) estimates — a sorted key would silently
substitute one for the other and break the byte-identical-plan guarantee
(see ``docs/PERFORMANCE.md``). The cached value is the value the
uncached path would have produced, bit for bit; the cache only skips its
recomputation. Hits and misses count lookups of a key in either memo: a
key is a miss the first time it is looked up at all, so an estimate
built for a group the perturbation already priced (its route resolved
once more) counts as a hit.

Staleness: the cache is only attached to *planner* contexts. When the
wrapped context carries a live :class:`~repro.network.linkstate.\
LinkLoadTracker` (fault-injected replans), every lookup first compares
the tracker's monotonic ``version`` counter and drops all memos when it
moved — a link degradation or load change invalidates every estimate.
:meth:`invalidate` forces the same flush explicitly (the planner calls
it on ``replan_excluding``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.comm.context import CommContext
from repro.comm.latency import (
    DEFAULT_N_SLOTS,
    DEFAULT_SLOT_PAYLOAD,
    GroupCommEstimate,
    SchemeKind,
    estimate_group_step,
    get_scheme,
)

__all__ = ["EstimationCache"]


class EstimationCache:
    """Memoized comm-latency evaluation over one offline context.

    Shared across every candidate, k-means seed and perturbation round of
    a planner run (and across planner runs, until invalidated). The
    planner estimates on one thread, so the hit/miss counts are exact.
    """

    def __init__(self, ctx: CommContext) -> None:
        #: evaluation context; a capacity view memoizes its own path
        #: prices, a live one relies on version-checked invalidation
        self.ctx = ctx
        self._time_memo: dict[tuple, float] = {}
        self._group_memo: dict[tuple, GroupCommEstimate] = {}
        self._dist_memo: dict[tuple[int, ...], np.ndarray] = {}
        self.group_hits = 0
        self.group_misses = 0
        self.dist_hits = 0
        self.dist_misses = 0
        self.invalidations = 0
        self._linkstate_version = (
            ctx.linkstate.version if ctx.linkstate is not None else None
        )

    # -- staleness ---------------------------------------------------------

    def _maybe_invalidate(self) -> None:
        ls = self.ctx.linkstate
        if ls is not None and ls.version != self._linkstate_version:
            self.invalidate()

    def invalidate(self) -> None:
        """Drop every memoized value (topology/fault/load state changed)."""
        self._time_memo.clear()
        self._group_memo.clear()
        self._dist_memo.clear()
        self.invalidations += 1
        ls = self.ctx.linkstate
        self._linkstate_version = ls.version if ls is not None else None

    # -- memoized evaluations ---------------------------------------------

    def group_time(
        self,
        gpus: Sequence[int],
        data_bytes: float,
        scheme: SchemeKind,
        n_slots: int = DEFAULT_N_SLOTS,
        slot_payload: int = DEFAULT_SLOT_PAYLOAD,
        contention: float = 0.0,
    ) -> float:
        """Memoized Eq. 7 step time of the group (the perturbation's cost).

        A miss prices the group's candidate routes
        (:meth:`~repro.comm.scheme.CollectiveScheme.estimate_route`) and
        keeps the winning float only; it equals
        :func:`~repro.comm.latency.estimate_group_step`'s ``step_time``.
        """
        key = self._key(
            gpus, data_bytes, scheme, n_slots, slot_payload, contention
        )
        hit = self._time_memo.get(key)
        if hit is not None:
            self.group_hits += 1
            return hit
        self.group_misses += 1
        _, t = get_scheme(scheme).estimate_route(
            self.ctx, gpus, data_bytes, n_slots, slot_payload, contention
        )
        self._time_memo[key] = t
        return t

    def group_step(
        self,
        gpus: Sequence[int],
        data_bytes: float,
        scheme: SchemeKind,
        n_slots: int = DEFAULT_N_SLOTS,
        slot_payload: int = DEFAULT_SLOT_PAYLOAD,
        contention: float = 0.0,
    ) -> GroupCommEstimate:
        """Memoized :func:`repro.comm.latency.estimate_group_step`.

        Mode selection's lookup: the estimate carries the winning
        route's links, so only the groups a plan keeps walk a footprint.
        Its ``step_time`` is the float memo's, bit for bit.
        """
        key = self._key(
            gpus, data_bytes, scheme, n_slots, slot_payload, contention
        )
        hit = self._group_memo.get(key)
        if hit is not None:
            self.group_hits += 1
            return hit
        if key in self._time_memo:
            self.group_hits += 1
        else:
            self.group_misses += 1
        est = self._group_memo[key] = estimate_group_step(
            self.ctx,
            gpus,
            data_bytes,
            scheme,
            n_slots=n_slots,
            slot_payload=slot_payload,
            contention=contention,
        )
        self._time_memo[key] = est.step_time
        return est

    def _key(
        self,
        gpus: Sequence[int],
        data_bytes: float,
        scheme: SchemeKind,
        n_slots: int,
        slot_payload: int,
        contention: float,
    ) -> tuple:
        """The memo key, after the staleness check.

        It keeps the member tuple in caller order (HYBRID leader
        election and link footprints are order-sensitive; see module
        docstring).
        """
        self._maybe_invalidate()
        return (
            tuple(gpus),
            float(data_bytes),
            # canonical registry name, so SchemeKind / str / scheme-object
            # spellings of the same collective share entries
            get_scheme(scheme).name,
            n_slots,
            slot_payload,
            float(contention),
        )

    def distance_matrix(self, gpus: Sequence[int]) -> np.ndarray:
        """Memoized :meth:`CommContext.gpu_distance_matrix`.

        The returned array is shared across lookups and marked read-only.
        """
        self._maybe_invalidate()
        key = tuple(gpus)
        hit = self._dist_memo.get(key)
        if hit is not None:
            self.dist_hits += 1
            return hit
        dist = self.ctx.gpu_distance_matrix(list(gpus))
        dist.flags.writeable = False
        self._dist_memo[key] = dist
        self.dist_misses += 1
        return dist

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Hit/miss totals plus the combined hit rate (for BENCH_planner)."""
        hits = self.group_hits + self.dist_hits
        misses = self.group_misses + self.dist_misses
        return {
            "group_hits": self.group_hits,
            "group_misses": self.group_misses,
            "dist_hits": self.dist_hits,
            "dist_misses": self.dist_misses,
            "invalidations": self.invalidations,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }
