"""Content-keyed estimation cache for the offline planner's fast path.

Algorithm 1 re-evaluates the same communication sub-problems thousands of
times: every perturbation round re-prices candidate groups (most swaps
are rejected and re-tried later), k-means restarts across candidates
re-derive identical distance submatrices, and every group evaluation
re-walks the same offline shortest paths. All of those are *pure*
functions of immutable inputs — the built topology, the offline route
table, and the exact member tuple — so an :class:`EstimationCache`
memoizes three layers:

1. **group-step estimates** (`Algorithm 2's ``getlatency``) keyed on the
   exact-order member tuple, payload, scheme and slot parameters,
2. **GPU distance submatrices** keyed on the admissible-GPU tuple,
3. **route-table path lookups** (``path_links``/``path_time``/
   ``path_bottleneck``) via a :class:`_MemoPathContext` wrapper, so even
   cache *misses* in layer 1 run fast.

Key canonicalization is deliberately **order-preserving**: group
membership tuples are *not* sorted. The HYBRID scheme's per-server
leader election and the INA link-footprint assembly iterate members in
insertion order, so two permutations of the same set can legitimately
produce different (equally valid) estimates — a sorted key would silently
substitute one for the other and break the byte-identical-plan guarantee
(see ``docs/PERFORMANCE.md``). The cached value is the object the
uncached path would have produced, bit for bit; the cache only skips its
recomputation.

Staleness: the cache is only attached to *planner* contexts. When the
wrapped context carries a live :class:`~repro.network.linkstate.\
LinkLoadTracker` (fault-injected replans), every lookup first compares
the tracker's monotonic ``version`` counter and drops all memos when it
moved — a link degradation or load change invalidates every estimate.
:meth:`invalidate` forces the same flush explicitly (the planner calls
it on ``replan_excluding``).
"""

from __future__ import annotations

import threading
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


class _MemoPathContext(CommContext):
    """A :class:`CommContext` that memoizes route-table path lookups.

    Valid only for offline contexts (``linkstate is None``): with no live
    tracker, ``path_links``/``path_time``/``path_bottleneck`` are pure
    functions of the immutable route table, so replaying a memoized
    result is bitwise identical to recomputing it.
    """

    @classmethod
    def wrap(cls, base: CommContext) -> "_MemoPathContext":
        if base.linkstate is not None:
            raise ValueError(
                "_MemoPathContext requires an offline context "
                "(linkstate is None)"
            )
        obj = cls(
            built=base.built,
            route_table=base.route_table,
            linkstate=None,
            agg_latency=base.agg_latency,
            heterogeneous=base.heterogeneous,
        )
        obj._links_memo = {}
        obj._time_memo = {}
        obj._bneck_memo = {}
        return obj

    def clear(self) -> None:
        self._links_memo.clear()
        self._time_memo.clear()
        self._bneck_memo.clear()

    def path_links(self, src: int, dst: int) -> list[int]:
        key = (src, dst)
        hit = self._links_memo.get(key)
        if hit is None:
            hit = super().path_links(src, dst)
            self._links_memo[key] = hit
        return hit

    def path_time(self, src: int, dst: int, data_bytes: float) -> float:
        key = (src, dst, data_bytes)
        hit = self._time_memo.get(key)
        if hit is None:
            hit = super().path_time(src, dst, data_bytes)
            self._time_memo[key] = hit
        return hit

    def path_bottleneck(self, src: int, dst: int) -> float:
        key = (src, dst)
        hit = self._bneck_memo.get(key)
        if hit is None:
            hit = super().path_bottleneck(src, dst)
            self._bneck_memo[key] = hit
        return hit


class EstimationCache:
    """Memoized comm-latency evaluation over one offline context.

    Shared across every candidate, k-means seed and perturbation round of
    a planner run (and across planner runs, until invalidated). Safe for
    the planner's two concurrent estimation threads: memo dict reads and
    writes are individually atomic under the GIL, a duplicated miss just
    recomputes the same pure value, and the counters take a lock.
    """

    def __init__(self, ctx: CommContext) -> None:
        self.base = ctx
        if ctx.linkstate is None:
            #: evaluation context with memoized path lookups
            self.ctx: CommContext = _MemoPathContext.wrap(ctx)
        else:
            # A live tracker makes path costs time-varying: evaluate on
            # the raw context and rely on version-checked invalidation.
            self.ctx = ctx
        self._group_memo: dict[tuple, GroupCommEstimate] = {}
        self._dist_memo: dict[tuple[int, ...], np.ndarray] = {}
        self._lock = threading.Lock()
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
        ls = self.base.linkstate
        if ls is not None and ls.version != self._linkstate_version:
            self.invalidate()

    def invalidate(self) -> None:
        """Drop every memoized value (topology/fault/load state changed)."""
        with self._lock:
            self._group_memo.clear()
            self._dist_memo.clear()
            if isinstance(self.ctx, _MemoPathContext):
                self.ctx.clear()
            self.invalidations += 1
            ls = self.base.linkstate
            self._linkstate_version = ls.version if ls is not None else None

    # -- memoized evaluations ---------------------------------------------

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

        The key keeps the member tuple in caller order (HYBRID leader
        election and link footprints are order-sensitive; see module
        docstring).
        """
        self._maybe_invalidate()
        key = (
            tuple(gpus),
            float(data_bytes),
            # canonical registry name, so SchemeKind / str / scheme-object
            # spellings of the same collective share entries
            get_scheme(scheme).name,
            n_slots,
            slot_payload,
            float(contention),
        )
        hit = self._group_memo.get(key)
        if hit is not None:
            with self._lock:
                self.group_hits += 1
            return hit
        est = estimate_group_step(
            self.ctx,
            gpus,
            data_bytes,
            scheme,
            n_slots=n_slots,
            slot_payload=slot_payload,
            contention=contention,
        )
        self._group_memo[key] = est
        with self._lock:
            self.group_misses += 1
        return est

    def distance_matrix(self, gpus: Sequence[int]) -> np.ndarray:
        """Memoized :meth:`CommContext.gpu_distance_matrix`.

        The returned array is shared across lookups and marked read-only.
        """
        self._maybe_invalidate()
        key = tuple(gpus)
        hit = self._dist_memo.get(key)
        if hit is not None:
            with self._lock:
                self.dist_hits += 1
            return hit
        dist = self.ctx.gpu_distance_matrix(list(gpus))
        dist.flags.writeable = False
        self._dist_memo[key] = dist
        with self._lock:
            self.dist_misses += 1
        return dist

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Hit/miss totals plus the combined hit rate (for BENCH_planner)."""
        with self._lock:
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
