"""Estimation cache: hit/miss accounting, identity, invalidation, and
the cached planner against the uncached one on random topologies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import CommContext, SchemeKind, registered_schemes
from repro.comm.latency import estimate_group_step
from repro.core import SLA_TESTBED_CHATBOT, EstimationCache
from repro.core.grouping import swap_perturbation
from repro.core.planner import OfflinePlanner, PlannerConfig
from repro.llm import OPT_66B, A100, V100, BatchSpec, CostModelBank
from repro.network import build_testbed, build_xtracks_cluster
from repro.network.linkstate import LinkLoadTracker
from repro.util.rng import make_rng


@pytest.fixture(scope="module")
def tb():
    return build_testbed()


@pytest.fixture(scope="module")
def het(tb):
    return CommContext.from_built(tb, heterogeneous=True)


DATA = 64 * 1024 * 1024


class TestGroupStepMemo:
    @pytest.mark.parametrize(
        "scheme",
        [
            SchemeKind.RING,
            SchemeKind.INA_SYNC,
            SchemeKind.INA_ASYNC,
            SchemeKind.HYBRID,
        ],
    )
    def test_identical_to_uncached(self, het, tb, scheme):
        gpus = tb.topology.gpu_ids()[:4]
        cache = EstimationCache(het)
        cached = cache.group_step(gpus, DATA, scheme)
        direct = estimate_group_step(het, gpus, DATA, scheme)
        assert cached == direct

    def test_hit_and_miss_counting(self, het, tb):
        gpus = tb.topology.gpu_ids()[:4]
        cache = EstimationCache(het)
        first = cache.group_step(gpus, DATA, SchemeKind.HYBRID)
        second = cache.group_step(gpus, DATA, SchemeKind.HYBRID)
        assert first is second
        assert cache.group_misses == 1
        assert cache.group_hits == 1
        assert cache.stats()["hit_rate"] == 0.5

    def test_key_is_order_sensitive(self, het, tb):
        """Permutations must not share an entry: group evaluation is
        order-sensitive (HYBRID leader election, link footprints)."""
        gpus = tb.topology.gpu_ids()[:4]
        cache = EstimationCache(het)
        cache.group_step(gpus, DATA, SchemeKind.HYBRID)
        cache.group_step(list(reversed(gpus)), DATA, SchemeKind.HYBRID)
        assert cache.group_misses == 2
        rev = cache.group_step(
            list(reversed(gpus)), DATA, SchemeKind.HYBRID
        )
        assert rev == estimate_group_step(
            het, list(reversed(gpus)), DATA, SchemeKind.HYBRID
        )

    def test_payload_and_scheme_are_part_of_key(self, het, tb):
        gpus = tb.topology.gpu_ids()[:4]
        cache = EstimationCache(het)
        cache.group_step(gpus, DATA, SchemeKind.HYBRID)
        cache.group_step(gpus, 2 * DATA, SchemeKind.HYBRID)
        cache.group_step(gpus, DATA, SchemeKind.RING)
        assert cache.group_misses == 3


class TestGroupTimeMemo:
    @pytest.mark.parametrize("scheme", [s.name for s in registered_schemes()])
    def test_float_is_the_estimate_step_time(self, het, tb, scheme):
        gpus = tb.topology.gpu_ids()[2:8]
        cache = EstimationCache(het)
        t = cache.group_time(gpus, DATA, scheme)
        assert type(t) is float
        assert t == estimate_group_step(het, gpus, DATA, scheme).step_time
        assert cache.group_step(gpus, DATA, scheme).step_time == t

    def test_memos_share_hit_and_miss_counts(self, het, tb):
        # A key misses once, on its first lookup in either memo: the
        # estimate of a group the perturbation priced is a hit.
        gpus = tb.topology.gpu_ids()[:4]
        cache = EstimationCache(het)
        cache.group_time(gpus, DATA, SchemeKind.HYBRID)
        cache.group_time(gpus, DATA, SchemeKind.HYBRID)
        cache.group_step(gpus, DATA, SchemeKind.HYBRID)
        cache.group_step(gpus, DATA, SchemeKind.HYBRID)
        assert (cache.group_misses, cache.group_hits) == (1, 3)
        other = tb.topology.gpu_ids()[4:8]
        cache.group_step(other, DATA, SchemeKind.HYBRID)
        cache.group_time(other, DATA, SchemeKind.HYBRID)
        assert (cache.group_misses, cache.group_hits) == (2, 4)

    def test_perturbation_builds_no_estimate(self, het, tb):
        gpus = tb.topology.gpu_ids()[:4]
        cache = EstimationCache(het)
        cache.group_time(gpus, DATA, SchemeKind.HYBRID)
        assert len(cache._time_memo) == 1 and cache._group_memo == {}


class TestDistanceMemo:
    def test_identical_and_shared(self, het, tb):
        gpus = tb.topology.gpu_ids()[:8]
        cache = EstimationCache(het)
        d1 = cache.distance_matrix(gpus)
        d2 = cache.distance_matrix(gpus)
        assert d1 is d2
        assert not d1.flags.writeable
        np.testing.assert_array_equal(d1, het.gpu_distance_matrix(gpus))
        assert cache.dist_hits == 1 and cache.dist_misses == 1


class TestInvalidation:
    def test_explicit_invalidate_flushes(self, het, tb):
        gpus = tb.topology.gpu_ids()[:4]
        cache = EstimationCache(het)
        cache.group_step(gpus, DATA, SchemeKind.HYBRID)
        cache.distance_matrix(gpus)
        cache.invalidate()
        assert cache.invalidations == 1
        cache.group_step(gpus, DATA, SchemeKind.HYBRID)
        cache.distance_matrix(gpus)
        assert cache.group_misses == 2
        assert cache.dist_misses == 2

    def _fill(self, cache, gpus):
        cache.group_time(gpus, DATA, SchemeKind.HYBRID)
        cache.group_step(gpus[::-1], DATA, SchemeKind.HYBRID)
        assert len(cache._time_memo) == 2 and len(cache._group_memo) == 1

    def test_invalidate_flushes_both_memos(self, het, tb):
        gpus = tb.topology.gpu_ids()[:4]
        cache = EstimationCache(het)
        self._fill(cache, gpus)
        cache.invalidate()
        assert cache._time_memo == {} and cache._group_memo == {}
        self._fill(cache, gpus)
        assert cache.group_misses == 4 and cache.group_hits == 0

    def test_version_bump_flushes_both_memos(self, tb):
        tracker = LinkLoadTracker(tb.topology)
        ctx = CommContext.from_built(tb, linkstate=tracker)
        gpus = tb.topology.gpu_ids()[:4]
        cache = EstimationCache(ctx)
        self._fill(cache, gpus)
        stale = cache.group_time(gpus, DATA, SchemeKind.HYBRID)
        tracker.set_link_factor(0, 0.5)
        handle = tracker.register(list(ctx.path_links(gpus[0], gpus[3])), 5e9)
        fresh = cache.group_time(gpus, DATA, SchemeKind.HYBRID)
        assert cache.invalidations == 1
        assert len(cache._time_memo) == 1 and cache._group_memo == {}
        assert fresh == estimate_group_step(
            ctx, gpus, DATA, SchemeKind.HYBRID
        ).step_time
        assert fresh != stale
        tracker.release(handle)
        est = cache.group_step(gpus[::-1], DATA, SchemeKind.HYBRID)
        assert cache.invalidations == 2
        assert est == estimate_group_step(
            ctx, gpus[::-1], DATA, SchemeKind.HYBRID
        )
        assert len(cache._time_memo) == 1 and len(cache._group_memo) == 1

    def test_linkstate_version_invalidates(self, tb):
        """A degraded link must flush every memoized estimate."""
        tracker = LinkLoadTracker(tb.topology)
        ctx = CommContext.from_built(tb, linkstate=tracker)
        gpus = tb.topology.gpu_ids()[:4]
        cache = EstimationCache(ctx)
        before = cache.group_step(gpus, DATA, SchemeKind.RING)
        assert cache.group_step(gpus, DATA, SchemeKind.RING) is before
        tracker.set_link_factor(0, 0.5)
        after = cache.group_step(gpus, DATA, SchemeKind.RING)
        assert cache.invalidations == 1
        assert cache.group_misses == 2
        # the fresh estimate reflects the degraded capacity
        assert after == estimate_group_step(ctx, gpus, DATA, SchemeKind.RING)

    def test_live_tracker_context_is_not_path_memoized(self, tb):
        tracker = LinkLoadTracker(tb.topology)
        ctx = CommContext.from_built(tb, linkstate=tracker)
        cache = EstimationCache(ctx)
        assert cache.ctx is ctx


class TestPerturbationMemo:
    def test_memoized_identical_with_fewer_evals(self):
        rng_a, rng_b = make_rng(3), make_rng(3)
        dist = make_rng(0).random((8, 8))
        dist = dist + dist.T

        def make_cost(counter):
            def cost(g):
                counter[0] += 1
                idx = np.asarray(list(g))
                return float(dist[np.ix_(idx, idx)].sum())

            return cost

        groups = [[0, 1, 2, 3], [4, 5, 6, 7]]
        calls_plain, calls_memo = [0], [0]
        plain = swap_perturbation(
            [list(g) for g in groups], make_cost(calls_plain), rng_a
        )
        memo = swap_perturbation(
            [list(g) for g in groups],
            make_cost(calls_memo),
            rng_b,
            memoize=True,
        )
        assert plain == memo
        assert calls_memo[0] < calls_plain[0]


#: small topologies the planner solves in well under a second
_TOPOLOGIES = {
    "testbed-1track": lambda: build_testbed(tracks=1),
    "testbed": build_testbed,
    "testbed-3track": lambda: build_testbed(tracks=3),
    "xtracks-2x1": lambda: build_xtracks_cluster(2, n_units=1),
    "xtracks-2x2": lambda: build_xtracks_cluster(2, n_units=2),
}
_BUILT: dict = {}


class TestCachedPlannerDifferential:
    """The cached planner against the uncached one: the cache skips pure
    recomputation only, so every plan renders byte-identically."""

    @settings(max_examples=12, deadline=None)
    @given(
        topo=st.sampled_from(sorted(_TOPOLOGIES)),
        scheme=st.sampled_from([s.name for s in registered_schemes()]),
        seed=st.integers(0, 2**16),
        max_candi=st.integers(1, 6),
    )
    def test_plans_render_identically(self, topo, scheme, seed, max_candi):
        if topo not in _BUILT:
            _BUILT[topo] = _TOPOLOGIES[topo]()
        built = _BUILT[topo]
        kind = next(s for s in registered_schemes() if s.name == scheme)
        bank = CostModelBank(OPT_66B, {"A100": A100, "V100": V100})
        reports = []
        for use_cache in (True, False):
            ctx = CommContext.from_built(
                built, heterogeneous=kind.heterogeneous
            )
            config = PlannerConfig(
                seed=seed, max_candi=max_candi, use_cache=use_cache
            )
            reports.append(
                OfflinePlanner(
                    ctx, OPT_66B, bank, SLA_TESTBED_CHATBOT, kind.kind,
                    config=config,
                ).plan(BatchSpec.uniform(8, 256, 220), arrival_rate=0.5)
            )
        cached, plain = reports
        assert repr(cached.plan) == repr(plain.plan)
        assert cached.candidates_evaluated == plain.candidates_evaluated
