"""Cached vs uncached planner: byte-identical plans, safe invalidation.

The estimation cache (``repro.core.estcache``) must never change a
planning decision: every memoized value is a pure recomputation, and the
rng draw sequence is untouched. These tests sweep seeds and topologies
comparing the full ``Plan`` dataclasses (``==`` over every nested field
plus ``repr`` equality, i.e. byte-identical rendering), and exercise the
fault-replan path that must invalidate the cache.

``TestGoldenSchemeParity`` additionally pins the CollectiveScheme
registry refactor against ``tests/data/golden_scheme_parity.json``,
captured from the pre-registry branch ladders: Eq. 7 estimates and full
planner output for ring/ina_sync/ina_async/hybrid must stay
byte-identical across seeds 0/7/13 on the testbed and 2tracks
topologies (regenerate only for intentional physics changes, via
``tests/make_scheme_goldens.py``).
"""

import json
import os

import pytest

from repro.comm import CommContext, SchemeKind
from repro.core import SLA_TESTBED_CHATBOT
from repro.core.planner import OfflinePlanner, PlannerConfig
from repro.llm import OPT_66B, A100, V100, BatchSpec, CostModelBank
from repro.network import build_testbed, build_xtracks_cluster

SEEDS = [0, 1, 2, 7, 13]

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_scheme_parity.json"
)
ROWS_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_scheme_rows.json"
)


@pytest.fixture(scope="module")
def testbed_ctx():
    return CommContext.from_built(build_testbed(), heterogeneous=True)


@pytest.fixture(scope="module")
def cluster_ctx():
    return CommContext.from_built(
        build_xtracks_cluster(2, n_units=1), heterogeneous=True
    )


@pytest.fixture(scope="module")
def bank():
    return CostModelBank(OPT_66B, {"A100": A100, "V100": V100})


def _plan(ctx, bank, seed, use_cache, scheme=SchemeKind.HYBRID):
    config = PlannerConfig(seed=seed, use_cache=use_cache, max_candi=6)
    planner = OfflinePlanner(
        ctx, OPT_66B, bank, SLA_TESTBED_CHATBOT, scheme, config=config
    )
    report = planner.plan(
        BatchSpec.uniform(8, 256, 220), arrival_rate=0.5
    )
    return planner, report


class TestByteIdenticalPlans:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_testbed(self, testbed_ctx, bank, seed):
        _, cached = _plan(testbed_ctx, bank, seed, use_cache=True)
        _, plain = _plan(testbed_ctx, bank, seed, use_cache=False)
        assert cached.plan == plain.plan
        assert repr(cached.plan) == repr(plain.plan)
        assert cached.cache_stats["hits"] > 0
        assert plain.cache_stats == {}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cluster(self, cluster_ctx, bank, seed):
        _, cached = _plan(cluster_ctx, bank, seed, use_cache=True)
        _, plain = _plan(cluster_ctx, bank, seed, use_cache=False)
        assert cached.plan == plain.plan
        assert repr(cached.plan) == repr(plain.plan)

    def test_cache_shared_across_solves(self, testbed_ctx, bank):
        planner, first = _plan(testbed_ctx, bank, 7, use_cache=True)
        second = planner.plan(
            BatchSpec.uniform(8, 256, 220), arrival_rate=0.5
        )
        assert second.plan == first.plan
        # A warm cache re-solve is almost entirely hits.
        assert second.cache_stats["hit_rate"] > first.cache_stats[
            "hit_rate"
        ]


class TestGoldenSchemeParity:
    """Registry dispatch reproduces the pre-refactor ladders exactly."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_PATH) as fh:
            return json.load(fh)

    @pytest.fixture(scope="class")
    def goldgen(self):
        # The golden generator doubles as the recompute harness: it
        # renders estimates/plans in exactly the pinned format.
        import sys

        sys.path.insert(0, os.path.dirname(__file__))
        try:
            import make_scheme_goldens
        finally:
            sys.path.pop(0)
        return make_scheme_goldens

    @pytest.fixture(scope="class")
    def topologies(self, goldgen):
        return goldgen._topologies()

    @pytest.mark.parametrize("topo", ["testbed", "2tracks"])
    def test_estimates_byte_identical(
        self, golden, goldgen, topologies, topo
    ):
        now = goldgen._estimates(topologies[topo])
        want = golden["topologies"][topo]["estimates"]
        for scheme, cases in want.items():
            for case, vals in cases.items():
                assert now[scheme][case] == vals, (
                    f"{topo}/{scheme}/{case} diverged from golden"
                )

    @pytest.mark.parametrize("topo", ["testbed", "2tracks"])
    def test_plans_byte_identical(
        self, golden, goldgen, topologies, topo
    ):
        now = goldgen._plans(topologies[topo])
        want = golden["topologies"][topo]["plans"]
        # seeds 0/7/13 x ring/ina_sync/ina_async/hybrid, repr-hash level
        assert len(want) == 12
        for key, vals in want.items():
            assert now[key] == vals, f"{topo}/plans/{key} diverged"

    @pytest.mark.parametrize("topo", ["testbed", "2tracks"])
    def test_policy_rows_byte_identical(self, goldgen, topologies, topo):
        with open(ROWS_PATH) as fh:
            want = json.load(fh)["topologies"][topo]
        now = goldgen._rows(topologies[topo])
        for scheme, groups in want.items():
            for group, rows in groups.items():
                assert now[scheme][group] == rows, (
                    f"{topo}/{scheme}/{group} policy rows diverged"
                )


class TestReplanInvalidation:
    def test_replan_excluding_invalidates(self, testbed_ctx, bank):
        planner, report = _plan(testbed_ctx, bank, 7, use_cache=True)
        assert report.plan is not None
        cache = planner._active_cache()
        assert cache is not None and cache.invalidations == 0
        failed = list(report.plan.prefill.stages[0][:1])
        replan = planner.replan_excluding(
            failed,
            BatchSpec.uniform(8, 256, 220),
            arrival_rate=0.5,
            prefer=report.plan.parallel,
        )
        assert cache.invalidations == 1
        if replan.plan is not None:
            survivors = {
                g for st in replan.plan.prefill.stages for g in st
            }
            assert not survivors & set(failed)

    def test_replan_matches_uncached_replan(self, testbed_ctx, bank):
        planner_c, report_c = _plan(testbed_ctx, bank, 7, use_cache=True)
        planner_u, report_u = _plan(testbed_ctx, bank, 7, use_cache=False)
        failed = list(report_c.plan.prefill.stages[0][:1])
        batch = BatchSpec.uniform(8, 256, 220)
        replan_c = planner_c.replan_excluding(
            failed, batch, 0.5, prefer=report_c.plan.parallel
        )
        replan_u = planner_u.replan_excluding(
            failed, batch, 0.5, prefer=report_u.plan.parallel
        )
        assert replan_c.plan == replan_u.plan
        assert repr(replan_c.plan) == repr(replan_u.plan)
