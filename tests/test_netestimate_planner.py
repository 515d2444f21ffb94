"""Algorithm 2 network estimation and Algorithm 1 planner."""

import threading
from dataclasses import replace

import pytest

from repro.comm import CommContext, SchemeKind
from repro.core import (
    SLA_TESTBED_CHATBOT,
    OfflinePlanner,
    ParallelConfig,
    PlannerConfig,
    estimate_network_latency,
)
from repro.core.planner import ExhaustivePlanner, split_pools
from repro.llm import OPT_66B, A100, V100, BatchSpec, CostModelBank
from repro.network import build_testbed
from repro.util.rng import make_rng


@pytest.fixture(scope="module")
def tb():
    return build_testbed()


@pytest.fixture(scope="module")
def homo(tb):
    return CommContext.from_built(tb, heterogeneous=False)


@pytest.fixture(scope="module")
def het(tb):
    return CommContext.from_built(tb, heterogeneous=True)


@pytest.fixture(scope="module")
def bank():
    return CostModelBank(OPT_66B, {"A100": A100, "V100": V100})


class TestNetworkEstimate:
    def test_groups_shape(self, homo, tb):
        est = estimate_network_latency(
            homo,
            tb.topology.gpu_ids()[:8],
            p_tens=4,
            p_pipe=2,
            model=OPT_66B,
            tokens=512,
            scheme=SchemeKind.RING,
            rng=make_rng(0),
        )
        assert len(est.stages) == 2
        assert all(len(s) == 4 for s in est.stages)
        assert est.t_network > 0

    def test_grouping_prefers_same_server(self, homo, tb):
        """TP4 groups on the 4-GPU-per-server testbed must be intra-server."""
        est = estimate_network_latency(
            homo,
            tb.topology.gpu_ids()[:8],
            4,
            2,
            OPT_66B,
            tokens=512,
            scheme=SchemeKind.RING,
            rng=make_rng(0),
        )
        topo = tb.topology
        for stage in est.stages:
            servers = {topo.nodes[g].server for g in stage}
            assert len(servers) == 1

    def test_insufficient_gpus_raises(self, homo, tb):
        with pytest.raises(ValueError):
            estimate_network_latency(
                homo,
                tb.topology.gpu_ids()[:3],
                4,
                1,
                OPT_66B,
                tokens=10,
                scheme=SchemeKind.RING,
            )

    def test_hybrid_not_worse_than_ring(self, homo, het, tb):
        g = tb.topology.gpu_ids()[:8]
        kw = dict(model=OPT_66B, tokens=2048, rng=make_rng(0))
        ring = estimate_network_latency(
            homo, g, 8, 1, scheme=SchemeKind.RING, **kw
        )
        hyb = estimate_network_latency(
            het, g, 8, 1, scheme=SchemeKind.HYBRID, **kw
        )
        assert hyb.t_network <= ring.t_network


class TestSplitPools:
    def test_disjoint_and_complete(self, tb):
        pre, dec = split_pools(tb)
        assert not set(pre) & set(dec)
        assert sorted(pre + dec) == tb.topology.gpu_ids()

    def test_high_memory_servers_go_to_decode(self, tb):
        """Paper III-B: decode favours servers with ample memory (A100)."""
        _, dec = split_pools(tb)
        assert all(tb.gpu_models[g] == "A100" for g in dec)


class TestPlanner:
    def test_finds_feasible_plan(self, het, bank):
        p = OfflinePlanner(
            het, OPT_66B, bank, SLA_TESTBED_CHATBOT, SchemeKind.HYBRID
        )
        rep = p.plan(BatchSpec.uniform(8, 256, 200), arrival_rate=0.3)
        assert rep.plan is not None
        assert rep.plan.scalability > 0
        assert rep.plan.t_prefill <= SLA_TESTBED_CHATBOT.ttft
        assert rep.plan.t_decode <= SLA_TESTBED_CHATBOT.tpot

    def test_plan_pools_respected(self, het, bank, tb):
        pre, dec = split_pools(tb)
        p = OfflinePlanner(
            het, OPT_66B, bank, SLA_TESTBED_CHATBOT, SchemeKind.HYBRID
        )
        rep = p.plan(BatchSpec.uniform(8, 256, 200), arrival_rate=0.3)
        assert set(rep.plan.prefill.gpu_ids) <= set(pre)
        assert set(rep.plan.decode.gpu_ids) <= set(dec)

    def test_forced_parallel(self, het, bank):
        p = OfflinePlanner(
            het, OPT_66B, bank, SLA_TESTBED_CHATBOT, SchemeKind.HYBRID
        )
        forced = ParallelConfig(8, 1, 8, 1)
        rep = p.plan(
            BatchSpec.uniform(8, 256, 200), 0.3, forced_parallel=forced
        )
        assert rep.plan is not None
        assert rep.plan.parallel == forced
        assert rep.candidates_evaluated == 1

    def test_memory_filter_rejects_impossible(self, het, bank):
        """TP4xPP1 needs 51GB shards: no admissible GPUs exist."""
        p = OfflinePlanner(
            het, OPT_66B, bank, SLA_TESTBED_CHATBOT, SchemeKind.HYBRID
        )
        rep = p.plan(
            BatchSpec.uniform(8, 256, 200),
            0.3,
            forced_parallel=ParallelConfig(4, 1, 4, 1),
        )
        assert rep.plan is None
        assert any("insufficient" in r for r in rejected_msgs(rep))

    def test_deterministic_given_seed(self, het, bank):
        cfg = PlannerConfig(seed=11)
        batch = BatchSpec.uniform(8, 256, 200)
        p1 = OfflinePlanner(
            het, OPT_66B, bank, SLA_TESTBED_CHATBOT, SchemeKind.HYBRID,
            config=cfg,
        ).plan(batch, 0.3)
        p2 = OfflinePlanner(
            het, OPT_66B, bank, SLA_TESTBED_CHATBOT, SchemeKind.HYBRID,
            config=PlannerConfig(seed=11),
        ).plan(batch, 0.3)
        assert p1.plan.parallel == p2.plan.parallel
        assert p1.plan.prefill.stages == p2.plan.prefill.stages

    def test_overlapping_pools_rejected(self, het, bank, tb):
        g = tb.topology.gpu_ids()
        with pytest.raises(ValueError):
            OfflinePlanner(
                het, OPT_66B, bank, SLA_TESTBED_CHATBOT, SchemeKind.HYBRID,
                prefill_pool=g[:8], decode_pool=g[4:12],
            )

    def test_exhaustive_not_faster(self, homo, bank):
        """The heuristic planner must evaluate no more candidates than the
        exhaustive one and finish at least as fast (paper §III-C3)."""
        batch = BatchSpec.uniform(8, 256, 200)
        fast = OfflinePlanner(
            homo, OPT_66B, bank, SLA_TESTBED_CHATBOT, SchemeKind.RING
        ).plan(batch, 0.3)
        slow = ExhaustivePlanner(
            homo, OPT_66B, bank, SLA_TESTBED_CHATBOT, SchemeKind.RING
        ).plan(batch, 0.3)
        assert fast.candidates_evaluated <= slow.candidates_evaluated
        assert slow.plan is not None

    def test_exhaustive_leaves_caller_config_unchanged(self, homo, bank):
        """A config shared with an ExhaustivePlanner keeps its cache and
        candidate cap for the next planner built from it."""
        cfg = PlannerConfig(seed=3)
        before = replace(cfg)
        slow = ExhaustivePlanner(
            homo, OPT_66B, bank, SLA_TESTBED_CHATBOT, SchemeKind.RING,
            config=cfg,
        )
        assert cfg == before
        assert slow.config.max_candi == 10_000
        assert not slow.config.use_cache
        assert slow._active_cache() is None
        fast = OfflinePlanner(
            homo, OPT_66B, bank, SLA_TESTBED_CHATBOT, SchemeKind.RING,
            config=cfg,
        )
        assert fast._active_cache() is not None

    def test_plan_starts_no_thread(self, het, bank, monkeypatch):
        """Both phase estimates run on the calling thread."""
        batch = BatchSpec.uniform(8, 256, 200)

        def plan():
            return OfflinePlanner(
                het, OPT_66B, bank, SLA_TESTBED_CHATBOT, SchemeKind.HYBRID
            ).plan(batch, 0.3)

        expected = repr(plan().plan)

        def refuse(self):
            raise AssertionError("the planner started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert repr(plan().plan) == expected


def rejected_msgs(report):
    return report.rejected


class TestReplanExcluding:
    def _planner(self, het, bank):
        return OfflinePlanner(
            het, OPT_66B, bank, SLA_TESTBED_CHATBOT, SchemeKind.HYBRID
        )

    def test_empty_exclusion_equals_plain_plan(self, het, bank):
        p = self._planner(het, bank)
        batch = BatchSpec.uniform(8, 256, 200)
        forced = ParallelConfig(8, 1, 8, 1)
        rep = p.replan_excluding(set(), batch, 0.3, prefer=forced)
        assert rep.plan is not None
        assert rep.plan.parallel == forced

    def test_whole_pool_lost_is_rejected_not_crashed(self, het, bank, tb):
        p = self._planner(het, bank)
        _, dec = split_pools(tb)
        rep = p.replan_excluding(
            set(dec), BatchSpec.uniform(8, 256, 200), 0.3
        )
        assert rep.plan is None
        assert any("surviving" in r for r in rep.rejected)

    def test_survivor_plan_avoids_failed_gpus(self, het, bank, tb):
        """Losing one prefill server: the replan must not place on it."""
        p = self._planner(het, bank)
        pre, _ = split_pools(tb)
        # fail the server hosting the first prefill GPU
        server = next(
            s for s, gl in tb.server_gpus.items() if pre[0] in gl
        )
        failed = set(tb.server_gpus[server])
        rep = p.replan_excluding(
            failed, BatchSpec.uniform(8, 256, 200), 0.3
        )
        if rep.plan is not None:  # feasibility depends on memory fit
            assert not (set(rep.plan.prefill.gpu_ids) & failed)
            assert not (set(rep.plan.decode.gpu_ids) & failed)

    def test_pools_restored_after_call(self, het, bank, tb):
        p = self._planner(het, bank)
        pre_before = list(p.prefill_pool)
        dec_before = list(p.decode_pool)
        p.replan_excluding(
            {pre_before[0]}, BatchSpec.uniform(8, 256, 200), 0.3
        )
        assert p.prefill_pool == pre_before
        assert p.decode_pool == dec_before
