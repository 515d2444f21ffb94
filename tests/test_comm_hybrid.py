"""Hybrid heterogeneous all-reduce: the HeroServe collective."""

import pytest

from repro.comm import (
    CommContext,
    HybridRoute,
    SchemeKind,
    elect_leader,
    estimate_group_step,
    get_scheme,
    group_by_server,
    ina_allreduce_time,
    local_reduce_time,
    ring_allreduce_time,
    select_ina_switch,
)
from repro.network import LinkKind, build_fig2_example, build_testbed

HYBRID = get_scheme(SchemeKind.HYBRID)


def hybrid_time(ctx, gpus, data):
    """Eq. 7 step time of the hybrid scheme."""
    return estimate_group_step(ctx, gpus, data, SchemeKind.HYBRID).step_time


def planned_route(ctx, gpus, data):
    """The route of the hybrid scheme's Eq. 7 choice."""
    est = estimate_group_step(ctx, gpus, data, SchemeKind.HYBRID)
    return est, HYBRID.route(ctx, gpus, est.mode, est.ina_switch)


@pytest.fixture(scope="module")
def tb():
    return build_testbed()


@pytest.fixture(scope="module")
def hctx(tb):
    return CommContext.from_built(tb, heterogeneous=True)


class TestGrouping:
    def test_group_by_server(self, hctx, tb):
        g = tb.topology.gpu_ids()[:8]
        by = group_by_server(hctx, g)
        assert set(by) == {0, 1}
        assert all(len(v) == 4 for v in by.values())

    def test_elect_leader_prefers_direct_port(self, hctx, tb):
        """The leader should have a direct link to the target switch."""
        members = tb.server_gpus[0]
        sw = tb.access_switches[0]
        leader = elect_leader(hctx, members, sw)
        assert tb.topology.find_link(leader, sw) is not None

    def test_local_reduce_zero_for_leader_only(self, hctx, tb):
        g = [tb.topology.gpu_ids()[0]]
        assert local_reduce_time(hctx, g, g[0], 1e6) == 0.0

    def test_local_reduce_uses_nvlink(self, hctx, tb):
        members = tb.server_gpus[0]
        t = local_reduce_time(hctx, members, members[0], 1e6)
        # 1MB over 300 GB/s NVLink ~ 3.3 us; far under an Ethernet hop.
        assert t < 20e-6


class TestPlan:
    def test_single_server_pure_nvlink(self, hctx, tb):
        est, route = planned_route(hctx, tb.server_gpus[0], 1e6)
        assert est.mode == "none"
        assert not isinstance(route, HybridRoute)
        assert est.step_time < 50e-6

    def test_multi_server_has_ethernet_stage(self, hctx, tb):
        g = tb.topology.gpu_ids()[:8]
        est, route = planned_route(hctx, g, 1e6)
        assert est.mode in ("ina", "ring")
        assert len(route.leaders) == 2
        assert route.stages(hctx, 1e6)[1] > 0

    def test_hybrid_beats_homogeneous_ina(self, tb):
        """The headline Fig. 2 claim: hybrid < homogeneous INA latency."""
        homo = CommContext.from_built(tb, heterogeneous=False)
        het = CommContext.from_built(tb, heterogeneous=True)
        g = tb.topology.gpu_ids()[:8]
        sw = select_ina_switch(homo, g)
        t_homo = ina_allreduce_time(homo, g, sw, 1e6)
        t_hyb = hybrid_time(het, g, 1e6)
        assert t_hyb < t_homo

    def test_hybrid_beats_ring(self, hctx, tb):
        g = tb.topology.gpu_ids()[:8]
        assert hybrid_time(hctx, g, 1e6) < ring_allreduce_time(
            hctx, g, 1e6
        )

    def test_fig2_43_percent_reduction(self):
        """Fig. 2: hetero collection ~90us vs homogeneous ~160us (~43%)."""
        f = build_fig2_example()
        homo = CommContext.from_built(f, heterogeneous=False)
        het = CommContext.from_built(f, heterogeneous=True)
        gn1, gn2 = f.server_gpus[0]
        core = f.core_switches[0]
        acc = f.access_switches[0]
        d = 1_000_000
        t_homo = homo.path_time(gn1, core, d)          # 2 Ethernet hops
        t_het = het.path_time(gn1, gn2, d) + het.path_time(gn2, acc, d)
        assert t_homo == pytest.approx(160e-6, rel=0.1)
        assert t_het == pytest.approx(90e-6, rel=0.15)
        assert 1 - t_het / t_homo == pytest.approx(0.43, abs=0.1)

    def test_empty_group_rejected(self, hctx):
        with pytest.raises(ValueError):
            hybrid_time(hctx, [], 1e6)


class TestFootprint:
    def test_footprint_contains_nvlink_and_ethernet(self, hctx, tb):
        g = tb.topology.gpu_ids()[:8]
        est, route = planned_route(hctx, g, 1e6)
        assert est.links == route.links
        kinds = {tb.topology.links[l].kind for l in route.links}
        assert LinkKind.NVLINK in kinds
        assert LinkKind.ETHERNET in kinds

    def test_single_server_footprint_nvlink_only(self, hctx, tb):
        g = tb.server_gpus[0]
        est, route = planned_route(hctx, g, 1e6)
        assert est.links == route.links
        kinds = {tb.topology.links[l].kind for l in route.links}
        assert kinds <= {LinkKind.NVLINK}
