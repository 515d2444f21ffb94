"""Ring and INA collective latency models (Eqs. 8-11)."""

import pytest

from repro.comm import (
    CommContext,
    ina_allreduce_time,
    ina_collection_time,
    ina_link_footprint,
    ina_throughput_limit,
    rank_switches,
    ring_allreduce_time,
    ring_bottleneck_bandwidth,
    ring_link_footprint,
    ring_order,
    select_ina_switch,
)
from repro.comm.ina import switch_delay
from repro.network import LinkLoadTracker, build_fig2_example, build_testbed


@pytest.fixture(scope="module")
def tb():
    return build_testbed()


@pytest.fixture(scope="module")
def ctx(tb):
    return CommContext.from_built(tb, heterogeneous=False)


@pytest.fixture(scope="module")
def hctx(tb):
    return CommContext.from_built(tb, heterogeneous=True)


class TestRingOrder:
    def test_server_major(self, ctx, tb):
        gpus = tb.topology.gpu_ids()[:8]
        order = ring_order(ctx, list(reversed(gpus)))
        servers = [tb.topology.nodes[g].server for g in order]
        assert servers == sorted(servers)


class TestRing:
    def test_single_gpu_zero(self, ctx, tb):
        assert ring_allreduce_time(ctx, tb.topology.gpu_ids()[:1], 1e6) == 0.0

    def test_zero_bytes_zero(self, ctx, tb):
        assert ring_allreduce_time(ctx, tb.topology.gpu_ids()[:4], 0.0) == 0.0

    def test_empty_group_rejected(self, ctx):
        with pytest.raises(ValueError):
            ring_allreduce_time(ctx, [], 1e6)

    def test_intra_server_fast(self, ctx, tb):
        """Same-server ring rides NVLink in the homogeneous view too."""
        g = tb.topology.gpu_ids()
        t_intra = ring_allreduce_time(ctx, g[:4], 1e6)
        t_cross = ring_allreduce_time(ctx, [g[0], g[1], g[4], g[5]], 1e6)
        assert t_intra < t_cross / 5

    def test_eq11_shape(self, ctx, tb):
        """2(P-1) steps of D/P each: doubling D roughly doubles the time
        (per-hop latency constants keep it slightly sub-linear)."""
        g = tb.topology.gpu_ids()[:8]
        t1 = ring_allreduce_time(ctx, g, 1e6)
        t2 = ring_allreduce_time(ctx, g, 2e6)
        assert 1.5 * t1 < t2 <= 2 * t1

    def test_bottleneck_bandwidth(self, ctx, tb):
        g = tb.topology.gpu_ids()[:8]  # spans two servers
        bw = ring_bottleneck_bandwidth(ctx, g)
        assert 0 < bw <= 12.5e9 * 2  # bounded by Ethernet path

    def test_footprint_nonempty_cross_server(self, ctx, tb):
        g = [tb.topology.gpu_ids()[0], tb.topology.gpu_ids()[4]]
        assert len(ring_link_footprint(ctx, g)) > 0

    def test_footprint_empty_single(self, ctx, tb):
        assert ring_link_footprint(ctx, tb.topology.gpu_ids()[:1]) == []


class TestIna:
    def test_collection_is_max_over_workers(self, ctx, tb):
        g = tb.topology.gpu_ids()[:8]
        sw = tb.access_switches[0]
        t = ina_collection_time(ctx, g, sw, 1e6)
        per = [ctx.path_time(x, sw, 1e6) for x in g]
        assert t == pytest.approx(max(per))

    def test_store_and_forward_sums_phases(self, ctx, tb):
        """pipelined=False is the paper's Fig. 2 sum T_col+T_agg+T_dis."""
        g = tb.topology.gpu_ids()[:8]
        sw = tb.access_switches[0]
        t = ina_allreduce_time(ctx, g, sw, 1e6, pipelined=False)
        t_col = ina_collection_time(ctx, g, sw, 1e6)
        assert t >= 2 * t_col * 0.99

    def test_pipelined_default_faster(self, ctx, tb):
        """The default (streaming) overlaps collection and distribution."""
        g = tb.topology.gpu_ids()[:8]
        sw = tb.access_switches[0]
        assert ina_allreduce_time(ctx, g, sw, 1e6) < ina_allreduce_time(
            ctx, g, sw, 1e6, pipelined=False
        )

    def test_single_gpu_zero(self, ctx, tb):
        sw = tb.access_switches[0]
        assert ina_allreduce_time(
            ctx, tb.topology.gpu_ids()[:1], sw, 1e6
        ) == 0.0

    def test_select_switch_prefers_near(self):
        f = build_fig2_example()
        c = CommContext.from_built(f, heterogeneous=False)
        g = f.server_gpus[0]  # both GPUs on server 0, behind access S2
        sw = select_ina_switch(c, g)
        assert sw == f.access_switches[0]  # not the core switch

    def test_switch_ties_keep_each_rule(self, hctx, tb):
        # Two GPUs of one server on different access switches: both
        # switches price the group at the same delay.
        g = tb.server_gpus[0][:2]
        a, b = tb.access_switches
        assert switch_delay(hctx, g, a) == switch_delay(hctx, g, b)
        # selection keeps the first minimum in candidate order ...
        assert select_ina_switch(hctx, g, candidates=[b, a]) == b
        assert select_ina_switch(hctx, g, candidates=[a, b]) == a
        # ... ranking breaks the tie on the switch id
        assert rank_switches(hctx, g, 2) == sorted([a, b])

    def test_select_switch_no_candidates(self, ctx, tb):
        with pytest.raises(ValueError):
            select_ina_switch(ctx, tb.topology.gpu_ids()[:2], candidates=[])

    def test_footprint_covers_both_directions(self, ctx, tb):
        g = tb.topology.gpu_ids()[:4]
        sw = tb.access_switches[0]
        links = ina_link_footprint(ctx, g, sw)
        topo = tb.topology
        assert any(topo.links[l].dst == sw for l in links)
        assert any(topo.links[l].src == sw for l in links)

    def test_throughput_limit_bounded_by_link(self, ctx, tb):
        g = tb.topology.gpu_ids()[:8]
        sw = tb.access_switches[0]
        lim = ina_throughput_limit(ctx, g, sw, 512, 1024)
        assert lim <= 12.5e9 * 1.01

    def test_linkstate_raises_latency(self, tb):
        """Congesting a collection link slows INA (live B(e) pricing)."""
        ls = LinkLoadTracker(tb.topology)
        c = CommContext.from_built(tb, heterogeneous=False)
        c_live = CommContext(
            built=tb,
            route_table=c.route_table,
            linkstate=ls,
            heterogeneous=False,
        )
        g = tb.topology.gpu_ids()[:8]
        sw = tb.access_switches[0]
        t0 = ina_allreduce_time(c_live, g, sw, 1e6)
        # Saturate every Ethernet link 80%.
        import numpy as np

        from repro.network.topology import LinkKind

        eth = np.where(
            tb.topology.kind_array() == int(LinkKind.ETHERNET)
        )[0]
        ls.register(eth, 0.8 * 12.5e9)
        t1 = ina_allreduce_time(c_live, g, sw, 1e6)
        assert t1 > 2 * t0
