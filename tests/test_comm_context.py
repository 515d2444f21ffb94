"""CommContext: network views, live pricing, distance matrices."""

import numpy as np
import pytest

from repro.comm import CommContext
from repro.network import LinkKind, LinkLoadTracker, build_testbed


@pytest.fixture(scope="module")
def tb():
    return build_testbed()


@pytest.fixture(scope="module")
def het(tb):
    return CommContext.from_built(tb, heterogeneous=True)


@pytest.fixture(scope="module")
def homo(tb):
    return CommContext.from_built(tb, heterogeneous=False)


class TestViews:
    def test_same_server_direct_nvlink_both_views(self, het, homo, tb):
        g = tb.topology.gpu_ids()
        for ctx in (het, homo):
            links = ctx.path_links(g[0], g[1])
            assert len(links) == 1
            assert tb.topology.links[links[0]].kind == LinkKind.NVLINK

    def test_homogeneous_no_nvlink_forwarding(self, homo, tb):
        """Cross-server paths never detour over NVLink in the homo view."""
        g = tb.topology.gpu_ids()
        for dst in (g[4], g[7], g[13]):
            kinds = [
                tb.topology.links[lid].kind
                for lid in homo.path_links(g[0], dst)
            ]
            assert all(k == LinkKind.ETHERNET for k in kinds)

    def test_heterogeneous_may_forward_over_nvlink(self, het, tb):
        """A GPU whose port sits on the far switch reaches the near one
        via a buddy's NVLink in the heterogeneous view."""
        g = tb.topology.gpu_ids()
        sw0 = tb.access_switches[0]
        # GPU 1 of server 0 has its port on switch 1; route to switch 0.
        gpu = tb.server_gpus[0][1]
        kinds = {
            tb.topology.links[lid].kind
            for lid in het.path_links(gpu, sw0)
        }
        assert LinkKind.NVLINK in kinds

    def test_path_time_zero_self(self, het, tb):
        g = tb.topology.gpu_ids()[0]
        assert het.path_time(g, g, 1e6) == 0.0


class TestLivePricing:
    def test_congestion_raises_path_time(self, tb):
        base = CommContext.from_built(tb, heterogeneous=False)
        ls = LinkLoadTracker(tb.topology)
        ctx = CommContext(
            built=tb,
            route_table=base.route_table,
            linkstate=ls,
            heterogeneous=False,
        )
        g = tb.topology.gpu_ids()
        t0 = ctx.path_time(g[0], g[4], 4e6)
        links = ctx.path_links(g[0], g[4])
        ls.register(links, 0.8 * 12.5e9)
        t1 = ctx.path_time(g[0], g[4], 4e6)
        assert t1 > 3 * t0

    def test_bottleneck_uses_live_bandwidth(self, tb):
        base = CommContext.from_built(tb, heterogeneous=False)
        ls = LinkLoadTracker(tb.topology)
        ctx = CommContext(
            built=tb,
            route_table=base.route_table,
            linkstate=ls,
            heterogeneous=False,
        )
        g = tb.topology.gpu_ids()
        b0 = ctx.path_bottleneck(g[0], g[4])
        ls.register(ctx.path_links(g[0], g[4]), 0.5 * 12.5e9)
        assert ctx.path_bottleneck(g[0], g[4]) == pytest.approx(b0 * 0.5)


class TestDistanceMatrix:
    def test_shape_and_diagonal(self, het, tb):
        g = tb.topology.gpu_ids()[:6]
        d = het.gpu_distance_matrix(g)
        assert d.shape == (6, 6)
        assert np.allclose(np.diag(d), 0.0)

    def test_same_server_much_closer(self, homo, tb):
        """Even the homogeneous view's grouping matrix sees NVLink
        locality (the physical direct hop), not the Ethernet detour."""
        g = tb.topology.gpu_ids()[:8]
        d = homo.gpu_distance_matrix(g)
        same = d[0, 1]   # server 0, GPUs 0-1
        cross = d[0, 4]  # server 0 -> server 1
        assert same < cross / 10

    def test_group_hardware(self, het, tb):
        g = tb.server_gpus[0][:2] + tb.server_gpus[2][:1]
        hw = het.group_hardware(g)
        assert hw == ["A100", "A100", "V100"]
