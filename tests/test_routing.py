"""Routing: Dijkstra tables, path reconstruction, excluded kinds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import CommContext
from repro.network import (
    BuiltTopology,
    LinkKind,
    Topology,
    build_route_table,
    build_testbed,
)
from repro.util import units


@pytest.fixture(scope="module")
def testbed():
    return build_testbed()


@pytest.fixture(scope="module")
def table(testbed):
    return build_route_table(testbed.topology)


@pytest.fixture(scope="module")
def ctx(testbed, table):
    """The offline context over ``table``: path costs at capacity."""
    return CommContext(built=testbed, route_table=table)


class TestRouteTable:
    def test_self_latency_zero(self, table):
        assert np.allclose(np.diag(table.latency), 0.0)

    def test_connected(self, table, testbed):
        n = testbed.topology.n_nodes
        assert np.isfinite(table.latency[:n, :n]).all()

    def test_symmetric_on_symmetric_graph(self, table):
        assert np.allclose(table.latency, table.latency.T, rtol=1e-9)

    def test_node_path_endpoints(self, table, testbed):
        g = testbed.topology.gpu_ids()
        path = table.node_path(g[0], g[12])
        assert path[0] == g[0] and path[-1] == g[12]

    def test_node_path_trivial(self, table):
        assert table.node_path(3, 3) == [3]

    def test_link_path_contiguous(self, table, testbed):
        g = testbed.topology.gpu_ids()
        links = table.link_path(g[0], g[12])
        topo = testbed.topology
        for a, b in zip(links, links[1:]):
            assert topo.links[a].dst == topo.links[b].src

    def test_path_latency_matches_matrix(self, ctx, table, testbed):
        """Recosting at the selection size reproduces the Dijkstra value."""
        g = testbed.topology.gpu_ids()
        lat = ctx.path_time(g[0], g[12], table.selection_bytes)
        assert lat == pytest.approx(table.latency[g[0], g[12]], rel=1e-9)

    def test_path_latency_scales_with_bytes(self, ctx, testbed):
        g = testbed.topology.gpu_ids()
        t1 = ctx.path_time(g[0], g[12], 1e6)
        t2 = ctx.path_time(g[0], g[12], 2e6)
        assert t2 > t1

    def test_hops_same_server_nvlink(self, ctx, testbed):
        g = testbed.topology.gpu_ids()
        assert len(ctx.path_links(g[0], g[1])) == 1

    def test_bottleneck_positive(self, ctx, testbed):
        g = testbed.topology.gpu_ids()
        assert ctx.path_bottleneck(g[0], g[12]) > 0

    def test_triangle_inequality(self, table, testbed):
        """Shortest-path matrix must satisfy the triangle inequality."""
        lat = table.latency
        n = testbed.topology.n_nodes
        rng = np.random.default_rng(0)
        for _ in range(50):
            i, j, k = rng.integers(0, n, size=3)
            assert lat[i, j] <= lat[i, k] + lat[k, j] + 1e-12


class TestExcludeKinds:
    def test_nvlink_excluded_latency_grows(self, testbed):
        full = build_route_table(testbed.topology)
        homo = build_route_table(
            testbed.topology, exclude_kinds={LinkKind.NVLINK}
        )
        g = testbed.topology.gpu_ids()
        # Same-server pair: NVLink direct vs 2 Ethernet hops.
        assert homo.latency[g[0], g[1]] > full.latency[g[0], g[1]] * 5

    def test_excluded_links_absent_from_paths(self, testbed):
        homo = build_route_table(
            testbed.topology, exclude_kinds={LinkKind.NVLINK}
        )
        topo = testbed.topology
        g = topo.gpu_ids()
        for dst in (g[1], g[5], g[13]):
            for lid in homo.link_path(g[0], dst):
                assert topo.links[lid].kind != LinkKind.NVLINK

    def test_still_connected(self, testbed):
        homo = build_route_table(
            testbed.topology, exclude_kinds={LinkKind.NVLINK}
        )
        assert np.isfinite(homo.latency).all()


class TestDistanceMatrix:
    def test_gpu_distance_matrix(self, ctx, table, testbed):
        first, second = (testbed.server_gpus[s] for s in (0, 1))
        g = first[:2] + second[:2]
        dist = ctx.gpu_distance_matrix(g)
        assert dist.shape == (4, 4)
        # a cross-server pair reads the route table's D entry
        assert dist[0, 2] == table.latency[g[0], g[2]]
        # a co-located pair takes its direct hop, never dearer than D
        assert dist[0, 1] <= table.latency[g[0], g[1]]


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        n_servers=st.integers(2, 4),
        gpus_per=st.integers(1, 3),
        data=st.floats(1e3, 1e8),
    )
    def test_random_star_topologies_route(self, n_servers, gpus_per, data):
        """Every GPU pair routes, and latency grows with message size."""
        t = Topology()
        sw = t.add_switch("s")
        gpus = []
        server_gpus: dict[int, list[int]] = {}
        for s in range(n_servers):
            server_gpus[s] = [
                t.add_gpu(f"g{s}_{i}", s, units.gib(16))
                for i in range(gpus_per)
            ]
            for i, u in enumerate(server_gpus[s]):
                for v in server_gpus[s][i + 1 :]:
                    t.add_link(u, v, LinkKind.NVLINK, units.gbyte_per_s(300))
                t.add_link(u, sw, LinkKind.ETHERNET, units.gbit_per_s(100))
            gpus.extend(server_gpus[s])
        built = BuiltTopology(
            topology=t,
            gpu_models={g: "A100" for g in gpus},
            server_gpus=server_gpus,
            access_switches=[sw],
            core_switches=[],
        )
        ctx = CommContext(built=built, route_table=build_route_table(t))
        a, b = gpus[0], gpus[-1]
        t1 = ctx.path_time(a, b, data)
        t2 = ctx.path_time(a, b, data * 2)
        assert t1 > 0
        assert t2 >= t1
