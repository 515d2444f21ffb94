"""PCIe intra-server fallback (the paper's §VII future work).

"For scenarios without NVLink, we will investigate how to leverage
high-performance PCIe bandwidth for intra-server communication while
avoiding performance degradation due to cross-NUMA effects."

These tests cover the PCIe server spec: the hybrid collective still
works (and still beats homogeneous schemes), but with a smaller margin
than NVLink; cross-NUMA pairs pay the halved inter-socket bandwidth.
"""

import pytest

from repro.comm import (
    CommContext,
    SchemeKind,
    estimate_group_step,
)
from repro.network import (
    PCIE_GEN4_X16,
    LinkKind,
    build_testbed,
    pcie_server,
)
from repro.util import units


def pcie_testbed():
    spec = pcie_server(
        "pcie-a100", n_gpus=4, gpu_memory_bytes=units.gib(40),
        numa_domains=2,
    )
    return build_testbed(server_specs=[spec] * 4)


@pytest.fixture(scope="module")
def pcie_tb():
    return pcie_testbed()


@pytest.fixture(scope="module")
def nvlink_tb():
    return build_testbed()


class TestPcieTopology:
    def test_intra_links_are_pcie(self, pcie_tb):
        topo = pcie_tb.topology
        gpus = pcie_tb.server_gpus[0]
        link = topo.find_link(gpus[0], gpus[1])
        assert link.kind == LinkKind.PCIE

    def test_cross_numa_half_bandwidth(self, pcie_tb):
        topo = pcie_tb.topology
        gpus = pcie_tb.server_gpus[0]  # 4 GPUs, 2 NUMA domains of 2
        same = topo.find_link(gpus[0], gpus[1])
        cross = topo.find_link(gpus[0], gpus[2])
        assert same.capacity == pytest.approx(PCIE_GEN4_X16)
        assert cross.capacity == pytest.approx(PCIE_GEN4_X16 / 2)

    def test_validates(self, pcie_tb):
        pcie_tb.topology.validate()


class TestPcieHybrid:
    def test_hybrid_works_over_pcie(self, pcie_tb):
        ctx = CommContext.from_built(pcie_tb, heterogeneous=True)
        g = pcie_tb.topology.gpu_ids()[:8]
        t = estimate_group_step(ctx, g, 1e6, SchemeKind.HYBRID).step_time
        assert 0 < t < 1.0

    def test_hybrid_falls_back_to_ring_over_pcie(self, pcie_tb):
        """Over PCIe the leaders' full-payload push loses to the ring's
        D/P sharding, so Eq. 7 must select ring — the graceful fallback
        that makes §VII's PCIe question genuinely open."""
        het = CommContext.from_built(pcie_tb, heterogeneous=True)
        homo = CommContext.from_built(pcie_tb, heterogeneous=False)
        g = pcie_tb.topology.gpu_ids()[:8]
        d = 16e6
        hyb = estimate_group_step(het, g, d, SchemeKind.HYBRID)
        ring = estimate_group_step(homo, g, d, SchemeKind.RING)
        assert hyb.mode == "ring"
        assert hyb.step_time <= ring.step_time * (1 + 1e-9)

    def test_nvlink_margin_larger_than_pcie(self, pcie_tb, nvlink_tb):
        """The heterogeneous offload gains less from a slower intra
        fabric: NVLink margin > 1, PCIe margin collapses to ~1 (ring
        fallback)."""
        d = 16e6

        def margin(built):
            het = CommContext.from_built(built, heterogeneous=True)
            homo = CommContext.from_built(built, heterogeneous=False)
            g = built.topology.gpu_ids()[:8]
            t_hyb = estimate_group_step(
                het, g, d, SchemeKind.HYBRID
            ).step_time
            t_ring = estimate_group_step(
                homo, g, d, SchemeKind.RING
            ).step_time
            return t_ring / t_hyb

        assert margin(nvlink_tb) > 1.2
        assert margin(pcie_tb) >= 1.0 - 1e-9
        assert margin(nvlink_tb) > margin(pcie_tb)

    def test_homogeneous_view_excludes_pcie_forwarding(self, pcie_tb):
        """Baselines must not route multi-hop detours over PCIe."""
        homo = CommContext.from_built(pcie_tb, heterogeneous=False)
        g = pcie_tb.topology.gpu_ids()
        # Path to a remote GPU: every hop must be Ethernet except a
        # possible first/last direct intra-server hop.
        links = homo.path_links(g[0], g[12])
        topo = pcie_tb.topology
        kinds = [topo.links[lid].kind for lid in links]
        assert all(
            k in (LinkKind.ETHERNET, LinkKind.PCIE) for k in kinds
        )
        assert LinkKind.ETHERNET in kinds

    def test_planner_runs_on_pcie_testbed(self, pcie_tb):
        from repro.core import SLA_TESTBED_CHATBOT, OfflinePlanner
        from repro.comm import SchemeKind as SK
        from repro.llm import OPT_66B, A100, BatchSpec, CostModelBank

        ctx = CommContext.from_built(pcie_tb, heterogeneous=True)
        bank = CostModelBank(OPT_66B, {"A100": A100})
        rep = OfflinePlanner(
            ctx, OPT_66B, bank, SLA_TESTBED_CHATBOT, SK.HYBRID
        ).plan(BatchSpec.uniform(8, 256, 200), arrival_rate=0.3)
        assert rep.plan is not None
