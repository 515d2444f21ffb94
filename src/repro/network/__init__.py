"""Heterogeneous network substrate: topology, routing, flows, link state."""

from repro.network.builders import (
    A100_8GPU_SERVER,
    A100_SERVER,
    ETH_100G,
    NVLINK_A100,
    NVLINK_V100,
    PCIE_GEN4_X16,
    V100_SERVER,
    BuiltTopology,
    ServerSpec,
    build_fig2_example,
    build_testbed,
    build_xtracks_cluster,
    pcie_server,
)
from repro.network.flows import (
    Flow,
    flow_completion_times,
    max_min_fair_rates,
    path_flow,
)
from repro.network.linkstate import LinkLoadTracker
from repro.network.routing import RouteTable, build_route_table
from repro.network.topology import LinkKind, Node, NodeKind, Topology

__all__ = [
    "A100_8GPU_SERVER",
    "A100_SERVER",
    "ETH_100G",
    "PCIE_GEN4_X16",
    "pcie_server",
    "NVLINK_A100",
    "NVLINK_V100",
    "V100_SERVER",
    "BuiltTopology",
    "ServerSpec",
    "build_fig2_example",
    "build_testbed",
    "build_xtracks_cluster",
    "Flow",
    "flow_completion_times",
    "max_min_fair_rates",
    "path_flow",
    "LinkLoadTracker",
    "RouteTable",
    "build_route_table",
    "LinkKind",
    "Node",
    "NodeKind",
    "Topology",
]
