"""Registered links == priced links, for every registered scheme.

A policy is a routing configuration together with the directed links it
occupies (§III-D), and Eqs. 16–18 read load only on those links. So the
live price of a route must not depend on the load of any link outside
its footprint: pricing under random per-link loads ``L`` must equal
pricing under ``L`` restricted to the route's links. This is checked for

* every row of a policy table built once, as the online scheduler does
  at bind time, and
* every static plan policy: the Eq. 7 estimate's ``(mode, switch)``
  priced by ``forced_time`` while its ``links`` are what the engine
  registers,

on multi-server groups (4 GPUs on each of two servers, and a
two-server pair) of the testbed and 2tracks topologies.

One-server NVLink routes are outside this check: the ``nvlink`` row
registers no links and the hybrid estimate's ``none`` mode registers
only the leader's legs, while both price the NVLink ring.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import CommContext, registered_schemes
from repro.network import (
    LinkLoadTracker,
    build_testbed,
    build_xtracks_cluster,
)

SCHEMES = [s.name for s in registered_schemes()]
PAYLOADS = (65_536.0, 8_388_608.0)


@pytest.fixture(scope="module", params=["testbed", "2tracks"])
def built(request):
    if request.param == "testbed":
        return build_testbed()
    return build_xtracks_cluster(2, n_units=1)


def _groups(built) -> dict[str, list[int]]:
    servers = sorted(built.server_gpus)
    first, second, last = (built.server_gpus[s] for s in (
        servers[0], servers[1], servers[-1]
    ))
    return {
        "split4x2": list(first[:4]) + list(second[:4]),
        "pair": [first[0], last[0]],
    }


def _ctx(built, scheme, loads=None) -> CommContext:
    base = CommContext.from_built(built, heterogeneous=scheme.heterogeneous)
    ls = LinkLoadTracker(built.topology)
    if loads is not None:
        for lid in np.flatnonzero(loads):
            ls.register([int(lid)], float(loads[lid]))
    return CommContext(
        built=built,
        route_table=base.route_table,
        linkstate=ls,
        heterogeneous=scheme.heterogeneous,
    )


def _random_loads(built, seed: int) -> np.ndarray:
    caps = built.topology.capacity_array()
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 0.95, size=len(caps)) * caps


def _restricted(loads: np.ndarray, links) -> np.ndarray:
    out = np.zeros_like(loads)
    ids = list(set(links))
    out[ids] = loads[ids]
    return out


@pytest.mark.parametrize("group", ["split4x2", "pair"])
@pytest.mark.parametrize("name", SCHEMES)
def test_rows_price_only_their_links(built, name, group):
    scheme = next(s for s in registered_schemes() if s.name == name)
    gpus = _groups(built)[group]
    # Rows are built once, on an idle live context, like a scheduler's.
    rows = scheme.policy_routes(_ctx(built, scheme), gpus, 2)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        data=st.sampled_from(PAYLOADS),
    )
    def check(seed, data):
        loads = _random_loads(built, seed)
        full = _ctx(built, scheme, loads)
        for route in rows:
            only = _ctx(built, scheme, _restricted(loads, route.links))
            assert route.time(full, data) == route.time(only, data), (
                f"{name} row {route.mode}@{route.switch} priced on links "
                "it does not register"
            )

    check()


@pytest.mark.parametrize("group", ["split4x2", "pair"])
@pytest.mark.parametrize("name", SCHEMES)
def test_static_policy_prices_only_its_links(built, name, group):
    scheme = next(s for s in registered_schemes() if s.name == name)
    gpus = _groups(built)[group]
    offline = CommContext.from_built(
        built, heterogeneous=scheme.heterogeneous
    )

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        data=st.sampled_from(PAYLOADS),
    )
    def check(seed, data):
        est = scheme.estimate_time(offline, gpus, data)
        loads = _random_loads(built, seed)
        only = _restricted(loads, est.links)
        prices = [
            scheme.forced_time(
                _ctx(built, scheme, view), gpus, est.mode, est.ina_switch,
                data,
            )
            for view in (loads, only)
        ]
        assert prices[0] == prices[1], (
            f"{name} static {est.mode}@{est.ina_switch} priced on links "
            "the plan does not register"
        )

    check()
