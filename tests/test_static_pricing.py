"""Static policy pricing: executing plan-time decisions at live state.

``price_group_step`` is how static systems (the baselines, or HeroServe
with the online scheduler ablated) run: the mode/switch chosen by the
offline plan is fixed; only the physics (live link bandwidths) varies.
These tests pin its consistency with the adaptive estimator and its
response to congestion.
"""

import pytest

from repro.comm import (
    CommContext,
    SchemeKind,
    estimate_group_step,
    price_group_step,
    ring_allreduce_time,
    select_ina_switch,
)
from repro.network import LinkLoadTracker, build_testbed


@pytest.fixture(scope="module")
def tb():
    return build_testbed()


@pytest.fixture(scope="module")
def homo(tb):
    return CommContext.from_built(tb, heterogeneous=False)


@pytest.fixture(scope="module")
def het(tb):
    return CommContext.from_built(tb, heterogeneous=True)


def live(tb, base):
    return CommContext(
        built=tb,
        route_table=base.route_table,
        linkstate=LinkLoadTracker(tb.topology),
        heterogeneous=base.heterogeneous,
    )


class TestConsistency:
    """On an idle network, pricing the estimator's own choice must
    reproduce the estimator's time."""

    @pytest.mark.parametrize(
        "scheme",
        [SchemeKind.RING, SchemeKind.INA_SYNC, SchemeKind.INA_ASYNC],
    )
    def test_homogeneous_schemes(self, homo, tb, scheme):
        g = tb.topology.gpu_ids()[:8]
        d = 8e6
        est = estimate_group_step(homo, g, d, scheme)
        t = price_group_step(
            homo, g, scheme, est.mode, est.ina_switch, d
        )
        assert t == pytest.approx(est.step_time, rel=1e-6)

    def test_hybrid_scheme(self, het, tb):
        g = tb.topology.gpu_ids()[:8]
        d = 8e6
        est = estimate_group_step(het, g, d, SchemeKind.HYBRID)
        t = price_group_step(
            het, g, SchemeKind.HYBRID, est.mode, est.ina_switch, d
        )
        assert t == pytest.approx(est.step_time, rel=1e-6)

    def test_trivial_cases(self, homo, tb):
        g1 = tb.topology.gpu_ids()[:1]
        assert price_group_step(
            homo, g1, SchemeKind.RING, "ring", None, 1e6
        ) == 0.0
        g = tb.topology.gpu_ids()[:4]
        assert price_group_step(
            homo, g, SchemeKind.RING, "ring", None, 0.0
        ) == 0.0

    def test_ina_without_switch_rejected(self, homo, tb):
        g = tb.topology.gpu_ids()[:8]
        with pytest.raises(ValueError, match="switch"):
            price_group_step(
                homo, g, SchemeKind.INA_SYNC, "ina", None, 1e6
            )


class TestStaticUnderCongestion:
    def test_committed_route_pays_for_congestion(self, tb, homo):
        """A static INA policy cannot flee its congested switch."""
        ctx = live(tb, homo)
        g = tb.topology.gpu_ids()[:8]
        sw = select_ina_switch(ctx, g)
        d = 8e6
        t0 = price_group_step(ctx, g, SchemeKind.INA_SYNC, "ina", sw, d)
        # Saturate every link adjacent to the committed switch.
        links = [
            lid
            for lid in range(tb.topology.n_links)
            if sw in (tb.topology.links[lid].src, tb.topology.links[lid].dst)
        ]
        ctx.linkstate.register(links, 0.9 * 12.5e9)
        t1 = price_group_step(ctx, g, SchemeKind.INA_SYNC, "ina", sw, d)
        assert t1 > 2 * t0

    def test_adaptive_estimator_escapes(self, tb, homo):
        """Eq. 7's re-selection escapes to ring when the committed INA
        resource degrades (here: a starved slot window) — the contrast
        that motivates comparing static vs adaptive execution."""
        g = tb.topology.gpu_ids()[:8]
        d = 8e6
        starved = dict(n_slots=1, slot_payload=64)
        static = price_group_step(
            homo, g, SchemeKind.INA_SYNC, "ina",
            select_ina_switch(homo, g), d, **starved,
        )
        adaptive = estimate_group_step(
            homo, g, d, SchemeKind.INA_SYNC, **starved
        )
        assert adaptive.mode == "ring"
        assert adaptive.step_time < static


def hybrid_forced_time(ctx, gpus, data, mode, switch=None):
    return price_group_step(ctx, gpus, SchemeKind.HYBRID, mode, switch, data)


class TestHybridForced:
    def test_forced_ina_matches_components(self, het, tb):
        g = tb.topology.gpu_ids()[:8]
        sw = select_ina_switch(het, g)
        d = 4e6
        t = hybrid_forced_time(het, g, d, "ina", switch=sw)
        assert t > 0

    def test_forced_ring_differs_from_plain_ring(self, het, tb):
        """Leader ring moves the full payload between 2 leaders; plain
        ring shards across 8 members — different quantities."""
        g = tb.topology.gpu_ids()[:8]
        d = 16e6
        t_leader = hybrid_forced_time(het, g, d, "ring")
        t_plain = ring_allreduce_time(het, g, d)
        assert t_leader != pytest.approx(t_plain, rel=1e-3)

    def test_single_server_none(self, het, tb):
        g = tb.server_gpus[0]
        t = hybrid_forced_time(het, g, 1e6, "none")
        assert t == pytest.approx(ring_allreduce_time(het, g, 1e6))

    def test_unknown_mode_rejected(self, het, tb):
        g = tb.topology.gpu_ids()[:8]
        with pytest.raises(ValueError, match="teleport"):
            hybrid_forced_time(het, g, 1e6, "teleport")

    def test_trivial(self, het, tb):
        assert hybrid_forced_time(
            het, tb.topology.gpu_ids()[:1], 1e6, "ina"
        ) == 0.0
