"""Load-aware online scheduler and central controller (§III-D)."""

import pytest

from repro.comm import CommContext, SchemeKind
from repro.core import CentralController, LoadAwareScheduler
from repro.comm.scheme import rank_switches
from repro.network import LinkLoadTracker, build_testbed


@pytest.fixture()
def tb():
    return build_testbed()


def live_ctx(tb, heterogeneous=True):
    base = CommContext.from_built(tb, heterogeneous=heterogeneous)
    return CommContext(
        built=tb,
        route_table=base.route_table,
        linkstate=LinkLoadTracker(tb.topology),
        heterogeneous=heterogeneous,
    )


class TestPolicyConstruction:
    def test_ring_scheme_single_policy(self, tb):
        ctx = live_ctx(tb, heterogeneous=False)
        s = LoadAwareScheduler(
            ctx, tb.topology.gpu_ids()[:8], SchemeKind.RING
        )
        assert [p.mode for p in s.table.policies] == ["ring"]

    def test_ina_scheme_policies(self, tb):
        ctx = live_ctx(tb, heterogeneous=False)
        s = LoadAwareScheduler(
            ctx, tb.topology.gpu_ids()[:8], SchemeKind.INA_SYNC,
            n_switch_candidates=2,
        )
        modes = [p.mode for p in s.table.policies]
        assert modes.count("ina") == 2
        assert "ring" in modes

    def test_hybrid_multi_server_policies(self, tb):
        ctx = live_ctx(tb)
        s = LoadAwareScheduler(
            ctx, tb.topology.gpu_ids()[:8], SchemeKind.HYBRID,
            n_switch_candidates=2,
        )
        modes = [p.mode for p in s.table.policies]
        assert modes.count("hybrid-ina") == 2
        assert "hybrid-ring" in modes
        assert "ring" in modes

    def test_hybrid_single_server_nvlink(self, tb):
        ctx = live_ctx(tb)
        s = LoadAwareScheduler(
            ctx, tb.server_gpus[0], SchemeKind.HYBRID
        )
        modes = [p.mode for p in s.table.policies]
        assert "nvlink" in modes

    def test_rank_switches_count(self, tb):
        ctx = live_ctx(tb)
        sw = rank_switches(ctx, tb.topology.gpu_ids()[:8], 2)
        assert len(sw) == 2
        assert set(sw) <= set(tb.access_switches)

    def test_empty_group_rejected(self, tb):
        with pytest.raises(ValueError):
            LoadAwareScheduler(live_ctx(tb), [], SchemeKind.RING)


class TestDecide:
    def test_decide_returns_live_time(self, tb):
        ctx = live_ctx(tb)
        s = LoadAwareScheduler(
            ctx, tb.topology.gpu_ids()[:8], SchemeKind.HYBRID
        )
        d = s.decide(1e6)
        assert d.step_time > 0
        assert d.policy in s.table.policies

    def test_congestion_shifts_selection(self, tb):
        """Loading one switch's links should steer traffic to the other."""
        ctx = live_ctx(tb)
        gpus = tb.topology.gpu_ids()[:8]
        s = LoadAwareScheduler(
            ctx, gpus, SchemeKind.HYBRID, n_switch_candidates=2
        )
        first = s.decide(1e6).policy
        assert first.mode == "hybrid-ina"
        # Saturate every link of the chosen policy heavily.
        ctx.linkstate.register(list(first.links), 0.95 * 12.5e9)
        s.refresh()
        second = s.decide(1e6).policy
        assert second.policy_id != first.policy_id

    def test_refresh_without_linkstate_noop(self, tb):
        ctx = CommContext.from_built(tb)
        s = LoadAwareScheduler(
            ctx, tb.topology.gpu_ids()[:8], SchemeKind.RING
        )
        s.refresh()  # must not raise


class TestController:
    def test_scheduler_cached_per_group(self, tb):
        ctx = live_ctx(tb)
        c = CentralController(ctx=ctx, scheme=SchemeKind.HYBRID)
        g = tb.topology.gpu_ids()[:8]
        s1 = c.scheduler_for(g)
        s2 = c.scheduler_for(list(reversed(g)))
        assert s1 is s2
        assert c.n_groups() == 1

    def test_decide_roundtrip(self, tb):
        ctx = live_ctx(tb)
        c = CentralController(ctx=ctx, scheme=SchemeKind.HYBRID)
        d = c.decide(tb.topology.gpu_ids()[:8], 1e6)
        assert d.step_time > 0

    def test_tick_respects_period(self, tb):
        ctx = live_ctx(tb)
        c = CentralController(
            ctx=ctx, scheme=SchemeKind.HYBRID, refresh_period=1.0
        )
        c.scheduler_for(tb.topology.gpu_ids()[:8])
        assert c.tick(0.0) is True
        assert c.tick(0.5) is False
        assert c.tick(1.5) is True
        assert c.refreshes == 2


class TestGroupKeyNormalization:
    def test_duplicate_gpu_ids_share_scheduler(self, tb):
        ctx = live_ctx(tb)
        c = CentralController(ctx=ctx, scheme=SchemeKind.HYBRID)
        g = tb.topology.gpu_ids()[:8]
        s1 = c.scheduler_for(g)
        s2 = c.scheduler_for(list(g) + [g[0], g[3]])
        assert s1 is s2
        assert c.n_groups() == 1

    def test_unsorted_group_preserves_caller_order(self, tb):
        """The cache key is order-insensitive but the scheduler is built
        with the caller's (deduplicated) stage order."""
        ctx = live_ctx(tb)
        c = CentralController(ctx=ctx, scheme=SchemeKind.HYBRID)
        g = list(reversed(tb.topology.gpu_ids()[:8]))
        s = c.scheduler_for(g + [g[0]])
        assert list(s.gpus) == g

    def test_distinct_groups_not_conflated(self, tb):
        ctx = live_ctx(tb)
        c = CentralController(ctx=ctx, scheme=SchemeKind.HYBRID)
        a = c.scheduler_for(tb.topology.gpu_ids()[:8])
        b = c.scheduler_for(tb.topology.gpu_ids()[8:16])
        assert a is not b
        assert c.n_groups() == 2


class TestRankSwitchesDeterminism:
    def test_tied_scores_break_by_switch_id(self, tb):
        """On an idle network both access switches score equally; the
        ranking must still be deterministic (ascending id on ties)."""
        ctx = live_ctx(tb)
        gpus = tb.topology.gpu_ids()[:8]
        first = rank_switches(ctx, gpus, 2)
        for _ in range(5):
            assert rank_switches(ctx, gpus, 2) == first
        assert first == sorted(first)

    def test_k_clamped_to_at_least_one(self, tb):
        ctx = live_ctx(tb)
        sw = rank_switches(ctx, tb.topology.gpu_ids()[:8], 0)
        assert len(sw) == 1


class TestApplyHealth:
    def _health(self):
        from repro.faults import HealthRegistry

        return HealthRegistry()

    def test_masks_dead_switch_policies(self, tb):
        ctx = live_ctx(tb)
        s = LoadAwareScheduler(
            ctx, tb.topology.gpu_ids()[:8], SchemeKind.HYBRID,
            n_switch_candidates=2,
        )
        health = self._health()
        dead = tb.access_switches[0]
        health.mark_down("switch", dead, now=0.0)
        health.poll(1.0)
        changed, degraded = s.apply_health(health)
        assert changed and degraded
        d = s.decide(1e6)
        assert d.policy.switch != dead

    def test_all_switches_dead_falls_to_ring(self, tb):
        ctx = live_ctx(tb)
        s = LoadAwareScheduler(
            ctx, tb.topology.gpu_ids()[:8], SchemeKind.HYBRID,
            n_switch_candidates=2,
        )
        health = self._health()
        for sw in tb.access_switches:
            health.mark_down("switch", sw, now=0.0)
        health.poll(1.0)
        changed, degraded = s.apply_health(health)
        assert changed and degraded
        assert s.decide(1e6).policy.mode in ("hybrid-ring", "ring")

    def test_recovery_unmasks(self, tb):
        ctx = live_ctx(tb)
        s = LoadAwareScheduler(
            ctx, tb.topology.gpu_ids()[:8], SchemeKind.HYBRID,
            n_switch_candidates=2,
        )
        health = self._health()
        for sw in tb.access_switches:
            health.mark_down("switch", sw, now=0.0)
        health.poll(1.0)
        s.apply_health(health)
        for sw in tb.access_switches:
            health.mark_up("switch", sw, now=2.0)
        health.poll(5.0)  # past hold-down
        changed, degraded = s.apply_health(health)
        assert changed and not degraded
        assert s.decide(1e6).policy.mode == "hybrid-ina"

    def test_healthy_health_is_noop(self, tb):
        ctx = live_ctx(tb)
        s = LoadAwareScheduler(
            ctx, tb.topology.gpu_ids()[:8], SchemeKind.HYBRID
        )
        changed, degraded = s.apply_health(self._health())
        assert not changed and not degraded
