"""Replica fleets and the §VII rapid scale-in/out mechanism."""

import numpy as np
import pytest

from repro.baselines import DISTSERVE, HEROSERVE, build_fleet
from repro.core import SLA_SIM_CHATBOT
from repro.core.plan import ParallelConfig
from repro.llm import OPT_175B, A100, CostModelBank
from repro.network import build_xtracks_cluster
from repro.obs import Observer
from repro.obs.events import FleetAllDegraded
from repro.serving import (
    AutoScaler,
    EngineConfig,
    estimate_replica_capacity,
)
from repro.util.rng import make_rng
from repro.workloads import Trace, TraceRequest, generate_sharegpt_trace
from repro.workloads.sharegpt import ShareGPTConfig, sample_lengths

FORCED = ParallelConfig(16, 1, 16, 1)


@pytest.fixture(scope="module")
def built():
    return build_xtracks_cluster(2, n_units=2)  # 12 servers x 8 GPUs


@pytest.fixture(scope="module")
def bank():
    return CostModelBank(OPT_175B, {"A100": A100})


def make_fleet(built, bank, spec=HEROSERVE, n=3, rate=1.5):
    trace = generate_sharegpt_trace(rate, 20, make_rng(0))
    return build_fleet(
        spec,
        built,
        OPT_175B,
        bank,
        SLA_SIM_CHATBOT,
        trace.representative_batch(8),
        arrival_rate=rate,
        n_replicas=n,
        forced_parallel=FORCED,
    )


class TestFleetConstruction:
    def test_disjoint_replica_gpus(self, built, bank):
        fleet = make_fleet(built, bank)
        seen: set[int] = set()
        for sim in fleet.replicas:
            gpus = set(sim.plan.prefill.gpu_ids) | set(
                sim.plan.decode.gpu_ids
            )
            assert not gpus & seen
            seen |= gpus

    def test_shared_queue_and_linkstate(self, built, bank):
        fleet = make_fleet(built, bank)
        assert all(s.queue is fleet.queue for s in fleet.replicas)
        assert all(
            s.ctx.linkstate is fleet.replicas[0].ctx.linkstate
            for s in fleet.replicas
        )

    def test_too_many_replicas_rejected(self, built, bank):
        with pytest.raises(ValueError, match="servers"):
            make_fleet(built, bank, n=7)

    def test_bad_replica_count(self, built, bank):
        with pytest.raises(ValueError):
            make_fleet(built, bank, n=0)


class TestFleetRun:
    def test_conservation(self, built, bank):
        fleet = make_fleet(built, bank, n=2)
        trace = generate_sharegpt_trace(1.0, 30, make_rng(1))
        fm = fleet.run(trace)
        assert fm.n_finished == len(trace)
        assert sum(fm.routed) == len(trace)

    def test_routing_spreads_under_load(self, built, bank):
        fleet = make_fleet(built, bank, n=3, rate=3.0)
        trace = generate_sharegpt_trace(3.0, 40, make_rng(2))
        fm = fleet.run(trace)
        used = sum(1 for r in fm.routed if r > 0)
        assert used >= 2  # backlog forces spillover

    def test_inactive_replica_gets_nothing(self, built, bank):
        fleet = make_fleet(built, bank, n=2)
        fleet.set_active(1, False)
        trace = generate_sharegpt_trace(1.0, 20, make_rng(3))
        fm = fleet.run(trace)
        assert fm.routed[1] == 0
        assert fm.n_finished == len(trace)

    def test_cannot_deactivate_last(self, built, bank):
        fleet = make_fleet(built, bank, n=2)
        fleet.set_active(0, False)
        with pytest.raises(ValueError, match="last active"):
            fleet.set_active(1, False)

    def test_metrics_aggregation(self, built, bank):
        fleet = make_fleet(built, bank, n=2)
        trace = generate_sharegpt_trace(1.0, 20, make_rng(4))
        fm = fleet.run(trace)
        assert 0.0 <= fm.attainment() <= 1.0
        assert fm.mean_ttft() > 0
        assert fm.mean_tpot() > 0


class TestAutoScaler:
    def ramp_trace(self):
        rng = make_rng(5)
        times = np.concatenate(
            [
                np.sort(rng.uniform(0, 60, 30)),       # ~0.5 r/s
                np.sort(rng.uniform(60, 180, 360)),    # ~3 r/s burst
                np.sort(rng.uniform(180, 240, 30)),    # ~0.5 r/s
            ]
        )
        ins, outs = sample_lengths(len(times), ShareGPTConfig(), rng)
        return Trace(
            "ramp",
            [
                TraceRequest(i, float(t), int(a), int(b))
                for i, (t, a, b) in enumerate(zip(times, ins, outs))
            ],
        )

    def test_scales_out_and_back(self, built, bank):
        fleet = make_fleet(built, bank, n=3, rate=2.0)
        cap = estimate_replica_capacity(
            fleet.replicas[0].plan,
            generate_sharegpt_trace(
                2.0, 20, make_rng(0)
            ).representative_batch(8),
        )
        fleet.set_active(1, False)
        fleet.set_active(2, False)
        scaler = AutoScaler(
            fleet, fleet.queue, replica_capacity=cap, window=10.0
        )
        scaler.start(horizon=400.0)
        fm = fleet.run(self.ramp_trace())
        events = scaler.scale_events()
        assert fm.n_finished == sum(fm.routed)
        assert any(e.kind == "out" for e in events)
        assert any(e.kind == "in" for e in events)
        peak = max(e.active_after for e in events)
        final = events[-1].active_after
        assert peak >= 2
        assert final < peak  # scaled back down after the burst

    def test_never_drops_work(self, built, bank):
        fleet = make_fleet(built, bank, n=2, rate=2.0)
        cap = 0.5  # deliberately tiny: constant flapping pressure
        scaler = AutoScaler(
            fleet, fleet.queue, replica_capacity=cap, window=5.0
        )
        scaler.start(horizon=200.0)
        trace = generate_sharegpt_trace(1.5, 40, make_rng(6))
        fm = fleet.run(trace)
        assert fm.n_finished == len(trace)

    def test_drain_guard_holds_backlogged_victim(self, built, bank):
        # Scale-in pressure (observed rate 0), but the would-be victim
        # still has queued work and its only peer is degraded: draining
        # would strand the backlog, so the scaler holds instead.
        fleet = make_fleet(built, bank, n=2)
        scaler = AutoScaler(
            fleet, fleet.queue, replica_capacity=10.0, window=5.0
        )
        fleet.replicas[0].submit(TraceRequest(0, 0.0, 16, 4))
        fleet.replicas[1].submit(TraceRequest(1, 0.0, 16, 4))
        fleet.replicas[1].submit(TraceRequest(2, 0.0, 16, 4))
        fleet.replicas[1]._prefill_down = True
        scaler._tick(end=0.0)
        assert fleet.n_active == 2
        act = scaler.actions[-1]
        assert act.kind == "hold"
        assert act.reason == "drain_guard"

    def test_drain_proceeds_with_healthy_peer(self, built, bank):
        # Same backlog, but the peer is healthy: scale-in goes ahead.
        fleet = make_fleet(built, bank, n=2)
        scaler = AutoScaler(
            fleet, fleet.queue, replica_capacity=10.0, window=5.0
        )
        fleet.replicas[0].submit(TraceRequest(0, 0.0, 16, 4))
        fleet.replicas[1].submit(TraceRequest(1, 0.0, 16, 4))
        fleet.replicas[1].submit(TraceRequest(2, 0.0, 16, 4))
        scaler._tick(end=0.0)
        assert fleet.n_active == 1
        assert scaler.actions[-1].kind == "in"

    def test_validation(self, built, bank):
        fleet = make_fleet(built, bank, n=2)
        with pytest.raises(ValueError):
            AutoScaler(fleet, fleet.queue, replica_capacity=0.0)
        with pytest.raises(ValueError):
            AutoScaler(
                fleet, fleet.queue, replica_capacity=1.0,
                low_water=0.9, high_water=0.8,
            )
        with pytest.raises(ValueError):
            estimate_replica_capacity(
                fleet.replicas[0].plan,
                generate_sharegpt_trace(
                    1.0, 10, make_rng(0)
                ).representative_batch(4),
                utilization=0.0,
            )


class TestFaultAwareRouting:
    def test_degraded_replica_skipped(self, built, bank):
        fleet = make_fleet(built, bank, n=2)
        # replica 0 would win JSQ (equal queues -> lowest index), but a
        # failed prefill server makes it degraded, so routing avoids it.
        fleet.replicas[0]._prefill_down = True
        idx = fleet.route(TraceRequest(0, 0.0, 16, 4))
        assert idx == 1

    def test_all_degraded_falls_back_to_jsq(self, built, bank):
        fleet = make_fleet(built, bank, n=2)
        for sim in fleet.replicas:
            sim._prefill_down = True
        idx = fleet.route(TraceRequest(1, 0.0, 16, 4))
        assert idx == 0  # queued on the least-loaded degraded replica

    def test_recovered_replica_routable_again(self, built, bank):
        fleet = make_fleet(built, bank, n=2)
        fleet.replicas[0]._prefill_down = True
        fleet.route(TraceRequest(2, 0.0, 16, 4))
        fleet.replicas[0]._prefill_down = False
        idx = fleet.route(TraceRequest(3, 0.0, 16, 4))
        assert idx == 0  # healthy again and now the shortest queue

    def test_all_degraded_event_is_edge_triggered(self, built, bank):
        events = []

        obs = Observer.silent()
        obs.subscribe({
            FleetAllDegraded: lambda e: events.append((e.ts, e.n_replicas))
        })
        fleet = make_fleet(built, bank, n=2)
        fleet.observer = obs
        for sim in fleet.replicas:
            sim._prefill_down = True
        fleet.route(TraceRequest(0, 0.0, 16, 4))
        fleet.route(TraceRequest(1, 0.0, 16, 4))
        assert events == [(0.0, 2)]  # once per episode, not per request
        # Recovery clears the edge; a relapse emits a second event.
        fleet.replicas[0]._prefill_down = False
        fleet.route(TraceRequest(2, 0.0, 16, 4))
        fleet.replicas[0]._prefill_down = True
        fleet.route(TraceRequest(3, 0.0, 16, 4))
        assert len(events) == 2
