"""Flight recorder: ring semantics, live sampling, export, parity.

Covers the tentpole acceptance criteria:

* enabling the recorder leaves ``ServingMetrics.summary()`` byte-
  identical to an unobserved run at the same seed;
* per-link gauges honour ``LINK_GAUGE_MIN_UTIL`` (quiet links are
  suppressed);
* live samples carry queue depths, link utilisation, policy tables and
  INA switch pressure, and round-trip through JSONL.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    HEROSERVE,
    SLA_TESTBED_CHATBOT,
    OPT_66B,
    CostModelBank,
    Observer,
    build_system,
    build_testbed,
    generate_sharegpt_trace,
    simulate_trace,
)
from repro.llm import A100, V100
from repro.obs.events import SampleLinks
from repro.obs.observer import LINK_GAUGE_MIN_UTIL
from repro.obs.recorder import FlightRecorder, FlightSample
from repro.obs.slo import SLOMonitor, SLOTarget
from repro.serving import EngineConfig
from repro.switch.dataplane import SwitchDataplane, UpdatePacket, quantize
from repro.util.rng import make_rng

RATE = 1.0
DURATION = 30.0
SEED = 3


def make_sample(
    t: float,
    selections=(0, 0),
    policies=("ring", "ina@1"),
    link_util=None,
    busy=(),
) -> FlightSample:
    return FlightSample(
        time=t,
        prefill_queue=1,
        decode_pending=2,
        decode_active=3,
        prefill_busy=True,
        decode_busy=False,
        kv_used=50,
        kv_capacity=100,
        link_util=link_util or {"ethernet": (0.2, 0.6)},
        busy_links=list(busy),
        policy_tables={
            "0-1": {
                "policies": list(policies),
                "b": [0.1, 0.2],
                "selections": list(selections),
            }
        },
    )


class TestRing:
    def test_capacity_eviction_and_count(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record(make_sample(float(i)))
        assert len(rec) == 4
        assert rec.samples_total == 10
        assert rec.evicted == 6
        assert [s.time for s in rec.samples()] == [6.0, 7.0, 8.0, 9.0]

    @pytest.mark.parametrize("kwargs", [
        {"capacity": 0}, {"top_k_links": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FlightRecorder(**kwargs)

    def test_series(self):
        rec = FlightRecorder()
        for i in range(3):
            rec.record(make_sample(float(i)))
        times, vals = rec.series("decode_active")
        assert times == [0.0, 1.0, 2.0]
        assert vals == [3.0, 3.0, 3.0]
        _, kv = rec.series("kv_utilization")
        assert kv == [0.5, 0.5, 0.5]

    def test_link_kind_series_stats(self):
        rec = FlightRecorder()
        rec.record(make_sample(0.0, link_util={"nvlink": (0.1, 0.3)}))
        rec.record(make_sample(1.0, link_util={"ethernet": (0.2, 0.6)}))
        t, mean = rec.link_kind_series("nvlink", "mean")
        assert (t, mean) == ([0.0], [0.1])
        t, mx = rec.link_kind_series("ethernet", "max")
        assert (t, mx) == ([1.0], [0.6])

    def test_top_links_by_peak(self):
        rec = FlightRecorder(top_k_links=2)
        rec.record(make_sample(0.0, busy=[(1, "ethernet", 0.4)]))
        rec.record(
            make_sample(
                1.0, busy=[(1, "ethernet", 0.9), (2, "nvlink", 0.5)]
            )
        )
        assert rec.top_links() == [
            (1, "ethernet", 0.9),
            (2, "nvlink", 0.5),
        ]


class TestPolicyFlips:
    def test_flip_detected_on_dominant_change(self):
        rec = FlightRecorder()
        rec.record(make_sample(0.0, selections=(0, 0)))
        rec.record(make_sample(1.0, selections=(5, 0)))  # ring dominant
        rec.record(make_sample(2.0, selections=(6, 1)))  # still ring? no:
        # delta (1, 1): tie -> argmax picks first (ring), no flip
        rec.record(make_sample(3.0, selections=(6, 9)))  # ina takes over
        flips = rec.policy_flips()
        assert flips == [
            {"time": 3.0, "group": "0-1", "from": "ring", "to": "ina@1"}
        ]

    def test_no_flip_without_activity(self):
        rec = FlightRecorder()
        for i in range(5):
            rec.record(make_sample(float(i), selections=(4, 0)))
        assert rec.policy_flips() == []


class TestDataplaneSampling:
    def test_occupancy_tracks_table(self):
        dp = SwitchDataplane(n_slots=4, slot_elements=8)
        assert dp.occupancy() == 0.0
        dp.process_update(
            UpdatePacket(1, 0, 0, quantize(np.ones(8))), fanout=2
        )
        assert dp.occupancy() == pytest.approx(0.25)
        # second contribution completes the chunk and frees the slot
        dp.process_update(
            UpdatePacket(1, 0, 1, quantize(np.ones(8))), fanout=2
        )
        assert dp.occupancy() == 0.0

    def test_attached_counters_in_samples(self):
        rec = FlightRecorder()
        dp = SwitchDataplane(n_slots=4, slot_elements=8)
        dp.process_update(
            UpdatePacket(1, 0, 0, quantize(np.ones(8))), fanout=2
        )
        rec.attach_dataplane(7, dp)
        s = make_sample(0.0)
        s.aggregators = {sw: d.counters() for sw, d in rec._dataplanes.items()}
        rec.record(s)
        agg = rec.samples()[0].aggregators[7]
        assert agg["pending"] == 1
        assert agg["free_slots"] == 3
        assert json.loads(rec.to_jsonl())["aggregators"]["7"] == agg


@pytest.fixture(scope="module")
def recorded_run():
    """HeroServe run with recorder + SLO attached, plus its plain twin."""
    built = build_testbed()
    bank = CostModelBank(OPT_66B, {"A100": A100, "V100": V100})
    trace = generate_sharegpt_trace(RATE, DURATION, make_rng(SEED))
    system = build_system(
        HEROSERVE,
        built,
        OPT_66B,
        bank,
        SLA_TESTBED_CHATBOT,
        trace.representative_batch(8),
        arrival_rate=RATE,
    )
    observer = Observer(
        slo=SLOMonitor([SLOTarget("ttft", SLA_TESTBED_CHATBOT.ttft)]),
        recorder=FlightRecorder(),
    )
    observed = simulate_trace(
        system, trace, engine_config=EngineConfig(observer=observer)
    )
    plain = simulate_trace(system, trace)
    return built, observer, observed, plain


class TestLiveSampling:
    def test_recorder_parity_with_unobserved_run(self, recorded_run):
        _, _, observed, plain = recorded_run
        assert json.dumps(observed.summary(), sort_keys=True) == json.dumps(
            plain.summary(), sort_keys=True
        )

    def test_samples_populated(self, recorded_run):
        _, observer, _, _ = recorded_run
        rec = observer.recorder
        assert len(rec) > 10
        times = [s.time for s in rec.samples()]
        assert times == sorted(times)
        assert any(s.link_util for s in rec.samples())
        assert any(s.policy_tables for s in rec.samples())

    def test_switch_pressure_covers_ina_switches(
        self, recorded_run
    ):
        built, observer, _, _ = recorded_run
        ina = set(built.ina_capable_switches())
        sampled = {
            sw
            for s in observer.recorder.samples()
            for sw in s.switch_pressure
        }
        assert sampled == ina
        for s in observer.recorder.samples():
            for mean_u, max_u in s.switch_pressure.values():
                assert 0.0 <= mean_u <= max_u

    def test_jsonl_round_trip(self, recorded_run, tmp_path):
        _, observer, _, _ = recorded_run
        path = tmp_path / "flight.jsonl"
        observer.recorder.write_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == len(observer.recorder)
        first = json.loads(lines[0])
        assert {
            "time",
            "prefill_queue",
            "link_util",
            "policy_tables",
            "switch_pressure",
        } <= set(first)


class TestLinkGaugeThreshold:
    def test_quiet_links_suppressed(self, recorded_run):
        built, _, _, _ = recorded_run
        from repro.network.linkstate import LinkLoadTracker

        ls = LinkLoadTracker(built.topology)
        # one clearly busy link, everything else idle
        busy_id = int(np.argmax(ls.capacity))
        ls.register([busy_id], 0.5 * float(ls.capacity[busy_id]))
        obs = Observer()
        obs.emit(SampleLinks(0.0, ls))
        gauge = obs.metrics.get("repro_link_utilization")
        exported = {dict(k)["link"] for k in gauge._values}
        assert exported == {str(busy_id)}

    def test_threshold_boundary(self, recorded_run):
        built, _, _, _ = recorded_run
        from repro.network.linkstate import LinkLoadTracker

        ls = LinkLoadTracker(built.topology)
        lid = int(np.argmax(ls.capacity))
        # just below the export threshold: nothing exported
        ls.register(
            [lid], 0.5 * LINK_GAUGE_MIN_UTIL * float(ls.capacity[lid])
        )
        obs = Observer()
        obs.emit(SampleLinks(0.0, ls))
        assert not obs.metrics.get("repro_link_utilization")._values


class TestEventLog:
    def test_log_event_and_filter(self):
        rec = FlightRecorder(capacity=8)
        rec.log_event(1.0, "fault_injected", kind="switch_down", target=0)
        rec.log_event(2.0, "failover", group="0-1", direction="ina->ring")
        assert rec.events_total == 2
        assert len(rec.events()) == 2
        assert rec.events("failover")[0]["direction"] == "ina->ring"
        assert rec.events("nothing") == []

    def test_events_ring_bounded(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.log_event(float(i), "fault_injected")
        assert len(rec.events()) == 4
        assert rec.events_total == 10

    def test_jsonl_interleaves_time_ordered(self):
        rec = FlightRecorder(capacity=8)
        rec.record(make_sample(1.0))
        rec.log_event(1.5, "failover", group="0-1", direction="ina->ring")
        rec.record(make_sample(2.0))
        rows = [json.loads(line) for line in rec.to_jsonl().splitlines()]
        assert [r["time"] for r in rows] == [1.0, 1.5, 2.0]
        assert "event" not in rows[0]
        assert rows[1]["event"] == "failover"

    def test_jsonl_without_events_unchanged(self):
        rec = FlightRecorder(capacity=8)
        rec.record(make_sample(1.0))
        with_events = FlightRecorder(capacity=8)
        with_events.record(make_sample(1.0))
        assert rec.to_jsonl() == with_events.to_jsonl()
