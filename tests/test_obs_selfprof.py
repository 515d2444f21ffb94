"""Simulator self-profile through the one host-time profiler.

The BENCH_engine measurement harness is :class:`PhaseProfiler` reached
through ``observer.profiler``: engine/controller sections, per-event-tag
handler times and run totals, in the same ledger as the planner phases.
The load-bearing property is *non-interference* — a profile-only run (an
``Observer.silent`` carrying a live profiler) must produce a
byte-identical ``summary()`` to an unobserved run, because the profiler
only times code, it never participates in simulation decisions.
"""

from __future__ import annotations

import json


from repro import (
    HEROSERVE,
    OPT_66B,
    SLA_TESTBED_CHATBOT,
    CostModelBank,
    build_testbed,
    generate_sharegpt_trace,
    quick_testbed,
    simulate_trace,
)
from repro.baselines import ServingSystem
from repro.comm import CommContext, SchemeKind
from repro.core.planner import OfflinePlanner
from repro.llm import A100, V100
from repro.obs import NULL_OBSERVER, Observer, PhaseProfiler
from repro.serving import EngineConfig
from repro.sim.eventqueue import EventQueue
from repro.util.rng import make_rng

ENGINE_SECTIONS = (
    "engine.batch_formation",
    "engine.link_load",
    "engine.controller_tick",
    "controller.poll",
    "controller.refresh",
)


def profile_only_observer() -> Observer:
    return Observer.silent(profiler=PhaseProfiler())


def profiled_testbed_run(duration: float = 20.0):
    observer = profile_only_observer()
    _, metrics = quick_testbed(
        rate=1.0,
        duration=duration,
        seed=0,
        engine_config=EngineConfig(observer=observer),
    )
    return observer.profiler, metrics


class TestEventQueueProfiling:
    def test_handler_time_by_tag(self):
        q = EventQueue()
        fired = []
        q.schedule(0.1, fired.append, "a", tag="alpha")
        q.schedule(0.2, fired.append, "b", tag="alpha")
        q.schedule(0.3, fired.append, "c")  # untagged
        p = PhaseProfiler()
        q.run(profiler=p)
        assert fired == ["a", "b", "c"]
        handlers = p.handlers()
        assert handlers["alpha"].count == 2
        assert handlers["untagged"].count == 1
        assert all(stat.total >= 0.0 for stat in handlers.values())
        assert p.breakdown() == {}  # handler time is its own table

    def test_no_profiler_records_nothing(self):
        q = EventQueue()
        q.schedule(0.1, lambda: None, tag="alpha")
        q.run()
        assert q.events_fired == 1


class TestEngineIntegration:
    def test_hot_path_sections_populated(self):
        p, metrics = profiled_testbed_run()
        assert metrics.n_finished > 0
        sections = p.breakdown()
        for section in ENGINE_SECTIONS:
            assert section in sections, section
        handlers = p.handlers()
        for tag in ("arrival", "prefill_done", "decode_iter"):
            assert tag in handlers, tag

    def test_run_totals_recorded(self):
        """The event loop is one ``engine.run`` section plus two run
        counters — what BENCH_engine derives its rates from."""
        p, metrics = profiled_testbed_run()
        run = p.breakdown()["engine.run"]
        assert run.count == 1
        counters = p.counters()
        assert counters["engine.requests_finished"] == metrics.n_finished
        assert counters["engine.events_fired"] > metrics.n_finished
        # Link-tracker work: a drained fault-free run released every
        # handle it registered, one tracker write each way.
        assert counters["network.registrations"] > 0
        assert counters["network.writes"] == 2 * counters["network.registrations"]
        # Handler time is a subset of the bracketing run wall-clock.
        handler_s = sum(stat.total for stat in p.handlers().values())
        assert 0.0 < handler_s <= run.total

    def test_profiled_run_byte_identical(self):
        """The throughput number prices the simulator, not telemetry —
        and the profiler must not perturb the simulation at all."""
        _, profiled = profiled_testbed_run()
        _, plain = quick_testbed(rate=1.0, duration=20.0, seed=0)
        assert json.dumps(
            profiled.summary(), sort_keys=True
        ) == json.dumps(plain.summary(), sort_keys=True)

    def test_full_observer_profiles_plan_and_engine(self):
        """One ledger: planning and simulating under
        ``Observer(profiler=p)`` leaves planner phases, engine sections
        and handler tags all in ``p``."""
        p = PhaseProfiler()
        observer = Observer(profiler=p)
        built = build_testbed()
        bank = CostModelBank(OPT_66B, {"A100": A100, "V100": V100})
        ctx = CommContext.from_built(built, heterogeneous=True)
        trace = generate_sharegpt_trace(1.0, 15.0, make_rng(0))
        report = OfflinePlanner(
            ctx,
            OPT_66B,
            bank,
            SLA_TESTBED_CHATBOT,
            SchemeKind.HYBRID,
            observer=observer,
        ).plan(trace.representative_batch(8), arrival_rate=1.0)
        system = ServingSystem(
            spec=HEROSERVE,
            built=built,
            model=OPT_66B,
            bank=bank,
            sla=SLA_TESTBED_CHATBOT,
            plan=report.plan,
            plan_ctx=ctx,
        )
        metrics = simulate_trace(
            system, trace, engine_config=EngineConfig(observer=observer)
        )
        assert metrics.n_finished > 0
        sections = p.breakdown()
        for name in (
            "planner.candidates",
            "planner.objective",
            "grouping.kmeans",
            *ENGINE_SECTIONS,
        ):
            assert name in sections, name
        assert "decode_iter" in p.handlers()
        assert p.counters()["engine.requests_finished"] == metrics.n_finished


class TestSnapshotReportRoundTrip:
    """The snapshot feeds the bench file — it must survive JSON, and the
    human-readable report must cover everything in it."""

    def populated(self) -> PhaseProfiler:
        return profiled_testbed_run(duration=15.0)[0]

    def test_snapshot_survives_json(self):
        snap = self.populated().snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_report_names_every_snapshot_entry(self):
        p = self.populated()
        snap = p.snapshot()
        text = p.report()
        for table in ("phases", "handlers", "counters"):
            assert snap[table], table
            for name in snap[table]:
                assert name in text, name


class TestObserverHookParity:
    """A profile-only run is an observer with no subscribers and a live
    profiler: the engine times itself but builds no event."""

    def test_profile_only_observer_is_a_null_observer(self):
        obs = profile_only_observer()
        assert obs.active is False  # engine builds no event
        assert obs.profiler.enabled is True
        # the shared default is untouched
        assert NULL_OBSERVER.active is False
        assert NULL_OBSERVER.profiler.enabled is False
        assert Observer.silent().profiler is NULL_OBSERVER.profiler
