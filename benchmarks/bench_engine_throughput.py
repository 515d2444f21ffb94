"""Engine throughput — the simulator's own hot-path baseline.

Unlike the ``bench_fig*`` benches (which reproduce the *paper's*
numbers), this one measures the *reproduction*: how many requests per
host wall-clock second the discrete-event engine simulates, and where
its Python time goes (event-queue handlers by tag, batch formation,
link-load bookkeeping, controller ticks). The measurement harness is the
one host-time profiler, :class:`repro.obs.PhaseProfiler`, attached as
the ``profiler`` of an otherwise disabled
:class:`~repro.obs.NullObserver`, so the simulated *results* stay
byte-identical to an unobserved run and the throughput number prices
the simulator, not the telemetry. The profiler records the event loop
as the ``engine.run`` section plus ``engine.requests_finished`` /
``engine.events_fired`` counters; requests/sec and events/sec are
derived from those here.

Results land in ``engine_throughput.txt`` (tables) and
``BENCH_engine.json`` (the machine-readable perf baseline the CI
perf-smoke job gates on: a >25 % drop in requests-simulated/sec on
either topology fails the build). The ROADMAP's engine-vectorization
work is measured against this file.
"""

import pytest

from repro.core import SLA_SIM_CHATBOT, SLA_TESTBED_CHATBOT
from repro.baselines import HEROSERVE, build_system, simulate_trace
from repro.llm import OPT_66B, OPT_175B
from repro.network import build_testbed, build_xtracks_cluster
from repro.obs import NullObserver, PhaseProfiler
from repro.serving import EngineConfig

from common import (
    BENCH_SEED,
    CLUSTER_PARALLEL,
    TESTBED_PARALLEL,
    chatbot_trace,
    check_stable_hashing,
    make_cluster_bank,
    make_testbed_bank,
    save_json,
    save_result,
)
from repro.util.tables import format_table

#: Simulated seconds per setting — long enough that per-run fixed costs
#: (planning happens outside the profiled window) don't dominate and the
#: wall-clock window is wide enough for a stable req/s reading.
DURATION = 60.0

SETTINGS = {
    "testbed OPT-66B": dict(
        builder=lambda: build_testbed(),
        model=OPT_66B,
        bank=make_testbed_bank,
        sla=SLA_TESTBED_CHATBOT,
        parallel=TESTBED_PARALLEL,
        rate=1.0,
    ),
    "2tracks OPT-175B": dict(
        builder=lambda: build_xtracks_cluster(2, n_units=1),
        model=OPT_175B,
        bank=make_cluster_bank,
        sla=SLA_SIM_CHATBOT,
        parallel=CLUSTER_PARALLEL,
        rate=1.2,
    ),
}


def profile_setting(spec: dict) -> dict:
    """One profiled HeroServe run; returns its throughput and tables."""
    built = spec["builder"]()
    trace = chatbot_trace(spec["rate"], DURATION, seed=BENCH_SEED)
    system = build_system(
        HEROSERVE,
        built,
        spec["model"],
        spec["bank"](spec["model"]),
        spec["sla"],
        trace.representative_batch(8),
        arrival_rate=spec["rate"],
        forced_parallel=spec["parallel"],
    )
    observer = NullObserver()
    observer.profiler = profiler = PhaseProfiler()
    metrics = simulate_trace(
        system, trace, engine_config=EngineConfig(observer=observer)
    )
    snap = profiler.snapshot()
    sections = snap["phases"]
    wall_s = sections.pop("engine.run")["total_s"]
    requests = snap["counters"]["engine.requests_finished"]
    events = snap["counters"]["engine.events_fired"]
    return {
        "wall_s": wall_s,
        "requests_finished": requests,
        "events_fired": events,
        "requests_per_s": requests / wall_s,
        "events_per_s": events / wall_s,
        "sections": sections,
        "event_handlers": snap["handlers"],
        "sim_finished": metrics.n_finished,
        "report": profiler.report("engine self-profile"),
    }


def run_engine_profile() -> dict[str, dict]:
    check_stable_hashing()
    return {
        label: profile_setting(spec)
        for label, spec in SETTINGS.items()
    }


def baseline_payload(snaps: dict[str, dict]) -> dict:
    """The BENCH_engine.json structure (see docs/PERFORMANCE.md).

    ``requests_per_s`` is the gated number; section/handler tables are
    recorded so a regression can be attributed without re-profiling.
    """
    settings = {}
    for label, snap in snaps.items():
        settings[label] = {
            "requests_per_s": round(snap["requests_per_s"], 1),
            "events_per_s": round(snap["events_per_s"], 1),
            "wall_s": round(snap["wall_s"], 4),
            "requests_finished": snap["requests_finished"],
            "events_fired": snap["events_fired"],
            "sections_ms": {
                name: round(row["total_s"] * 1e3, 3)
                for name, row in snap["sections"].items()
            },
            "event_handlers_ms": {
                name: round(row["total_s"] * 1e3, 3)
                for name, row in snap["event_handlers"].items()
            },
        }
    return {
        "seed": BENCH_SEED,
        "duration_s": DURATION,
        "settings": settings,
    }


@pytest.mark.benchmark(group="engine")
def test_engine_throughput(benchmark):
    snaps = benchmark.pedantic(
        run_engine_profile, rounds=1, iterations=1
    )
    rows = []
    for label, snap in snaps.items():
        rows.append(
            [
                label,
                str(snap["requests_finished"]),
                str(snap["events_fired"]),
                f"{snap['wall_s']:.3f}",
                f"{snap['requests_per_s']:.0f}",
                f"{snap['events_per_s']:.0f}",
            ]
        )
    table = format_table(
        ["setting", "requests", "events", "wall s", "req/s", "ev/s"],
        rows,
        title=(
            "Engine throughput: requests simulated per host wall-clock "
            "second (profile-only NullObserver — results byte-identical "
            "to an unobserved run)"
        ),
    )
    reports = "\n\n".join(snap["report"] for snap in snaps.values())
    print("\n" + table)
    print("\n" + reports)
    save_result("engine_throughput", table + "\n\n" + reports)
    save_json("BENCH_engine", baseline_payload(snaps))

    for label, snap in snaps.items():
        assert snap["requests_finished"] > 0, label
        assert snap["requests_per_s"] > 0, label
        assert snap["requests_finished"] == snap["sim_finished"], label
        # The hot-path sections must all have been exercised.
        for section in (
            "engine.batch_formation",
            "engine.link_load",
            "engine.controller_tick",
        ):
            assert section in snap["sections"], (label, section)
        assert snap["event_handlers"], label
        # Handler time is a subset of the bracketing run wall-clock.
        handler_s = sum(
            row["total_s"] for row in snap["event_handlers"].values()
        )
        assert handler_s <= snap["wall_s"] * 1.05, (
            label,
            handler_s,
            snap["wall_s"],
        )
